//! The daemon: one engine thread, one session per connection.
//!
//! ## Threading model
//!
//! ```text
//!                 ┌───────────────┐
//!   conn A ──────▶│ reader thread │──┐ try_send          ┌───────────────┐
//!           ◀─────│ writer thread │◀─┼──── reply slots ──│ engine thread │
//!                 └───────────────┘  │  bounded mpsc     │ (owns the     │
//!                 ┌───────────────┐  ├──────────────────▶│  durable      │
//!   conn B ──────▶│ reader thread │──┘                   │  engine +     │
//!           ◀─────│ writer thread │◀───────── events ────│  subscribers) │
//!                 └───────────────┘                      └───────────────┘
//! ```
//!
//! * **One engine thread** owns the [`DurableRuleEngine`]; every
//!   mutation flows through a single bounded `mpsc` queue, so WAL
//!   ordering stays exactly as serial as the in-process engine. A
//!   decoded `Record` goes to [`DurableRuleEngine::apply`] as it
//!   arrived — the function WAL replay runs too. This module names no
//!   record kind and decides nothing about what one does; it shapes the
//!   reply from the [`Applied`] outcome.
//! * **Group commit.** Each wake-up of the engine thread serves one
//!   *group*: the message that woke it plus what was already queued
//!   behind it, with no timer and no added wait. Every request keeps its
//!   own WAL record, sequence number and reply, but
//!   `SyncPolicy::Always`'s per-record `fdatasync` is deferred
//!   ([`DurableRuleEngine::group`]): **one** covers the group, and a lone
//!   request still costs exactly one sync. What may leave when, and in
//!   which order, is the `commit` module's: a sans-IO core that holds six
//!   rules (request order, nothing before the sync, a failed sync
//!   acknowledges nothing, a group closed to later arrivals, counted lag,
//!   a panic answers everyone) and a test that checks them over every
//!   interleaving of small scripts. This module is its shell: it owns the
//!   engine, the channels, the clocks and the tracer, and feeds the core
//!   what happened.
//! * **One socket per session, closed when the session ends.** The
//!   accepted stream is one `Arc<TcpStream>` that the session's reader
//!   reads through and its writer writes through; the accept thread
//!   keeps only a `Weak` to it, so a finished session's descriptor
//!   closes when its two threads end, not at the next accept.
//! * **Sessions end because they are closed, not because they poll.**
//!   When the accept thread leaves its loop — woken by
//!   [`ServerHandle::shutdown`] or by a dead engine thread — it shuts
//!   the read half of every live session's socket: an idle reader wakes
//!   at once with EOF, a writer still flushes the replies to the
//!   requests already taken, and a reader whose client never stops
//!   sending ends at its next frame, where it checks the stop flag.
//!   Session threads are detached; the engine thread is the barrier.
//!   It blocks in `recv` and returns once the accept thread and every
//!   reader have dropped their senders, and a reader drops its sender
//!   last, after joining its writer and dropping its socket. So when
//!   the engine thread ends, every request handed to it is answered,
//!   every reply is flushed and every session's socket is closed.
//! * **A dead engine thread is a dead server, not a silent one.** The
//!   stop flag goes up, the listener closes and its sessions with it,
//!   and the core answers everything with [`Reply::Err`];
//!   `server_engine_dead_total` counts it and [`ServerHandle::shutdown`]
//!   returns `None`.
//! * **One reader thread per connection** parses frames and forwards
//!   them to the engine queue with `try_send`: a full queue produces an
//!   immediate [`Reply::Busy`] instead of unbounded buffering — that is
//!   the backpressure contract.
//! * **One writer thread per connection** writes the replies.
//!   The reader queues a *reply slot* per request onto the writer's
//!   bounded slot queue **in request order**: a reply already in hand
//!   (`Pong`) rides the slot itself; otherwise the slot is the receiving
//!   end of a oneshot channel that the engine (or the reader, for
//!   `Busy`) fulfils later. The writer emits replies strictly in slot
//!   order, so replies can never be lost or reordered by construction.
//!   The slot queue's bound caps per-connection pipelining: a client
//!   that keeps sending past it blocks in TCP, which is backpressure too.
//! * **Subscriptions** ride the same slot queues: at release the core
//!   pushes [`Reply::Event`] frames as ready slots. Events to a
//!   connection whose queue is full are *dropped and counted*; the next
//!   event that fits is preceded by a [`Reply::Lagged`] frame carrying
//!   the drop count — a slow subscriber can stall its own stream, never
//!   the engine.
//! * **One stage record per request.** Each request carries a
//!   [`Receipt`] from the frame's decode to the flush that sends its
//!   reply: the reader laps `decode`, the engine thread `queue`, the
//!   durable engine's record of the op (`wal`, the rule engine's
//!   stages, `snapshot`) plus `other`, and `group_wait` at release;
//!   the writer laps `handoff` and, at the flush, `write`, and closes
//!   the record into `server_request_nanos`, under the profiler into
//!   `server_stage_nanos` and the slow-op ring, and under the tracer
//!   into a `server_request` event whose children are the server's
//!   five stages and one `engine` child for the rest. The clock runs
//!   only under the profiler or the tracer.

use crate::commit::{Change, Core};
use crate::metrics::ServerMetrics;
use crate::proto::{op_index, read_frame, FireSummary, Reply, Request, OP_NAMES};
use durable::{Applied, DurableError, DurableRuleEngine, Record, SyncPolicy};
use rules::FireReport;
use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{wake_addr, ArgValue, Args, Stage, StageClock};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Engine-queue bound: requests beyond this many in flight get
    /// [`Reply::Busy`].
    pub queue_cap: usize,
    /// Per-connection reply-slot bound — the maximum pipelining depth;
    /// past it the reader stops reading and TCP pushes back.
    pub pipeline_cap: usize,
    /// Write timeout per reply frame; a client that stops draining for
    /// this long gets its connection dropped.
    pub write_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            queue_cap: 1024,
            pipeline_cap: 4096,
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// What a slot carries: a reply, with the receipt of the request it
/// answers (a pushed event answers none).
type Answer = (Reply, Option<Receipt>);
/// One place in a connection's reply order. A reply in hand when its
/// place is queued — a `Pong`, a pushed frame — crosses as it is (boxed:
/// the queue allocates its whole bound up front); one the engine or a
/// `Busy` bounce gives later waits on a oneshot channel.
enum Slot {
    Ready(Box<Answer>),
    Pending(Receiver<Answer>),
}
/// The writer-side queue of slots to drain, in reply order.
type SlotQueue = SyncSender<Slot>;

/// A request crossing from a session reader into the engine thread.
struct Queued {
    kind: Kind,
    ticket: Ticket,
}

/// What the writer needs to close a request's record once its reply
/// is flushed.
struct Receipt {
    /// The metric and trace label's index into [`OP_NAMES`].
    op: usize,
    /// The client's optional trace id, stamped onto the
    /// `server_request` event and the slow-op log.
    trace: Option<u64>,
    /// When the frame was read: where `server_request_nanos` starts.
    started: Instant,
    /// The request's stages so far, from `started` on.
    clock: StageClock,
}

/// What answering a request takes, whatever its kind.
struct Ticket {
    slot: SyncSender<Answer>,
    receipt: Receipt,
}

impl Ticket {
    /// Hands `reply` to the connection's writer, in the request's
    /// place in the reply order.
    fn answer(self, reply: Reply) {
        let _ = self.slot.send((reply, Some(self.receipt)));
    }
}

enum Kind {
    Apply(Record),
    /// A subscribe or an unsubscribe, for the core to release.
    Change(Change<SlotQueue>),
    Health,
    Sync,
}

// A request carries its stage record inline (~200 bytes), so a running
// clock allocates nothing; the rare hangup does not need the room.
#[allow(clippy::large_enum_variant)]
enum EngineMsg {
    Request(Queued),
    /// Session ended: forget its subscription.
    Hangup {
        conn: u64,
    },
}

/// A running rule server.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    /// Yields `None` if the engine thread died.
    engine: Option<JoinHandle<Option<DurableRuleEngine>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, closes the read half of every
    /// session, answers every request a session handed over, and hands
    /// the durable engine back (`None` only if the engine thread
    /// panicked). It waits on the engine thread alone, which ends only
    /// after every session has flushed its replies and closed its
    /// socket.
    pub fn shutdown(mut self) -> Option<DurableRuleEngine> {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept; wildcard binds dial loopback.
        let _ = TcpStream::connect(wake_addr(self.addr));
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        self.engine.take().and_then(|t| t.join().ok()).flatten()
    }
}

/// Binds `bind` (e.g. `"127.0.0.1:7878"`, or port `0` for ephemeral)
/// and serves the wire protocol over `engine` until
/// [`ServerHandle::shutdown`]. Metrics are recorded into the registry
/// the engine was opened with (disabled registry = one branch per
/// site).
pub fn serve(
    bind: &str,
    engine: DurableRuleEngine,
    opts: ServerOptions,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(ServerMetrics::new(engine.telemetry()));
    let depth = Arc::new(AtomicU64::new(0));

    let (engine_tx, engine_rx) = mpsc::sync_channel::<EngineMsg>(opts.queue_cap.max(1));
    let engine_thread = {
        let stop = Arc::clone(&stop);
        let metrics = Arc::clone(&metrics);
        let depth = Arc::clone(&depth);
        std::thread::Builder::new()
            .name("ruleserv-engine".into())
            .spawn(move || engine_loop(engine, &engine_rx, &stop, &metrics, &depth, addr))?
    };

    let accept_thread = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("ruleserv-accept".into())
            .spawn(move || {
                // Each session's socket, to close its read half at the
                // end; the session itself holds the only strong handles.
                let mut sessions: Vec<Weak<TcpStream>> = Vec::new();
                let mut next_conn: u64 = 0;
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    metrics.connections.inc();
                    let id = next_conn;
                    next_conn += 1;
                    if let Ok(session) = spawn_session(
                        id,
                        conn,
                        engine_tx.clone(),
                        Arc::clone(&stop),
                        Arc::clone(&metrics),
                        Arc::clone(&depth),
                        opts,
                    ) {
                        sessions.push(session);
                    }
                    // Ended sessions' sockets are already closed; drop
                    // their entries so the list follows the live ones.
                    sessions.retain(|s| s.strong_count() > 0);
                }
                // An idle reader wakes with EOF; a busy one sees the
                // stop flag at its next frame. The engine thread ends
                // once this `engine_tx` and every session's clone are
                // gone.
                drop(engine_tx);
                for conn in sessions.iter().filter_map(Weak::upgrade) {
                    let _ = conn.shutdown(Shutdown::Read);
                }
            })?
    };

    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept_thread),
        engine: Some(engine_thread),
    })
}

/// Spawns the detached reader and writer threads for one connection,
/// which share its socket; returns a weak handle on it. The reader
/// joins the writer, then drops the socket, then its engine sender.
fn spawn_session(
    conn_id: u64,
    conn: TcpStream,
    engine_tx: SyncSender<EngineMsg>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    depth: Arc<AtomicU64>,
    opts: ServerOptions,
) -> io::Result<Weak<TcpStream>> {
    conn.set_nodelay(true).ok();
    conn.set_write_timeout(Some(opts.write_timeout)).ok();
    let conn = Arc::new(conn);
    let session = Arc::downgrade(&conn);

    let (pipe_tx, pipe_rx) = mpsc::sync_channel::<Slot>(opts.pipeline_cap.max(1));
    let writer = {
        let conn = Arc::clone(&conn);
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name(format!("ruleserv-w{conn_id}"))
            .spawn(move || {
                writer_loop(&conn, pipe_rx, &metrics);
                // A writer that gave up (a write error or timeout) wakes
                // the reader, so the session ends even if the client
                // sends nothing more.
                let _ = conn.shutdown(Shutdown::Both);
            })?
    };

    std::thread::Builder::new()
        .name(format!("ruleserv-r{conn_id}"))
        .spawn(move || {
            reader_loop(
                conn_id, &conn, &engine_tx, &pipe_tx, &stop, &metrics, &depth,
            );
            // Session over: release the subscription (best effort; a
            // dead engine has already dropped everything).
            let _ = engine_tx.send(EngineMsg::Hangup { conn: conn_id });
            drop(pipe_tx);
            let _ = writer.join();
            // In this order: the engine thread ends after the last
            // sender, and by then this socket is closed.
            drop(conn);
            drop(engine_tx);
        })?;
    Ok(session)
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    conn_id: u64,
    mut conn: &TcpStream,
    engine_tx: &SyncSender<EngineMsg>,
    pipe_tx: &SlotQueue,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
    depth: &AtomicU64,
) {
    loop {
        // Closing the read half wakes an idle reader with EOF, but the
        // bytes a client sends after it stay readable: a client that
        // never stops sending must not be able to hold off shutdown.
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let (opcode, payload) = match read_frame(&mut conn) {
            Ok(Some(frame)) => frame,
            // Clean close, torn frame, or corruption all end the
            // session; there is no way to resynchronise a byte stream.
            Ok(None) | Err(_) => return,
        };
        let started = Instant::now();
        let mut clock = match metrics.telemetry.times_stages() {
            true => StageClock::start_at(started),
            false => StageClock::default(),
        };
        metrics.bytes_in.add(8 + 1 + payload.len() as u64);
        let (request, trace) = match Request::decode_traced(opcode, &payload) {
            Ok(r) => r,
            Err(_) => return,
        };
        clock.lap(Stage::Decode);
        let receipt = Receipt {
            op: op_index(&request),
            trace,
            started,
            clock,
        };
        let kind = match request {
            Request::Ping => {
                // Answered here: liveness of the session must not
                // depend on engine-queue headroom.
                let pong = Slot::Ready(Box::new((Reply::Pong, Some(receipt))));
                match pipe_tx.send(pong) {
                    Ok(()) => continue,
                    Err(_) => return, // writer died (socket error)
                }
            }
            Request::Apply(record) => Kind::Apply(record),
            Request::Subscribe => Kind::Change(Change::Subscribe(conn_id, pipe_tx.clone())),
            Request::Unsubscribe => Kind::Change(Change::Forget(conn_id)),
            Request::Health => Kind::Health,
            Request::Sync => Kind::Sync,
        };
        // Reply slot first, *then* the engine handoff: the slot queue
        // is what fixes reply order, so it must observe requests in
        // arrival order before anyone can fulfil them.
        // Oneshot: exactly one reply ever crosses a slot, so the
        // bound of 1 means the fulfilling side never blocks.
        let (slot, slot_rx) = mpsc::sync_channel::<Answer>(1);
        if pipe_tx.send(Slot::Pending(slot_rx)).is_err() {
            return; // writer died (socket error)
        }
        let ticket = Ticket { slot, receipt };
        let msg = EngineMsg::Request(Queued { kind, ticket });
        // Count the message before handing it over: the engine thread
        // decrements after processing, and may get there before a
        // post-send increment would run (which would wrap below zero).
        let d = depth.fetch_add(1, Ordering::Relaxed) + 1;
        match engine_tx.try_send(msg) {
            Ok(()) => {
                metrics.queue_depth.record(d);
            }
            Err(TrySendError::Full(EngineMsg::Request(bounced))) => {
                depth.fetch_sub(1, Ordering::Relaxed);
                // The backpressure contract: an explicit Busy now, not
                // an unbounded buffer. The slot is already queued, so
                // the reply still lands in request order.
                metrics.busy.inc();
                bounced.ticket.answer(Reply::Busy);
            }
            // The engine is gone.
            Err(_) => {
                depth.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// The writer: drain slots in order, batch flushes. Exits when every
/// slot producer (reader + engine subscription) is gone or the socket
/// fails.
fn writer_loop(conn: &TcpStream, pipe_rx: Receiver<Slot>, metrics: &ServerMetrics) {
    let mut out = BufWriter::with_capacity(64 * 1024, conn);
    // The receipts of the replies written since the last flush.
    let mut written: Vec<Receipt> = Vec::new();
    loop {
        // Prefer the non-blocking path so consecutive ready replies
        // share one flush; block (after flushing) only when idle.
        let slot = match pipe_rx.try_recv() {
            Ok(slot) => slot,
            Err(mpsc::TryRecvError::Empty) => {
                if out.flush().is_err() {
                    return;
                }
                close(&mut written, metrics);
                match pipe_rx.recv() {
                    Ok(slot) => slot,
                    Err(_) => return,
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => {
                if out.flush().is_ok() {
                    close(&mut written, metrics);
                }
                return;
            }
        };
        let (reply, mut receipt) = match slot {
            Slot::Ready(answer) => *answer,
            Slot::Pending(rx) => match rx.recv() {
                Ok(answer) => answer,
                // A dropped sender (a reader that found the engine
                // gone) skips the slot; the connection is going down
                // anyway.
                Err(_) => continue,
            },
        };
        if let Some(receipt) = receipt.as_mut() {
            receipt.clock.lap(Stage::Handoff);
        }
        let (opcode, payload) = reply.encode();
        metrics.bytes_out.add(8 + 1 + payload.len() as u64);
        if crate::proto::write_frame(&mut out, opcode, &payload).is_err() {
            return;
        }
        written.extend(receipt);
    }
}

/// The stages the server itself laps; the rest of a request's record
/// is the engine's, and its trace shows them as one `engine` child.
const SERVER_STAGES: [Stage; 5] = [
    Stage::Decode,
    Stage::Queue,
    Stage::GroupWait,
    Stage::Handoff,
    Stage::Write,
];

/// Closes the records of the replies a flush just sent, at one clock
/// reading: the rest of each is `write`. The latency each observes in
/// `server_request_nanos` is its record's total when the clock ran,
/// and the `server_request` event it leaves in the trace spans the
/// same total.
fn close(written: &mut Vec<Receipt>, metrics: &ServerMetrics) {
    if written.is_empty() {
        return;
    }
    let flushed = Instant::now();
    for mut receipt in written.drain(..) {
        let clock = &mut receipt.clock;
        clock.lap_at(Stage::Write, flushed);
        if clock.is_on() {
            let record = clock.record();
            metrics.record_op(receipt.op, record.total());
            metrics.record_stages(record);
            let op = OP_NAMES[receipt.op];
            let (profiler, tracer) = (metrics.telemetry.profiler(), metrics.telemetry.tracer());
            profiler.record_request(op, receipt.trace, record);
            let args = Args::NONE.with("op", ArgValue::Label(op));
            let args = receipt
                .trace
                .map_or(args, |id| args.with("trace", ArgValue::Num(id)));
            tracer.record("server_request", clock, &SERVER_STAGES, args);
        } else {
            let nanos = telemetry::nanos(flushed.duration_since(receipt.started));
            metrics.record_op(receipt.op, nanos);
        }
    }
}

/// Serves groups until the accept thread and every session have
/// dropped their senders, then hands the engine back: every request
/// handed over is answered. If a group panics, the engine's state is
/// unknown from then on, so it is dropped, never touched again: the
/// stop flag goes up, the blocking accept is woken so the listener and
/// its sessions close, and the core answers what it took, then every
/// request queued or still handed over, with
/// [`ENGINE_DEAD`](crate::commit::ENGINE_DEAD) — until the last session
/// is gone; then `None`.
fn engine_loop(
    mut engine: DurableRuleEngine,
    rx: &Receiver<EngineMsg>,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
    depth: &AtomicU64,
    addr: SocketAddr,
) -> Option<DurableRuleEngine> {
    let mut core = Core::default();
    let served = catch_unwind(AssertUnwindSafe(|| {
        while let Ok(first) = rx.recv() {
            let mut first = Some(first);
            // Group commit: `first` and what was queued behind it run
            // back to back, each request its own WAL record, sequence
            // number and reply; one `fdatasync` covers them all, and only
            // then does the core let anything leave.
            core.open(depth.load(Ordering::Relaxed));
            let synced = engine.group(|engine| {
                while let Some(msg) = core.pull(|| first.take().or_else(|| rx.try_recv().ok())) {
                    if let Some(kind) = take(&mut core, msg, depth) {
                        run(&mut core, engine, kind);
                    }
                }
            });
            release(&mut core, &engine, synced.err(), metrics);
        }
    }));
    if served.is_ok() {
        return Some(engine);
    }
    metrics.engine_dead.inc();
    stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(wake_addr(addr));
    loop {
        core.abandon(|ticket, reply| ticket.answer(reply));
        let msg = core.pull(|| rx.recv().ok())?;
        take(&mut core, msg, depth);
    }
}

/// Hands a message to the core — a request's ticket, counted out of
/// `depth`, or a hangup — and returns what the engine is to run.
fn take(core: &mut Core<Ticket, SlotQueue>, msg: EngineMsg, depth: &AtomicU64) -> Option<Kind> {
    let Queued { kind, mut ticket } = match msg {
        EngineMsg::Request(queued) => queued,
        EngineMsg::Hangup { conn } => {
            core.hangup(conn);
            return None;
        }
    };
    ticket.receipt.clock.lap(Stage::Queue);
    depth.fetch_sub(1, Ordering::Relaxed);
    core.take(ticket);
    Some(kind)
}

/// Runs the request the core took last against the engine and settles
/// its outcome there. The run is `other`, but for an applied record's
/// own stages and a sync's `wal`.
fn run(core: &mut Core<Ticket, SlotQueue>, engine: &mut DurableRuleEngine, kind: Kind) {
    let quiet = || Change::Fired(FireReport::default());
    let (reply, stage, change) = match kind {
        Kind::Apply(record) => {
            let next = engine.next_seq();
            let (reply, report) = shape(engine.apply(record), next);
            // A request refused before logging acknowledges no
            // sequence number.
            let seq = (engine.next_seq() > next).then_some(next);
            let clock = &mut core.settle(reply, seq, Change::Fired(report)).receipt.clock;
            clock.enclose(Stage::Other, engine.last_record());
            return;
        }
        Kind::Change(change) => (Reply::Unit, Stage::Other, change),
        Kind::Health => (Reply::Health(engine.health_text()), Stage::Other, quiet()),
        Kind::Sync => {
            let reply = engine
                .sync()
                .map_or_else(|e| Reply::Err(e.to_string()), |()| Reply::Unit);
            (reply, Stage::Wal, quiet())
        }
    };
    core.settle(reply, None, change).receipt.clock.lap(stage);
}

/// Releases the group once its sync has returned: records its size and
/// a `commit_release` instant carrying the highest sequence number it
/// acknowledges, then lets the core answer and push. Every push that
/// does not fit drops one event, so each counts in
/// `server_events_dropped_total`.
fn release(
    core: &mut Core<Ticket, SlotQueue>,
    engine: &DurableRuleEngine,
    failure: Option<DurableError>,
    metrics: &ServerMetrics,
) {
    let failure = failure.map(|e| e.to_string());
    let (released, high) = core.acks();
    let high = high.filter(|_| failure.is_none());
    if released > 0 {
        debug_assert!(
            engine.sync_policy() != SyncPolicy::Always || high <= Some(engine.durable_seq()),
            "releasing sequence {high:?}, durable up to {}",
            engine.durable_seq()
        );
        metrics.group_size.record(released);
        let args = Args::from([("size", released)]);
        let args = high.map_or(args, |seq| args.with("seq", ArgValue::Num(seq)));
        metrics.telemetry.tracer().mark("commit_release", args);
    }
    let push = |pipe: &SlotQueue, frame| {
        let fits = pipe.try_send(Slot::Ready(Box::new((frame, None)))).is_ok();
        if !fits {
            metrics.events_dropped.inc();
        }
        fits
    };
    core.close(failure.as_deref(), push, |mut ticket, reply| {
        ticket.receipt.clock.lap(Stage::GroupWait);
        ticket.answer(reply);
    });
}

/// Shapes the reply to one applied record, and hands back its report
/// for the subscription events its firings may become. What the record
/// *did* is [`DurableRuleEngine::apply`]'s business; this only reads
/// the outcome.
fn shape(outcome: Result<Applied, DurableError>, seq: u64) -> (Reply, FireReport) {
    let report = match outcome {
        Ok(Applied::Fired(report)) => report,
        Ok(Applied::RuleAdded(id)) => return (Reply::RuleId(id.0), FireReport::default()),
        Ok(Applied::Created | Applied::Dropped(_) | Applied::RuleRemoved(_)) => {
            return (Reply::Unit, FireReport::default())
        }
        Err(e) => return (Reply::Err(e.to_string()), FireReport::default()),
    };
    let reply = Reply::Fire(FireSummary {
        seq,
        ops_applied: report.ops_applied as u64,
        fired: report
            .fired
            .iter()
            .map(|(id, name)| (id.0, name.to_string()))
            .collect(),
    });
    (reply, report)
}
