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
//!   behind it — at most the count queued when the group opened, so
//!   no client can keep a group open; no timer, no added wait. Every
//!   request keeps its own WAL record, sequence number and reply, but
//!   `SyncPolicy::Always`'s per-record `fdatasync` is deferred
//!   ([`DurableRuleEngine::group`]): **one** covers the group, and only
//!   then are the held replies, subscription events and subscription
//!   changes released, in request order. `Always` still means *durable
//!   before acknowledged*, and a lone request still costs exactly one
//!   sync. If the group's sync fails, nothing the group logged is
//!   acknowledged — those replies become [`Reply::Err`] — and the
//!   fail-stopped log refuses every later write, while `Ping` and
//!   `Health` keep answering.
//! * **A dead engine thread is a dead server, not a silent one.** If
//!   the engine thread panics (a rule action, a broken invariant), the
//!   request it was running, everything its group held, everything
//!   queued and everything sessions still hand over is answered with
//!   [`Reply::Err`]; the stop flag goes up, so the listener closes and
//!   every session ends at its next poll. `server_engine_dead_total`
//!   counts it and [`ServerHandle::shutdown`] returns `None`.
//! * **One reader thread per connection** parses frames and forwards
//!   them to the engine queue with `try_send`: a full queue produces an
//!   immediate [`Reply::Busy`] instead of unbounded buffering — that is
//!   the backpressure contract.
//! * **One writer thread per connection** owns the socket's write half.
//!   The reader allocates a *reply slot* (a oneshot channel) per
//!   request and pushes the receiving end onto the writer's bounded
//!   slot queue **in request order**; whoever fulfils the slot (the
//!   engine for accepted requests, the reader itself for `Busy` and
//!   `Pong`), the writer emits replies strictly in that order. Replies
//!   can never be lost or reordered by construction. The slot queue's
//!   bound caps per-connection pipelining: a client that keeps sending
//!   past it blocks in TCP, which is backpressure too.
//! * **Subscriptions** ride the same slot queues: at release the
//!   engine pushes pre-fulfilled slots carrying [`Reply::Event`]
//!   frames. Events to a connection whose queue is full are *dropped
//!   and counted*; the next event that fits is preceded by a
//!   [`Reply::Lagged`] frame carrying the drop count — a slow
//!   subscriber can stall its own stream, never the engine.
//! * **One stage record per request.** Each request carries a
//!   [`Receipt`] from the frame's decode to the flush that sends its
//!   reply: the reader laps `decode`, the engine thread `queue`, the
//!   durable engine's record of the op (`wal`, the rule engine's
//!   stages, `snapshot`) plus `other`, and `group_wait` at release;
//!   the writer laps `handoff` and, at the flush, `write`, and closes
//!   the record into `server_request_nanos`, `server_stage_nanos` and
//!   the slow-op ring. The clock runs only under the profiler.

use crate::metrics::ServerMetrics;
use crate::proto::{
    op_index, read_frame, Event, EventBinding, FireSummary, Reply, Request, OP_NAMES,
};
use durable::{Applied, DurableError, DurableRuleEngine, Record, SyncPolicy};
use rules::Firing;
use std::collections::HashMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{wake_addr, Stage, StageClock, Tracer};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Engine-queue bound: requests beyond this many in flight get
    /// [`Reply::Busy`].
    pub queue_cap: usize,
    /// Per-connection reply-slot bound — the maximum pipelining depth;
    /// past it the reader stops reading and TCP pushes back.
    pub pipeline_cap: usize,
    /// Session read poll: how often an idle reader checks the stop
    /// flag (also the shutdown latency ceiling for idle connections).
    pub read_timeout: Duration,
    /// Write timeout per reply frame; a client that stops draining for
    /// this long gets its connection dropped.
    pub write_timeout: Duration,
    /// Crash harness: after this many applied operations the process
    /// aborts *after* the WAL append but *before* its group's sync and
    /// replies — the exact window recovery tests need. `None` in
    /// production.
    pub crash_after: Option<u64>,
    /// Requests whose decode-to-flush latency meets this threshold are
    /// captured in the profiler's slow-op ring, with their trace id and
    /// their stage record: nanoseconds per stage, which sum to that
    /// latency, and the work the request did. Ignored unless the engine
    /// carries an enabled [`telemetry::Profiler`]; `None` leaves the
    /// profiler's own threshold untouched.
    pub slow_op_threshold: Option<Duration>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            queue_cap: 1024,
            pipeline_cap: 4096,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(10),
            crash_after: None,
            slow_op_threshold: None,
        }
    }
}

/// What a slot carries: a reply, with the receipt of the request it
/// answers (a pushed event answers none).
type Answer = (Reply, Option<Receipt>);
/// One reply slot: the writer emits whatever arrives here, in the
/// order the receiving ends were queued.
type Slot = mpsc::SyncSender<Answer>;
/// The writer-side queue of slots to drain, in reply order.
type SlotQueue = SyncSender<Receiver<Answer>>;

/// A request crossing from a session reader into the engine thread.
struct Queued {
    kind: Kind,
    ticket: Ticket,
}

/// What the writer needs to close a request's record once its reply
/// is flushed.
struct Receipt {
    /// The metric and span label's index into [`OP_NAMES`].
    op: usize,
    /// The client's optional trace id, stamped onto the engine-side
    /// `server_request` span and the slow-op log.
    trace: Option<u64>,
    /// When the frame was read: where `server_request_nanos` starts.
    started: Instant,
    /// The request's stages so far, from `started` on.
    clock: StageClock,
}

/// What answering a request takes, whatever its kind.
struct Ticket {
    slot: Slot,
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
    Subscribe { conn: u64, pipe: SlotQueue },
    Unsubscribe { conn: u64 },
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

    /// Graceful shutdown: stops accepting, lets every session observe
    /// the stop flag, drains the engine queue, and hands the durable
    /// engine back (`None` only if the engine thread panicked).
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
    if let Some(threshold) = opts.slow_op_threshold {
        engine
            .telemetry()
            .profiler()
            .set_slow_threshold_nanos(threshold.as_nanos() as u64);
    }
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
            .spawn(move || {
                let served = engine_loop(engine, &engine_rx, &stop, &metrics, &depth, &opts);
                if served.is_none() {
                    bury(&engine_rx, &depth, addr);
                }
                served
            })?
    };

    let accept_thread = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("ruleserv-accept".into())
            .spawn(move || {
                let mut sessions: Vec<JoinHandle<()>> = Vec::new();
                let mut next_conn: u64 = 0;
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    metrics.connections.inc();
                    let id = next_conn;
                    next_conn += 1;
                    if let Ok(handle) = spawn_session(
                        id,
                        conn,
                        engine_tx.clone(),
                        Arc::clone(&stop),
                        Arc::clone(&metrics),
                        Arc::clone(&depth),
                        opts,
                    ) {
                        sessions.push(handle);
                    }
                    // Reap finished sessions so a long-lived daemon
                    // does not accumulate join handles.
                    sessions.retain(|h| !h.is_finished());
                }
                // `engine_tx` drops here; sessions each hold a clone
                // until they exit (bounded by the read poll).
                for h in sessions {
                    let _ = h.join();
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

/// Spawns the reader (returned handle) and writer threads for one
/// connection. The reader joins the writer before exiting, so joining
/// the reader tears down the whole session.
fn spawn_session(
    conn_id: u64,
    conn: TcpStream,
    engine_tx: SyncSender<EngineMsg>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    depth: Arc<AtomicU64>,
    opts: ServerOptions,
) -> io::Result<JoinHandle<()>> {
    conn.set_nodelay(true).ok();
    conn.set_read_timeout(Some(opts.read_timeout)).ok();
    conn.set_write_timeout(Some(opts.write_timeout)).ok();
    let write_half = conn.try_clone()?;

    let (pipe_tx, pipe_rx) = mpsc::sync_channel::<Receiver<Answer>>(opts.pipeline_cap.max(1));
    let writer = {
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name(format!("ruleserv-w{conn_id}"))
            .spawn(move || writer_loop(write_half, pipe_rx, &metrics))?
    };

    std::thread::Builder::new()
        .name(format!("ruleserv-r{conn_id}"))
        .spawn(move || {
            reader_loop(conn_id, conn, &engine_tx, &pipe_tx, &stop, &metrics, &depth);
            // Session over: release the subscription (best effort; a
            // shut-down engine has already dropped everything).
            let _ = engine_tx.send(EngineMsg::Hangup { conn: conn_id });
            drop(pipe_tx);
            let _ = writer.join();
        })
}

/// A `Read` adapter that turns read-timeout ticks into stop-flag polls:
/// idle waits keep blocking until bytes arrive or the server stops
/// (then: clean EOF). Mid-frame timeouts keep the partial-frame state
/// intact because `read` simply retries.
struct PollRead<'a> {
    inner: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for PollRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.stop.load(Ordering::Relaxed) {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    conn_id: u64,
    conn: TcpStream,
    engine_tx: &SyncSender<EngineMsg>,
    pipe_tx: &SlotQueue,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
    depth: &AtomicU64,
) {
    let mut stream = PollRead { inner: &conn, stop };
    loop {
        // Checked per frame, not just on idle timeouts: a client that
        // never stops sending must not be able to hold off shutdown.
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let (opcode, payload) = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean close, torn frame, or corruption all end the
            // session; there is no way to resynchronise a byte stream.
            Ok(None) | Err(_) => return,
        };
        let started = Instant::now();
        let mut clock = match metrics.profiler.is_enabled() {
            true => StageClock::start_at(started),
            false => StageClock::default(),
        };
        metrics.bytes_in.add(8 + 1 + payload.len() as u64);
        let (request, trace) = match Request::decode_traced(opcode, &payload) {
            Ok(r) => r,
            Err(_) => return,
        };
        clock.lap(Stage::Decode);

        // Reply slot first, *then* the engine handoff: the slot queue
        // is what fixes reply order, so it must observe requests in
        // arrival order before anyone can fulfil them.
        // Oneshot: exactly one reply ever crosses a slot, so the
        // bound of 1 means the fulfilling side never blocks.
        let (slot, slot_rx) = mpsc::sync_channel::<Answer>(1);
        if pipe_tx.send(slot_rx).is_err() {
            return; // writer died (socket error)
        }
        let receipt = Receipt {
            op: op_index(&request),
            trace,
            started,
            clock,
        };
        let ticket = Ticket { slot, receipt };

        let kind = match request {
            Request::Ping => {
                // Answered here: liveness of the session must not
                // depend on engine-queue headroom.
                ticket.answer(Reply::Pong);
                continue;
            }
            Request::Apply(record) => Kind::Apply(record),
            Request::Subscribe => Kind::Subscribe {
                conn: conn_id,
                pipe: pipe_tx.clone(),
            },
            Request::Unsubscribe => Kind::Unsubscribe { conn: conn_id },
            Request::Health => Kind::Health,
            Request::Sync => Kind::Sync,
        };
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
fn writer_loop(conn: TcpStream, pipe_rx: Receiver<Receiver<Answer>>, metrics: &ServerMetrics) {
    let mut out = BufWriter::with_capacity(64 * 1024, conn);
    // The receipts of the replies written since the last flush.
    let mut written: Vec<Receipt> = Vec::new();
    loop {
        // Prefer the non-blocking path so consecutive ready replies
        // share one flush; block (after flushing) only when idle.
        let slot_rx = match pipe_rx.try_recv() {
            Ok(rx) => rx,
            Err(mpsc::TryRecvError::Empty) => {
                if out.flush().is_err() {
                    return;
                }
                close(&mut written, metrics);
                match pipe_rx.recv() {
                    Ok(rx) => rx,
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
        // A dropped sender (engine shut down before fulfilling) skips
        // the slot; the connection is going down anyway.
        let Ok((reply, mut receipt)) = slot_rx.recv() else {
            continue;
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

/// Closes the records of the replies a flush just sent, at one clock
/// reading: the rest of each is `write`. The latency each observes in
/// `server_request_nanos` is its record's total when the clock ran.
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
            metrics.profiler.record_request(op, receipt.trace, record);
        } else {
            let nanos = telemetry::nanos(flushed.duration_since(receipt.started));
            metrics.record_op(receipt.op, nanos);
        }
    }
}

/// One subscriber: where to push events, and how many were dropped
/// since the last one that fit.
struct Subscriber {
    pipe: SlotQueue,
    lagged: u64,
}

impl Subscriber {
    /// Best-effort push of one pre-fulfilled slot.
    fn push(&mut self, reply: Reply, metrics: &ServerMetrics) {
        if self.lagged > 0 {
            let lag = Reply::Lagged(self.lagged);
            if try_push(&self.pipe, lag) {
                self.lagged = 0;
            } else {
                metrics.events_dropped.inc();
                self.lagged += 1; // the event below is dropped too
                return;
            }
        }
        if !try_push(&self.pipe, reply) {
            metrics.events_dropped.inc();
            self.lagged += 1;
        }
    }
}

/// Queues an already-fulfilled slot; `false` when the pipe is full or
/// the connection is gone.
fn try_push(pipe: &SlotQueue, reply: Reply) -> bool {
    let (tx, rx) = mpsc::sync_channel(1);
    let _ = tx.send((reply, None));
    pipe.try_send(rx).is_ok()
}

/// What a request leaves behind until its group's sync has landed.
/// Everything outward-facing is held — the reply, and the effect on
/// the subscriber set and its streams — and released in request order.
struct Held {
    /// `None` for a hangup, which answers nobody.
    ack: Option<Ack>,
    effect: Effect,
}

struct Ack {
    ticket: Ticket,
    reply: Reply,
    /// The WAL sequence number the reply acknowledges, when the
    /// request logged a record.
    seq: Option<u64>,
}

enum Effect {
    /// The firings of the record logged as `seq`, pushed to every
    /// subscriber as [`Event`]s — built at release, and only if
    /// someone subscribes (nobody, for most requests). The firings'
    /// tuples are shared handles, so holding them copies no row.
    Events {
        seq: u64,
        firings: Vec<Firing>,
    },
    Subscribe {
        conn: u64,
        pipe: SlotQueue,
    },
    /// Unsubscribe or hangup.
    Forget {
        conn: u64,
    },
}

impl Effect {
    /// A request that fired nothing.
    const NO_EVENTS: Effect = Effect::Events {
        seq: 0,
        firings: Vec::new(),
    };
}

/// The engine thread's state across groups.
struct Committer<'a> {
    subscribers: HashMap<u64, Subscriber>,
    /// Reused from group to group.
    held: Vec<Held>,
    /// The request [`run`](Self::run) is inside, kept where a panic
    /// under it cannot drop its reply slot unanswered.
    running: Option<Ticket>,
    applied: u64,
    tracer: Tracer,
    metrics: &'a ServerMetrics,
    depth: &'a AtomicU64,
    opts: &'a ServerOptions,
}

/// Why every reply after an engine-thread panic is an error.
const ENGINE_DEAD: &str = "the engine thread died; the server is shutting down";

/// Serves groups until shutdown and hands the engine back — or, if a
/// group panics, raises the stop flag, answers what the group had
/// taken in with [`Reply::Err`] and returns `None`: the engine's state
/// is unknown from then on, so it is dropped, never touched again.
fn engine_loop(
    mut engine: DurableRuleEngine,
    rx: &Receiver<EngineMsg>,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
    depth: &AtomicU64,
    opts: &ServerOptions,
) -> Option<DurableRuleEngine> {
    let mut committer = Committer {
        subscribers: HashMap::new(),
        held: Vec::new(),
        running: None,
        applied: 0,
        tracer: engine.telemetry().tracer().clone(),
        metrics,
        depth,
        opts,
    };
    let served = catch_unwind(AssertUnwindSafe(|| loop {
        // Checked every iteration (not only on idle timeouts) so a
        // saturating workload cannot postpone shutdown indefinitely.
        let first = if stop.load(Ordering::Relaxed) {
            // Drain what the readers managed to enqueue before they
            // saw the flag, then retire.
            match rx.try_recv() {
                Ok(msg) => msg,
                Err(_) => break,
            }
        } else {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(msg) => msg,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        };
        committer.commit_group(&mut engine, first, rx);
    }));
    if served.is_ok() {
        return Some(engine);
    }
    metrics.engine_dead.inc();
    stop.store(true, Ordering::Relaxed);
    let held = committer.held.drain(..).filter_map(|held| held.ack);
    for ticket in held.map(|ack| ack.ticket).chain(committer.running.take()) {
        ticket.answer(Reply::Err(ENGINE_DEAD.into()));
    }
    None
}

/// After the engine thread died: wakes the blocking accept so the
/// listener closes, then answers every queued request, and every one
/// a session still hands over before it sees the stop flag, with
/// [`Reply::Err`] — until the last session is gone.
fn bury(rx: &Receiver<EngineMsg>, depth: &AtomicU64, addr: SocketAddr) {
    let _ = TcpStream::connect(wake_addr(addr));
    for msg in rx {
        if let EngineMsg::Request(Queued { ticket, .. }) = msg {
            depth.fetch_sub(1, Ordering::Relaxed);
            ticket.answer(Reply::Err(ENGINE_DEAD.into()));
        }
    }
}

impl Committer<'_> {
    /// Group commit: `first` and what was queued behind it when it
    /// arrived run back to back — each request its own WAL record,
    /// sequence number and reply — then one `fdatasync` covers them
    /// all, and only then does anything leave the engine thread.
    fn commit_group(
        &mut self,
        engine: &mut DurableRuleEngine,
        first: EngineMsg,
        rx: &Receiver<EngineMsg>,
    ) {
        // Closed to later arrivals: the group takes what the queue held
        // when it opened (`first` is still counted in `depth`), so a
        // client that keeps the queue full cannot hold everyone's
        // replies back.
        let limit = self.depth.load(Ordering::Relaxed);
        let synced = engine.group(|engine| {
            self.run(engine, first);
            for _ in 1..limit {
                match rx.try_recv() {
                    Ok(msg) => self.run(engine, msg),
                    Err(_) => break,
                }
            }
        });
        self.release(engine, synced.err());
    }

    /// Runs one request against the engine and holds its outcome.
    fn run(&mut self, engine: &mut DurableRuleEngine, msg: EngineMsg) {
        let Queued { kind, mut ticket } = match msg {
            EngineMsg::Request(req) => req,
            EngineMsg::Hangup { conn } => {
                self.held.push(Held {
                    ack: None,
                    effect: Effect::Forget { conn },
                });
                return;
            }
        };
        ticket.receipt.clock.lap(Stage::Queue);
        self.depth.fetch_sub(1, Ordering::Relaxed);
        // The engine-side request span: every op the engine thread
        // serves opens one, carrying the client's trace id when the
        // frame had the suffix — the wire-to-span round trip.
        let _span = self.tracer.span_with("server_request", || {
            let mut args = vec![("op", OP_NAMES[ticket.receipt.op].to_string())];
            if let Some(id) = ticket.receipt.trace {
                args.push(("trace", format!("{id:#x}")));
            }
            args
        });
        // The run is `other`, but for an applied record's own stages
        // and a sync's `wal`.
        let (stage, applied) = match &kind {
            Kind::Apply(_) => (Stage::Other, true),
            Kind::Sync => (Stage::Wal, false),
            _ => (Stage::Other, false),
        };
        let mut seq = None;
        self.running = Some(ticket);
        let (reply, effect) = match kind {
            Kind::Apply(record) => {
                let next = engine.next_seq();
                let (reply, firings) = shape(engine.apply(record), next);
                // A request refused before logging acknowledges no
                // sequence number.
                seq = (engine.next_seq() > next).then_some(next);
                self.applied += 1;
                if self.opts.crash_after == Some(self.applied) {
                    // The recovery-test window: this op's WAL append
                    // has happened; its group's sync and every reply
                    // of the group have not. A real crash here may
                    // lose the group's unacknowledged tail, never an
                    // acknowledged op.
                    std::process::abort();
                }
                (reply, Effect::Events { seq: next, firings })
            }
            Kind::Subscribe { conn, pipe } => (Reply::Unit, Effect::Subscribe { conn, pipe }),
            Kind::Unsubscribe { conn } => (Reply::Unit, Effect::Forget { conn }),
            Kind::Health => (Reply::Health(engine.health_text()), Effect::NO_EVENTS),
            Kind::Sync => {
                let reply = match engine.sync() {
                    Ok(()) => Reply::Unit,
                    Err(e) => Reply::Err(e.to_string()),
                };
                (reply, Effect::NO_EVENTS)
            }
        };
        let ack = self.running.take().map(|mut ticket| {
            let clock = &mut ticket.receipt.clock;
            match applied {
                true => clock.enclose(stage, engine.last_record()),
                false => clock.lap(stage),
            }
            Ack { ticket, reply, seq }
        });
        self.held.push(Held { ack, effect });
    }

    /// Releases the group in request order. `failure` is the group
    /// sync's error: memory is then ahead of disk, so every reply that
    /// would acknowledge a logged record turns into an error and its
    /// events stay unsent.
    fn release(&mut self, engine: &DurableRuleEngine, failure: Option<DurableError>) {
        let failure = failure.map(|e| e.to_string());
        let acks = self.held.iter().filter_map(|held| held.ack.as_ref());
        let released = acks.clone().count() as u64;
        if released > 0 {
            // The highest sequence number about to be acknowledged.
            let high = match failure {
                None => acks.filter_map(|ack| ack.seq).max(),
                Some(_) => None,
            };
            debug_assert!(
                engine.sync_policy() != SyncPolicy::Always || high <= Some(engine.durable_seq()),
                "releasing sequence {high:?}, durable up to {}",
                engine.durable_seq()
            );
            self.metrics.group_size.record(released);
            self.tracer.instant_with("commit_release", || {
                let mut args = vec![("size", released.to_string())];
                if let Some(seq) = high {
                    args.push(("seq", seq.to_string()));
                }
                args
            });
        }
        for Held { ack, effect } in self.held.drain(..) {
            match effect {
                // A subscriber whose `Subscribe` was held earlier in
                // this group is in the set by now, in request order.
                Effect::Events { seq, firings } => {
                    if failure.is_none() && !self.subscribers.is_empty() {
                        for firing in &firings {
                            let frame = Reply::Event(event(seq, firing));
                            for sub in self.subscribers.values_mut() {
                                sub.push(frame.clone(), self.metrics);
                            }
                        }
                    }
                }
                Effect::Subscribe { conn, pipe } => {
                    self.subscribers
                        .insert(conn, Subscriber { pipe, lagged: 0 });
                }
                Effect::Forget { conn } => {
                    self.subscribers.remove(&conn);
                }
            }
            let Some(Ack {
                mut ticket,
                mut reply,
                seq,
            }) = ack
            else {
                continue;
            };
            if let (Some(why), Some(_)) = (&failure, seq) {
                reply = Reply::Err(why.clone());
            }
            ticket.receipt.clock.lap(Stage::GroupWait);
            ticket.answer(reply);
        }
    }
}

/// Shapes the reply to one applied record, and hands back its firings
/// for the subscription events they may become. What the record *did*
/// is [`DurableRuleEngine::apply`]'s business; this only reads the
/// outcome.
fn shape(outcome: Result<Applied, DurableError>, seq: u64) -> (Reply, Vec<Firing>) {
    let report = match outcome {
        Ok(Applied::Fired(report)) => report,
        Ok(Applied::RuleAdded(id)) => return (Reply::RuleId(id.0), Vec::new()),
        Ok(Applied::Created | Applied::Dropped(_) | Applied::RuleRemoved(_)) => {
            return (Reply::Unit, Vec::new())
        }
        Err(e) => return (Reply::Err(e.to_string()), Vec::new()),
    };
    let reply = Reply::Fire(FireSummary {
        seq,
        ops_applied: report.ops_applied as u64,
        fired: report
            .fired
            .into_iter()
            .map(|(id, name)| (id.0, name.to_string()))
            .collect(),
    });
    (reply, report.firings)
}

/// The subscription [`Event`] of one firing of the record logged as
/// `seq`, carrying the bound tuples of a join-rule firing.
fn event(seq: u64, firing: &Firing) -> Event {
    Event {
        seq,
        rule_id: firing.rule.0,
        rule: firing.name.to_string(),
        bindings: firing
            .bindings
            .iter()
            .map(|b| EventBinding {
                relation: b.relation.clone(),
                tuple_id: b.id.0,
                values: b.tuple.values().to_vec(),
            })
            .collect(),
    }
}
