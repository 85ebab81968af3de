//! `serve_mixed`: `ruleserv::serve` in process over loopback with the
//! daemon's shipped defaults — `SyncPolicy::Always`, a snapshot every
//! 1024 logged operations, `queue_cap` 1024 — and two connections, one
//! load thread each (= `nproc`).
//!
//! Each connection writes its own relation, so its tuple ids are a
//! function of its own request order (inserts return no id). The mix is
//! 35% insert, 20% update, 35% delete, 5% ping, 5% health: insert and
//! delete shares are equal so the population stays where set-up left
//! it. A round is a closed-loop segment (pipeline depth 8 per
//! connection, fixed request count → throughput and CPU per op) followed
//! by an open-loop segment at [`SERVE_OPEN_RATE`] requests per second,
//! each request timed from the instant it was *due* (→ `op_p50_us`).
//! The rate is low enough that requests do not queue behind one another
//! even when the host is slow, so the median is the request path's own
//! time. All three timed metrics are calibrated against the reference
//! server of [`crate::echo`], read between rounds.

use super::join_cascade::{durable_metrics, recover, Recovery};
use super::{
    close_trace, end_to_end, lower_layer_metrics, of_class, ratio, record_of, rounds_note,
    timed_setups, Dur, InMem, LayerInputs, Outcome, RunConfig, RunResult, Tally, Target, Traced,
    WalMirror, World,
};
use crate::echo::{Echo, Reading};
use crate::manifest::SERVE_OPEN_RATE;
use crate::measure::{self, Round};
use crate::mirror::Lower;
use crate::rng::SplitMix64;
use crate::trace::{self, Class, Kind, OpRecord};
use crate::world::{
    engine_fingerprint, int_schema, relation_matches, ActionKind, CascadeLog, Model, Op, RuleDef,
};
use durable::Options;
use relation::Value;
use ruleserv::proto::{encode_frame, read_frame};
use ruleserv::{serve, Client, Reply, Request, ServerHandle, ServerOptions};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Registry;

pub const NAME: &str = "serve_mixed";

const CONNECTIONS: usize = 2;
const DEPTH: usize = 8;
/// In-flight cap per connection in the open loop; with two connections
/// it stays far below `queue_cap`, so `Busy` cannot occur and a stalled
/// server shows as generator lateness instead.
const OPEN_WINDOW: usize = 256;
const RULES_PER_RELATION: usize = 100;
const TUPLES_PER_RELATION: usize = 10_000;
const WIDE: i64 = 1_000_000;

/// Frozen request counts per round, over both connections: together
/// one snapshot period, so every round holds exactly one snapshot, at
/// the same place. With the reference server's reading beside it a
/// round takes about 0.55 s on the authoring container: 0.19 s closed
/// loop, 0.26 s open loop, 0.12 s reading.
const CLOSED_OPS: usize = 768;
const OPEN_OPS: usize = 256;
const ROUNDS_PER_SECOND: u64 = 2;
const WARMUP_OPS: usize = 1024;
/// Depth-1 traced calls per round (each runs on five instances).
const TRACED_OPS: usize = 500;
const RECOVERIES: usize = 3;

fn rel_name(conn: usize) -> String {
    format!("s{conn}")
}

fn tuple_values(rng: &mut SplitMix64) -> Vec<Value> {
    vec![
        Value::Int(rng.range(0, WIDE)),
        Value::Int(rng.range(0, WIDE)),
        Value::Int(rng.range(0, 1_000)),
        Value::Int(rng.range(0, 1_000)),
    ]
}

/// 100 rules per relation, bands on `a`/`b` wide enough that an insert
/// fires about one: the index is a small share of a request.
fn world(seed: u64) -> World {
    let mut rng = SplitMix64::fork(seed, 21);
    let mut rules = Vec::new();
    for n in 0..CONNECTIONS * RULES_PER_RELATION {
        let r = rel_name(n % CONNECTIONS);
        let x = if rng.chance(1, 2) { "a" } else { "b" };
        let lo = rng.range(0, WIDE - 10_000);
        let condition = if n % 4 == 3 {
            format!(
                "{lo} <= {r}.{x} <= {} and {r}.c > {}",
                lo + 20_000,
                rng.range(0, 1_000)
            )
        } else {
            format!("{lo} <= {r}.{x} <= {}", lo + 10_000)
        };
        rules.push(RuleDef {
            name: format!("s{n}"),
            condition,
            action: ActionKind::Noop,
            priority: 0,
        });
    }
    let mut rng = SplitMix64::fork(seed, 22);
    World {
        schemas: (0..CONNECTIONS)
            .map(|c| int_schema(&rel_name(c), &["a", "b", "c", "d"]))
            .collect(),
        rules,
        preload: (0..CONNECTIONS)
            .map(|c| {
                let rows = (0..TUPLES_PER_RELATION)
                    .map(|_| tuple_values(&mut rng))
                    .collect();
                (c, rows)
            })
            .collect(),
        late_rules: Vec::new(),
    }
}

/// One connection's request generator and the model of its relation.
struct ConnGen {
    rel: usize,
    rng: SplitMix64,
    model: Model,
}

impl ConnGen {
    fn new(seed: u64, rel: usize, world: &World) -> ConnGen {
        let mut model = Model::new(world.schemas[rel].clone());
        for row in &world.preload[rel].1 {
            model.insert(row.clone());
        }
        ConnGen {
            rel,
            rng: SplitMix64::fork(seed, 30 + rel as u64),
            model,
        }
    }

    fn next_op(&mut self) -> Op {
        let rel = self.rel;
        match self.rng.below(100) {
            0..=34 => {
                let values = tuple_values(&mut self.rng);
                self.model.insert(values.clone());
                Op::Insert { rel, values }
            }
            35..=54 => {
                let values = tuple_values(&mut self.rng);
                let id = self.model.update_random(&mut self.rng, values.clone());
                Op::Update { rel, id, values }
            }
            55..=89 => Op::Delete {
                rel,
                id: self.model.delete_random(&mut self.rng),
            },
            90..=94 => Op::Ping,
            _ => Op::Health,
        }
    }
}

fn request_of(op: &Op, rel_names: &[String]) -> Request {
    match op {
        Op::Ping => Request::Ping,
        Op::Health => Request::Health,
        _ => Request::Apply(record_of(op, rel_names).expect("serve ops are tuple ops")),
    }
}

/// What reply a request must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Fire,
    Pong,
    Health,
}

fn expect_of(op: &Op) -> Expect {
    match op {
        Op::Ping => Expect::Pong,
        Op::Health => Expect::Health,
        _ => Expect::Fire,
    }
}

/// Per-connection reply accounting.
#[derive(Default)]
struct Replies {
    received: u64,
    /// `Busy`, `Err`, wrong kind, or out-of-order sequence numbers.
    failed: u64,
    busy: u64,
    fired: u64,
    last_seq: u64,
}

/// A pipelining connection over `ruleserv::proto`: requests are framed
/// with the crate's own encoder, replies are cut out of the byte stream
/// here (a read may end mid-frame) and decoded by the crate's
/// `read_frame`, which also checks the CRC.
struct Conn {
    stream: TcpStream,
    gen: ConnGen,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Expected reply kind and the instant the request was due, in
    /// request order.
    pending: VecDeque<(Expect, Instant)>,
    replies: Replies,
    rel_names: Vec<String>,
}

impl Conn {
    fn connect(addr: SocketAddr, gen: ConnGen, rel_names: Vec<String>) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Conn {
            stream,
            gen,
            inbuf: Vec::with_capacity(1 << 16),
            outbuf: Vec::with_capacity(1 << 12),
            pending: VecDeque::new(),
            replies: Replies::default(),
            rel_names,
        }
    }

    /// Generates and queues the next request, due at `due`.
    fn queue_next(&mut self, due: Instant) {
        let op = self.gen.next_op();
        let (opcode, payload) = request_of(&op, &self.rel_names).encode();
        self.outbuf
            .extend_from_slice(&encode_frame(opcode, &payload));
        self.pending.push_back((expect_of(&op), due));
    }

    fn flush(&mut self) {
        if !self.outbuf.is_empty() {
            self.stream.write_all(&self.outbuf).expect("send requests");
            self.outbuf.clear();
        }
    }

    /// Waits up to `timeout` (forever if `None`) for bytes, then hands
    /// every complete reply's sojourn time (now − due) to `on_reply`.
    fn receive(&mut self, timeout: Option<Duration>, on_reply: &mut dyn FnMut(u64)) {
        if !measure::wait_readable(self.stream.as_raw_fd(), timeout) {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => panic!("server closed the connection"),
            Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("receive replies: {e}"),
        }
        let now = Instant::now();
        let mut at = 0;
        while self.inbuf.len() - at >= 8 {
            let len = u32::from_le_bytes(self.inbuf[at..at + 4].try_into().expect("4 bytes"));
            let end = at + 8 + len as usize;
            if self.inbuf.len() < end {
                break;
            }
            let (opcode, payload) = read_frame(&mut &self.inbuf[at..end])
                .expect("well-formed reply frame")
                .expect("a whole frame");
            at = end;
            let reply = Reply::decode(opcode, &payload).expect("decodable reply");
            let (expect, due) = self.pending.pop_front().expect("a reply answers a request");
            self.replies.received += 1;
            let ok = match (&reply, expect) {
                (Reply::Fire(f), Expect::Fire) => {
                    let in_order = f.seq > self.replies.last_seq;
                    self.replies.last_seq = f.seq;
                    self.replies.fired += f.fired.len() as u64;
                    in_order
                }
                (Reply::Pong, Expect::Pong) | (Reply::Health(_), Expect::Health) => true,
                (Reply::Busy, _) => {
                    self.replies.busy += 1;
                    false
                }
                _ => false,
            };
            self.replies.failed += !ok as u64;
            on_reply(now.saturating_duration_since(due).as_nanos() as u64);
        }
        self.inbuf.drain(..at);
    }

    /// `n` requests, at most [`DEPTH`] in flight.
    fn closed_loop(&mut self, n: usize) {
        let (mut sent, mut received) = (0usize, 0usize);
        while received < n {
            while sent < n && sent - received < DEPTH {
                self.queue_next(Instant::now());
                sent += 1;
            }
            self.flush();
            self.receive(None, &mut |_| received += 1);
        }
    }

    /// `n` requests on a fixed schedule: request `i` is due at
    /// `start + i * interval` whatever the server is doing. Returns the
    /// sojourn times and how late each request left the generator.
    fn open_loop(&mut self, n: usize, start: Instant, interval: Duration) -> (Vec<u64>, Vec<u64>) {
        let mut sojourn = Vec::with_capacity(n);
        let mut late = Vec::with_capacity(n);
        let mut sent = 0usize;
        while sojourn.len() < n {
            let now = Instant::now();
            while sent < n && sent - sojourn.len() < OPEN_WINDOW {
                let due = start + interval * sent as u32;
                if due > now {
                    break;
                }
                late.push((now - due).as_nanos() as u64);
                self.queue_next(due);
                sent += 1;
            }
            self.flush();
            let wait = if sent < n && sent - sojourn.len() < OPEN_WINDOW {
                let due = start + interval * sent as u32;
                due.saturating_duration_since(Instant::now())
                    .max(Duration::from_micros(20))
            } else {
                Duration::from_millis(100)
            };
            self.receive(Some(wait), &mut |ns| sojourn.push(ns));
        }
        (sojourn, late)
    }
}

/// A server and its two connections.
struct Served {
    handle: ServerHandle,
    conns: Vec<Conn>,
}

impl Served {
    fn start(dur: Dur, seed: u64, world: &World) -> Served {
        let handle =
            serve("127.0.0.1:0", dur.engine, ServerOptions::default()).expect("bind loopback");
        let conns = (0..CONNECTIONS)
            .map(|c| {
                Conn::connect(
                    handle.addr(),
                    ConnGen::new(seed, c, world),
                    world.rel_names(),
                )
            })
            .collect();
        Served { handle, conns }
    }

    /// Runs `f` on every connection at once, one thread each; returns
    /// the segment's wall time and the per-connection results.
    fn on_each<T: Send>(&mut self, f: impl Fn(usize, &mut Conn) -> T + Sync) -> (u64, Vec<T>) {
        let started = Instant::now();
        let out = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let f = &f;
                    scope.spawn(move || f(i, conn))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("load thread panicked"))
                .collect()
        });
        (started.elapsed().as_nanos() as u64, out)
    }

    fn closed_segment(&mut self, ops: usize) -> u64 {
        self.on_each(|_, conn| conn.closed_loop(ops / CONNECTIONS))
            .0
    }

    /// Both connections at half [`SERVE_OPEN_RATE`], offset by half an
    /// interval so arrivals are evenly spaced overall.
    fn open_segment(&mut self, ops: usize) -> (Vec<u64>, Vec<u64>) {
        let interval = Duration::from_nanos(1_000_000_000 * CONNECTIONS as u64 / SERVE_OPEN_RATE);
        let start = Instant::now() + Duration::from_millis(2);
        let (_, per_conn) = self.on_each(|i, conn| {
            conn.open_loop(
                ops / CONNECTIONS,
                start + interval / CONNECTIONS as u32 * i as u32,
                interval,
            )
        });
        let mut sojourn = Vec::new();
        let mut late = Vec::new();
        for (s, l) in per_conn {
            sojourn.extend(s);
            late.extend(l);
        }
        (sojourn, late)
    }

    /// The connections' reply accounts, summed.
    fn tally(&self) -> Replies {
        self.conns
            .iter()
            .fold(Replies::default(), |sum, c| Replies {
                received: sum.received + c.replies.received,
                failed: sum.failed + c.replies.failed,
                busy: sum.busy + c.replies.busy,
                fired: sum.fired + c.replies.fired,
                last_seq: 0,
            })
    }

    /// Closes the connections, stops the server and hands back the
    /// engine and the connections' models.
    fn stop(self) -> (durable::DurableRuleEngine, Vec<ConnGen>) {
        let gens: Vec<ConnGen> = self.conns.into_iter().map(|c| c.gen).collect();
        let engine = self.handle.shutdown().expect("engine thread survived");
        (engine, gens)
    }
}

pub fn run(cfg: &RunConfig) -> RunResult {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_timed(cfg)
    }
}

fn run_timed(cfg: &RunConfig) -> RunResult {
    let world = world(cfg.seed);
    let closed_ops = cfg.scaled(CLOSED_OPS, CONNECTIONS);
    let open_ops = cfg.scaled(OPEN_OPS, CONNECTIONS);
    let warmup_ops = cfg.scaled(WARMUP_OPS, CONNECTIONS);
    let mut previous: Option<(Served, std::path::PathBuf)> = None;
    let mut reference = measure::Reference::default();
    // Set-up: open the directory, relations, rules, bulk load, bind,
    // connect, one closed-loop warm-up pass.
    let ((), setup_s) = timed_setups(&mut reference, |rep| {
        if let Some((served, dir)) = previous.take() {
            drop(served.stop());
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = cfg.data_dir(&format!("{NAME}-{rep}"));
        let started = Instant::now();
        let dur = Dur::build(&dir, &world, Options::default(), None, None);
        let mut served = Served::start(dur, cfg.seed, &world);
        served.closed_segment(warmup_ops);
        let secs = started.elapsed().as_secs_f64();
        previous = Some((served, dir));
        ((), secs)
    });
    let (mut served, dir) = previous.take().expect("last set-up's server");

    // The reference server is read before the first round and after
    // every round, while the server under test idles.
    let echo_dir = cfg.data_dir(&format!("{NAME}-reference"));
    let mut echo = Echo::start(&echo_dir.join("log"));
    let pace = Duration::from_nanos(1_000_000_000 / SERVE_OPEN_RATE);
    echo.read(pace); // warm-up: threads started, the log's first blocks allocated
    let mut before = echo.read(pace);
    let mut rounds = Vec::new();
    let mut late_all = Vec::new();
    for _ in 0..cfg.rounds(ROUNDS_PER_SECOND) {
        let cpu0 = measure::process_cpu_ns();
        let busy_ns = served.closed_segment(closed_ops);
        let cpu_ns = measure::process_cpu_ns() - cpu0;
        let (mut sojourn, late) = served.open_segment(open_ops);
        late_all.extend(late);
        let after = echo.read(pace);
        rounds.push(Round {
            ops: closed_ops as u64,
            busy_ns,
            cpu_ns,
            p50_ns: measure::quantile_ns(&mut sojourn, 0.5),
            scale: Reading::scale(before, after),
        });
        before = after;
    }
    echo.stop();
    let _ = std::fs::remove_dir_all(&echo_dir);
    let metrics = end_to_end(setup_s, &rounds);

    let Replies {
        received,
        failed,
        busy,
        fired,
        ..
    } = served.tally();
    let (engine, gens) = served.stop();
    let contents_ok = gens
        .iter()
        .all(|g| relation_matches(engine.engine(), &rel_name(g.rel), &g.model));
    let fingerprint = engine_fingerprint(engine.engine());
    drop(engine);
    let recovery = recover(
        &dir,
        &dir.with_extension("copy"),
        Options::default(),
        fingerprint,
        1,
    );
    let _ = std::fs::remove_dir_all(&dir);

    let expected = (warmup_ops + cfg.rounds(ROUNDS_PER_SECOND) * (closed_ops + open_ops)) as u64;
    RunResult {
        correct: contents_ok && recovery.fingerprint_ok && received == expected,
        attempted: received,
        failed,
        metrics,
        notes: vec![rounds_note(&rounds), format!(
            "{NAME}: {} rules, {} live tuples, per round {closed_ops} closed-loop requests (depth {DEPTH} x {CONNECTIONS} connections) then {open_ops} open-loop requests at {SERVE_OPEN_RATE}/s (= latency samples per round); Busy replies {busy}; generator lateness p99 {:.0} us; firings/op {:.3}; acked writes all present before the crash: {contents_ok}; recovered fingerprint matches: {}",
            world.rules.len(),
            gens.iter().map(|g| g.model.len()).sum::<usize>(),
            measure::quantile_ns(&mut late_all, 0.99) / 1e3,
            fired as f64 / received as f64,
            recovery.fingerprint_ok,
        )],
    }
}

/// A depth-1 client as a [`Target`]: the `ruleserv.call` span is one
/// request's round trip.
struct Call {
    client: Client,
    rel_names: Vec<String>,
}

impl Target for Call {
    fn apply(&mut self, op: &Op) -> Result<Outcome, String> {
        let reply = self
            .client
            .call(&request_of(op, &self.rel_names))
            .map_err(|e| e.to_string())?;
        match (reply, expect_of(op)) {
            (Reply::Fire(f), Expect::Fire) => Ok(Outcome {
                fired: f.fired.iter().map(|(id, _)| *id).collect(),
                rule_id: None,
            }),
            (Reply::Pong, Expect::Pong) | (Reply::Health(_), Expect::Health) => Ok(Outcome {
                fired: Vec::new(),
                rule_id: None,
            }),
            (other, _) => Err(format!("unexpected reply {}", other.kind())),
        }
    }
}

/// Bench-side mirror of the client half of the wire codec: frame the
/// request, and decode a reply of the shape the op gets.
fn codec_ns(op: &Op, rel_names: &[String]) -> (u64, u64) {
    let request = request_of(op, rel_names);
    let started = Instant::now();
    let (opcode, payload) = request.encode();
    std::hint::black_box(encode_frame(opcode, &payload));
    let encode = started.elapsed().as_nanos() as u64;
    let reply = match expect_of(op) {
        Expect::Fire => Reply::Fire(ruleserv::FireSummary {
            seq: 123_456,
            ops_applied: 1,
            fired: vec![(17, "s17".into())],
        }),
        Expect::Pong => Reply::Pong,
        Expect::Health => Reply::Health("up 1\nwal_next_seq 1\nrules 200\n".into()),
    };
    let (opcode, payload) = reply.encode();
    let frame = encode_frame(opcode, &payload);
    let started = Instant::now();
    let (opcode, payload) = read_frame(&mut &frame[..])
        .expect("own frame")
        .expect("whole frame");
    std::hint::black_box(Reply::decode(opcode, &payload).expect("own reply"));
    (encode, started.elapsed().as_nanos() as u64)
}

fn run_traced(cfg: &RunConfig) -> RunResult {
    let world = world(cfg.seed);
    let ops_per_round = cfg.scaled(TRACED_OPS, CONNECTIONS);
    let open_ops = cfg.scaled(2048, CONNECTIONS);
    let opts = Options::default();
    let registry = Arc::new(Registry::new());
    let log: CascadeLog = Default::default();
    let dirs: Vec<_> = ["counted", "twin", "mirror", "wal"]
        .iter()
        .map(|l| cfg.data_dir(&format!("{NAME}-{l}")))
        .collect();
    let counted_server = serve(
        "127.0.0.1:0",
        Dur::build(
            &dirs[0],
            &world,
            opts,
            Some(registry.clone()),
            Some(log.clone()),
        )
        .engine,
        ServerOptions::default(),
    )
    .expect("bind loopback");
    let mut lower = Lower::new(&world.schemas);
    super::mirror_world(&mut lower, &world, &log);
    let twin_server = serve(
        "127.0.0.1:0",
        Dur::build(&dirs[1], &world, opts, None, None).engine,
        ServerOptions::default(),
    )
    .expect("bind loopback");
    let mut durable_mirror = Dur::build(&dirs[2], &world, opts, None, None);
    let mut rules_mirror = InMem::build(&world, None, None);
    let mut wal = WalMirror::create(&dirs[3], opts.sync);
    let call = |server: &ServerHandle| Call {
        client: Client::connect(server.addr()).expect("connect"),
        rel_names: world.rel_names(),
    };
    let mut counted = call(&counted_server);
    let mut twin = call(&twin_server);
    let mut gens: Vec<ConnGen> = (0..CONNECTIONS)
        .map(|c| ConnGen::new(cfg.seed, c, &world))
        .collect();
    let mut tally = Tally::default();
    let spin_ms = measure::spin_ms();

    let mut stack = Traced {
        top: Kind::ServCall,
        counted: &mut counted,
        twin: &mut twin,
        durable_mirror: Some(&mut durable_mirror),
        wal_mirror: Some(&mut wal),
        rules_mirror: Some(&mut rules_mirror),
        lower: &mut lower,
        log,
        rel_names: world.rel_names(),
        origin: Instant::now(),
        counted_ns: 0,
        mismatches: 0,
    };
    for n in 0..cfg.scaled(WARMUP_OPS, CONNECTIONS) {
        stack.op(n as u32, &gens[n % CONNECTIONS].next_op(), &mut tally);
    }
    let counts = stack.start_counting(registry);

    let mut rounds: Vec<Vec<OpRecord>> = Vec::new();
    let (mut encode_ns, mut decode_ns) = (0u64, 0u64);
    let (mut twin_ns, mut ops, mut tuple_ops) = (0u64, 0u64, 0u64);
    for _ in 0..cfg.rounds(ROUNDS_PER_SECOND) {
        let mut rows = Vec::with_capacity(ops_per_round);
        for n in 0..ops_per_round {
            let op = gens[n % CONNECTIONS].next_op();
            let rec = stack.op(ops as u32, &op, &mut tally);
            let (e, d) = codec_ns(&op, &stack.rel_names);
            encode_ns += e;
            decode_ns += d;
            ops += 1;
            tuple_ops += (rec.class == Class::Tuple) as u64;
            twin_ns += rec.ns[Kind::ServCall as usize];
            rows.push(rec);
        }
        rounds.push(rows);
    }
    let counted_ns = stack.counted_ns;
    let mismatches = stack.mismatches;
    drop(stack);
    drop(counted);
    drop(twin);

    let mut notes = Vec::new();
    let traced_ok = close_trace(cfg, NAME, &rounds, &counts, &lower, mismatches, &mut notes);

    let counted_engine = counted_server.shutdown().expect("engine thread survived");
    let bytes = counts.counter("server_bytes_total{dir=\"in\"}")
        + counts.counter("server_bytes_total{dir=\"out\"}");
    let served_busy = counts.counter("server_busy_total");
    let fingerprint = engine_fingerprint(counted_engine.engine());
    let same_state = fingerprint == engine_fingerprint(durable_mirror.engine.engine())
        && fingerprint == engine_fingerprint(&rules_mirror.engine);
    let live: usize = gens.iter().map(|g| g.model.len()).sum();
    let rows = super::median_round(&rounds);
    let tuple_rows = of_class(rows, Class::Tuple);
    let ping_rows = of_class(rows, Class::Ping);
    let mut metrics = lower_layer_metrics(&LayerInputs {
        rounds: &rounds,
        counts: &counts,
        lower: &lower,
        engine: counted_engine.engine(),
        tuple_ops,
        overhead_ratio: twin_ns as f64 / counted_ns as f64,
        spin_ms,
    });
    drop(counted_engine);
    let recovery: Recovery = recover(
        &dirs[0],
        &dirs[0].with_extension("copy"),
        opts,
        fingerprint,
        RECOVERIES,
    );
    metrics.extend(durable_metrics(
        &tuple_rows,
        &counts,
        &mut wal,
        tuple_ops,
        live,
        &recovery,
    ));

    // The open loop, last: it runs on the twin server alone, so from
    // here on the instances no longer hold the same state.
    let mut served = Served {
        conns: gens
            .into_iter()
            .map(|g| Conn::connect(twin_server.addr(), g, world.rel_names()))
            .collect(),
        handle: twin_server,
    };
    let (mut sojourn, mut late) = served.open_segment(open_ops);
    let Replies {
        received,
        failed,
        busy,
        ..
    } = served.tally();
    tally.attempted += received;
    tally.failed += failed;
    let (twin_engine, gens) = served.stop();
    let contents_ok = gens
        .iter()
        .all(|g| relation_matches(twin_engine.engine(), &rel_name(g.rel), &g.model));
    drop(twin_engine);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }

    metrics.extend([
        ("ruleserv.encode_ns", ratio(encode_ns as f64, ops as f64)),
        ("ruleserv.decode_ns", ratio(decode_ns as f64, ops as f64)),
        (
            "ruleserv.ping_rtt_us",
            trace::mean_call_ns(&ping_rows, Kind::ServCall) / 1e3,
        ),
        (
            "ruleserv.self_us",
            trace::mean_self_ns(&tuple_rows, Kind::ServCall) / 1e3,
        ),
        ("ruleserv.bytes_per_op", ratio(bytes as f64, ops as f64)),
        (
            "ruleserv.busy_share",
            ratio((served_busy + busy) as f64, (ops + received) as f64),
        ),
        (
            "ruleserv.sojourn_p99_us",
            measure::quantile_ns(&mut sojourn, 0.99) / 1e3,
        ),
        (
            "ruleserv.generator_late_p99_us",
            measure::quantile_ns(&mut late, 0.99) / 1e3,
        ),
    ]);
    notes.push(format!(
        "traced calls are depth-1 round trips; then {open_ops} open-loop requests at {SERVE_OPEN_RATE}/s on the twin server; instances end in the same state: {same_state}, acked writes present: {contents_ok}, recovered fingerprint matches: {}",
        recovery.fingerprint_ok,
    ));
    RunResult {
        correct: traced_ok && same_state && contents_ok && recovery.fingerprint_ok,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}
