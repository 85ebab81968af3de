//! Hostile bytes against a live server, over real sockets: seeded
//! mutations of valid frames, headers at and past `MAX_FRAME`, a
//! malformed frame behind pipelined requests, and half-open connections
//! that send part of a header and idle. A bystander client writes
//! throughout and must be served; every corrupt connection must be
//! closed without a reply; the final state must hold exactly the
//! bystander's writes; `shutdown()` must return while the half-open
//! connections are still open; and the process's live heap must stay
//! under a bound made of the bytes the hostile clients sent and a few
//! `FRAME_RESERVE`s per open connection. One test, because
//! `counting_alloc::live_bytes()` is process-wide.

#[path = "../../bench/src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live_bytes;
use durable::{ActionRegistry, DurableRuleEngine, Options, Record, SyncPolicy};
use predicate::FunctionRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Schema, Value};
use ruleserv::proto::{encode_frame, read_frame, FRAME_RESERVE, MAX_FRAME};
use ruleserv::{serve, Client, Reply, Request, ServerOptions};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set by the panic hook: a panic on any thread, the server's session
/// threads included, whose own join ignores it.
static PANICKED: AtomicBool = AtomicBool::new(false);

/// The wire bytes of `request`, as a client sends them.
fn frame(request: &Request) -> Vec<u8> {
    let (opcode, payload) = request.encode();
    encode_frame(opcode, &payload)
}

/// An insert of `v` into `t`: a mutation of it that got through would
/// show in the final state.
fn insert(v: i64) -> Request {
    Request::Apply(Record::Insert {
        relation: "t".into(),
        values: vec![Value::Int(v)],
    })
}

/// One mutation of a valid frame: a bit flip, a truncation, or an edit
/// of the length word.
fn mutate(rng: &mut StdRng, mut wire: Vec<u8>) -> Vec<u8> {
    match rng.gen_range(0..3) {
        0 => {
            let bit = rng.gen_range(0..wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        1 => wire.truncate(rng.gen_range(0..wire.len())),
        _ => {
            let len = u32::from_le_bytes([wire[0], wire[1], wire[2], wire[3]]);
            let edited = match rng.gen_range(0..4) {
                0 => 0,
                1 => len - 1,
                2 => len + rng.gen_range(1..65),
                _ => u32::MAX - rng.gen_range(0..16),
            };
            wire[..4].copy_from_slice(&edited.to_le_bytes());
        }
    }
    wire
}

/// Connects and sends `bytes`, ignoring a write the server refuses
/// (it may close the connection before all of it is read).
fn hostile(addr: SocketAddr, bytes: &[u8]) -> TcpStream {
    let mut conn = TcpStream::connect(addr).expect("the server accepts");
    let _ = conn.write_all(bytes);
    conn
}

/// The server closes `conn` without writing a byte to it.
fn closed_without_reply(conn: &mut TcpStream, what: &str) {
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("a read timeout");
    let mut buf = [0u8; 64];
    match conn.read(&mut buf) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Ok(n) => panic!("{what}: the server replied {:02x?}", &buf[..n]),
        Err(e) => panic!("{what}: the connection stayed open ({e})"),
    }
}

/// The bystander's write, checked answered.
fn write(bystander: &mut Client, written: &mut Vec<i64>) {
    let v = written.len() as i64;
    bystander
        .insert("t", vec![Value::Int(v)])
        .expect("the bystander is served");
    written.push(v);
}

#[test]
fn hostile_connections_close_alone_and_cost_what_they_sent() {
    let started = Instant::now();
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICKED.store(true, Ordering::Relaxed);
        report(info);
    }));
    let dir = std::env::temp_dir().join(format!("hostile-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = Options {
        sync: SyncPolicy::Manual,
        snapshot_every: None,
    };
    let mut engine = DurableRuleEngine::open(
        &dir,
        FunctionRegistry::default(),
        ActionRegistry::new(),
        opts,
    )
    .expect("the engine opens");
    let t = Schema::builder("t").attr("v", AttrType::Int).build();
    engine.create_relation(t).expect("t is created");
    let server = serve("127.0.0.1:0", engine, ServerOptions::default()).expect("the server binds");
    let addr = server.addr();
    let mut bystander = Client::connect(addr).expect("the bystander connects");
    let mut written = Vec::new();
    write(&mut bystander, &mut written);
    // Made before the base reading, so the live bytes over it are the
    // server's.
    let body = vec![0x5a; 200 << 10];
    let base = live_bytes();

    // Seeded mutations, one connection each. Every one is closed after
    // it is sent, so a length edit that asks for more waits for nothing.
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let valid = [
        frame(&Request::Ping),
        frame(&insert(-1)),
        frame(&Request::Health),
    ];
    for case in 0..120 {
        let wire = mutate(&mut rng, valid[case % valid.len()].clone());
        let mut conn = hostile(addr, &wire);
        let _ = conn.shutdown(Shutdown::Write);
        closed_without_reply(&mut conn, &format!("mutation {case}: {wire:02x?}"));
        if case % 10 == 0 {
            write(&mut bystander, &mut written);
        }
    }
    // Frames whose checksum holds but whose body does not decode.
    for wire in [encode_frame(0x7f, b""), encode_frame(0x01, b"abc")] {
        let mut conn = hostile(addr, &wire);
        closed_without_reply(&mut conn, &format!("undecodable {wire:02x?}"));
    }

    // A header one past `MAX_FRAME` is refused on its own.
    let mut past = hostile(addr, &(MAX_FRAME + 1).to_le_bytes());
    let _ = past.write_all(&[0; 4]);
    closed_without_reply(&mut past, "MAX_FRAME + 1");

    // A header claiming `MAX_FRAME`, with part of its body; and the
    // half-open connections, which stay open past `shutdown()`.
    let mut max = hostile(addr, &MAX_FRAME.to_le_bytes());
    let _ = max.write_all(&[0; 4]);
    let _ = max.write_all(&body);
    let mut half_open: Vec<TcpStream> = [1, 3, 5, 7]
        .iter()
        .map(|&n| hostile(addr, &frame(&insert(-2))[..n]))
        .collect();
    let mut partial_body = frame(&insert(-3));
    partial_body.truncate(partial_body.len() - 2);
    half_open.push(hostile(addr, &partial_body));
    write(&mut bystander, &mut written);

    // Live bytes while the six hostile connections are open. Each may
    // hold `FRAME_RESERVE` for the frame its header announced, and a
    // session's own buffers: a 64 KiB reply `BufWriter` and a 4,096-slot
    // reply queue, read together here as ~165 KB, so 4 × `FRAME_RESERVE`
    // per connection in all. A body past `FRAME_RESERVE` grows its
    // buffer by doubling, so the bytes sent count twice. Read on a 2-core
    // x86-64 Linux host: 1,254,250 bytes over the base (the 200 KiB body
    // in a 256 KiB buffer, and six sessions), against a bound of
    // 1,982,564; a header's claim reserved in full would be 64 MiB.
    let sent = 8 + body.len() + 16 + partial_body.len();
    let bound = 2 * sent + 6 * 4 * FRAME_RESERVE;
    let mut peak = 0;
    for _ in 0..20 {
        peak = peak.max(live_bytes() - base);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(peak > 0, "the open connections hold no memory");
    assert!(
        peak as usize <= bound,
        "{peak} live bytes over the base for {sent} bytes sent (bound {bound})"
    );
    eprintln!("live bytes over the base: {peak}, bound {bound}");
    let _ = max.shutdown(Shutdown::Write);
    closed_without_reply(&mut max, "MAX_FRAME");

    // Valid requests, pipelined, then a malformed frame: every request
    // before it is answered in order, and then the connection closes.
    let mut pipelined = Vec::new();
    for _ in 0..6 {
        pipelined.extend(frame(&Request::Ping));
        pipelined.extend(frame(&Request::Health));
    }
    let mut bad = frame(&Request::Ping);
    bad[4] ^= 0xff;
    pipelined.extend(bad);
    let mut conn = hostile(addr, &pipelined);
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("a read timeout");
    for i in 0..12 {
        let (opcode, payload) = read_frame(&mut conn)
            .expect("a reply frame")
            .expect("a reply before the close");
        let reply = Reply::decode(opcode, &payload).expect("a reply");
        match (i % 2, &reply) {
            (0, Reply::Pong) | (1, Reply::Health(_)) => {}
            _ => panic!("reply {i} out of order: {reply:?}"),
        }
    }
    closed_without_reply(&mut conn, "the malformed frame after pipelined requests");
    write(&mut bystander, &mut written);

    // Shutdown with the half-open connections still open: closing each
    // session's read half wakes its reader with EOF mid-frame.
    drop(bystander);
    let stopping = Instant::now();
    let engine = server
        .shutdown()
        .expect("the engine thread returns the engine");
    let stop_time = stopping.elapsed();
    assert!(
        stop_time < Duration::from_secs(3),
        "shutdown took {stop_time:?}"
    );
    for (i, conn) in half_open.iter_mut().enumerate() {
        closed_without_reply(conn, &format!("half-open connection {i}"));
    }

    let rows = engine.engine().db().catalog().relation("t").expect("t");
    let mut held: Vec<i64> = rows
        .iter()
        .map(|(_, tuple)| match tuple.values() {
            [Value::Int(v)] => *v,
            other => panic!("a row no client wrote: {other:?}"),
        })
        .collect();
    held.sort_unstable();
    assert_eq!(
        held, written,
        "the state holds exactly the bystander's writes"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!PANICKED.load(Ordering::Relaxed), "a thread panicked");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "{:?}",
        started.elapsed()
    );
}
