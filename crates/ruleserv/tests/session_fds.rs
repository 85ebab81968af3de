//! What a session holds follows its use: one socket per client on the
//! server's side while it is connected, none once it has left, and none
//! of the server's own after `shutdown()`. One test, because a count of
//! `/proc/self/fd` is process-wide.

#[cfg(target_os = "linux")]
#[test]
fn a_session_holds_one_socket_and_closes_it_when_it_ends() {
    use durable::{ActionRegistry, DurableRuleEngine, Options, SyncPolicy};
    use predicate::FunctionRegistry;
    use ruleserv::proto::{encode_frame, read_frame};
    use ruleserv::{serve, Reply, Request, ServerOptions};
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    /// The process's open descriptors (the listing's own included, the
    /// same in every reading).
    fn fds() -> usize {
        std::fs::read_dir("/proc/self/fd")
            .expect("/proc/self/fd lists")
            .count()
    }

    let dir = std::env::temp_dir().join(format!("session-fds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = Options {
        sync: SyncPolicy::Manual,
        snapshot_every: None,
    };
    let engine = DurableRuleEngine::open(
        &dir,
        FunctionRegistry::default(),
        ActionRegistry::new(),
        opts,
    )
    .expect("the engine opens");
    let before_serve = fds();
    let server = serve("127.0.0.1:0", engine, ServerOptions::default()).expect("the server binds");
    let baseline = fds();

    let (opcode, payload) = Request::Ping.encode();
    let ping = encode_frame(opcode, &payload);
    let mut clients = Vec::new();
    for _ in 0..4 {
        let mut stream = TcpStream::connect(server.addr()).expect("the client connects");
        stream.write_all(&ping).expect("the ping is sent");
        let (opcode, payload) = read_frame(&mut stream)
            .expect("the reply is read")
            .expect("the server answers");
        let reply = Reply::decode(opcode, &payload).expect("the reply decodes");
        assert_eq!(reply.kind(), "pong");
        clients.push(stream);
    }
    let live = fds();
    println!("fds: {before_serve} before serve, {baseline} serving, {live} with four sessions");
    assert_eq!(
        live,
        baseline + 8,
        "four live sessions hold one descriptor per client and one per session"
    );

    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut left = fds();
    while left != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        left = fds();
    }
    assert_eq!(
        left, baseline,
        "a session's socket closes when its client leaves, with no further connection"
    );

    let engine = server.shutdown().expect("the engine is handed back");
    assert_eq!(
        fds(),
        before_serve,
        "after shutdown the server holds no descriptor of its own"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
