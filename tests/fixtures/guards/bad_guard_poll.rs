// guard-fixture: path=crates/ruleserv/src/server.rs
// Sessions that ended by polling: each reader woke every half second to
// read the stop flag, the engine thread every 50 ms, and a crash hook
// aborted the process after a set number of operations.

fn spawn_session(conn: &TcpStream, opts: &ServerOptions) {
    conn.set_read_timeout(Some(opts.read_timeout)).ok();
}

fn next(rx: &Receiver<EngineMsg>) -> Option<EngineMsg> {
    rx.recv_timeout(Duration::from_millis(50)).ok()
}

fn run(opts: &ServerOptions, applied: u64) {
    if opts.crash_after == Some(applied) {
        std::process::abort();
    }
}
