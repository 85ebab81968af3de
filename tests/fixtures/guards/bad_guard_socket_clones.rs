// guard-fixture: path=crates/ruleserv/src/server.rs
// Sessions that held three descriptors on one socket: the writer's
// clone, and one the accept thread kept beside the reader's join handle
// until the next connection arrived.

fn spawn_session(conn: TcpStream) -> io::Result<(TcpStream, JoinHandle<()>)> {
    let write_half = conn.try_clone()?;
    let closer = conn.try_clone()?;
    let reader = spawn_reader(conn, write_half)?;
    Ok((closer, reader))
}
