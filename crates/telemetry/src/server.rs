//! A dependency-free metrics exposition server.
//!
//! One `std::net::TcpListener` accept thread answering five paths,
//! enough for a Prometheus scraper, a load balancer, and a human with
//! `curl`:
//!
//! * `GET /metrics` — the registry's Prometheus text exposition.
//! * `GET /health`  — a short `key value` liveness report supplied by
//!   the engine through an opaque callback (the telemetry crate knows
//!   nothing about engines).
//! * `GET /trace`   — drains the trace ring as Chrome trace-event
//!   JSON; save the body and load it in Perfetto.
//! * `GET /profile` and `GET /top` — the profiler's per-rule accounts
//!   and live histogram quantiles, and its ten costliest rules.
//!
//! This is deliberately not a web framework: each connection is
//! answered by a short-lived thread (so a stalled scraper can never
//! hold a liveness probe hostage), only the request line is routed on,
//! and anything unrecognised is a 404. Shutdown is graceful — the
//! handle sets a stop flag, wakes the (blocking) accept with a
//! self-connect, and joins the accept thread.
//!
//! ```
//! use std::io::{Read, Write};
//! use std::sync::Arc;
//! use telemetry::{serve, Registry};
//!
//! let registry = Arc::new(Registry::new());
//! registry.counter("rules_fired_total").add(2);
//! let server = serve("127.0.0.1:0", Arc::clone(&registry), None).unwrap();
//!
//! let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
//! write!(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
//! let mut body = String::new();
//! conn.read_to_string(&mut body).unwrap();
//! assert!(body.contains("rules_fired_total 2"));
//!
//! server.shutdown();
//! ```

use crate::handle::Telemetry;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on a request head (request line plus headers). No more
/// than this is ever read, let alone buffered, before the reply: a
/// client streaming an endless line gets `431` instead of a `String`
/// that grows for as long as it sends.
const MAX_HEAD_BYTES: u64 = 8 << 10;

/// After a `431`, how much of the oversized request is read and thrown
/// away before the close. Closing on unread input resets the
/// connection, and a reset can overtake the reply.
const LINGER_BYTES: u64 = 4 << 20;

/// The `/health` body producer: returns `key value` lines. Opaque so
/// higher layers (the durable engine knows its WAL sequence and shard
/// balance) can report without this crate depending on them.
pub type HealthFn = Box<dyn Fn() -> String + Send + Sync>;

/// A running exposition server; dropping it without
/// [`shutdown`](ServerHandle::shutdown) detaches the accept thread
/// (it exits with the process).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
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

    /// Stops accepting, wakes the accept thread, and joins it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The accept call blocks; a throwaway connection unblocks it
        // so it can observe the flag. A wildcard bind (`0.0.0.0:p`)
        // is not itself a connectable destination everywhere, so dial
        // the loopback equivalent instead of the bound address.
        let _ = TcpStream::connect(wake_addr(self.addr));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The address a local client should dial to reach a listener bound at
/// `addr`: for a concrete IP that is the address itself, but wildcard
/// binds (`0.0.0.0` / `[::]`) listen everywhere without being a valid
/// destination on every platform, so substitute the matching loopback.
pub fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        match addr {
            SocketAddr::V4(_) => addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
            SocketAddr::V6(_) => addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
        }
    }
    addr
}

/// Binds `bind` (e.g. `"127.0.0.1:9184"`, or port `0` for ephemeral)
/// and serves `/metrics`, `/health`, `/trace`, `/profile` and `/top`
/// until [`ServerHandle::shutdown`], all from one [`Telemetry`] handle
/// (a bare `Arc<Registry>` converts into one). With the handle's
/// profiler off, `/profile` and `/top` still answer, with empty
/// accounts but live histogram quantiles.
pub fn serve(
    bind: &str,
    telemetry: impl Into<Telemetry>,
    health: Option<HealthFn>,
) -> io::Result<ServerHandle> {
    let telemetry = telemetry.into();
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let health = Arc::new(health);
    let thread = std::thread::Builder::new()
        .name("telemetry-exposition".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                // Even with per-connection threads a stalled client
                // should release its thread promptly.
                let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = conn.set_write_timeout(Some(Duration::from_secs(2)));
                // One short-lived thread per connection: a client that
                // connects and sends nothing ties up only its own
                // thread for the read timeout, never the accept loop —
                // liveness probes must not queue behind a stalled
                // scraper.
                let telemetry = telemetry.clone();
                let health = Arc::clone(&health);
                let _ = std::thread::Builder::new()
                    .name("telemetry-conn".into())
                    .spawn(move || {
                        let _ = handle(conn, &telemetry, health.as_deref());
                    });
            }
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

fn handle(
    conn: TcpStream,
    telemetry: &Telemetry,
    health: Option<&(dyn Fn() -> String + Send + Sync)>,
) -> io::Result<()> {
    let (registry, profiler) = (telemetry.registry(), telemetry.profiler());
    let mut head = BufReader::new((&conn).take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    head.read_line(&mut request_line)?;
    // Drain the request headers up to the blank line before replying.
    // Answering while the client is still writing headers is an HTTP
    // violation: a keep-alive client (curl) sees the response overlap
    // its request, and a reply-then-close can RST away the body. The
    // byte cap bounds a malicious never-ending header stream; the
    // read timeout bounds a stalled one.
    let complete = loop {
        let mut line = String::new();
        match head.read_line(&mut line)? {
            // End of input: the client's own is a short but whole
            // request, the cap's is an oversized one.
            0 => break head.get_ref().limit() > 0,
            _ if line == "\r\n" || line == "\n" => break true,
            _ => {}
        }
    };
    // "GET /path HTTP/1.1" — only the path matters here.
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
        _ if !complete => (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            format!("request head exceeds {MAX_HEAD_BYTES} bytes\n"),
        ),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_text(),
        ),
        "/health" => (
            "200 OK",
            "text/plain; charset=utf-8",
            health.map_or_else(|| "up 1\n".to_string(), |h| h()),
        ),
        "/trace" => (
            "200 OK",
            "application/json",
            telemetry.tracer().drain_chrome_json(),
        ),
        "/profile" => (
            "200 OK",
            "application/json",
            profiler.profile_json(registry),
        ),
        "/top" => ("200 OK", "application/json", profiler.top_json(10)),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no route for {path:?}; try /metrics, /health, /trace, /profile, /top\n"),
        ),
    };
    let mut conn = &conn;
    write!(
        conn,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    conn.write_all(body.as_bytes())?;
    conn.flush()?;
    if !complete {
        conn.shutdown(Shutdown::Write)?;
        io::copy(&mut conn.take(LINGER_BYTES), &mut io::sink())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, Tracer};
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_health_trace_and_404() {
        let registry = Arc::new(Registry::new());
        registry.counter("predindex_match_tuples_total").add(5);
        let tracer = Tracer::new(64);
        tracer.instant("ping");
        let server = serve(
            "127.0.0.1:0",
            Telemetry::new(Arc::clone(&registry)).with_tracer(tracer.clone()),
            Some(Box::new(|| "up 1\nwal_next_seq 42\n".to_string())),
        )
        .unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("predindex_match_tuples_total 5"));

        let (_, body) = get(addr, "/health");
        assert!(body.contains("wal_next_seq 42"));

        let (head, body) = get(addr, "/trace");
        assert!(head.contains("application/json"));
        assert!(body.contains("\"name\":\"ping\""));
        // /trace drains: a second scrape starts empty.
        let (_, body) = get(addr, "/trace");
        assert!(body.contains("\"traceEvents\":[]"));
        assert!(tracer.events().is_empty());

        // An unknown path, and the index advisor's retired route, are
        // 404s that name exactly the routes there are.
        for path in ["/nope", "/advisor"] {
            let (head, body) = get(addr, path);
            assert!(head.starts_with("HTTP/1.1 404"), "{path}: {head}");
            let routes = body.split_once("try ").map(|(_, r)| r.trim_end());
            assert_eq!(
                routes,
                Some("/metrics, /health, /trace, /profile, /top"),
                "{path}"
            );
        }

        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may briefly accept on a lingering socket; a
                // request after shutdown must at least go unanswered.
                let mut c = TcpStream::connect(addr).unwrap();
                let _ = write!(c, "GET /metrics HTTP/1.1\r\n\r\n");
                c.set_read_timeout(Some(Duration::from_millis(300)))
                    .unwrap();
                let mut s = String::new();
                c.read_to_string(&mut s).unwrap_or(0) == 0
            }
        );
    }

    /// A megabyte with no newline in it: the server reads one head's
    /// worth, answers `431` and lets go, and a liveness probe on a
    /// second connection is answered while the first is still sending.
    #[test]
    fn an_endless_request_line_is_cut_off_at_the_head_cap() {
        let server = serve("127.0.0.1:0", Arc::new(Registry::new()), None).unwrap();
        let addr = server.addr();

        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile.write_all(&[b'a'; 64 << 10]).unwrap();
        let (head, body) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "up 1\n");

        // The rest of the megabyte. The server has stopped listening,
        // so a write may fail; the reply must arrive either way.
        for _ in 0..15 {
            let _ = hostile.write_all(&[b'a'; 64 << 10]);
        }
        let started = std::time::Instant::now();
        let mut response = String::new();
        hostile.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 431 "), "{response:?}");
        // Cut off by the cap, not by the 2 s read timeout running out.
        assert!(started.elapsed() < Duration::from_secs(1));
        server.shutdown();
    }

    #[test]
    fn serves_profile_and_top() {
        let registry = Arc::new(Registry::new());
        registry.histogram("req_nanos").record(1_000);
        let telemetry = Telemetry::new(Arc::clone(&registry)).with_profiling();
        let firing = crate::CostSnapshot {
            firings: 1,
            ..Default::default()
        };
        telemetry.profiler().bill(Some(3), &firing);
        telemetry.profiler().name_rule(3, "reorder");
        let server = serve("127.0.0.1:0", telemetry, None).unwrap();

        let (head, body) = get(server.addr(), "/profile");
        assert!(head.contains("application/json"));
        assert!(body.contains("\"schema\":\"telemetry/profile-v2\""));
        assert!(body.contains("\"rule\":\"3\""));
        assert!(body.contains("\"name\":\"req_nanos\""));

        let (_, body) = get(server.addr(), "/top");
        assert!(body.contains("\"schema\":\"telemetry/top-v1\""));
        assert!(body.contains("\"reorder\""));

        let (_, body) = get(server.addr(), "/nope");
        assert!(body.contains("/profile"));
        server.shutdown();
    }

    #[test]
    fn plain_serve_answers_profile_with_empty_accounts() {
        let registry = Arc::new(Registry::new());
        registry.histogram("h").record(4);
        let server = serve("127.0.0.1:0", Arc::clone(&registry), None).unwrap();
        let (head, body) = get(server.addr(), "/profile");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("\"accounts\":[]"));
        // Quantiles still come from the live registry.
        assert!(body.contains("\"name\":\"h\""));
        server.shutdown();
    }

    #[test]
    fn concurrent_trace_drains_never_double_deliver() {
        // Two clients racing GET /trace must split the ring: every
        // event delivered exactly once across both bodies, no panics.
        const EVENTS: usize = 500;
        let tracer = Tracer::new(2048);
        for _ in 0..EVENTS {
            tracer.instant("race_evt");
        }
        let server = serve(
            "127.0.0.1:0",
            Telemetry::disabled().with_tracer(tracer.clone()),
            None,
        )
        .unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let (head, body) = get(addr, "/trace");
                    assert!(head.starts_with("HTTP/1.1 200 OK"));
                    body.matches("\"race_evt\"").count()
                })
            })
            .collect();
        let total: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, EVENTS, "drain lost or duplicated events");
        assert!(tracer.events().is_empty());
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_a_wildcard_bind() {
        // Regression: the shutdown self-connect used the bound address
        // verbatim, and connecting to 0.0.0.0 can fail — leaving the
        // accept thread blocked and `join` hung forever.
        let server = serve("0.0.0.0:0", Telemetry::disabled(), None).unwrap();
        assert!(server.addr().ip().is_unspecified());
        let done = std::thread::spawn(move || server.shutdown());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "shutdown of a 0.0.0.0 bind hung"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        done.join().unwrap();
    }

    #[test]
    fn wake_addr_rewrites_only_unspecified_ips() {
        let wild: SocketAddr = "0.0.0.0:9184".parse().unwrap();
        assert_eq!(wake_addr(wild), "127.0.0.1:9184".parse().unwrap());
        let wild6: SocketAddr = "[::]:9184".parse().unwrap();
        assert_eq!(wake_addr(wild6), "[::1]:9184".parse().unwrap());
        let concrete: SocketAddr = "192.0.2.7:80".parse().unwrap();
        assert_eq!(wake_addr(concrete), concrete);
    }

    #[test]
    fn a_stalled_connection_does_not_block_other_requests() {
        let server = serve("127.0.0.1:0", Telemetry::disabled(), None).unwrap();
        // Connect and send nothing: under the old serial accept loop
        // this held every later request hostage for the full 2 s read
        // timeout.
        let stalled = TcpStream::connect(server.addr()).unwrap();
        let started = std::time::Instant::now();
        let (head, body) = get(server.addr(), "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, "up 1\n");
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "/health queued behind a stalled connection: {:?}",
            started.elapsed()
        );
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn headers_are_drained_before_the_reply() {
        let registry = Arc::new(Registry::new());
        registry.counter("rules_fired_total").add(3);
        let server = serve("127.0.0.1:0", Arc::clone(&registry), None).unwrap();
        // Dribble the headers out slowly: the server must wait for the
        // blank line (i.e. consume the full request) before replying.
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        write!(conn, "GET /metrics HTTP/1.1\r\nHost: t\r\n").unwrap();
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_millis(100));
        write!(conn, "User-Agent: dribble\r\nAccept: */*\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("Connection: close"));
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .parse()
            .unwrap();
        assert_eq!(content_length, body.len());
        assert!(body.contains("rules_fired_total 3"));
        server.shutdown();
    }

    #[test]
    fn default_health_reports_up() {
        let server = serve("127.0.0.1:0", Telemetry::disabled(), None).unwrap();
        let (_, body) = get(server.addr(), "/health");
        assert_eq!(body, "up 1\n");
        server.shutdown();
    }
}
