//! The rule server daemon.
//!
//! ```text
//! ruleserv --dir ./ruleserv-data --bind 127.0.0.1:7878 --metrics 127.0.0.1:9184
//! ```
//!
//! Opens (creating or recovering) the durable engine at `--dir`,
//! serves the wire protocol on `--bind`, and optionally exposes the
//! telemetry HTTP endpoints (`/metrics`, `/health`, `/trace`,
//! `/profile`) on `--metrics`. Prints `LISTENING <addr>` on stdout once ready —
//! supervisors and tests parse that line — and runs until stdin
//! reaches EOF (or `--seconds` elapse), then shuts down gracefully:
//! every session's read half is closed, every request already read is
//! answered, and the log is synced. A crash is a kill from outside;
//! the daemon has no hook of its own for one.

#![deny(clippy::unwrap_used)]

use durable::{ActionRegistry, DurableRuleEngine, Options, SyncPolicy};
use predicate::FunctionRegistry;
use ruleserv::{serve, ServerOptions};
use std::io::Read;
use std::sync::Arc;
use telemetry::{Registry, Telemetry};

struct Config {
    dir: String,
    bind: String,
    metrics: Option<String>,
    seconds: Option<u64>,
    server: ServerOptions,
    durable: Options,
    profile: bool,
    slow_ms: Option<u64>,
}

fn usage() -> ! {
    let (server, durable) = (ServerOptions::default(), Options::default());
    let snapshot_every = durable
        .snapshot_every
        .map_or("off".into(), |n| n.to_string());
    eprintln!(
        "usage: ruleserv [--dir PATH] [--bind ADDR] [--metrics ADDR] [--seconds N]\n\
         \x20               [--queue-cap N] [--pipeline-cap N] [--sync-every N]\n\
         \x20               [--snapshot-every N] [--profile] [--slow-ms N]\n\
         \n\
         \x20 --dir PATH        durable home (default ./ruleserv-data)\n\
         \x20 --bind ADDR       wire-protocol listener (default 127.0.0.1:7878; port 0 = ephemeral)\n\
         \x20 --metrics ADDR    also serve the telemetry HTTP exposition here\n\
         \x20 --seconds N       run for N seconds instead of until stdin EOF\n\
         \x20 --queue-cap N     engine queue bound before Busy replies (default {})\n\
         \x20 --pipeline-cap N  per-connection outstanding-reply bound (default {})\n\
         \x20 --sync-every N    reply before syncing, fsync every N appends (default: sync before replying)\n\
         \x20 --snapshot-every N  snapshot cadence in logged ops (default {})\n\
         \x20 --profile         attach the cost-attribution profiler (/profile on --metrics)\n\
         \x20 --slow-ms N       capture requests slower than N ms in the slow-op ring (implies --profile)",
        server.queue_cap,
        server.pipeline_cap,
        snapshot_every,
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut cfg = Config {
        dir: "./ruleserv-data".to_string(),
        bind: "127.0.0.1:7878".to_string(),
        metrics: None,
        seconds: None,
        server: ServerOptions::default(),
        durable: Options::default(),
        profile: false,
        slow_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| match args.next() {
            Some(v) => v,
            None => usage(),
        };
        match flag.as_str() {
            "--dir" => cfg.dir = value(&mut args),
            "--bind" => cfg.bind = value(&mut args),
            "--metrics" => cfg.metrics = Some(value(&mut args)),
            "--seconds" => cfg.seconds = Some(value(&mut args).parse().unwrap_or_else(|_| usage())),
            "--queue-cap" => {
                cfg.server.queue_cap = value(&mut args).parse().unwrap_or_else(|_| usage())
            }
            "--pipeline-cap" => {
                cfg.server.pipeline_cap = value(&mut args).parse().unwrap_or_else(|_| usage())
            }
            "--sync-every" => {
                let n = value(&mut args).parse().unwrap_or_else(|_| usage());
                cfg.durable.sync = SyncPolicy::EveryN(n);
            }
            "--snapshot-every" => {
                cfg.durable.snapshot_every =
                    Some(value(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--profile" => cfg.profile = true,
            "--slow-ms" => {
                cfg.slow_ms = Some(value(&mut args).parse().unwrap_or_else(|_| usage()));
                cfg.profile = true;
            }
            _ => usage(),
        }
    }
    cfg
}

fn main() {
    if let Err(e) = run(parse_args()) {
        eprintln!("ruleserv: {e}");
        std::process::exit(1);
    }
}

fn run(cfg: Config) -> Result<(), Box<dyn std::error::Error>> {
    let registry = Arc::new(Registry::new());
    let mut telemetry = Telemetry::new(Arc::clone(&registry));
    if cfg.profile {
        telemetry = telemetry.with_profiling();
    }
    if let Some(ms) = cfg.slow_ms {
        let nanos = ms.saturating_mul(1_000_000);
        telemetry.profiler().set_slow_threshold_nanos(nanos);
    }
    let engine = DurableRuleEngine::open_with_metrics(
        &cfg.dir,
        FunctionRegistry::default(),
        ActionRegistry::new(),
        cfg.durable,
        telemetry.clone(),
    )?;

    let server = serve(&cfg.bind, engine, cfg.server)?;
    // Parsed by supervisors and tests; keep the shape stable.
    println!("LISTENING {}", server.addr());

    let exposition = match &cfg.metrics {
        Some(addr) => {
            // The engine has moved into its thread; /health is served
            // from the registry-backed families instead.
            let health_registry = Arc::clone(&registry);
            let handle = telemetry::serve(
                addr,
                telemetry,
                Some(Box::new(move || -> String {
                    format!(
                        "up 1\nserver_requests {}\nserver_connections {}\n",
                        health_registry.counter_family_total("server_requests_total"),
                        health_registry.counter_family_total("server_connections_total"),
                    )
                })),
            )?;
            println!("METRICS {}", handle.addr());
            Some(handle)
        }
        None => None,
    };

    match cfg.seconds {
        Some(s) => std::thread::sleep(std::time::Duration::from_secs(s)),
        None => {
            // Run until the supervisor closes stdin.
            let mut sink = [0u8; 4096];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        }
    }

    eprintln!("ruleserv: shutting down");
    if let Some(h) = exposition {
        h.shutdown();
    }
    if let Some(mut engine) = server.shutdown() {
        engine.sync()?;
    }
    Ok(())
}
