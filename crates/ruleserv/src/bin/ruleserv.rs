//! The rule server daemon.
//!
//! ```text
//! ruleserv --dir ./ruleserv-data --bind 127.0.0.1:7878 --metrics 127.0.0.1:9184
//! ```
//!
//! Opens (creating or recovering) the durable engine at `--dir`,
//! serves the wire protocol on `--bind`, and optionally exposes the
//! telemetry HTTP endpoints (`/metrics`, `/health`, `/trace`,
//! `/profile`, `/top`) on
//! `--metrics`. Prints `LISTENING <addr>` on stdout once ready —
//! supervisors and tests parse that line — and runs until stdin
//! reaches EOF (or `--seconds` elapse), then shuts down gracefully.
//!
//! `--crash-after N` is the crash-recovery harness: the process aborts
//! after the Nth applied operation's WAL append, before the sync and
//! the replies of the commit group it is in.

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
    queue_cap: usize,
    pipeline_cap: usize,
    sync_every: Option<u32>,
    snapshot_every: Option<u64>,
    crash_after: Option<u64>,
    profile: bool,
    slow_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ruleserv [--dir PATH] [--bind ADDR] [--metrics ADDR] [--seconds N]\n\
         \x20               [--queue-cap N] [--pipeline-cap N] [--sync-every N]\n\
         \x20               [--snapshot-every N] [--crash-after N] [--profile] [--slow-ms N]\n\
         \n\
         \x20 --dir PATH        durable home (default ./ruleserv-data)\n\
         \x20 --bind ADDR       wire-protocol listener (default 127.0.0.1:7878; port 0 = ephemeral)\n\
         \x20 --metrics ADDR    also serve the telemetry HTTP exposition here\n\
         \x20 --seconds N       run for N seconds instead of until stdin EOF\n\
         \x20 --queue-cap N     engine queue bound before Busy replies (default 1024)\n\
         \x20 --pipeline-cap N  per-connection outstanding-reply bound (default 4096)\n\
         \x20 --sync-every N    reply before syncing, fsync every N appends (default: sync before replying)\n\
         \x20 --snapshot-every N  snapshot cadence in logged ops (default 1024)\n\
         \x20 --crash-after N   abort after op N's WAL append, before its reply (crash tests)\n\
         \x20 --profile         attach the cost-attribution profiler (/profile, /top on --metrics)\n\
         \x20 --slow-ms N       capture requests slower than N ms in the slow-op ring (implies --profile)"
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut cfg = Config {
        dir: "./ruleserv-data".to_string(),
        bind: "127.0.0.1:7878".to_string(),
        metrics: None,
        seconds: None,
        queue_cap: 1024,
        pipeline_cap: 4096,
        sync_every: None,
        snapshot_every: Some(1024),
        crash_after: None,
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
            "--queue-cap" => cfg.queue_cap = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--pipeline-cap" => {
                cfg.pipeline_cap = value(&mut args).parse().unwrap_or_else(|_| usage())
            }
            "--sync-every" => {
                cfg.sync_every = Some(value(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--snapshot-every" => {
                cfg.snapshot_every = Some(value(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--crash-after" => {
                cfg.crash_after = Some(value(&mut args).parse().unwrap_or_else(|_| usage()))
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
    let engine = DurableRuleEngine::open_with_metrics(
        &cfg.dir,
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options {
            sync: match cfg.sync_every {
                None => SyncPolicy::Always,
                Some(n) => SyncPolicy::EveryN(n),
            },
            snapshot_every: cfg.snapshot_every,
        },
        telemetry.clone(),
    )?;

    let opts = ServerOptions {
        queue_cap: cfg.queue_cap,
        pipeline_cap: cfg.pipeline_cap,
        crash_after: cfg.crash_after,
        slow_op_threshold: cfg.slow_ms.map(std::time::Duration::from_millis),
        ..ServerOptions::default()
    };
    let server = serve(&cfg.bind, engine, opts)?;
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
