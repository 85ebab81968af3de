//! Concurrent-client soak: a correctness driver for the rule server.
//!
//! ```text
//! soak --connections 32 --requests 2000
//! ```
//!
//! Starts an in-process server over a fresh durable home (or targets a
//! running daemon with `--addr`), then drives N connections of mixed
//! pipelined traffic. Each connection owns one relation and one rule so
//! traffic exercises create/insert/update/delete and rule firings
//! without cross-connection write conflicts.
//!
//! Every request is logged with the reply kind it must produce; replies
//! are read back in order and matched one-to-one. A kind mismatch
//! counts as *reordered* and an unanswered request at drain counts as
//! *lost* — the process exits non-zero if either is nonzero or a
//! connection failed. `Busy` is a valid outcome for any engine-bound
//! request (bounded-queue backpressure), counted separately.
//!
//! The run ends with a one-line summary on stdout. It measures nothing:
//! with 32 × 64 requests in flight against a queue of 1,024 its timings
//! are the pipeline's, not the server's (EXPERIMENTS.md, "Server
//! soak"). The server's latency and throughput instrument is
//! stackbench's `serve_mixed` workload.

#![deny(clippy::unwrap_used)]

use durable::{ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy};
use predicate::FunctionRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Schema, Value};
use rules::EventMask;
use ruleserv::{serve, Client, Reply, Request, ServerOptions};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use telemetry::Registry;

struct Config {
    addr: Option<String>,
    connections: usize,
    requests: usize,
    pipeline: usize,
    seed: u64,
    sync_every: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: soak [--addr HOST:PORT] [--connections N] [--requests N] [--pipeline N]\n\
         \x20           [--seed N] [--sync-every N]\n\
         \n\
         \x20 --addr HOST:PORT  target a running daemon (default: in-process server)\n\
         \x20 --connections N   concurrent client connections (default 32)\n\
         \x20 --requests N      requests per connection (default 2000)\n\
         \x20 --pipeline N      max requests in flight per connection (default 64)\n\
         \x20 --seed N          RNG seed for the traffic mix (default 42)\n\
         \x20 --sync-every N    in-process server group-commit window (default 64)"
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut cfg = Config {
        addr: None,
        connections: 32,
        requests: 2000,
        pipeline: 64,
        seed: 42,
        sync_every: 64,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(v) = args.next() else { usage() };
        match flag.as_str() {
            "--addr" => cfg.addr = Some(v),
            "--connections" => cfg.connections = v.parse().unwrap_or_else(|_| usage()),
            "--requests" => cfg.requests = v.parse().unwrap_or_else(|_| usage()),
            "--pipeline" => cfg.pipeline = v.parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = v.parse().unwrap_or_else(|_| usage()),
            "--sync-every" => cfg.sync_every = v.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if cfg.connections == 0 || cfg.requests == 0 || cfg.pipeline == 0 {
        usage()
    }
    cfg
}

/// What one in-flight request owes us.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Expect {
    Pong,
    Unit,
    Fire,
    Health,
}

impl Expect {
    /// Does `reply` settle this expectation? `Busy` and `Err` are
    /// legitimate in-order outcomes for any engine-bound request
    /// (backpressure and domain rejection respectively), never for a
    /// session-local `Ping`.
    fn matches(self, reply: &Reply) -> bool {
        match (self, reply) {
            (Expect::Pong, Reply::Pong) => true,
            (Expect::Unit, Reply::Unit) => true,
            (Expect::Fire, Reply::Fire(_)) => true,
            (Expect::Health, Reply::Health(_)) => true,
            (Expect::Pong, _) => false,
            (_, Reply::Busy | Reply::Err(_)) => true,
            _ => false,
        }
    }
}

/// Soak outcome: one connection's, or the run's total.
#[derive(Default)]
struct ConnStats {
    replies: u64,
    busy: u64,
    errors: u64,
    fired: u64,
    lost: u64,
    reordered: u64,
}

fn drive_connection(
    id: usize,
    addr: std::net::SocketAddr,
    cfg_requests: usize,
    cfg_pipeline: usize,
    seed: u64,
) -> Result<ConnStats, ruleserv::ClientError> {
    let mut rng = StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9e37_79b9));
    let mut client = Client::connect(addr)?;
    let relation = format!("soak_c{id}");

    // A private relation plus a rule over it so roughly half the
    // inserts fire.
    client.create_relation(
        Schema::builder(&relation)
            .attr("k", AttrType::Int)
            .attr("v", AttrType::Int)
            .build(),
    )?;
    client.add_rule(RuleSpec {
        name: format!("{relation}_low_k"),
        condition: format!("{relation}.k < 50"),
        mask: EventMask::INSERT_UPDATE,
        priority: 0,
        action: ActionSpec::Log(format!("{relation} low k")),
    })?;

    let mut stats = ConnStats::default();
    // FIFO of expectations; the reply stream must settle these
    // strictly in order.
    let mut pending: VecDeque<Expect> = VecDeque::new();
    let mut inserted: u64 = 0;

    let settle = |reply: &Reply, expect: Expect, stats: &mut ConnStats| {
        stats.replies += 1;
        match reply {
            Reply::Busy => stats.busy += 1,
            Reply::Err(_) => stats.errors += 1,
            Reply::Fire(s) => stats.fired += s.fired.len() as u64,
            _ => {}
        }
        if !expect.matches(reply) {
            stats.reordered += 1;
        }
    };

    for n in 0..cfg_requests {
        // Keep at most `pipeline` requests outstanding.
        while pending.len() >= cfg_pipeline {
            let Some(expect) = pending.pop_front() else {
                break;
            };
            match client.recv_reply() {
                Ok(reply) => settle(&reply, expect, &mut stats),
                Err(e) => {
                    stats.lost += pending.len() as u64 + 1;
                    return fail_conn(stats, e);
                }
            }
        }

        let roll: u32 = rng.gen_range(0..100);
        let request = if roll < 60 || inserted == 0 {
            inserted += 1;
            Request::Apply(durable::Record::Insert {
                relation: relation.clone(),
                values: vec![Value::Int((n as i64) % 100), Value::Int(n as i64)],
            })
        } else if roll < 75 {
            // Update a random prior id; already-deleted ids yield a
            // clean `Err` reply, which is part of the point.
            Request::Apply(durable::Record::Update {
                relation: relation.clone(),
                id: rng.gen_range(0..inserted) as u32,
                values: vec![Value::Int(rng.gen_range(0..100)), Value::Int(-1)],
            })
        } else if roll < 85 {
            Request::Apply(durable::Record::Delete {
                relation: relation.clone(),
                id: rng.gen_range(0..inserted) as u32,
            })
        } else if roll < 93 {
            Request::Ping
        } else if roll < 97 {
            Request::Health
        } else {
            Request::Sync
        };
        let expect = match &request {
            Request::Ping => Expect::Pong,
            Request::Health => Expect::Health,
            Request::Sync => Expect::Unit,
            _ => Expect::Fire,
        };
        pending.push_back(expect);
        if let Err(e) = client.send(&request) {
            stats.lost += pending.len() as u64;
            return fail_conn(stats, e);
        }
    }

    // Drain: every outstanding request must produce exactly one reply.
    while let Some(expect) = pending.pop_front() {
        match client.recv_reply() {
            Ok(reply) => settle(&reply, expect, &mut stats),
            Err(e) => {
                stats.lost += pending.len() as u64 + 1;
                return fail_conn(stats, e);
            }
        }
    }
    Ok(stats)
}

fn fail_conn(
    stats: ConnStats,
    e: ruleserv::ClientError,
) -> Result<ConnStats, ruleserv::ClientError> {
    eprintln!("soak: connection failed mid-run: {e}");
    Ok(stats)
}

fn main() {
    if let Err(e) = run(parse_args()) {
        eprintln!("soak: {e}");
        std::process::exit(1);
    }
}

fn run(cfg: Config) -> Result<(), Box<dyn std::error::Error>> {
    // In-process server unless --addr points at a running daemon.
    let mut tempdir = None;
    let (addr, server) = match &cfg.addr {
        Some(addr) => (addr.parse()?, None),
        None => {
            let dir = std::env::temp_dir().join(format!(
                "ruleserv-soak-{}-{}",
                std::process::id(),
                cfg.seed
            ));
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            let engine = DurableRuleEngine::open_with_metrics(
                &dir,
                FunctionRegistry::default(),
                ActionRegistry::new(),
                Options {
                    sync: SyncPolicy::EveryN(cfg.sync_every),
                    snapshot_every: None,
                },
                Arc::new(Registry::new()),
            )?;
            tempdir = Some(dir);
            let server = serve("127.0.0.1:0", engine, ServerOptions::default())?;
            (server.addr(), Some(server))
        }
    };

    eprintln!(
        "soak: {} connections x {} requests (pipeline {}) against {addr}",
        cfg.connections, cfg.requests, cfg.pipeline
    );

    let started = Instant::now();
    let mut handles = Vec::new();
    for id in 0..cfg.connections {
        let requests = cfg.requests;
        let pipeline = cfg.pipeline;
        let seed = cfg.seed;
        handles.push(
            std::thread::Builder::new()
                .name(format!("soak-{id}"))
                .spawn(move || drive_connection(id, addr, requests, pipeline, seed))?,
        );
    }

    let mut total = ConnStats::default();
    let mut failed_conns = 0u64;
    for handle in handles {
        match handle.join() {
            Ok(Ok(stats)) => {
                total.replies += stats.replies;
                total.busy += stats.busy;
                total.errors += stats.errors;
                total.fired += stats.fired;
                total.lost += stats.lost;
                total.reordered += stats.reordered;
            }
            Ok(Err(e)) => {
                eprintln!("soak: connection error: {e}");
                failed_conns += 1;
            }
            Err(_) => {
                eprintln!("soak: connection thread panicked");
                failed_conns += 1;
            }
        }
    }
    let elapsed = started.elapsed();

    if let Some(server) = server {
        if let Some(mut engine) = server.shutdown() {
            engine.sync()?;
        }
    }
    if let Some(dir) = tempdir {
        let _ = std::fs::remove_dir_all(dir);
    }

    println!(
        "soak: {} replies to {} requests in {:.2}s: {} busy, {} errors, {} rule firings, \
         {} lost, {} reordered, {failed_conns} failed connections",
        total.replies,
        cfg.connections * cfg.requests,
        elapsed.as_secs_f64(),
        total.busy,
        total.errors,
        total.fired,
        total.lost,
        total.reordered,
    );
    if total.lost > 0 || total.reordered > 0 || failed_conns > 0 {
        std::process::exit(1);
    }
    Ok(())
}
