//! # Rule server: the durable engine as a network daemon
//!
//! The paper's predicate index matters at scale only if many clients
//! can drive one engine concurrently. This crate wraps
//! [`durable::DurableRuleEngine`] in a standalone daemon speaking a
//! length-prefixed framed protocol over `std::net` — no third-party
//! dependencies, same constraint as the rest of the workspace.
//!
//! * [`proto`] — the wire format: `[u32 len][u32 crc][u8 opcode]
//!   [payload]` frames (the CRC-32 is the WAL's), a request opcode
//!   table reusing the WAL's self-describing [`durable::Record`]
//!   encoding for mutations, and typed [`Request`]/[`Reply`] values.
//! * [`server`] — the daemon: one engine thread owning the durable
//!   engine (WAL ordering stays serial), one reader + writer thread
//!   per connection, pipelined requests with per-connection reply
//!   slots that make reply order structurally equal to request order,
//!   bounded-queue backpressure answering [`Reply::Busy`] instead of
//!   buffering, and subscription streams of rule firings with
//!   drop-and-count lag accounting.
//! * [`client`] — a typed synchronous client: call-and-wait methods
//!   plus an explicit pipelining API ([`Client::send`] /
//!   [`Client::recv_reply`]) and event draining.
//!
//! Binaries: `ruleserv` (the daemon, with optional telemetry HTTP
//! exposition) and `soak`, a correctness driver: N concurrent
//! connections of mixed pipelined traffic, every reply matched to its
//! request, a one-line summary, and a non-zero exit on any lost or
//! reordered reply. It measures nothing — the server's latency and
//! throughput instrument is stackbench's `serve_mixed` workload.
//!
//! ```no_run
//! use durable::{ActionRegistry, DurableRuleEngine, Options};
//! use predicate::FunctionRegistry;
//! use relation::{AttrType, Schema, Value};
//! use ruleserv::{serve, Client, ServerOptions};
//!
//! let engine = DurableRuleEngine::open(
//!     "/tmp/ruleserv-demo",
//!     FunctionRegistry::default(),
//!     ActionRegistry::new(),
//!     Options::default(),
//! )
//! .unwrap();
//! let server = serve("127.0.0.1:0", engine, ServerOptions::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! client
//!     .create_relation(Schema::builder("emp").attr("salary", AttrType::Int).build())
//!     .unwrap();
//! let ack = client.insert("emp", vec![Value::Int(9000)]).unwrap();
//! println!("logged as WAL seq {}", ack.seq);
//! let _engine = server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

pub mod client;
mod commit;
mod metrics;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, Pushed};
pub use proto::{Event, FireSummary, ProtoError, Reply, Request};
pub use server::{serve, ServerHandle, ServerOptions};
