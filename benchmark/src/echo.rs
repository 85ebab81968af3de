//! A fixed reference *server*, the I/O counterpart of
//! [`crate::measure::Reference`]: the thread hand-offs, loopback socket
//! calls and `fdatasync` of one `ruleserv` request, in none of the
//! repository's code.
//!
//! A request crosses a reader thread, a bounded channel, a thread that
//! appends 128 bytes to a file and syncs it, a second channel, a writer
//! thread and the socket back: four wake-ups, four socket calls, one
//! sync — the shape of `ruleserv` with `SyncPolicy::Always`. On this
//! shared host those three things cost 30–60% more for minutes at a
//! time and nothing the repository does can move them, so `serve_mixed`
//! reports its times relative to this server's, measured beside every
//! round (see `benchmark/README.md`, *Calibrated time*).

use crate::measure::{self, Scale};
use std::fs::File;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::mpsc::sync_channel;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const REQUEST_BYTES: usize = 64;
const REPLY_BYTES: usize = 32;
const RECORD_BYTES: usize = 128;

const PACED: usize = 64;
const PIPELINED: usize = 256;
const DEPTH: usize = 16;

/// What the reference server does on the authoring container on a
/// quiet afternoon (medians of ~700 readings). Only a scale: it puts
/// calibrated times in the units of that machine state.
const NOMINAL: Reading = Reading {
    rtt_ns: 330_000.0,
    pipe_ns: 240_000.0,
    pipe_cpu_ns: 88_000.0,
};

/// The reference server timed three ways.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Median round trip of one request at a time, sent at the open
    /// loop's arrival rate: what the host charges for four wake-ups
    /// from idle and a sync.
    rtt_ns: f64,
    /// Wall time per request with a full pipeline: the sync thread
    /// never sleeps, as the engine thread does not in a closed loop.
    pipe_ns: f64,
    /// Process CPU per request with a full pipeline.
    pipe_cpu_ns: f64,
}

impl Reading {
    /// The calibration factors of a round that ran between two
    /// readings: closed-loop wall time against the pipelined time,
    /// open-loop latency against the paced round trip, CPU against CPU.
    pub fn scale(before: Reading, after: Reading) -> Scale {
        let factor = |f: fn(&Reading) -> f64| 2.0 * f(&NOMINAL) / (f(&before) + f(&after));
        Scale {
            busy: factor(|r| r.pipe_ns),
            p50: factor(|r| r.rtt_ns),
            cpu: factor(|r| r.pipe_cpu_ns),
        }
    }
}

pub struct Echo {
    stream: TcpStream,
    threads: Vec<JoinHandle<()>>,
}

impl Echo {
    /// Starts the three server threads; `file` is the log they append
    /// to (on the same disk as the workload's data directory).
    pub fn start(file: &Path) -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let stream =
            TcpStream::connect(listener.local_addr().expect("bound")).expect("connect loopback");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let (mut read_half, _) = listener.accept().expect("accept own connection");
        read_half.set_nodelay(true).expect("TCP_NODELAY");
        let mut write_half = read_half.try_clone().expect("clone socket");
        let mut log = File::create(file).expect("create reference log");
        let (to_sync, from_reader) = sync_channel::<()>(64);
        let (to_writer, from_sync) = sync_channel::<()>(64);
        let spawn = |name: &str, f: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new()
                .name(name.into())
                .spawn(f)
                .expect("spawn reference server thread")
        };
        let threads = vec![
            spawn(
                "echo-reader",
                Box::new(move || {
                    let mut request = [0u8; REQUEST_BYTES];
                    while read_half.read_exact(&mut request).is_ok() && to_sync.send(()).is_ok() {}
                }),
            ),
            spawn(
                "echo-sync",
                Box::new(move || {
                    let record = [0x5au8; RECORD_BYTES];
                    while from_reader.recv().is_ok() {
                        log.write_all(&record).expect("append to reference log");
                        log.sync_data().expect("sync reference log");
                        if to_writer.send(()).is_err() {
                            break;
                        }
                    }
                }),
            ),
            spawn(
                "echo-writer",
                Box::new(move || {
                    let reply = [0xa5u8; REPLY_BYTES];
                    while from_sync.recv().is_ok() && write_half.write_all(&reply).is_ok() {}
                }),
            ),
        ];
        Echo { stream, threads }
    }

    /// `n` requests, one every `interval`, one at a time; the median
    /// round trip in nanoseconds.
    fn paced_rtt_ns(&mut self, n: usize, interval: Duration) -> f64 {
        let mut rtts = Vec::with_capacity(n);
        let mut reply = [0u8; REPLY_BYTES];
        let start = Instant::now();
        for i in 0..n {
            let due = start + interval * i as u32;
            // Nothing is in flight, so this is a high-resolution sleep.
            while let Some(wait) = due.checked_duration_since(Instant::now()) {
                if wait.is_zero() {
                    break;
                }
                measure::wait_readable(self.stream.as_raw_fd(), Some(wait));
            }
            let sent = Instant::now();
            self.stream
                .write_all(&[0x3cu8; REQUEST_BYTES])
                .expect("send reference request");
            self.stream
                .read_exact(&mut reply)
                .expect("receive reference reply");
            rtts.push(sent.elapsed().as_nanos() as u64);
        }
        measure::quantile_ns(&mut rtts, 0.5)
    }

    /// `n` requests, `depth` in flight; nanoseconds per request.
    fn pipelined_ns_per_request(&mut self, n: usize, depth: usize) -> f64 {
        let mut reply = [0u8; REPLY_BYTES];
        let started = Instant::now();
        let (mut sent, mut received) = (0usize, 0usize);
        while received < n {
            while sent < n && sent - received < depth {
                self.stream
                    .write_all(&[0x3cu8; REQUEST_BYTES])
                    .expect("send reference request");
                sent += 1;
            }
            self.stream
                .read_exact(&mut reply)
                .expect("receive reference reply");
            received += 1;
        }
        started.elapsed().as_nanos() as f64 / n as f64
    }

    /// One reading, about an eighth of a second: [`PACED`] requests at
    /// `interval`, then [`PIPELINED`] with [`DEPTH`] in flight.
    pub fn read(&mut self, interval: Duration) -> Reading {
        let rtt_ns = self.paced_rtt_ns(PACED, interval);
        let cpu0 = measure::process_cpu_ns();
        let pipe_ns = self.pipelined_ns_per_request(PIPELINED, DEPTH);
        let pipe_cpu_ns = (measure::process_cpu_ns() - cpu0) as f64 / PIPELINED as f64;
        Reading {
            rtt_ns,
            pipe_ns,
            pipe_cpu_ns,
        }
    }

    /// Closes the connection and waits for the three threads.
    pub fn stop(self) {
        drop(self.stream);
        for t in self.threads {
            t.join().expect("reference server thread panicked");
        }
    }
}
