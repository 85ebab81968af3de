//! Clocks, process accounting and the round estimator.
//!
//! Every workload does fixed work in many short rounds (a tenth to half
//! a second each), each timed beside a fixed reference that turns its
//! times into calibrated time; a timed end-to-end metric is the lower
//! quartile by rank of its per-round calibrated values. Interference on
//! this shared 2-CPU host comes in bursts of tens of milliseconds to
//! minutes: calibration takes out what lasts longer than a round, the
//! quantile what is shorter. See `benchmark/README.md` for the spread
//! data behind both choices.

use std::time::{Duration, Instant};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU consumed by every thread of this process, live or
/// exited, in nanoseconds. `/proc/self/stat` carries the same quantity
/// but in 10 ms ticks, which on a one-second round reads the same value
/// run after run; the cascade path also spawns short-lived scoped
/// threads whose time per-task files lose when they exit.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, correctly laid out timespec for
    // the duration of the call, and the clock id is a constant the
    // kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Restricts the whole process to CPU 0. The single-threaded workloads
/// pin themselves: `std::thread::available_parallelism` then reads 1,
/// so the engine's batch matcher runs inline instead of spawning a
/// scoped thread per CPU per cascade level, and the one load thread is
/// never migrated. Thread creation and cross-CPU wake-ups are the
/// noisiest thing this sandbox does (see `benchmark/README.md`).
pub fn pin_to_one_cpu() {
    let mask: u64 = 1;
    // SAFETY: `mask` is a live 8-byte CPU set and the size passed is
    // its size; pid 0 names the calling thread, and threads spawned
    // later inherit its mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    assert_eq!(rc, 0, "sched_setaffinity(cpu 0) failed");
}

/// Blocks until `fd` is readable or `timeout` passes (forever if
/// `None`); true if readable. Socket read timeouts are rounded up to
/// scheduler ticks (milliseconds), which an open-loop generator due to
/// send every 1.5 ms cannot use; `ppoll` takes its timeout in
/// nanoseconds on a high-resolution timer.
pub fn wait_readable(fd: i32, timeout: Option<Duration>) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs() as i64,
        tv_nsec: t.subsec_nanos() as i64,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `pfd` is one live, writable pollfd and `nfds` is 1; `ts`
    // outlives the call and `ts_ptr` is either null (no timeout) or
    // points at it; a null sigmask leaves the signal mask alone.
    let rc = unsafe { ppoll(&mut pfd, 1, ts_ptr, std::ptr::null()) };
    // A signal (EINTR) reads as "not yet": callers loop on their own
    // deadline.
    rc > 0
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// What [`Reference::run`] takes on the authoring container when its
/// neighbours are quiet (the 5th percentile of ~3,000 readings). Only a
/// scale: it puts calibrated times in the units of that machine state.
pub const REFERENCE_NOMINAL_NS: f64 = 4_900_000.0;

/// A fixed reference kernel, timed immediately before and after every
/// round: 20,000 remove / clone / re-insert steps on a 4,000-entry
/// `HashMap<u64, Vec<u64>>` (allocator, hashing, short copies) and a
/// 30,000-step pointer chase through 8 MB (cache and memory latency) —
/// the instruction mix of the stack, in none of the repository's code.
///
/// On this shared host the same fixed work takes 10–60% longer for
/// minutes at a time, and over a long session drifts slower still (see
/// `benchmark/README.md`); an ALU loop does not notice, this kernel
/// does, by about as much as the workloads do. Every timed end-to-end
/// metric is therefore reported in *calibrated* time: the round's
/// measured time × [`REFERENCE_NOMINAL_NS`] ÷ the kernel's time beside
/// that round. A change to the repository cannot move the kernel, so a
/// faster program still reads faster; a slower neighbour no longer
/// reads as a slower program.
pub struct Reference {
    map: std::collections::HashMap<u64, Vec<u64>>,
    next: Vec<u32>,
    at: usize,
    step: u64,
}

impl Default for Reference {
    fn default() -> Self {
        const CELLS: usize = 2_000_000;
        let mut next: Vec<u32> = (0..CELLS as u32).collect();
        // Sattolo's shuffle: one cycle through every cell.
        let mut rng = crate::rng::SplitMix64::fork(0, 99);
        for i in (1..CELLS).rev() {
            next.swap(i, rng.below(i as u64) as usize);
        }
        let map = (0..4_000u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15), vec![i; 4]))
            .collect();
        Reference {
            map,
            next,
            at: 0,
            step: 0,
        }
    }
}

impl Reference {
    /// Runs the kernel once; nanoseconds it took.
    pub fn run(&mut self) -> u64 {
        let started = Instant::now();
        for _ in 0..20_000 {
            self.step += 1;
            let key = (self.step % 4_000).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            if let Some(v) = self.map.remove(&key) {
                let mut copy = v.clone();
                copy[0] = self.step;
                self.map.insert(key, copy);
            }
        }
        for _ in 0..30_000 {
            self.at = self.next[self.at] as usize;
        }
        std::hint::black_box(self.at);
        started.elapsed().as_nanos() as u64
    }

    /// Times `f` with the kernel run before and after it; returns `f`'s
    /// result and the factor that turns times measured inside `f` into
    /// calibrated time.
    pub fn beside<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.run();
        let out = f();
        let after = self.run();
        (out, 2.0 * REFERENCE_NOMINAL_NS / (before + after) as f64)
    }
}

/// Factors that turn a round's measured times into calibrated time,
/// one per timed metric: the in-process workloads use the reference
/// kernel's factor for all three, `serve_mixed` takes each from the
/// matching reading of the reference server ([`crate::echo`]).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub busy: f64,
    pub p50: f64,
    pub cpu: f64,
}

impl Scale {
    pub fn uniform(factor: f64) -> Scale {
        Scale {
            busy: factor,
            p50: factor,
            cpu: factor,
        }
    }
}

/// What one round of fixed work cost.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Client-visible calls made (identical in every round).
    pub ops: u64,
    /// Time spent inside those calls (closed loop: sum of call times;
    /// served: wall time of the closed-loop segment).
    pub busy_ns: u64,
    /// Process CPU consumed while the calls ran.
    pub cpu_ns: u64,
    /// Median per-op latency of the round.
    pub p50_ns: f64,
    /// Calibration factors of the round; the three fields above are as
    /// measured.
    pub scale: Scale,
}

/// The lower quartile by rank: index `(n-1)/4` of the ascending
/// values, the 40th-smallest of 160. The 5th percentile, the first
/// choice, picked the rounds whose reference reading was unluckily slow
/// and spread three times as wide on `join_cascade`'s 48 rounds (see
/// `benchmark/README.md`, *The estimator*).
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no rounds measured");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 4]
}

/// The `q` quantile (0..=1) by rank of a sample buffer (reorders it).
pub fn quantile_ns(samples: &mut [u64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let k = ((samples.len() - 1) as f64 * q).round() as usize;
    let (_, v, _) = samples.select_nth_unstable(k);
    *v as f64
}

/// The three timed end-to-end metrics from a run's rounds.
pub struct Timed {
    pub throughput_ops_s: f64,
    pub op_p50_us: f64,
    pub cpu_us_per_op: f64,
}

/// Each metric: calibrated per round, then [`lower_quartile`].
pub fn summarize(rounds: &[Round]) -> Timed {
    let per = |f: &dyn Fn(&Round) -> f64| lower_quartile(&rounds.iter().map(f).collect::<Vec<_>>());
    let busy = per(&|r| r.busy_ns as f64 * r.scale.busy);
    Timed {
        throughput_ops_s: rounds[0].ops as f64 / (busy / 1e9),
        op_p50_us: per(&|r| r.p50_ns * r.scale.p50) / 1e3,
        cpu_us_per_op: per(&|r| r.cpu_ns as f64 / r.ops as f64 * r.scale.cpu) / 1e3,
    }
}

/// Times a fixed integer loop (about a quarter second here). Compared
/// across runs it tells a disturbed machine from a changed program.
pub fn spin_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..120_000_000u64 {
        x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}
