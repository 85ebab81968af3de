//! Tracing: a bounded ring of closed intervals.
//!
//! Where the metric [`Registry`](crate::Registry) answers "how much
//! work, in total", the [`Tracer`] answers "where did *this second* of
//! time go". Every event is pushed once, closed: [`record`](Tracer::record)
//! pushes an op's [`StageRecord`] as one event with a child per stage,
//! which sum to it exactly; a [`span`](Tracer::span) guard pushes one
//! event on drop for what no record times (the durability layer's
//! appends, syncs, snapshots and recovery), and [`mark`](Tracer::mark)
//! one of length zero. An event's [`Args`] are held inline, so a push
//! into a full ring allocates nothing. The ring is fixed-capacity: old
//! events are evicted. A [`Tracer::disabled`] handle costs one
//! branch per would-be event: no clock read, no lock, no id.
//! [`chrome_trace_json`] renders the ring's events for
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! ```
//! use telemetry::{chrome_trace_json, Stage, StageClock, Tracer};
//!
//! let tracer = Tracer::new(1024);
//! {
//!     let _append = tracer.span("wal_append", [("seq", 7), ("bytes", 40)]);
//!     tracer.mark("commit_release", [("size", 1)]);
//! }
//! let mut clock = StageClock::start(true);
//! clock.lap(Stage::Stab);
//! clock.lap(Stage::Fire);
//! tracer.record("op", &clock, &Stage::ALL, []);
//! // The mark, then the span it closed inside; then `op`, `stab` and
//! // `fire`.
//! assert_eq!(tracer.events().len(), 5);
//! assert_eq!(tracer.events()[1].args.num("seq"), Some(7));
//! assert!(chrome_trace_json(&tracer.events()).contains("\"ph\":\"X\""));
//!
//! // Disabled: same call sites, nothing recorded.
//! let off = Tracer::disabled();
//! off.record("op", &clock, &Stage::ALL, []);
//! assert!(off.events().is_empty());
//! ```

use crate::json::JsonWriter;
use crate::stages::{nanos, Stage, StageClock, StageRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default event capacity of a [`Tracer`] ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// The most args one event carries (the `residual` stage child's four).
const MAX_ARGS: usize = 4;

/// One arg's value: a count, or a label from a closed vocabulary
/// (`server_request`'s `op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgValue {
    Num(u64),
    Label(&'static str),
}

/// An event's key/value payload, held inline: at most four pairs. An array of `(key, u64)` pairs converts into one;
/// [`with`](Args::with) adds a label or an optional pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args([Option<(&'static str, ArgValue)>; MAX_ARGS]);

impl Args {
    /// No args.
    pub const NONE: Args = Args([None; MAX_ARGS]);

    /// These args and `key = value` (past four, the pair is dropped:
    /// the vocabulary is closed, so that is a bug).
    pub fn with(mut self, key: &'static str, value: ArgValue) -> Args {
        let free = self.0.iter_mut().find(|pair| pair.is_none());
        debug_assert!(free.is_some(), "{key}: more than {MAX_ARGS} args");
        if let Some(pair) = free {
            *pair = Some((key, value));
        }
        self
    }

    /// The pairs, in the order they were added.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, ArgValue)> + '_ {
        self.0.iter().flatten().copied()
    }

    /// The value of `key`, if the event carries it.
    pub fn get(&self, key: &str) -> Option<ArgValue> {
        self.iter().find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    /// The count `key`, if the event carries it as one.
    pub fn num(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            ArgValue::Num(n) => Some(n),
            ArgValue::Label(_) => None,
        }
    }
}

impl<const N: usize> From<[(&'static str, u64); N]> for Args {
    fn from(pairs: [(&'static str, u64); N]) -> Args {
        const { assert!(N <= MAX_ARGS, "more args than an event holds") };
        pairs.into_iter().fold(Args::NONE, |args, (key, n)| {
            args.with(key, ArgValue::Num(n))
        })
    }
}

/// One ring entry: a closed interval (an instant is `dur: 0`).
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Static name — span names are a closed vocabulary, not data.
    pub name: &'static str,
    /// This event's id.
    pub span: u64,
    /// The record this event is a stage child of; 0 for every other
    /// event, which nests by time on its `tid`.
    pub parent: u64,
    /// Monotonic nanoseconds since the tracer was constructed, at the
    /// interval's start.
    pub nanos: u64,
    /// The interval's length in nanoseconds.
    pub dur: u64,
    /// Small dense thread id (1, 2, ... in first-use order).
    pub tid: u64,
    pub args: Args,
}

/// Fixed-capacity circular buffer.
#[derive(Default)]
struct Ring {
    buf: Vec<TraceEvent>,
    /// Next write position once the buffer is full.
    head: usize,
    /// Events evicted to make room.
    dropped: u64,
}

impl Ring {
    fn push(&mut self, capacity: usize, events: impl IntoIterator<Item = TraceEvent>) {
        for ev in events {
            if self.buf.len() < capacity {
                self.buf.push(ev);
            } else {
                self.buf[self.head] = ev;
                self.head = (self.head + 1) % capacity;
                self.dropped += 1;
            }
        }
    }

    /// Oldest-first snapshot.
    fn snapshot(&self) -> Vec<TraceEvent> {
        let (old, new) = self.buf.split_at(self.head);
        [new, old].concat()
    }
}

struct TracerInner {
    epoch: Instant,
    capacity: usize,
    next_span: AtomicU64,
    ring: Mutex<Ring>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Dense per-thread id, assigned on first trace from the thread.
    static THREAD_ID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A cheap, clonable handle to one bounded event ring.
///
/// Clones share the ring, so one tracer can be threaded through every
/// layer of the stack and the export sees a single interleaved
/// timeline.
#[derive(Clone)]
pub struct Tracer {
    enabled: bool,
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A live tracer holding the most recent `capacity` events
    /// (clamped to at least 16).
    pub fn new(capacity: usize) -> Tracer {
        Tracer::with(true, capacity.max(16))
    }

    /// The no-op recorder: every span/mark/record call is one branch.
    pub fn disabled() -> Tracer {
        Tracer::with(false, 0)
    }

    fn with(enabled: bool, capacity: usize) -> Tracer {
        let inner = TracerInner {
            epoch: Instant::now(),
            capacity,
            next_span: AtomicU64::new(1),
            ring: Mutex::default(),
        };
        Tracer {
            enabled,
            inner: Arc::new(inner),
        }
    }

    /// Does this handle record anything?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        let ring = self.inner.ring.lock();
        ring.expect("trace ring poisoned: a holder panicked")
    }

    fn next_id(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// A top-level event of this thread from `start`, `dur` long.
    fn event(&self, name: &'static str, start: Instant, dur: u64, args: Args) -> TraceEvent {
        TraceEvent {
            name,
            span: self.next_id(),
            parent: 0,
            nanos: nanos(start.saturating_duration_since(self.inner.epoch)),
            dur,
            tid: THREAD_ID.with(|&t| t),
            args,
        }
    }

    fn push(&self, event: TraceEvent) {
        self.ring().push(self.inner.capacity, [event]);
    }

    /// Opens a span; the returned guard pushes it, closed, when
    /// dropped. Disabled: a branch and an inert guard.
    #[inline]
    pub fn span(&self, name: &'static str, args: impl Into<Args>) -> Span<'_> {
        let open = self.enabled.then(|| (self, Instant::now(), args.into()));
        Span { name, open }
    }

    /// Pushes a zero-length event now.
    pub fn mark(&self, name: &'static str, args: impl Into<Args>) {
        if self.enabled {
            self.push(self.event(name, Instant::now(), 0, args.into()));
        }
    }

    /// Pushes `clock`'s record as one event `name`, from where the
    /// clock started for the record's total, and under it one child per
    /// stage the clock lapped, laid end to end from the parent's start
    /// in [`Stage::ALL`] order, so the children's durations sum to the
    /// parent's exactly. A stage in `own` is a child of its own name,
    /// carrying its `laps` (and `stab` and `residual` their work
    /// counts); consecutive stages a layer does not own ran in the
    /// engine it wraps, and are one `engine` child. All go in under one
    /// lock, so they sit together in the ring. Disabled, or with the
    /// clock off: nothing.
    pub fn record(
        &self,
        name: &'static str,
        clock: &StageClock,
        own: &[Stage],
        args: impl Into<Args>,
    ) {
        let Some(start) = self.enabled.then(|| clock.started()).flatten() else {
            return;
        };
        let record = clock.record();
        let parent = self.event(name, start, record.total(), args.into());
        let mut ring = self.ring();
        ring.push(self.inner.capacity, [parent]);
        let mut child: Option<TraceEvent> = None;
        for stage in Stage::ALL.into_iter().filter(|&s| record.laps(s) > 0) {
            let (dur, owned) = (record.nanos(stage), own.contains(&stage));
            if let Some(engine) = child.as_mut().filter(|c| !owned && c.name == "engine") {
                engine.dur += dur;
                continue;
            }
            let (name, args) = match owned {
                true => (stage.name(), stage_args(stage, record)),
                false => ("engine", Args::NONE),
            };
            let nanos = child.map_or(parent.nanos, |c| c.nanos + c.dur);
            let next = TraceEvent {
                name,
                span: self.next_id(),
                parent: parent.span,
                nanos,
                dur,
                args,
                ..parent
            };
            ring.push(self.inner.capacity, child.replace(next));
        }
        ring.push(self.inner.capacity, child);
    }

    /// Oldest-first snapshot of the ring (non-destructive).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring().snapshot()
    }

    /// Empties the ring and returns its contents oldest-first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut ring = self.ring();
        let out = ring.snapshot();
        ring.buf.clear();
        ring.head = 0;
        out
    }

    /// The ring as [`chrome_trace_json`], draining it — the `/trace`
    /// endpoint's read-once semantics.
    pub fn drain_chrome_json(&self) -> String {
        chrome_trace_json(&self.drain())
    }
}

/// An open span: it keeps its start and args, and pushes one closed
/// event when dropped. Until then the ring does not show it.
pub struct Span<'a> {
    name: &'static str,
    open: Option<(&'a Tracer, Instant, Args)>,
}

impl Span<'_> {
    /// Closes the span now, with `args` added to those it opened with.
    pub fn close(mut self, args: impl Into<Args>) {
        if let Some((_, _, open)) = &mut self.open {
            *open = args.into().iter().fold(*open, |a, (k, v)| a.with(k, v));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((tracer, start, args)) = self.open {
            let dur = nanos(start.elapsed());
            tracer.push(tracer.event(self.name, start, dur, args));
        }
    }
}

/// A stage child's payload: its laps, and the work counts of the two
/// matching stages.
fn stage_args(stage: Stage, record: &StageRecord) -> Args {
    let (laps, w) = (u64::from(record.laps(stage)), &record.work);
    match stage {
        Stage::Stab => [
            ("laps", laps),
            ("ibs_nodes", w.ibs_nodes),
            ("ibs_marks", w.ibs_marks),
        ]
        .into(),
        Stage::Residual => [
            ("laps", laps),
            ("residual_tests", w.residual_tests),
            ("residual_passes", w.residual_passes),
            ("non_indexable", w.non_indexable),
        ]
        .into(),
        _ => [("laps", laps)].into(),
    }
}

/// Renders events in the Chrome trace-event JSON object format
/// (`{"traceEvents": [...]}`), each a complete `"ph":"X"` event.
/// Timestamps and durations are microseconds with nanosecond
/// fractions; span and parent ids ride in `args` so Perfetto's query
/// view can rebuild a record's tree explicitly (the intervals per `tid`
/// already nest by time).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit").string("ns");
    w.key("traceEvents").begin_array();
    for ev in events {
        w.begin_object();
        w.key("name").string(ev.name);
        w.key("ph").string("X");
        w.key("ts").float(ev.nanos as f64 / 1_000.0, 3);
        w.key("dur").float(ev.dur as f64 / 1_000.0, 3);
        w.key("pid").uint(1);
        w.key("tid").uint(ev.tid);
        w.key("args").begin_object();
        w.key("span").uint(ev.span);
        w.key("parent").uint(ev.parent);
        for (k, v) in ev.args.iter() {
            match v {
                ArgValue::Num(n) => w.key(k).uint(n),
                ArgValue::Label(label) => w.key(k).string(label),
            };
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_is_one_closed_event_pushed_when_it_closes() {
        let tracer = Tracer::new(64);
        {
            let _a = tracer.span("outer", []);
            let _b = tracer.span("inner", [("k", 7)]);
            tracer.mark("tick", []);
        }
        let events = tracer.events();
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["tick", "inner", "outer"], "close order");
        let (tick, inner, outer) = (&events[0], &events[1], &events[2]);
        assert_eq!(inner.args.num("k"), Some(7));
        assert_eq!(tick.dur, 0);
        assert!(events.iter().all(|e| e.parent == 0));
        // Nesting is by time: the inner interval lies inside the outer,
        // the mark inside both.
        let end = |e: &TraceEvent| e.nanos + e.dur;
        assert!(outer.nanos <= inner.nanos && end(inner) <= end(outer));
        assert!(inner.nanos <= tick.nanos && end(tick) <= end(inner));
    }

    #[test]
    fn a_span_closed_with_args_carries_both_sets() {
        let tracer = Tracer::new(64);
        let span = tracer.span("recovery_wal_replay", [("from", 1)]);
        span.close([("last_seq", 9), ("frames_replayed", 4)]);
        let events = tracer.events();
        let args: Vec<_> = events[0].args.iter().collect();
        assert_eq!(
            args,
            [
                ("from", ArgValue::Num(1)),
                ("last_seq", ArgValue::Num(9)),
                ("frames_replayed", ArgValue::Num(4)),
            ]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let _s = tracer.span("x", [("k", 1)]);
            tracer.mark("y", []);
        }
        tracer.span("z", []).close([("k", 2)]);
        assert!(tracer.events().is_empty());
        assert_eq!(tracer.dropped(), 0);
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest() {
        let tracer = Tracer::new(16);
        for _ in 0..40 {
            tracer.mark("e", []);
        }
        let events = tracer.events();
        assert_eq!(events.len(), 16);
        assert_eq!(tracer.dropped(), 24);
        // The survivors are the 16 most recent marks: strictly
        // increasing span ids ending at the last allocated one.
        let ids: Vec<u64> = events.iter().map(|e| e.span).collect();
        let max = *ids.iter().max().unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids[0], max - 15);
    }

    #[test]
    fn drain_empties_the_ring() {
        let tracer = Tracer::new(32);
        tracer.mark("a", []);
        tracer.mark("b", []);
        let drained = tracer.drain();
        assert_eq!(drained.len(), 2);
        assert!(tracer.events().is_empty());
        tracer.mark("c", []);
        assert_eq!(tracer.events().len(), 1);
    }

    #[test]
    fn chrome_json_writes_every_event_as_a_complete_one() {
        let tracer = Tracer::new(32);
        {
            let _s = tracer.span("fire", [("rule", 3)]);
        }
        tracer.mark("tick", []);
        let args = Args::NONE
            .with("op", ArgValue::Label("insert"))
            .with("trace", ArgValue::Num(0xabc));
        tracer.mark("server_request", args);
        let json = chrome_trace_json(&tracer.events());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3, "{json}");
        assert_eq!(json.matches("\"dur\":").count(), 3, "{json}");
        assert!(!json.contains("\"ph\":\"B\"") && !json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"rule\":3"), "{json}");
        assert!(json.contains("\"op\":\"insert\",\"trace\":2748"), "{json}");
        assert!(json.contains("\"name\":\"tick\",\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tracer = Tracer::new(64);
        let root = tracer.span("root", []);
        drop(tracer.span("a", []));
        drop(tracer.span("b", []));
        drop(root);
        let events = tracer.events();
        let (a, b, root) = (&events[0], &events[1], &events[2]);
        assert_eq!((a.name, b.name, root.name), ("a", "b", "root"));
        assert_eq!(a.parent, b.parent);
        assert_ne!(a.span, b.span);
        // Both lie inside the root's interval, one after the other.
        assert!(root.nanos <= a.nanos && a.nanos + a.dur <= b.nanos);
        assert!(b.nanos + b.dur <= root.nanos + root.dur);
    }

    /// A record with `laps` laps of `stage`, `n` nanoseconds each.
    fn clock_with(laps: &[(Stage, u64)]) -> StageClock {
        let at = Instant::now();
        let mut clock = StageClock::start_at(at);
        let mut now = at;
        for &(stage, n) in laps {
            now += std::time::Duration::from_nanos(n);
            clock.lap_at(stage, now);
        }
        clock
    }

    #[test]
    fn a_record_is_a_parent_whose_children_tile_it() {
        let tracer = Tracer::new(64);
        let mut clock = clock_with(&[(Stage::Stab, 5), (Stage::Residual, 7), (Stage::Stab, 3)]);
        clock.add_work(&crate::CostSnapshot {
            ibs_nodes: 9,
            ..crate::CostSnapshot::default()
        });
        {
            let _outer = tracer.span("outer", []);
            tracer.record("op", &clock, &Stage::ALL, [("levels", 1)]);
        }
        let events = tracer.events();
        let (op, stab, residual) = (&events[0], &events[1], &events[2]);
        assert_eq!((op.name, op.dur, op.parent), ("op", 15, 0));
        assert_eq!(op.args, Args::from([("levels", 1)]));
        assert_eq!((stab.name, stab.dur), ("stab", 8));
        assert_eq!(
            stab.args,
            Args::from([("laps", 2), ("ibs_nodes", 9), ("ibs_marks", 0)])
        );
        assert_eq!((residual.name, residual.dur), ("residual", 7));
        assert!([stab, residual].iter().all(|c| c.parent == op.span));
        assert_eq!((stab.nanos, residual.nanos), (op.nanos, op.nanos + 8));
        assert_eq!(events.len(), 4, "the outer span follows, closed");
        assert_eq!(events[3].name, "outer");
        let json = chrome_trace_json(&tracer.events());
        assert!(json.contains("\"name\":\"op\",\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":0.015"), "{json}");
    }

    #[test]
    fn stages_a_layer_does_not_own_are_one_engine_child() {
        let tracer = Tracer::new(64);
        let laps = [
            (Stage::Decode, 2),
            (Stage::Queue, 3),
            (Stage::Wal, 5),
            (Stage::Fire, 7),
            (Stage::Write, 11),
        ];
        let own = [Stage::Decode, Stage::Queue, Stage::Write];
        tracer.record("server_request", &clock_with(&laps), &own, []);
        let children: Vec<_> = tracer.events()[1..]
            .iter()
            .map(|e| (e.name, e.dur))
            .collect();
        assert_eq!(
            children,
            vec![("decode", 2), ("queue", 3), ("engine", 12), ("write", 11)]
        );
    }

    #[test]
    fn an_off_clock_or_a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(64);
        tracer.record("op", &StageClock::start(false), &Stage::ALL, []);
        assert!(tracer.events().is_empty());
        let off = Tracer::disabled();
        off.record("op", &clock_with(&[(Stage::Fire, 1)]), &Stage::ALL, []);
        assert!(off.events().is_empty());
    }
}
