//! Tracing: a bounded ring of structured events.
//!
//! Where the metric [`Registry`](crate::Registry) answers "how much
//! work, in total", the [`Tracer`] answers "where did *this second* of
//! time go". [`record`](Tracer::record) pushes an op's closed
//! [`StageRecord`] as one complete event with a child per stage, which
//! sum to it exactly; [`span`](Tracer::span) and
//! [`instant_with`](Tracer::instant_with) mark what no record times (the
//! durability layer's appends, syncs, snapshots and recovery). Each
//! event carries monotonic nanoseconds, a span id, the id of the span
//! open around it on its thread, a static name and a small key/value
//! payload. The ring is fixed-capacity — old events are evicted, never
//! reallocated — so it doubles as a flight recorder (see
//! [`crate::FlightRecorder`]). A [`Tracer::disabled`] handle costs one
//! branch per would-be event: no clock read, no lock, no id.
//! [`chrome_trace_json`](Tracer::chrome_trace_json) renders the ring for
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! ```
//! use telemetry::{Stage, StageClock, Tracer};
//!
//! let tracer = Tracer::new(1024);
//! {
//!     let _append = tracer.span("wal_append");
//!     tracer.instant_with("commit_release", Vec::new);
//! }
//! let mut clock = StageClock::start(true);
//! clock.lap(Stage::Stab);
//! clock.lap(Stage::Fire);
//! tracer.record("op", &clock, &Stage::ALL, Vec::new);
//! // A begin, an instant and an end; then `op`, `stab` and `fire`.
//! assert_eq!(tracer.events().len(), 6);
//! assert!(tracer.chrome_trace_json().contains("\"ph\":\"X\""));
//!
//! // Disabled: same call sites, nothing recorded.
//! let off = Tracer::disabled();
//! off.record("op", &clock, &Stage::ALL, Vec::new);
//! assert!(off.events().is_empty());
//! ```

use crate::json::JsonWriter;
use crate::stages::{nanos, Stage, StageClock, StageRecord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default event capacity of a [`Tracer`] ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// What kind of moment an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEventKind {
    /// A span opened.
    Begin,
    /// A span closed (matched to its `Begin` by span id).
    End,
    /// A point-in-time marker inside the current span.
    Instant,
    /// A closed interval of `dur` nanoseconds from the event's `nanos`.
    Complete { dur: u64 },
}

/// One ring entry.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub kind: SpanEventKind,
    /// Static name — span names are a closed vocabulary, not data.
    pub name: &'static str,
    /// Span id (`Begin`/`End` share it; every other event gets its own).
    pub span: u64,
    /// Enclosing span id on the same thread, 0 at top level.
    pub parent: u64,
    /// Monotonic nanoseconds since the tracer was constructed.
    pub nanos: u64,
    /// Small dense thread id (1, 2, ... in first-use order).
    pub tid: u64,
    /// Small key/value payload (an `End` carries none).
    pub args: Vec<(&'static str, String)>,
}

/// Fixed-capacity circular buffer.
struct Ring {
    buf: Vec<TraceEvent>,
    /// Next write position once the buffer is full.
    head: usize,
    /// Events evicted to make room.
    dropped: u64,
}

impl Ring {
    fn push(&mut self, capacity: usize, ev: TraceEvent) {
        if self.buf.len() < capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % capacity;
            self.dropped += 1;
        }
    }

    /// Oldest-first snapshot.
    fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
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
    /// The stack of open span ids on this thread (top = current parent).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|&t| t)
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
    /// (clamped to at least 16 so a dump is never content-free).
    pub fn new(capacity: usize) -> Tracer {
        Tracer::with(true, capacity.max(16))
    }

    /// The no-op recorder: every span/instant call is one branch.
    pub fn disabled() -> Tracer {
        Tracer::with(false, 0)
    }

    fn with(enabled: bool, capacity: usize) -> Tracer {
        let ring = Ring {
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        };
        let inner = TracerInner {
            epoch: Instant::now(),
            capacity,
            next_span: AtomicU64::new(1),
            ring: Mutex::new(ring),
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

    /// Ring capacity in events (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
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

    /// An event of this thread at `at` (nanoseconds since the epoch),
    /// under the innermost span open on it.
    fn event(
        &self,
        kind: SpanEventKind,
        name: &'static str,
        span: u64,
        at: Option<Instant>,
        args: Vec<(&'static str, String)>,
    ) -> TraceEvent {
        let at = at.unwrap_or_else(Instant::now);
        TraceEvent {
            kind,
            name,
            span,
            parent: SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0)),
            nanos: nanos(at.saturating_duration_since(self.inner.epoch)),
            tid: thread_id(),
            args,
        }
    }

    /// Pushes `events` under one lock, so they sit together in the ring.
    fn push(&self, events: impl IntoIterator<Item = TraceEvent>) {
        let mut ring = self.ring();
        for ev in events {
            ring.push(self.inner.capacity, ev);
        }
    }

    /// Opens a span; the returned guard records the matching `End` when
    /// dropped. Disabled: a branch and an inert guard.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.span_with(name, Vec::new)
    }

    /// [`span`](Self::span) with a lazily built payload — `args` runs
    /// only when the tracer is enabled, so call sites pay nothing to
    /// describe spans they never record.
    pub fn span_with(
        &self,
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, String)>,
    ) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: None,
                id: 0,
            };
        }
        let id = self.next_id();
        let begin = self.event(SpanEventKind::Begin, name, id, None, args());
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        self.push([begin]);
        Span {
            tracer: Some(self),
            id,
        }
    }

    /// Records a point-in-time event inside the current span, with a
    /// lazily built payload (`Vec::new` for none).
    pub fn instant_with(
        &self,
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, String)>,
    ) {
        if self.enabled {
            let id = self.next_id();
            self.push([self.event(SpanEventKind::Instant, name, id, None, args())]);
        }
    }

    /// Pushes `clock`'s record as one [`Complete`](SpanEventKind::Complete)
    /// event `name`, from where the clock started for the record's
    /// total, and under it one complete child per stage the clock
    /// lapped, laid end to end from the parent's start in
    /// [`Stage::ALL`] order, so the children's durations sum to the
    /// parent's exactly. A stage in `own` is a child of its own name,
    /// carrying its `laps` (and `stab` and `residual` their work
    /// counts); consecutive stages a layer does not own ran in the
    /// engine it wraps, and are one `engine` child. Disabled, or with
    /// the clock off: nothing, and `args` never runs.
    pub fn record(
        &self,
        name: &'static str,
        clock: &StageClock,
        own: &[Stage],
        args: impl FnOnce() -> Vec<(&'static str, String)>,
    ) {
        let Some(start) = self.enabled.then(|| clock.started()).flatten() else {
            return;
        };
        let record = clock.record();
        let mut children: Vec<(&'static str, u64, _)> = Vec::new();
        for stage in Stage::ALL.into_iter().filter(|&s| record.laps(s) > 0) {
            let dur = record.nanos(stage);
            match children.last_mut() {
                _ if own.contains(&stage) => {
                    children.push((stage.name(), dur, stage_args(stage, record)));
                }
                Some(("engine", engine, _)) => *engine += dur,
                _ => children.push(("engine", dur, Vec::new())),
            }
        }
        let (id, total) = (self.next_id(), record.total());
        let kind = SpanEventKind::Complete { dur: total };
        let parent = self.event(kind, name, id, Some(start), args());
        let mut at = parent.nanos;
        let children = children.into_iter().map(|(name, dur, args)| {
            let kind = SpanEventKind::Complete { dur };
            let child = self.event(kind, name, self.next_id(), Some(start), args);
            let nanos = at;
            at += dur;
            TraceEvent {
                parent: id,
                nanos,
                ..child
            }
        });
        let events: Vec<TraceEvent> = std::iter::once(parent).chain(children).collect();
        self.push(events);
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

    /// The ring as Chrome trace-event JSON (non-destructive) — load in
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.events())
    }

    /// [`chrome_trace_json`](Self::chrome_trace_json), draining the
    /// ring — the `/trace` endpoint's read-once semantics.
    pub fn drain_chrome_json(&self) -> String {
        chrome_trace_json(&self.drain())
    }
}

/// An open span; records its `End` event on drop.
///
/// Must be dropped on the thread that opened it (RAII scoping
/// guarantees this for ordinary `let` bindings).
pub struct Span<'a> {
    tracer: Option<&'a Tracer>,
    id: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own frame; tolerate a foreign top (mis-scoped
            // guard) by searching, so the stack cannot corrupt.
            if s.last() == Some(&self.id) {
                s.pop();
            } else if let Some(i) = s.iter().rposition(|&x| x == self.id) {
                s.remove(i);
            }
        });
        tracer.push([tracer.event(SpanEventKind::End, "", self.id, None, Vec::new())]);
    }
}

/// A stage child's payload: its laps, and the work counts of the two
/// matching stages.
fn stage_args(stage: Stage, record: &StageRecord) -> Vec<(&'static str, String)> {
    let work = &record.work;
    let counts: &[(&'static str, u64)] = match stage {
        Stage::Stab => &[("ibs_nodes", work.ibs_nodes), ("ibs_marks", work.ibs_marks)],
        Stage::Residual => &[
            ("residual_tests", work.residual_tests),
            ("residual_passes", work.residual_passes),
            ("non_indexable", work.non_indexable),
        ],
        _ => &[],
    };
    let mut args = vec![("laps", record.laps(stage).to_string())];
    args.extend(counts.iter().map(|&(k, v)| (k, v.to_string())));
    args
}

/// Renders events in the Chrome trace-event JSON object format
/// (`{"traceEvents": [...]}`). Timestamps and durations are
/// microseconds with nanosecond fractions; span and parent ids ride in
/// `args` so Perfetto's query view can reconstruct the tree explicitly
/// (the implicit B/E stack and the X intervals per `tid` already nest
/// correctly).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit").string("ns");
    w.key("traceEvents").begin_array();
    for ev in events {
        w.begin_object();
        w.key("name").string(ev.name);
        w.key("ph").string(match ev.kind {
            SpanEventKind::Begin => "B",
            SpanEventKind::End => "E",
            SpanEventKind::Instant => "i",
            SpanEventKind::Complete { .. } => "X",
        });
        w.key("ts").float(ev.nanos as f64 / 1_000.0, 3);
        if let SpanEventKind::Complete { dur } = ev.kind {
            w.key("dur").float(dur as f64 / 1_000.0, 3);
        }
        w.key("pid").uint(1);
        w.key("tid").uint(ev.tid);
        if matches!(ev.kind, SpanEventKind::Instant) {
            w.key("s").string("t");
        }
        if !matches!(ev.kind, SpanEventKind::End) {
            w.key("args").begin_object();
            w.key("span").uint(ev.span);
            w.key("parent").uint(ev.parent);
            for (k, v) in &ev.args {
                w.key(k).string(v);
            }
            w.end_object();
        }
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
    fn spans_nest_by_thread_stack() {
        let tracer = Tracer::new(64);
        {
            let _a = tracer.span("outer");
            let _b = tracer.span_with("inner", || vec![("k", "v".to_string())]);
            tracer.instant_with("tick", Vec::new);
        }
        let events = tracer.events();
        assert_eq!(events.len(), 5);
        let outer = &events[0];
        let inner = &events[1];
        assert_eq!(outer.kind, SpanEventKind::Begin);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.span);
        assert_eq!(inner.args, vec![("k", "v".to_string())]);
        let tick = &events[2];
        assert_eq!(tick.kind, SpanEventKind::Instant);
        assert_eq!(tick.parent, inner.span);
        // LIFO drop order: inner ends before outer.
        assert_eq!(events[3].kind, SpanEventKind::End);
        assert_eq!(events[3].span, inner.span);
        assert_eq!(events[4].span, outer.span);
        assert!(events.windows(2).all(|w| w[0].nanos <= w[1].nanos));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let mut built = false;
        {
            let _s = tracer.span_with("x", || {
                built = true;
                Vec::new()
            });
            tracer.instant_with("y", Vec::new);
        }
        assert!(!built, "args closure must not run when disabled");
        assert!(tracer.events().is_empty());
        assert_eq!(tracer.dropped(), 0);
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest() {
        let tracer = Tracer::new(16);
        for _ in 0..40 {
            tracer.instant_with("e", Vec::new);
        }
        let events = tracer.events();
        assert_eq!(events.len(), 16);
        assert_eq!(tracer.dropped(), 24);
        // The survivors are the 16 most recent instants: strictly
        // increasing span ids ending at the last allocated one.
        let ids: Vec<u64> = events.iter().map(|e| e.span).collect();
        let max = *ids.iter().max().unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids[0], max - 15);
    }

    #[test]
    fn drain_empties_the_ring() {
        let tracer = Tracer::new(32);
        tracer.instant_with("a", Vec::new);
        tracer.instant_with("b", Vec::new);
        let drained = tracer.drain();
        assert_eq!(drained.len(), 2);
        assert!(tracer.events().is_empty());
        tracer.instant_with("c", Vec::new);
        assert_eq!(tracer.events().len(), 1);
    }

    #[test]
    fn chrome_json_escapes_and_pairs() {
        let tracer = Tracer::new(32);
        {
            let _s = tracer.span_with("fire", || vec![("rule", "say \"hi\"\n".to_string())]);
        }
        let json = tracer.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("say \\\"hi\\\"\\n"));
        assert_eq!(json.matches("\"name\":\"fire\"").count(), 1);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tracer = Tracer::new(64);
        let root = tracer.span("root");
        let a_id = {
            let a = tracer.span("a");
            a.id
        };
        let b_id = {
            let b = tracer.span("b");
            b.id
        };
        drop(root);
        let events = tracer.events();
        let parent_of = |id: u64| {
            events
                .iter()
                .find(|e| e.span == id && e.kind == SpanEventKind::Begin)
                .unwrap()
                .parent
        };
        assert_eq!(parent_of(a_id), parent_of(b_id));
        assert_ne!(a_id, b_id);
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
            let _outer = tracer.span("outer");
            tracer.record("op", &clock, &Stage::ALL, || vec![("levels", "1".into())]);
        }
        let events = tracer.events();
        let (op, stab, residual) = (&events[1], &events[2], &events[3]);
        assert_eq!(op.kind, SpanEventKind::Complete { dur: 15 });
        assert_eq!(op.parent, events[0].span);
        assert_eq!(op.args, vec![("levels", "1".to_string())]);
        assert_eq!(
            (stab.name, stab.kind),
            ("stab", SpanEventKind::Complete { dur: 8 })
        );
        assert_eq!(
            stab.args,
            vec![
                ("laps", "2".to_string()),
                ("ibs_nodes", "9".to_string()),
                ("ibs_marks", "0".to_string())
            ]
        );
        assert_eq!(residual.kind, SpanEventKind::Complete { dur: 7 });
        assert!([stab, residual].iter().all(|c| c.parent == op.span));
        assert_eq!((stab.nanos, residual.nanos), (op.nanos, op.nanos + 8));
        assert_eq!(events.len(), 5, "the outer span's end follows");
        let json = tracer.chrome_trace_json();
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
        tracer.record("server_request", &clock_with(&laps), &own, Vec::new);
        let children: Vec<_> = tracer.events()[1..]
            .iter()
            .map(|e| (e.name, e.kind))
            .collect();
        let complete = |dur| SpanEventKind::Complete { dur };
        assert_eq!(
            children,
            vec![
                ("decode", complete(2)),
                ("queue", complete(3)),
                ("engine", complete(12)),
                ("write", complete(11)),
            ]
        );
    }

    #[test]
    fn an_off_clock_or_a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(64);
        tracer.record("op", &StageClock::start(false), &Stage::ALL, || {
            unreachable!("args of a record that is not pushed")
        });
        assert!(tracer.events().is_empty());
        let off = Tracer::disabled();
        off.record(
            "op",
            &clock_with(&[(Stage::Fire, 1)]),
            &Stage::ALL,
            Vec::new,
        );
        assert!(off.events().is_empty());
    }
}
