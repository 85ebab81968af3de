//! Span tracing: a bounded ring buffer of structured events.
//!
//! Where the metric [`Registry`](crate::Registry) answers "how much
//! work, in total", the [`Tracer`] answers "where did *this second* of
//! time go": begin/end span pairs and instant events, each stamped with
//! monotonic nanoseconds, a span id, the enclosing span's id, a static
//! name, and a small key/value payload. Events land in a fixed-capacity
//! ring — old events are evicted, never reallocated — so the tracer
//! doubles as a flight recorder: the ring always holds the last moments
//! before a crash (see [`crate::FlightRecorder`]).
//!
//! The recorder is chosen at construction, exactly like
//! [`Registry::disabled`](crate::Registry::disabled): a
//! [`Tracer::disabled`] handle costs one predictable branch per
//! would-be span — no clock read, no lock, no id allocation — so span
//! scaffolding can stay compiled into every hot path.
//!
//! Span nesting is tracked per thread: a span begun while another span
//! from the same thread is open becomes its child. Worker threads get
//! their own lanes (and their own `tid` in the export), which is how
//! batch matching fan-out renders as parallel tracks.
//!
//! [`chrome_trace_json`](Tracer::chrome_trace_json) renders the ring in
//! the Chrome trace-event format — load the output in Perfetto
//! (`ui.perfetto.dev`) or `chrome://tracing` to see the cascade.
//!
//! ```
//! use telemetry::Tracer;
//!
//! let tracer = Tracer::new(1024);
//! {
//!     let _outer = tracer.span("cascade");
//!     let _inner = tracer.span("match_level");
//!     tracer.instant("agenda_built");
//! }
//! let events = tracer.events();
//! assert_eq!(events.len(), 5); // 2 begins + 1 instant + 2 ends
//! assert!(tracer.chrome_trace_json().contains("\"traceEvents\""));
//!
//! // Disabled: same call sites, nothing recorded.
//! let off = Tracer::disabled();
//! let _s = off.span("cascade");
//! assert!(off.events().is_empty());
//! ```

use crate::json::JsonWriter;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
}

/// One ring entry.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub kind: SpanEventKind,
    /// Static name — span names are a closed vocabulary, not data.
    pub name: &'static str,
    /// Span id (`Begin`/`End` share it; `Instant` gets its own).
    pub span: u64,
    /// Enclosing span id on the same thread, 0 at top level.
    pub parent: u64,
    /// Monotonic nanoseconds since the tracer was constructed.
    pub nanos: u64,
    /// Small dense thread id (1, 2, ... in first-use order).
    pub tid: u64,
    /// Small key/value payload (only `Begin` and `Instant` carry one).
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
        let capacity = capacity.max(16);
        Tracer {
            enabled: true,
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                capacity,
                next_span: AtomicU64::new(1),
                ring: Mutex::new(Ring {
                    buf: Vec::new(),
                    head: 0,
                    dropped: 0,
                }),
            }),
        }
    }

    /// The no-op recorder: every span/instant call is one branch.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                capacity: 0,
                next_span: AtomicU64::new(1),
                ring: Mutex::new(Ring {
                    buf: Vec::new(),
                    head: 0,
                    dropped: 0,
                }),
            }),
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
        self.inner
            .ring
            .lock()
            .expect("trace ring poisoned: a holder panicked")
            .dropped
    }

    fn now_nanos(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, ev: TraceEvent) {
        self.inner
            .ring
            .lock()
            .expect("trace ring poisoned: a holder panicked")
            .push(self.inner.capacity, ev);
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
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        self.push(TraceEvent {
            kind: SpanEventKind::Begin,
            name,
            span: id,
            parent,
            nanos: self.now_nanos(),
            tid: thread_id(),
            args: args(),
        });
        Span {
            tracer: Some(self),
            id,
        }
    }

    /// Records a point-in-time event inside the current span.
    #[inline]
    pub fn instant(&self, name: &'static str) {
        self.instant_with(name, Vec::new);
    }

    /// [`instant`](Self::instant) with a lazily built payload.
    pub fn instant_with(
        &self,
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, String)>,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        self.push(TraceEvent {
            kind: SpanEventKind::Instant,
            name,
            span: id,
            parent,
            nanos: self.now_nanos(),
            tid: thread_id(),
            args: args(),
        });
    }

    /// Oldest-first snapshot of the ring (non-destructive).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .ring
            .lock()
            .expect("trace ring poisoned: a holder panicked")
            .snapshot()
    }

    /// Empties the ring and returns its contents oldest-first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut ring = self
            .inner
            .ring
            .lock()
            .expect("trace ring poisoned: a holder panicked");
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
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own frame; tolerate a foreign top (mis-scoped
            // guard) by searching, so the stack cannot corrupt.
            if s.last() == Some(&self.id) {
                s.pop();
            } else if let Some(i) = s.iter().rposition(|&x| x == self.id) {
                s.remove(i);
            }
            s.last().copied().unwrap_or(0)
        });
        tracer.push(TraceEvent {
            kind: SpanEventKind::End,
            name: "",
            span: self.id,
            parent,
            nanos: tracer.now_nanos(),
            tid: thread_id(),
            args: Vec::new(),
        });
    }
}

/// Renders events in the Chrome trace-event JSON object format
/// (`{"traceEvents": [...]}`). Timestamps are microseconds with
/// nanosecond fractions; span and parent ids ride in `args` so
/// Perfetto's query view can reconstruct the tree explicitly (the
/// implicit B/E stack per `tid` already nests correctly).
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
        });
        w.key("ts").float(ev.nanos as f64 / 1_000.0, 3);
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
            tracer.instant("tick");
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
            tracer.instant("y");
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
            tracer.instant("e");
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
        tracer.instant("a");
        tracer.instant("b");
        let drained = tracer.drain();
        assert_eq!(drained.len(), 2);
        assert!(tracer.events().is_empty());
        tracer.instant("c");
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
}
