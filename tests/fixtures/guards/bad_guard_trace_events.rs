// guard-fixture: path=crates/telemetry/src/trace.rs
// The second event model back: begin/end kinds stitched by a per-thread
// span stack, with args built by a closure.

pub enum SpanEventKind {
    Begin,
    End,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub fn span_with(name: &'static str, args: impl FnOnce() -> Vec<(&'static str, String)>) {}
