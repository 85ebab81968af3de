//! Bench-side spans for the `--trace 1` run.
//!
//! The program is timed from outside: every call into a layer's public
//! API is wrapped here, on the real top-level instance and on mirror
//! instances of each lower layer fed the same inputs. The span kinds
//! form a fixed tree, so one operation is a row of durations and a
//! layer's self time is its span minus its children's in the same row.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One kind of span; [`Kind::parent`] fixes the nesting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    ServCall,
    DurableOp,
    WalAppend,
    RulesOp,
    Parse,
    IndexMatch,
    IndexInsert,
    IndexRemove,
    IbsStab,
    IbsInsert,
    IbsRemove,
    JoinInsert,
    JoinRetract,
    RelWrite,
}

pub const KINDS: usize = 14;

const ALL: [Kind; KINDS] = [
    Kind::ServCall,
    Kind::DurableOp,
    Kind::WalAppend,
    Kind::RulesOp,
    Kind::Parse,
    Kind::IndexMatch,
    Kind::IndexInsert,
    Kind::IndexRemove,
    Kind::IbsStab,
    Kind::IbsInsert,
    Kind::IbsRemove,
    Kind::JoinInsert,
    Kind::JoinRetract,
    Kind::RelWrite,
];

impl Kind {
    pub fn parent(self) -> Option<Kind> {
        match self {
            Kind::ServCall => None,
            Kind::DurableOp => Some(Kind::ServCall),
            Kind::WalAppend | Kind::RulesOp => Some(Kind::DurableOp),
            Kind::Parse
            | Kind::IndexMatch
            | Kind::IndexInsert
            | Kind::IndexRemove
            | Kind::JoinInsert
            | Kind::JoinRetract
            | Kind::RelWrite => Some(Kind::RulesOp),
            Kind::IbsStab => Some(Kind::IndexMatch),
            Kind::IbsInsert => Some(Kind::IndexInsert),
            Kind::IbsRemove => Some(Kind::IndexRemove),
        }
    }

    /// `layer.span` as it appears in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Kind::ServCall => "ruleserv.call",
            Kind::DurableOp => "durable.op",
            Kind::WalAppend => "durable.wal_append",
            Kind::RulesOp => "rules.op",
            Kind::Parse => "predicate.parse",
            Kind::IndexMatch => "predindex.match",
            Kind::IndexInsert => "predindex.insert",
            Kind::IndexRemove => "predindex.remove",
            Kind::IbsStab => "ibs.stab",
            Kind::IbsInsert => "ibs.insert",
            Kind::IbsRemove => "ibs.remove",
            Kind::JoinInsert => "joinmemo.event(insert)",
            Kind::JoinRetract => "joinmemo.event(retract)",
            Kind::RelWrite => "relation.write",
        }
    }
}

/// What kind of client call a row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Tuple,
    AddRule,
    RemoveRule,
    Ping,
    Health,
}

/// The spans of one operation: total nanoseconds and call count per
/// kind (an op may stab several trees or touch several memos).
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub op_id: u32,
    pub class: Class,
    /// The kind of the outermost span (the workload's top layer).
    pub top: Kind,
    /// Start of the top-level call, nanoseconds since the run origin.
    pub start_ns: u64,
    pub ns: [u64; KINDS],
    pub calls: [u32; KINDS],
    /// Rule firings the top-level call reported.
    pub fired: u32,
}

impl OpRecord {
    pub fn new(op_id: u32, class: Class, top: Kind) -> Self {
        OpRecord {
            op_id,
            class,
            top,
            start_ns: 0,
            ns: [0; KINDS],
            calls: [0; KINDS],
            fired: 0,
        }
    }

    /// Runs `f` inside a span of `kind`.
    #[inline]
    pub fn span<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.ns[kind as usize] += started.elapsed().as_nanos() as u64;
        self.calls[kind as usize] += 1;
        out
    }

    fn is_under_top(&self, kind: Kind) -> bool {
        let mut k = Some(kind);
        while let Some(cur) = k {
            if cur == self.top {
                return true;
            }
            k = cur.parent();
        }
        false
    }

    /// Span minus the children recorded in the same row. Negative when
    /// the mirrors (timed separately, cache-cold relative to the real
    /// call) cost more than the span that should contain them.
    pub fn self_ns(&self, kind: Kind) -> i64 {
        let children: u64 = ALL
            .iter()
            .filter(|c| c.parent() == Some(kind))
            .map(|c| self.ns[*c as usize])
            .sum();
        self.ns[kind as usize] as i64 - children as i64
    }

    /// Sum of self times over the whole tree under `top` — equal to the
    /// top-level span by construction; checked, not assumed.
    pub fn self_sum(&self) -> i64 {
        ALL.iter()
            .filter(|k| self.is_under_top(**k))
            .map(|k| self.self_ns(*k))
            .sum()
    }
}

/// Mean nanoseconds per *call* of `kind` over `rows` (0 when the kind
/// never ran).
pub fn mean_call_ns(rows: &[&OpRecord], kind: Kind) -> f64 {
    let (ns, calls) = rows.iter().fold((0u64, 0u64), |(n, c), r| {
        (n + r.ns[kind as usize], c + r.calls[kind as usize] as u64)
    });
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64
    }
}

/// Mean self nanoseconds per *call* of `kind`: its spans minus the
/// child spans recorded in the same rows, over its call count — the
/// same denominator as [`mean_call_ns`], so the two can be compared.
pub fn mean_self_ns(rows: &[&OpRecord], kind: Kind) -> f64 {
    let (ns, calls) = rows.iter().fold((0i64, 0u64), |(s, c), r| {
        (s + r.self_ns(kind), c + r.calls[kind as usize] as u64)
    });
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64
    }
}

/// Share of the traced time that sits in negative self times.
pub fn negative_self_share(rows: &[&OpRecord]) -> f64 {
    let mut negative = 0i64;
    let mut total = 0u64;
    for r in rows {
        total += r.ns[r.top as usize];
        for k in ALL {
            if r.is_under_top(k) {
                negative += (-r.self_ns(k)).max(0);
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        negative as f64 / total as f64
    }
}

/// Rows whose self times fail to add up to their top-level span.
pub fn broken_sums(rows: &[&OpRecord]) -> usize {
    rows.iter()
        .filter(|r| r.self_sum() != r.ns[r.top as usize] as i64)
        .count()
}

/// At most this many operations go to the trace file (the rest stay in
/// the aggregates): a viewer cannot open much more.
const FILE_OPS: usize = 20_000;

/// Writes `rows` in Chrome trace-event format. Children were timed
/// after their parent returned (on mirrors), so inside the file they
/// are laid end to end from the parent's start, keeping every measured
/// duration; `args` carries `{op_id, layer, parent}`.
pub fn write_chrome(path: &Path, workload: &str, rows: &[OpRecord]) -> std::io::Result<()> {
    let mut out = String::with_capacity(1 << 20);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for r in rows.iter().take(FILE_OPS) {
        let mut starts = [0u64; KINDS];
        let mut cursor = [0u64; KINDS];
        starts[r.top as usize] = r.start_ns;
        for k in ALL {
            if r.calls[k as usize] == 0 || !r.is_under_top(k) {
                continue;
            }
            if k != r.top {
                let p = k.parent().expect("non-top kind has a parent") as usize;
                starts[k as usize] = starts[p] + cursor[p];
                cursor[p] += r.ns[k as usize];
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let layer = k.label().split('.').next().unwrap_or("");
            let parent = if k == r.top {
                "null".to_string()
            } else {
                format!("\"{}\"", k.parent().expect("checked above").label())
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op_id\":{},\"layer\":\"{}\",\"parent\":{},\"calls\":{},\"workload\":\"{}\"}}}}",
                k.label(),
                layer,
                starts[k as usize] as f64 / 1e3,
                r.ns[k as usize] as f64 / 1e3,
                r.op_id,
                layer,
                parent,
                r.calls[k as usize],
                workload,
            );
        }
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
