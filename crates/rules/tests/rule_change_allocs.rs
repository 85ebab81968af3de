//! A rule change's heap budget, counted, not timed: `add_rule` moves a
//! built rule's conditions into the predicate index, which keeps the
//! only copy (§4's `PREDICATES`), and `remove_rule` hands them back. A
//! warm 2,000-rule engine over `rule_churn`'s four relations and six
//! condition shapes adds a pre-built rule and removes a live one per
//! cycle; the mean allocations of each call (the removal's result
//! dropped as well) are bounded. A copy of each condition kept beside
//! the index shows up at once. The counter is per thread, so the test
//! runs beside others.

use relation::{AttrType, Database, Schema};
use rules::{Action, Rule, RuleEngine, RuleId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls that obtained memory (`alloc`, `realloc`) on
    /// this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the thread-local beside it is a plain
// `Cell<u64>` with no destructor and touches no memory the allocator
// hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// SplitMix64, so the condition stream depends on the seed alone.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

const RELATIONS: usize = 4;
/// Domain of `a` and `b`; `c` and `d` draw from `0..SMALL`.
const WIDE: i64 = 1_000_000;
const SMALL: i64 = 1_000;
/// Live rules, as in `rule_churn`.
const LIVE: usize = 2_000;
/// Add-and-remove cycles before counting and while counting.
const CYCLES: usize = 10_000;

/// One of `rule_churn`'s condition texts over relation `r{rel}`, in its
/// shares: a narrow band (30%), a band and an open comparison (25%), an
/// equality and a comparison (15%), a one-sided comparison near a
/// domain edge (18%), an opaque clause and a band (~12%), two opaque
/// clauses (2‰).
fn condition(rng: &mut Rng, rel: usize) -> String {
    let r = format!("r{rel}");
    let wide = |rng: &mut Rng| if rng.chance(1, 2) { "a" } else { "b" };
    let band = |rng: &mut Rng, x: &str, width: i64| {
        let lo = rng.range(0, WIDE - width);
        format!("{lo} <= {r}.{x} <= {}", lo + width)
    };
    let shape = rng.below(1000);
    if shape < 300 {
        let x = wide(rng);
        band(rng, x, 300)
    } else if shape < 550 {
        let x = wide(rng);
        let y = if x == "a" { "b" } else { "a" };
        let b = band(rng, x, 1_000);
        format!("{b} and {r}.{y} > {}", rng.range(0, WIDE))
    } else if shape < 700 {
        format!(
            "{r}.c = {} and {r}.a < {}",
            rng.range(0, SMALL),
            rng.range(0, WIDE)
        )
    } else if shape < 880 {
        let x = wide(rng);
        let edge = rng.range(0, 1_000);
        if rng.chance(1, 2) {
            format!("{r}.{x} < {edge}")
        } else {
            format!("{r}.{x} > {}", WIDE - edge)
        }
    } else if shape < 998 {
        let x = wide(rng);
        let b = band(rng, x, 1_000);
        format!("isodd({r}.d) and {b}")
    } else {
        format!("isodd({r}.d) and isnegative({r}.c)")
    }
}

/// Rule number `serial`, over relation `serial % RELATIONS`.
fn rule(rng: &mut Rng, serial: usize) -> Rule {
    Rule::builder(format!("m{serial}"))
        .when(&condition(rng, serial % RELATIONS))
        .expect("a generated condition parses")
        .then(Action::callback(|_| {}))
        .build()
}

/// An engine over `r0`..`r3(a, b, c, d)` holding [`LIVE`] rules, and
/// their ids.
fn engine(rng: &mut Rng) -> (RuleEngine, Vec<RuleId>) {
    let mut db = Database::new();
    for rel in 0..RELATIONS {
        let schema = ["a", "b", "c", "d"]
            .iter()
            .fold(Schema::builder(format!("r{rel}")), |s, a| {
                s.attr(*a, AttrType::Int)
            });
        db.create_relation(schema.build()).expect("a fresh name");
    }
    let mut engine = RuleEngine::new(db);
    let live = (0..LIVE)
        .map(|serial| {
            engine
                .add_rule(rule(rng, serial))
                .expect("r has the attributes named")
        })
        .collect();
    (engine, live)
}

#[test]
fn a_rule_change_allocates_for_its_ids_not_its_conditions() {
    let mut rng = Rng(39);
    let (mut engine, mut live) = engine(&mut rng);
    let mut serial = LIVE;
    // One cycle adds a built rule and removes a random live one, so the
    // engine stays at `LIVE` rules; returns the two calls' allocations.
    let mut cycle = |engine: &mut RuleEngine, live: &mut Vec<RuleId>| {
        let built = rule(&mut rng, serial);
        serial += 1;
        let (id, add) = counted(|| engine.add_rule(built).expect("a fresh rule"));
        live.push(id);
        let gone = live.swap_remove(rng.below(live.len() as u64) as usize);
        let ((), remove) = counted(|| drop(engine.remove_rule(gone).expect("a live rule")));
        (add, remove)
    };
    for _ in 0..CYCLES {
        cycle(&mut engine, &mut live);
    }
    let (mut adds, mut removes) = (0, 0);
    for _ in 0..CYCLES {
        let (a, r) = cycle(&mut engine, &mut live);
        adds += a;
        removes += r;
    }
    assert_eq!(engine.rule_count(), LIVE);
    let per_add = adds as f64 / CYCLES as f64;
    let per_remove = removes as f64 / CYCLES as f64;
    println!("allocations per add_rule {per_add:.2}, per remove_rule {per_remove:.2}");
    // The engine reads 4.95 and 1.54 here: an add allocates its id list
    // and what the index binds and places, a removal the condition list
    // it hands back. Cloning each condition into the rule's cold half as
    // well read 8.60 per add.
    assert!(
        per_add <= 6.0,
        "{per_add:.2} allocations per add_rule (bound 6.0)"
    );
    assert!(
        per_remove <= 2.0,
        "{per_remove:.2} allocations per remove_rule (bound 2.0)"
    );
}
