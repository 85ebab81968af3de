//! The wire contract, from outside: one sample of every `Record`,
//! `Request` and `Reply` variant, as `examples/rule_server.rs` sends
//! them, checked two ways.
//!
//! * `every_variant_round_trips_and_matches_design_md` is what is left
//!   of srclint's `codec-conformance` once the compiler has taken the
//!   legs it can (`Record::tag`, `Request::opcode`, `Reply::opcode` and
//!   the `encode` fns are exhaustive matches): a decode arm per tag and
//!   opcode, and DESIGN.md §14's `Opcodes` / `Record tags` tables equal
//!   to the constants in both directions.
//! * `mutated_frames_and_conditions_never_panic_or_over_reserve` is the
//!   property the `no-panic-in-lib` lint stood in for on the decode
//!   path, tested instead of grepped: hostile bytes get `Ok` or `Err`,
//!   never a panic, and never a reservation the input did not pay for.

use durable::{ActionSpec, Record, RuleSpec};
use relation::{AttrType, Schema, Value};
use rules::EventMask;
use ruleserv::proto::{self, encode_frame, read_frame, Event, EventBinding, FireSummary};
use ruleserv::{Reply, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ------------------------------------------------------------ samples

/// One record per variant. The match is the compiler's leg: a new
/// variant fails to build here until it has a sample below.
fn records() -> Vec<Record> {
    fn _every_variant_is_sampled(r: &Record) {
        match r {
            Record::CreateRelation { .. }
            | Record::DropRelation { .. }
            | Record::AddRule { .. }
            | Record::RemoveRule { .. }
            | Record::Insert { .. }
            | Record::Update { .. }
            | Record::Delete { .. }
            | Record::InsertBatch { .. } => {}
        }
    }
    let row = |name: &str, salary: i64| vec![Value::Str(name.into()), Value::Int(salary)];
    vec![
        Record::CreateRelation {
            schema: Schema::builder("ex_emp")
                .attr("name", AttrType::Str)
                .attr("salary", AttrType::Int)
                .build(),
        },
        Record::DropRelation {
            name: "ex_emp".into(),
        },
        Record::AddRule {
            spec: RuleSpec {
                name: "ex_rich".into(),
                condition: "ex_emp.salary > 1000".into(),
                mask: EventMask::INSERT_UPDATE,
                priority: 0,
                action: ActionSpec::Log("well paid".into()),
            },
        },
        Record::RemoveRule { id: 0 },
        Record::Insert {
            relation: "ex_emp".into(),
            values: row("ann", 2000),
        },
        Record::Update {
            relation: "ex_emp".into(),
            id: 0,
            values: row("ann", 500),
        },
        Record::Delete {
            relation: "ex_emp".into(),
            id: 0,
        },
        Record::InsertBatch {
            relation: "ex_emp".into(),
            rows: vec![row("bob", 1500), row("cho", 700)],
        },
    ]
}

/// One request per variant (and per record kind under `Apply`).
fn requests() -> Vec<Request> {
    fn _every_variant_is_sampled(r: &Request) {
        match r {
            Request::Ping
            | Request::Apply(_)
            | Request::Subscribe
            | Request::Unsubscribe
            | Request::Health
            | Request::Sync => {}
        }
    }
    let mut out = vec![
        Request::Ping,
        Request::Subscribe,
        Request::Unsubscribe,
        Request::Health,
        Request::Sync,
    ];
    out.extend(records().into_iter().map(Request::Apply));
    out
}

/// One reply per variant.
fn replies() -> Vec<Reply> {
    fn _every_variant_is_sampled(r: &Reply) {
        match r {
            Reply::Pong
            | Reply::Unit
            | Reply::Fire(_)
            | Reply::RuleId(_)
            | Reply::Health(_)
            | Reply::Err(_)
            | Reply::Busy
            | Reply::Event(_)
            | Reply::Lagged(_) => {}
        }
    }
    vec![
        Reply::Pong,
        Reply::Unit,
        Reply::Fire(FireSummary {
            seq: 7,
            ops_applied: 2,
            fired: vec![(0, "ex_rich".into())],
        }),
        Reply::RuleId(0),
        Reply::Health("up 1\nwal_next_seq 9\n".into()),
        Reply::Err("no such relation".into()),
        Reply::Busy,
        Reply::Event(Event {
            seq: 7,
            rule_id: 0,
            rule: "ex_rich".into(),
            bindings: vec![EventBinding {
                relation: "ex_emp".into(),
                tuple_id: 0,
                values: vec![Value::Str("ann".into()), Value::Int(2000)],
            }],
        }),
        Reply::Lagged(3),
    ]
}

// ------------------------------------------------- codec conformance

/// The `OP_*` constants under their DESIGN.md names.
const OPCODES: [(&str, u8); 15] = [
    ("PING", proto::OP_PING),
    ("APPLY", proto::OP_APPLY),
    ("SUBSCRIBE", proto::OP_SUBSCRIBE),
    ("UNSUBSCRIBE", proto::OP_UNSUBSCRIBE),
    ("HEALTH", proto::OP_HEALTH),
    ("SYNC", proto::OP_SYNC),
    ("PONG", proto::OP_PONG),
    ("UNIT", proto::OP_UNIT),
    ("FIRE", proto::OP_FIRE),
    ("RULE_ID", proto::OP_RULE_ID),
    ("HEALTH_REPLY", proto::OP_HEALTH_REPLY),
    ("ERR", proto::OP_ERR),
    ("BUSY", proto::OP_BUSY),
    ("EVENT", proto::OP_EVENT),
    ("LAGGED", proto::OP_LAGGED),
];

/// Rows of the DESIGN.md table under the heading containing `heading`:
/// `(first backticked cell, numeric second backticked cell)`.
fn design_rows(heading: &str) -> BTreeSet<(String, u8)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md at the workspace root");
    let mut in_section = false;
    let mut rows = BTreeSet::new();
    for line in design.lines().map(str::trim) {
        if line.starts_with('#') {
            in_section = line.contains(heading);
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if !in_section || !line.starts_with('|') || cells.len() < 2 || !cells[0].starts_with('`') {
            continue; // prose, header or separator row
        }
        let value = cells[1].trim_matches('`');
        let value = match value.strip_prefix("0x") {
            Some(hex) => u8::from_str_radix(hex, 16),
            None => value.parse(),
        };
        let value = value.unwrap_or_else(|e| panic!("DESIGN.md §14 `{heading}` row {line:?}: {e}"));
        rows.insert((cells[0].trim_matches('`').to_string(), value));
    }
    assert!(!rows.is_empty(), "DESIGN.md lost its `{heading}` table");
    rows
}

#[test]
fn every_variant_round_trips_and_matches_design_md() {
    // A decode arm per record tag, request opcode and reply opcode.
    for record in records() {
        let decoded = Record::decode(&record.encode());
        assert_eq!(
            decoded.as_ref(),
            Ok(&record),
            "{} lost its decode arm",
            record.name()
        );
    }
    for request in requests() {
        let (opcode, payload) = request.encode();
        let decoded = Request::decode(opcode, &payload);
        assert_eq!(
            decoded.ok().as_ref(),
            Some(&request),
            "request {opcode:#04x}"
        );
    }
    for reply in replies() {
        let (opcode, payload) = reply.encode();
        let decoded = Reply::decode(opcode, &payload);
        assert_eq!(decoded.ok().as_ref(), Some(&reply), "reply {opcode:#04x}");
    }

    // DESIGN.md §14 `Record tags` = the variants and their tags, in
    // both directions (a stale row is a difference too).
    let variant = |r: &Record| format!("{r:?}").split(' ').next().unwrap_or("").to_string();
    let tags: BTreeSet<(String, u8)> = records().iter().map(|r| (variant(r), r.tag())).collect();
    assert_eq!(
        design_rows("Record tags"),
        tags,
        "DESIGN.md §14 `Record tags` (left) vs durable::Record (right)"
    );

    // DESIGN.md §14 `Opcodes` = the `OP_*` constants = the opcodes the
    // variants encode to, in both directions.
    let named: BTreeSet<(String, u8)> = OPCODES.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    assert_eq!(
        design_rows("Opcodes"),
        named,
        "DESIGN.md §14 `Opcodes` (left) vs ruleserv::proto's constants (right)"
    );
    let constants: BTreeSet<u8> = OPCODES.iter().map(|&(_, v)| v).collect();
    let encoded: BTreeSet<u8> = requests()
        .iter()
        .map(Request::opcode)
        .chain(replies().iter().map(Reply::opcode))
        .collect();
    assert_eq!(
        constants, encoded,
        "`OP_*` constants (left) vs opcodes the variants encode to (right)"
    );
}

// ------------------------------------------------------ the mutator

thread_local! {
    /// The largest single reservation this thread has asked the
    /// allocator for since the cell was last cleared.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the thread-local beside it is a plain
// `Cell<usize>` with no destructor and touches no memory the allocator
// hands out.
unsafe impl GlobalAlloc for Watching {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
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
        let _ = LARGEST.try_with(|c| c.set(c.get().max(new_size)));
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Runs one decoder over hostile `input`. It may answer `Ok` or `Err`;
/// it may not panic, and it may not reserve more than the input paid
/// for, a small multiple of its length: `Reader::count` admits a count
/// only if that many minimum-size elements fit in what is left (≤ 16
/// bytes of `Vec` per input byte), the condition lexer keeps a ~40-byte
/// token per input byte at worst, and `read_frame` reserves at most
/// `FRAME_RESERVE` on a header's word.
fn probe<T>(what: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> T) {
    LARGEST.with(|c| c.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(|| drop(decode(input))));
    let largest = LARGEST.with(Cell::get);
    let shown = &input[..input.len().min(96)];
    assert!(outcome.is_ok(), "{what} panicked on {shown:02x?}");
    let paid_for = proto::FRAME_RESERVE + 64 * input.len();
    assert!(
        largest <= paid_for,
        "{what} reserved {largest} bytes for {} bytes of input: {shown:02x?}",
        input.len()
    );
}

/// A frame around `payload` with a checksum that matches, so the
/// mutation reaches the payload decoder instead of dying at the CRC.
fn through_the_frame(opcode: u8, payload: &[u8], is_reply: bool) {
    let frame = encode_frame(opcode, payload);
    probe("read_frame + decode", &frame, |bytes| {
        let Ok(Some((op, body))) = read_frame(&mut Cursor::new(bytes)) else {
            return;
        };
        if is_reply {
            let _ = Reply::decode(op, &body);
        } else {
            let _ = Request::decode(op, &body);
            let _ = Request::decode_traced(op, &body);
        }
    });
    if !is_reply {
        probe("Record::decode_prefix", payload, Record::decode_prefix);
    }
}

/// Hostile values for any four bytes that might be a count or a length.
const HOSTILE_U32: [u32; 6] = [0, 1, 0x7f, 0xffff, 0x7fff_ffff, u32::MAX];

#[test]
fn mutated_frames_and_conditions_never_panic_or_over_reserve() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5eed_2300);

    let corpus = requests()
        .into_iter()
        .map(|r| (r.encode(), false))
        .chain(replies().into_iter().map(|r| (r.encode(), true)));

    for ((opcode, payload), is_reply) in corpus {
        let payload = &payload;
        let frame = encode_frame(opcode, payload);

        // The raw frame: every truncation, every hostile length, a
        // flipped bit in every byte (the CRC included).
        for cut in 0..frame.len() {
            probe("read_frame", &frame[..cut], |b| {
                read_frame(&mut Cursor::new(b)).map(drop)
            });
        }
        for len in HOSTILE_U32
            .into_iter()
            .chain([proto::MAX_FRAME, proto::MAX_FRAME + 1])
        {
            let mut hostile = frame.clone();
            hostile[..4].copy_from_slice(&len.to_le_bytes());
            probe("read_frame", &hostile, |b| {
                read_frame(&mut Cursor::new(b)).map(drop)
            });
        }
        for at in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[at] ^= 1 << rng.gen_range(0..8);
            probe("read_frame", &flipped, |b| {
                read_frame(&mut Cursor::new(b)).map(drop)
            });
        }

        // Behind a valid checksum: every opcode over this payload,
        // every payload truncation, a trace-id suffix of every length
        // around 8, and every four-byte window — so every count and
        // length field, wherever it sits — set to each hostile value.
        for op in 0..=u8::MAX {
            through_the_frame(op, payload, is_reply);
        }
        for cut in 0..payload.len() {
            through_the_frame(opcode, &payload[..cut], is_reply);
        }
        for suffix in 1..=9 {
            let mut traced = payload.clone();
            traced.extend((0..suffix).map(|_| rng.gen::<u8>()));
            through_the_frame(opcode, &traced, is_reply);
        }
        for at in 0..payload.len().saturating_sub(3) {
            for value in HOSTILE_U32 {
                let mut hostile = payload.clone();
                hostile[at..at + 4].copy_from_slice(&value.to_le_bytes());
                through_the_frame(opcode, &hostile, is_reply);
            }
        }
        // And unstructured damage: a few random bytes at once.
        for _ in 0..200 {
            let mut hostile = payload.clone();
            for _ in 0..rng.gen_range(1..4) {
                if !hostile.is_empty() {
                    let at = rng.gen_range(0..hostile.len());
                    hostile[at] = rng.gen();
                }
            }
            through_the_frame(opcode, &hostile, is_reply);
        }
    }

    // Rule-condition text reaches the parser from an `AddRule` frame.
    let conditions = [
        "ex_emp.salary > 1000",
        "emp.salary < 15000 or emp.salary > 900000",
        "emp.dno = dept.dno and dept.floor > 2 and emp.name != \"al\"",
        "(10 <= emp.age <= 20 or is_odd(emp.age)) and emp.boss = true",
        "emp.ratio >= -0.5 and not_a_function(emp.x)",
    ];
    let parse = |text: &str| {
        probe("parse_rule_conditions", text.as_bytes(), |_| {
            predicate::parse_rule_conditions(text).map(drop)
        });
    };
    for condition in conditions {
        parse(condition);
        let tokens: Vec<&str> = condition.split(' ').collect();
        let joined = |tokens: &[&str]| tokens.join(" ");
        for at in 0..tokens.len() {
            // Dropped, duplicated, and wrapped in unbalanced parens.
            let mut dropped = tokens.clone();
            dropped.remove(at);
            parse(&joined(&dropped));
            let mut doubled = tokens.clone();
            doubled.insert(at, tokens[at]);
            parse(&joined(&doubled));
            for paren in ["(", ")", "((", "))"] {
                let mut unbalanced = tokens.clone();
                unbalanced.insert(at, paren);
                parse(&joined(&unbalanced));
            }
            // Huge literals where a literal (or anything else) stood.
            for huge in [
                "9".repeat(400),
                format!("-{}", "9".repeat(400)),
                format!("1e{}", "9".repeat(40)),
                format!("0.{}1", "0".repeat(400)),
                format!("\"{}\"", "x".repeat(10_000)),
                format!("\"{}", "x".repeat(100)),
            ] {
                let mut swapped = tokens.clone();
                swapped[at] = &huge;
                parse(&joined(&swapped));
            }
        }
        // The two shapes that used to take the process down: nesting
        // that overflowed the parser's stack, `!=` chains whose DNF
        // doubles per term. Found by reading, kept as seeds.
        parse(&format!("{}{condition}", "(".repeat(100_000)));
        parse(&vec![condition; 40].join(" and "));
        parse(&vec!["emp.age != 7"; 40].join(" and "));
    }
}
