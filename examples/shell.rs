//! An interactive predicate-matching shell: define relations, register
//! rule predicates, insert tuples, and watch the Figure 1 index match
//! them — the paper's system as a toy console.
//!
//! ```text
//! cargo run --example shell            # interactive
//! cargo run --example shell -- --demo  # scripted demo
//! echo 'help' | cargo run --example shell
//! ```
//!
//! Commands:
//! ```text
//! relation <name> <attr>:<type> ...     create a relation (types: int, float, str, bool)
//! predicate <condition>                 register a predicate (disjunctions split)
//! rule <name> <condition>               add a rule; multi-relation conditions become joins
//! insert <relation> <value> ...         insert a tuple, show matches and rule firings
//! drop <id>                             remove a predicate by id
//! stats                                 show the index structure
//! list                                  list registered predicates
//! :memo                                 per-rule join-memo state (partial-match counts)
//! :metrics                              Prometheus text exposition of the match counters
//! :explain <relation> <value> ...       EXPLAIN the match path a tuple would take
//! :trace <path>                         drain the span ring to <path> as Chrome JSON
//! :top [k]                              the k most expensive rule cost accounts (default 10)
//! :slow                                 recent inserts' stage records (the slow-op ring)
//! help                                  this text
//! quit
//! ```

use predmatch::predicate::parse_predicates;
use predmatch::predindex::Matcher;
use predmatch::prelude::*;
use predmatch::rules::{Action, Rule, RuleEngine};
use predmatch::telemetry::{Telemetry, Tracer};
use std::io::{self, BufRead, Write};
use std::sync::Arc;

struct Shell {
    engine: RuleEngine,
    index: PredicateIndex,
    sources: Vec<(PredicateIdWrap, String)>,
    telemetry: Telemetry,
}

type PredicateIdWrap = predmatch::predindex::PredicateId;

impl Shell {
    fn new() -> Self {
        // Live telemetry so :metrics and :trace have something to show;
        // the counters and the span ring cost nothing until rendered.
        // One handle feeds both the shell's direct index and the
        // engine's, so :metrics counts every stab.
        let telemetry = Telemetry::new(Arc::new(Registry::new()))
            .with_tracer(Tracer::new(predmatch::telemetry::DEFAULT_TRACE_CAPACITY))
            .with_profiling();
        // A zero threshold captures every insert in the slow-op ring,
        // so :slow doubles as a recent-op cost log in the shell.
        telemetry.profiler().set_slow_threshold_nanos(0);
        let mut index = PredicateIndex::new();
        index.attach_metrics(telemetry.clone());
        let mut engine = RuleEngine::new(Database::new());
        engine.attach_metrics(telemetry.clone());
        Shell {
            engine,
            index,
            sources: Vec::new(),
            telemetry,
        }
    }

    fn exec(&mut self, line: &str) -> Result<String, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        match cmd {
            "relation" => self.cmd_relation(rest),
            "predicate" => self.cmd_predicate(rest),
            "rule" => self.cmd_rule(rest),
            "insert" => self.cmd_insert(rest),
            "drop" => self.cmd_drop(rest),
            "stats" => Ok(self.index.stats().to_string()),
            "list" => Ok(self
                .sources
                .iter()
                .map(|(id, s)| format!("  {id}: {s}"))
                .collect::<Vec<_>>()
                .join("\n")),
            ":memo" => Ok(self.cmd_memo()),
            ":metrics" => Ok(self.telemetry.registry().render_text()),
            ":explain" => self.cmd_explain(rest),
            ":trace" => self.cmd_trace(rest),
            ":top" => self.cmd_top(rest),
            ":slow" => Ok(self.telemetry.profiler().render_slow_text()),
            "help" => Ok(
                "commands: relation, predicate, rule, insert, drop, stats, list, \
                 :memo, :metrics, :explain, :trace, :top, :slow, help, quit"
                    .to_string(),
            ),
            other => Err(format!("unknown command {other:?} (try 'help')")),
        }
    }

    fn cmd_relation(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.split_whitespace();
        let name = parts
            .next()
            .ok_or("usage: relation <name> <attr>:<type> ...")?;
        let mut b = Schema::builder(name);
        let mut arity = 0;
        for spec in parts {
            let (attr, ty) = spec
                .split_once(':')
                .ok_or_else(|| format!("bad attribute spec {spec:?} (want name:type)"))?;
            let ty = match ty {
                "int" => AttrType::Int,
                "float" => AttrType::Float,
                "str" => AttrType::Str,
                "bool" => AttrType::Bool,
                other => return Err(format!("unknown type {other:?}")),
            };
            b = b.attr(attr, ty);
            arity += 1;
        }
        if arity == 0 {
            return Err("a relation needs at least one attribute".into());
        }
        self.engine
            .create_relation(b.build())
            .map_err(|e| e.to_string())?;
        Ok(format!("created relation {name} ({arity} attributes)"))
    }

    fn cmd_rule(&mut self, rest: &str) -> Result<String, String> {
        let (name, condition) = rest
            .split_once(' ')
            .ok_or("usage: rule <name> <condition>")?;
        let rule = Rule::builder(name)
            .when(condition.trim())
            .map_err(|e| e.to_string())?
            .then(Action::log(format!("{name} fired")))
            .build();
        let singles = rule.conditions.len();
        let joins = rule.joins.len();
        let id = self.engine.add_rule(rule).map_err(|e| e.to_string())?;
        let mut out = format!(
            "added rule {id:?} {name:?} ({singles} single-relation, {joins} join condition(s))"
        );
        if joins > 0 {
            out.push_str("; existing tuples pre-seeded the memo (see :memo)");
        }
        Ok(out)
    }

    fn cmd_memo(&self) -> String {
        let stats = self.engine.join_stats();
        if stats.is_empty() {
            return "no join rules registered".into();
        }
        let mut out = Vec::new();
        for (id, name, conds) in stats {
            out.push(format!("rule {id:?} {name:?}:"));
            for s in conds {
                let complete = s.level_counts.last().copied().unwrap_or(0);
                let partials: usize = s.level_counts.iter().take(s.level_counts.len() - 1).sum();
                out.push(format!(
                    "  {}: alpha {:?}, tokens per level {:?} ({partials} partial, {complete} complete), ~{} bytes",
                    s.relations.join(" ⋈ "),
                    s.alpha_counts,
                    s.level_counts,
                    s.approx_bytes,
                ));
            }
        }
        out.join("\n")
    }

    fn cmd_predicate(&mut self, rest: &str) -> Result<String, String> {
        let preds = parse_predicates(rest).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for p in preds {
            let id = self
                .index
                .insert(p.clone(), self.engine.db().catalog())
                .map_err(|e| e.to_string())?;
            let rendered = p.to_source().unwrap_or_else(|| p.to_string());
            out.push(format!("registered {id}: {rendered}"));
            self.sources.push((id, rendered));
        }
        Ok(out.join("\n"))
    }

    /// Parses whitespace-separated values against a relation's schema.
    fn parse_values(&self, rel_name: &str, raw: &[&str]) -> Result<Vec<Value>, String> {
        let schema = self
            .engine
            .db()
            .catalog()
            .relation(rel_name)
            .ok_or_else(|| format!("no relation {rel_name:?}"))?
            .schema()
            .clone();
        if raw.len() != schema.arity() {
            return Err(format!(
                "{rel_name} takes {} values, got {}",
                schema.arity(),
                raw.len()
            ));
        }
        let mut values = Vec::with_capacity(raw.len());
        for (spec, attr) in raw.iter().zip(schema.attributes()) {
            let v = match attr.ty {
                AttrType::Int => Value::Int(spec.parse().map_err(|e| format!("{e}"))?),
                AttrType::Float => Value::Float(spec.parse().map_err(|e| format!("{e}"))?),
                AttrType::Bool => Value::Bool(spec.parse().map_err(|e| format!("{e}"))?),
                AttrType::Str => Value::str(spec.trim_matches('"')),
            };
            values.push(v);
        }
        Ok(values)
    }

    fn cmd_insert(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.split_whitespace();
        let rel_name = parts.next().ok_or("usage: insert <relation> <value> ...")?;
        let raw: Vec<&str> = parts.collect();
        let values = self.parse_values(rel_name, &raw)?;
        let tuple = Tuple::new(values.clone());
        let matches = self.index.match_tuple(rel_name, &tuple);
        let report = self
            .engine
            .insert(rel_name, values)
            .map_err(|e| e.to_string())?;
        let record = self.engine.last_record();
        self.telemetry
            .profiler()
            .record_request("insert", None, record);
        let mut out = if matches.is_empty() {
            format!("inserted {tuple}; no predicates match")
        } else {
            let lines: Vec<String> = matches
                .iter()
                .map(|m| {
                    let src = self
                        .sources
                        .iter()
                        .find(|(id, _)| id == m)
                        .map(|(_, s)| s.as_str())
                        .unwrap_or("?");
                    format!("  {m}: {src}")
                })
                .collect();
            format!("inserted {tuple}; matches:\n{}", lines.join("\n"))
        };
        for ((_, name), bindings) in report.fired.iter().zip(&report.bindings) {
            if bindings.is_empty() {
                out.push_str(&format!("\n  fired {:?}", name));
            } else {
                let bound: Vec<String> = bindings
                    .iter()
                    .map(|b| format!("{}#{}{}", b.relation, b.id.0, b.tuple))
                    .collect();
                out.push_str(&format!("\n  fired {:?} on {}", name, bound.join(" * ")));
            }
        }
        Ok(out)
    }

    fn cmd_explain(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.split_whitespace();
        let rel_name = parts
            .next()
            .ok_or("usage: :explain <relation> <value> ...")?;
        let raw: Vec<&str> = parts.collect();
        let values = self.parse_values(rel_name, &raw)?;
        // Explain only — the tuple is probed, not stored.
        let trace = self.index.explain_tuple(rel_name, &Tuple::new(values));
        Ok(trace.to_string())
    }

    fn cmd_trace(&mut self, rest: &str) -> Result<String, String> {
        let path = rest.trim();
        if path.is_empty() {
            return Err("usage: :trace <path>".into());
        }
        let events = self.telemetry.tracer().events().len();
        let json = self.telemetry.tracer().drain_chrome_json();
        std::fs::write(path, json).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        Ok(format!(
            "wrote {events} trace event(s) to {path} (load in Perfetto / chrome://tracing)"
        ))
    }

    fn cmd_top(&self, rest: &str) -> Result<String, String> {
        let k = match rest.trim() {
            "" => 10,
            raw => raw.parse().map_err(|_| "usage: :top [k]".to_string())?,
        };
        Ok(self.telemetry.profiler().render_top_text(k))
    }

    fn cmd_drop(&mut self, rest: &str) -> Result<String, String> {
        let raw: u32 = rest
            .trim()
            .trim_start_matches('#')
            .parse()
            .map_err(|_| "usage: drop <id>".to_string())?;
        let id = predmatch::interval::IntervalId(raw);
        match self.index.remove(id) {
            Some(_) => {
                self.sources.retain(|(i, _)| *i != id);
                Ok(format!("dropped {id}"))
            }
            None => Err(format!("no predicate {id}")),
        }
    }
}

const DEMO: &str = r#"
relation emp name:str age:int salary:int dept:str
predicate emp.salary < 20000 and emp.age > 50
predicate 20000 <= emp.salary <= 30000
predicate emp.dept = "Shoe" or emp.dept = "Hat"
insert emp al 61 12000 Shoe
insert emp bo 30 25000 Sales
insert emp cy 45 90000 Hat
stats
list
drop 0
insert emp di 70 5000 Toys
relation dept name:str floor:int
rule same-dept emp.dept = dept.name and dept.floor = 1
insert dept Shoe 1
insert emp fi 28 21000 Shoe
:memo
:explain emp ed 55 18000 Shoe
:top
:slow
:metrics
"#;

fn main() {
    let demo = std::env::args().any(|a| a == "--demo");
    let mut shell = Shell::new();

    if demo {
        for line in DEMO.lines() {
            if line.trim().is_empty() {
                continue;
            }
            println!("> {line}");
            match shell.exec(line) {
                Ok(out) if !out.is_empty() => println!("{out}"),
                Ok(_) => {}
                Err(e) => println!("error: {e}"),
            }
        }
        return;
    }

    println!("predmatch shell — 'help' for commands, 'quit' to exit");
    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("> ");
        out.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match shell.exec(line) {
            Ok(o) if !o.is_empty() => println!("{o}"),
            Ok(_) => {}
            Err(e) => println!("error: {e}"),
        }
    }
}
