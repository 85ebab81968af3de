//! Every interleaving of small scripts against the commit core.
//!
//! A model of the server around [`Core`]: per connection a reader that
//! counts a request into `depth` and hands it to the engine queue as two
//! steps (a full queue bounces it `Busy` and undoes the count), a bounded
//! slot queue, and a writer that drains it in order; an engine that
//! opens a group with the depth it reads, pulls through [`Core::pull`],
//! runs each request, and closes the group with a sync that may fail
//! once, or panics once while a request runs or the sync is pending.
//! One connection's writer may fail a write once, at any step: its
//! queued slots go, later pushes to it do not fit, and its reader, whose
//! next slot send then fails, hangs up.
//! [`State::successors`] returns every state one step away, and
//! [`explore`] is the only way state advances: depth-first, with a
//! visited set. Each of the core's six rules is checked where it can
//! break — on every answer and push, on every pull, on every reachable
//! state and on every end, a state where nothing can move but a fault —
//! and every reachable state must still reach an end without a fault,
//! so no message waits forever while the engine cycles through empty
//! groups.

use super::{Change, Core, Taken, ENGINE_DEAD};
use crate::proto::{FireSummary, Reply};
use rules::{FireReport, RuleId};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};

/// One step of a connection's script.
#[derive(Clone, Copy, Debug, PartialEq, Hash)]
enum Op {
    /// A write whose record fires this many rules.
    Write(u8),
    Ping,
    Subscribe,
    Unsubscribe,
    /// The client goes away; always a script's last step.
    Hangup,
}

/// A request's ticket: its connection and its index in that script.
type Ticket = (u8, u8);

/// A message on the engine queue.
#[derive(Clone, Debug, Hash)]
enum Msg {
    Request(Ticket, Op),
    Hangup(u8),
}

/// A place in a connection's reply order, as its writer drains it.
#[derive(Clone, Debug, Hash)]
enum Slot {
    /// The reply to request `.0`, which the engine or a bounce gives.
    Pending(u8),
    /// The reader's own answer to the ping at `.0`.
    Pong(u8),
    /// A pushed event, by the sequence number of the record it fired on.
    Event(u64),
    Lagged(u64),
}

/// The engine queue's bound: small, so that a request can bounce.
const QUEUE: usize = 2;

/// Each connection's script.
type Script = [&'static [Op]];

#[derive(Clone, Debug, Default, Hash)]
struct Conn {
    /// The reader's position in its script.
    next: u8,
    /// The reader counted the request at `next` into `depth` and has
    /// queued its slot, but not yet handed it over.
    counted: bool,
    pipe: VecDeque<Slot>,
    /// The pending slot the writer took off the queue and waits on.
    hand: Option<u8>,
    /// The index of the last reply the writer sent.
    sent: Option<u8>,
    /// The writer failed a write; the socket is shut down.
    dead: bool,
    /// The reader sent its hangup.
    hung: bool,
    /// Events the model released to this subscriber, those that fit its
    /// pipe, and the sum of the `Lagged` counts that fit.
    owed: u64,
    fit: u64,
    announced: u64,
}

#[derive(Clone, Debug, PartialEq, Hash)]
enum Engine {
    Idle,
    Pulling,
    Running(Ticket, Op),
    Syncing,
    Dead,
}

#[derive(Clone, Debug, Hash)]
struct State {
    core: Core<Ticket, u8>,
    engine: Engine,
    conns: Vec<Conn>,
    /// Each slot queue's bound.
    pipe: usize,
    /// The connection whose writer may fail.
    breaks: Option<u8>,
    queue: VecDeque<Msg>,
    depth: u64,
    /// The open group's limit, how many messages it took, and each
    /// message it took with the sequence number its record logged (a
    /// hangup's index is `u8::MAX`).
    limit: u64,
    took: u64,
    group: Vec<(Ticket, Op, Option<u64>)>,
    next_seq: u64,
    /// The highest sequence number a sync made durable.
    durable: u64,
    /// The log fail-stopped after a failed sync.
    failed: bool,
    fails: u8,
    panics: u8,
    /// Tickets whose slot is queued and that nobody has answered yet.
    waiting: BTreeSet<Ticket>,
    /// Tickets answered whose reply the writers have not sent yet.
    answered: BTreeSet<Ticket>,
    /// The subscriber set, as the model releases it.
    subs: BTreeSet<u8>,
}

impl State {
    fn new(script: &Script, pipe: usize, breaks: Option<u8>) -> State {
        State {
            core: Core::default(),
            engine: Engine::Idle,
            conns: vec![Conn::default(); script.len()],
            pipe,
            breaks,
            queue: VecDeque::new(),
            depth: 0,
            limit: 0,
            took: 0,
            group: Vec::new(),
            next_seq: 1,
            durable: 0,
            failed: false,
            fails: 1,
            panics: 1,
            waiting: BTreeSet::new(),
            answered: BTreeSet::new(),
            subs: BTreeSet::new(),
        }
    }

    fn key(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }

    /// Every state one step away.
    fn successors(&self, script: &Script) -> Vec<State> {
        let mut next = Vec::new();
        for c in 0..self.conns.len() {
            next.extend(self.read(script, c));
            next.extend(self.write(c));
        }
        let mut step = |f: &dyn Fn(&mut State)| {
            let mut s = self.clone();
            f(&mut s);
            next.push(s);
        };
        if let Some(c) = self.breaks.filter(|&c| !self.conns[c as usize].dead) {
            step(&|s| s.fail(c as usize));
        }
        match self.engine {
            Engine::Idle if !self.queue.is_empty() => step(&|s| {
                s.core.open(s.depth);
                (s.limit, s.engine) = (s.depth, Engine::Pulling);
            }),
            Engine::Pulling => step(&|s| s.pull()),
            Engine::Running(ticket, op) => step(&|s| s.settle(ticket, op)),
            Engine::Syncing => {
                step(&|s| s.close(None));
                let logged = self.group.iter().any(|(_, _, seq)| seq.is_some());
                if self.fails > 0 && logged {
                    step(&|s| s.close(Some("sync failed")));
                }
            }
            Engine::Dead if !self.queue.is_empty() => step(&|s| {
                let msg = s.core.pull(|| s.queue.pop_front());
                match msg.expect("an abandoned core takes every message") {
                    Msg::Request(ticket, _) => {
                        s.depth -= 1;
                        s.core.take(ticket);
                    }
                    Msg::Hangup(c) => s.core.hangup(c as u64),
                }
                s.abandon();
            }),
            Engine::Idle | Engine::Dead => {}
        }
        if self.panics > 0 && matches!(self.engine, Engine::Running(..) | Engine::Syncing) {
            step(&|s| {
                s.panics -= 1;
                s.engine = Engine::Dead;
                s.abandon();
            });
        }
        next
    }

    /// Connection `c`'s reader takes its next step, if it can.
    fn read(&self, script: &Script, c: usize) -> Option<State> {
        let conn = &self.conns[c];
        if conn.hung {
            return None;
        }
        // A reader whose writer failed finds its slot send failing, or
        // its read ending on the shut socket, and hangs up; a request
        // whose slot is already queued is still handed over first.
        let op = match script[c].get(conn.next as usize) {
            _ if conn.dead && !conn.counted => Op::Hangup,
            op => *op?,
        };
        let blocked = match op {
            Op::Hangup => self.queue.len() == QUEUE,
            Op::Ping => conn.pipe.len() == self.pipe,
            _ => !conn.counted && conn.pipe.len() == self.pipe,
        };
        if blocked {
            return None;
        }
        let ticket = (c as u8, conn.next);
        let mut s = self.clone();
        let conn = &mut s.conns[c];
        match op {
            Op::Ping => conn.pipe.push_back(Slot::Pong(ticket.1)),
            Op::Hangup => {
                (conn.next, conn.hung) = (script[c].len() as u8, true);
                s.queue.push_back(Msg::Hangup(ticket.0));
                return Some(s);
            }
            _ if !conn.counted => {
                conn.pipe.push_back(Slot::Pending(ticket.1));
                conn.counted = true;
                s.depth += 1;
                s.waiting.insert(ticket);
                return Some(s);
            }
            _ if s.queue.len() < QUEUE => s.queue.push_back(Msg::Request(ticket, op)),
            _ => {
                s.depth -= 1;
                s.answer(ticket);
            }
        }
        let conn = &mut s.conns[c];
        (conn.next, conn.counted) = (conn.next + 1, false);
        Some(s)
    }

    /// Connection `c`'s writer sends its next reply or takes its next
    /// slot, if it can.
    fn write(&self, c: usize) -> Option<State> {
        let conn = &self.conns[c];
        if conn.dead {
            return None;
        }
        let ready = match conn.hand {
            Some(index) => self.answered.contains(&(c as u8, index)),
            None => !conn.pipe.is_empty(),
        };
        if !ready {
            return None;
        }
        let mut s = self.clone();
        let conn = &mut s.conns[c];
        let index = match conn.hand {
            Some(index) => {
                s.answered.remove(&(c as u8, index));
                conn.hand = None;
                index
            }
            None => match conn.pipe.pop_front().expect("a slot to take") {
                Slot::Pending(index) => {
                    conn.hand = Some(index);
                    return Some(s);
                }
                Slot::Pong(index) => index,
                Slot::Event(_) | Slot::Lagged(_) => return Some(s),
            },
        };
        assert!(
            conn.sent < Some(index),
            "rule 1, replies in request order: connection {c} sent {index} after {:?}",
            conn.sent
        );
        conn.sent = Some(index);
        Some(s)
    }

    /// Connection `c`'s writer fails a write and shuts the socket down:
    /// the slots it queued go, and the replies it had not sent.
    fn fail(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        (conn.dead, conn.hand) = (true, None);
        conn.pipe.clear();
        self.answered.retain(|&(a, _)| a as usize != c);
    }

    /// The engine pulls the open group's next message, or ends the group.
    fn pull(&mut self) {
        let Some(msg) = self.core.pull(|| self.queue.pop_front()) else {
            self.engine = Engine::Syncing;
            return;
        };
        self.took += 1;
        assert!(
            self.took <= self.limit.max(1),
            "rule 4, a group is closed to later arrivals: took {} with depth {} at open",
            self.took,
            self.limit
        );
        match msg {
            Msg::Request(ticket, op) => {
                self.depth -= 1;
                self.core.take(ticket);
                self.engine = Engine::Running(ticket, op);
            }
            Msg::Hangup(c) => {
                self.core.hangup(c as u64);
                self.group.push(((c, u8::MAX), Op::Hangup, None));
            }
        }
    }

    /// The engine ran `op`: a write logs a record unless the log
    /// fail-stopped, and fires as many rules as it says.
    fn settle(&mut self, (c, index): Ticket, op: Op) {
        let (reply, seq, change) = match op {
            Op::Write(_) if self.failed => (
                Reply::Err("log failed".into()),
                None,
                Change::Fired(FireReport::default()),
            ),
            Op::Write(fires) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let report = FireReport {
                    fired: (0..fires).map(|i| (RuleId(i as u32), "r".into())).collect(),
                    bindings: vec![Vec::new(); fires as usize],
                    ops_applied: 1,
                    log: Vec::new(),
                };
                let fire = FireSummary {
                    seq,
                    ops_applied: 1,
                    fired: Vec::new(),
                };
                (Reply::Fire(fire), Some(seq), Change::Fired(report))
            }
            Op::Subscribe => (Reply::Unit, None, Change::Subscribe(c as u64, c)),
            Op::Unsubscribe => (Reply::Unit, None, Change::Forget(c as u64)),
            Op::Ping | Op::Hangup => unreachable!("never queued as a request"),
        };
        assert_eq!(*self.core.settle(reply, seq, change), (c, index));
        self.group.push(((c, index), op, seq));
        self.engine = Engine::Pulling;
    }

    /// The group's sync returned: the model releases its own view of
    /// the subscriber set and what each subscriber is owed, then the
    /// core releases the group.
    fn close(&mut self, failure: Option<&str>) {
        if failure.is_some() {
            (self.fails, self.failed) = (self.fails - 1, true);
        } else if !self.failed {
            self.durable = self.next_seq - 1;
        }
        for &((c, _), op, seq) in &self.group {
            match (op, seq) {
                (Op::Subscribe, _) => {
                    self.subs.insert(c);
                }
                (Op::Unsubscribe | Op::Hangup, _) => {
                    self.subs.remove(&c);
                }
                (Op::Write(fires), Some(_)) if failure.is_none() => {
                    for &sub in &self.subs {
                        self.conns[sub as usize].owed += fires as u64;
                    }
                }
                _ => {}
            }
        }
        let (durable, pipe) = (self.durable, self.pipe);
        let conns = &mut self.conns;
        let push = |&c: &u8, frame: Reply| {
            let (seq, slot) = match frame {
                Reply::Event(event) => (event.seq, Slot::Event(event.seq)),
                Reply::Lagged(n) => (0, Slot::Lagged(n)),
                other => panic!("pushed a {} frame", other.kind()),
            };
            assert!(
                seq <= durable,
                "rule 2, nothing before its sync: an event of sequence {seq} with {durable} durable"
            );
            assert!(
                failure.is_none(),
                "rule 3, a failed sync acknowledges nothing: an event"
            );
            let conn = &mut conns[c as usize];
            if conn.dead || conn.pipe.len() == pipe {
                return false;
            }
            match slot {
                Slot::Event(_) => conn.fit += 1,
                Slot::Lagged(n) => conn.announced += n,
                _ => {}
            }
            conn.pipe.push_back(slot);
            true
        };
        let mut answered = Vec::new();
        self.core.close(failure, push, |ticket, reply| {
            answered.push((ticket, reply))
        });
        for (ticket, reply) in answered {
            if let Reply::Fire(fire) = &reply {
                assert!(
                    fire.seq <= self.durable,
                    "rule 2, nothing before its sync: {ticket:?} acknowledges {} with {} durable",
                    fire.seq,
                    self.durable
                );
            }
            let logged = self
                .group
                .iter()
                .any(|&(t, _, seq)| t == ticket && seq.is_some());
            assert!(
                failure.is_none() || !logged || matches!(reply, Reply::Err(_)),
                "rule 3, a failed sync acknowledges nothing: {ticket:?} got {}",
                reply.kind()
            );
            self.answer(ticket);
        }
        // A closed group leaves nothing behind, so equal states meet.
        (self.limit, self.took, self.engine) = (0, 0, Engine::Idle);
        self.group.clear();
    }

    /// The engine died: the core answers everything it took.
    fn abandon(&mut self) {
        let mut answered = Vec::new();
        self.core
            .abandon(|ticket, reply| answered.push((ticket, reply)));
        for (ticket, reply) in answered {
            assert!(
                matches!(&reply, Reply::Err(why) if why == ENGINE_DEAD),
                "rule 6, a panic answers everyone: {ticket:?} got {}",
                reply.kind()
            );
            self.answer(ticket);
        }
    }

    /// Hands `ticket`'s reply to its writer: once, and only a ticket
    /// whose slot is queued. A failed writer's reply goes nowhere.
    fn answer(&mut self, ticket: Ticket) {
        assert!(
            self.waiting.remove(&ticket),
            "rule 6, everyone is answered once: {ticket:?} answered twice or never queued"
        );
        if !self.conns[ticket.0 as usize].dead {
            self.answered.insert(ticket);
        }
    }

    /// What must hold on every reachable state.
    fn check(&self) {
        let subscribers: BTreeSet<u8> = self.core.subscribers.keys().map(|&c| c as u8).collect();
        if self.engine == Engine::Dead {
            assert!(
                subscribers.is_empty(),
                "rule 6, a panic answers everyone: a dead engine holds the pipes of {subscribers:?}, so their sessions never end"
            );
            return;
        }
        assert_eq!(
            subscribers, self.subs,
            "rule 5: the subscriber set changes in release order"
        );
        for (&c, &(_, lagged)) in &self.core.subscribers {
            let conn = &self.conns[c as usize];
            assert_eq!(
                conn.owed,
                conn.fit + conn.announced + lagged,
                "rule 5, lag is counted: connection {c} was owed {}, fit {}, announced {}, holds {lagged}",
                conn.owed,
                conn.fit,
                conn.announced
            );
        }
    }

    /// The faults the model may still inject: a failed sync, a panic,
    /// a writer's failed write. A step that spends one is a fault.
    fn faults_left(&self) -> u8 {
        let breaks = self.breaks.filter(|&c| !self.conns[c as usize].dead);
        self.fails + self.panics + u8::from(breaks.is_some())
    }

    /// What must hold once nothing can move but a fault: every script
    /// ran, every connection whose writer failed hung up, every
    /// connection that hung up was let go, every ticket was answered
    /// and every reply to a live connection sent.
    fn check_end(&self, script: &Script) {
        for (c, conn) in self.conns.iter().enumerate() {
            assert_eq!(
                conn.next as usize,
                script[c].len(),
                "connection {c} is stuck"
            );
            assert!(
                conn.hung || !conn.dead,
                "connection {c}'s writer failed, but its reader never hung up"
            );
            assert!(
                !conn.hung || !self.core.subscribers.contains_key(&(c as u64)),
                "connection {c} hung up, but the core still holds its pipe"
            );
            assert!(
                conn.pipe.is_empty() && conn.hand.is_none(),
                "connection {c} has unsent replies"
            );
        }
        assert!(
            self.waiting.is_empty() && self.answered.is_empty(),
            "rule 6, everyone is answered: {:?} unanswered, {:?} unsent",
            self.waiting,
            self.answered
        );
        assert!(
            self.queue.is_empty() && self.depth == 0,
            "messages left on the engine queue"
        );
        assert!(matches!(self.engine, Engine::Idle | Engine::Dead));
    }
}

/// What a state's future depends on: a reply's kind, not its text, and
/// a report's number of firings.
impl Hash for Core<Ticket, u8> {
    fn hash<H: Hasher>(&self, hasher: &mut H) {
        (&self.subscribers, self.room).hash(hasher);
        for taken in &self.taken {
            match taken {
                Taken::Request(ticket, done) => {
                    ticket.hash(hasher);
                    if let Some((reply, seq, change)) = done {
                        (reply.kind(), seq).hash(hasher);
                        match change {
                            Change::Fired(report) => report.fired.len().hash(hasher),
                            Change::Subscribe(conn, _) | Change::Forget(conn) => conn.hash(hasher),
                        }
                    }
                }
                Taken::Hangup(conn) => conn.hash(hasher),
            }
        }
    }
}

/// Visits every state `script` can reach with slot queues of `pipe`
/// slots, and connection `breaks`'s writer failing at any step, and
/// checks that each can still reach an end without a fault; returns how
/// many.
fn explore(script: &Script, pipe: usize, breaks: Option<u8>) -> usize {
    let start = State::new(script, pipe, breaks);
    let mut index = HashMap::from([(start.key(), 0u32)]);
    // Every step that is not a fault as (to, from), and the ends.
    let (mut steps, mut ends) = (Vec::new(), Vec::new());
    let mut stack = vec![(0, start)];
    while let Some((from, state)) = stack.pop() {
        state.check();
        let mut end = true;
        for s in state.successors(script) {
            let fault = s.faults_left() < state.faults_left();
            let fresh = index.len() as u32;
            let to = match index.entry(s.key()) {
                Entry::Occupied(seen) => *seen.get(),
                Entry::Vacant(new) => {
                    stack.push((fresh, s));
                    *new.insert(fresh)
                }
            };
            if !fault {
                end = false;
                steps.push((to, from));
            }
        }
        if end {
            state.check_end(script);
            ends.push(from);
        }
    }
    // Walk the steps backwards from the ends: a state left unreached
    // can never finish without a fault.
    steps.sort_unstable();
    let mut done = vec![false; index.len()];
    while let Some(to) = ends.pop() {
        if std::mem::replace(&mut done[to as usize], true) {
            continue;
        }
        let first = steps.partition_point(|&(t, _)| t < to);
        let into = steps[first..].iter().take_while(|&&(t, _)| t == to);
        ends.extend(into.map(|&(_, from)| from));
    }
    let stuck = done.iter().filter(|&&d| !d).count();
    assert!(
        stuck == 0,
        "{stuck} of {} states can never reach an end: a message is never taken, or a connection never finishes",
        done.len()
    );
    done.len()
}

#[test]
fn every_interleaving_keeps_the_six_rules() {
    use Op::*;
    // Each script with the slot-queue bounds it runs under, and the
    // connection whose writer may fail: one slot makes every push race
    // the writer; two let a `Lagged` frame fit where its event then
    // does not.
    let scripts: [(&Script, &[usize], Option<u8>); 6] = [
        // A subscriber that may never drain, beside two writes.
        (&[&[Subscribe, Ping], &[Write(2), Write(2)]], &[1, 2], None),
        // A subscriber that hangs up while a third connection pings.
        (
            &[&[Subscribe, Hangup], &[Write(1), Write(1)], &[Ping]],
            &[1, 2],
            None,
        ),
        // A subscription opened and closed between writes.
        (
            &[&[Write(1), Subscribe, Unsubscribe], &[Write(2), Ping]],
            &[1],
            None,
        ),
        // Two subscribers that write to each other.
        (
            &[&[Subscribe, Write(1)], &[Subscribe, Write(2), Hangup]],
            &[1],
            None,
        ),
        // A subscriber that subscribes again after a write its full
        // pipe dropped: the drop count survives the second subscribe.
        (
            &[&[Subscribe, Subscribe], &[Write(2), Write(1)]],
            &[1, 2],
            None,
        ),
        // A subscriber whose writer fails, with no hangup of its own in
        // its script, beside a subscriber that writes.
        (
            &[&[Subscribe, Write(1), Ping], &[Subscribe, Write(2)]],
            &[1],
            Some(0),
        ),
    ];
    let mut total = 0;
    for (script, pipes, breaks) in scripts {
        for &pipe in pipes {
            let states = explore(script, pipe, breaks);
            let fails = breaks.map_or(String::new(), |c| format!(", writer {c} may fail"));
            println!("{script:?} with {pipe}-slot pipes{fails}: {states} states");
            total += states;
        }
    }
    println!("{total} states in all");
}
