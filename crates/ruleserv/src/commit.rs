//! The commit group's rules, with no I/O: the engine thread's shell
//! ([`crate::server`]) owns the durable engine, the channels, the clocks
//! and the tracer, and feeds this core what happened; the core decides
//! what leaves and in which order. It is the one place these rules live:
//!
//! 1. **Replies in request order.** A request's reply slot is queued
//!    before the engine sees it (the shell's reader does that), and the
//!    core answers every ticket of a group in the order it took them.
//! 2. **Nothing before its group's sync.** A group's replies, events and
//!    subscriber changes are held from [`Core::take`] to [`Core::close`],
//!    which the shell calls only once the group's sync has returned.
//! 3. **A failed sync acknowledges nothing.** [`Core::close`] with a
//!    failure answers every reply that acknowledges a logged record with
//!    [`Reply::Err`] and pushes none of the group's events; the log's
//!    fail-stop then refuses later writes, and what needs no log answers.
//! 4. **A group is closed to later arrivals.** [`Core::open`] takes the
//!    engine queue's depth, read once the group's first message is in
//!    hand, and [`Core::pull`] takes no more messages than that.
//! 5. **Lag is counted.** An event that does not fit a subscriber's pipe
//!    is dropped and counted; the next one that fits is preceded by one
//!    [`Reply::Lagged`] frame carrying the count.
//! 6. **A panic answers everyone, once.** The core holds every ticket it
//!    has taken, the running one included; [`Core::abandon`] answers
//!    them all, and every ticket taken after it, with [`ENGINE_DEAD`],
//!    and lets go of every subscriber's pipe so each session can end.
//!
//! `check` enumerates every interleaving of small scripts against this
//! core and checks each rule on every reachable state (DESIGN.md §14
//! "Threading model").

use crate::proto::{Event, EventBinding, Reply};
use rules::{BoundTuple, FireReport, RuleId, RuleName};
use std::collections::BTreeMap;

#[cfg(test)]
mod check;

/// Why every reply after an engine-thread panic is an error.
pub(crate) const ENGINE_DEAD: &str = "the engine thread died; the server is shutting down";

/// What a request does to the subscriber set or its streams once its
/// group is released.
#[derive(Clone, Debug)]
pub(crate) enum Change<P> {
    /// The firings of the record the reply acknowledges, pushed to every
    /// subscriber as [`Event`]s — built at release, and only if someone
    /// subscribes. The bound tuples are shared handles, so holding them
    /// copies no row.
    Fired(FireReport),
    /// Connection `.0` subscribes; its events go to pipe `.1`.
    Subscribe(u64, P),
    /// Connection `.0` unsubscribes.
    Forget(u64),
}

/// One message the open group took, in the order it took them.
#[derive(Clone, Debug)]
enum Taken<T, P> {
    /// A request's ticket, with its reply, the WAL sequence number that
    /// reply acknowledges (when the request logged a record) and its
    /// change — `None` while the engine still runs it.
    Request(T, Option<(Reply, Option<u64>, Change<P>)>),
    /// Connection `.0` hung up: it answers nobody and is forgotten.
    Hangup(u64),
}

/// The engine thread's state across groups, generic over the ticket
/// that answers a request (`T`) and the pipe a subscriber's frames go to
/// (`P`), so that a test can run it on plain values.
#[derive(Clone, Debug)]
pub(crate) struct Core<T, P> {
    /// Each subscriber's pipe, and how many events it missed since the
    /// last one that fit.
    subscribers: BTreeMap<u64, (P, u64)>,
    /// What the open group took.
    taken: Vec<Taken<T, P>>,
    /// How many more messages the open group may take; unbounded once
    /// the core is abandoned.
    room: u64,
}

impl<T, P> Default for Core<T, P> {
    fn default() -> Self {
        Core {
            subscribers: BTreeMap::new(),
            taken: Vec::new(),
            room: 0,
        }
    }
}

impl<T, P> Core<T, P> {
    /// Opens a group with the engine queue's depth, read once the
    /// group's first message has arrived: the group takes at most that
    /// many messages (one, if the first is a hangup, which `depth` does
    /// not count), so no client can keep a group open.
    pub(crate) fn open(&mut self, depth: u64) {
        self.room = depth.max(1);
    }

    /// The open group's next message from `source`, or `None` once the
    /// group is full or `source` has nothing. The shell's source is the
    /// engine channel; a model's is its own queue.
    pub(crate) fn pull<M>(&mut self, source: impl FnOnce() -> Option<M>) -> Option<M> {
        if self.room == 0 {
            return None;
        }
        let msg = source()?;
        self.room -= 1;
        Some(msg)
    }

    /// Holds a request's ticket while the engine runs it: a panic from
    /// here on still answers it.
    pub(crate) fn take(&mut self, ticket: T) {
        self.taken.push(Taken::Request(ticket, None));
    }

    /// The outcome of the request taken last; hands its ticket back for
    /// the shell's clock.
    pub(crate) fn settle(&mut self, reply: Reply, seq: Option<u64>, change: Change<P>) -> &mut T {
        match self.taken.last_mut() {
            Some(Taken::Request(ticket, done @ None)) => {
                *done = Some((reply, seq, change));
                ticket
            }
            _ => unreachable!("a request is settled once, after it is taken"),
        }
    }

    /// Connection `conn` hung up: forgotten in its place in the group.
    pub(crate) fn hangup(&mut self, conn: u64) {
        self.taken.push(Taken::Hangup(conn));
    }

    /// How many replies the open group holds, and the highest sequence
    /// number they acknowledge.
    pub(crate) fn acks(&self) -> (u64, Option<u64>) {
        let done = self.taken.iter().filter_map(|taken| match taken {
            Taken::Request(_, done) => Some(done.as_ref().and_then(|done| done.1)),
            Taken::Hangup(_) => None,
        });
        (done.clone().count() as u64, done.flatten().max())
    }

    /// Releases the group in the order it was taken, once its sync has
    /// returned: subscriber changes, then events through `push` (`false`
    /// when the pipe is full or gone), then the reply through `answer`.
    /// `failure` is the sync's error: memory is then ahead of disk, so a
    /// reply that acknowledges a logged record becomes [`Reply::Err`] and
    /// its events stay unsent.
    pub(crate) fn close(
        &mut self,
        failure: Option<&str>,
        mut push: impl FnMut(&P, Reply) -> bool,
        mut answer: impl FnMut(T, Reply),
    ) {
        for taken in self.taken.drain(..) {
            let (ticket, (reply, seq, change)) = match taken {
                Taken::Request(ticket, done) => (ticket, done.expect("released before it settled")),
                Taken::Hangup(conn) => {
                    self.subscribers.remove(&conn);
                    continue;
                }
            };
            match change {
                Change::Fired(report) => {
                    if let (None, Some(seq), false) = (failure, seq, self.subscribers.is_empty()) {
                        for (fired, bindings) in report.fired.iter().zip(&report.bindings) {
                            let frame = Reply::Event(event(seq, fired, bindings));
                            for (pipe, lagged) in self.subscribers.values_mut() {
                                deliver(pipe, lagged, frame.clone(), &mut push);
                            }
                        }
                    }
                }
                Change::Subscribe(conn, pipe) => {
                    // A second subscribe keeps the count not yet announced.
                    let lagged = self.subscribers.get(&conn).map_or(0, |s| s.1);
                    self.subscribers.insert(conn, (pipe, lagged));
                }
                Change::Forget(conn) => {
                    self.subscribers.remove(&conn);
                }
            }
            let reply = match (failure, seq) {
                (Some(why), Some(_)) => Reply::Err(why.into()),
                _ => reply,
            };
            answer(ticket, reply);
        }
    }

    /// The engine thread died: answers every ticket taken so far with
    /// [`ENGINE_DEAD`], drops every subscriber's pipe (nothing is pushed
    /// any more, and a pipe held here would keep its session's writer
    /// waiting), and opens the core to every later message, which the
    /// shell takes only to abandon in turn.
    pub(crate) fn abandon(&mut self, mut answer: impl FnMut(T, Reply)) {
        self.room = u64::MAX;
        self.subscribers.clear();
        for taken in self.taken.drain(..) {
            if let Taken::Request(ticket, _) = taken {
                answer(ticket, Reply::Err(ENGINE_DEAD.into()));
            }
        }
    }
}

/// Pushes one event to a subscriber, preceded by a [`Reply::Lagged`]
/// frame when it missed some; a frame that does not fit drops the event
/// and counts it.
fn deliver<P>(pipe: &P, lagged: &mut u64, frame: Reply, push: &mut impl FnMut(&P, Reply) -> bool) {
    if *lagged > 0 && !push(pipe, Reply::Lagged(*lagged)) {
        *lagged += 1;
        return;
    }
    *lagged = match push(pipe, frame) {
        true => 0,
        false => 1,
    };
}

/// The subscription [`Event`] of one firing of the record logged as
/// `seq`, carrying the bound tuples of a join-rule firing.
fn event(seq: u64, (rule, name): &(RuleId, RuleName), bindings: &[BoundTuple]) -> Event {
    Event {
        seq,
        rule_id: rule.0,
        rule: name.to_string(),
        bindings: bindings
            .iter()
            .map(|b| EventBinding {
                relation: b.relation.to_string(),
                tuple_id: b.id.0,
                values: b.tuple.values().to_vec(),
            })
            .collect(),
    }
}
