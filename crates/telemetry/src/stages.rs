//! Per-request stage records: where one op's wall time went, and the
//! work it did.
//!
//! A [`StageClock`] travels with a request. At each boundary between
//! two stages, the code crossing it calls [`lap`](StageClock::lap),
//! which reads `Instant::now()` once and charges the time since the
//! previous boundary to the stage just finished. The laps tile the
//! request's interval, so the stages of the [`StageRecord`] it fills
//! sum exactly to the record's total. A layer that runs inside another
//! closes its own record first, and the enclosing clock
//! [`enclose`](StageClock::enclose)s it: the inner stages are added as
//! they are, and only the rest of the interval goes to the enclosing
//! stage — by a checked subtraction, since an inner record never
//! outlasts the interval around it.
//!
//! Each stage also counts its laps, and an enclosing clock adds the
//! inner record's. A clock started off never reads the time and adds
//! no work: each lap is one branch.

use crate::json::JsonWriter;
use crate::profile::CostSnapshot;
use std::time::{Duration, Instant};

/// The stages a request's wall time is split into, in the order a
/// server request crosses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Frame decode on the session reader.
    Decode,
    /// From the decoded request to the engine thread taking it up.
    Queue,
    /// WAL append, and the record's own `fdatasync` outside a group.
    Wal,
    /// IBS-tree stabs, one lap per lock-step group.
    Stab,
    /// Residual tests, the non-indexable sweep and the sort of each
    /// tuple's matches, one lap per lock-step group.
    Residual,
    /// Join-memo retraction and extension.
    Join,
    /// Agenda build: routes, sort, dedup.
    Agenda,
    /// Rule firings: the actions and the relation writes they queue.
    Fire,
    /// Snapshot capture and log truncation.
    Snapshot,
    /// Time no other stage claims.
    Other,
    /// From the end of the request's own run to its group's release:
    /// the later members' runs and the shared `fdatasync`.
    GroupWait,
    /// From release to the connection's writer taking the reply up.
    Handoff,
    /// Reply encode, socket write and flush.
    Write,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 13;

    /// Every stage, in declaration order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Decode,
        Stage::Queue,
        Stage::Wal,
        Stage::Stab,
        Stage::Residual,
        Stage::Join,
        Stage::Agenda,
        Stage::Fire,
        Stage::Snapshot,
        Stage::Other,
        Stage::GroupWait,
        Stage::Handoff,
        Stage::Write,
    ];

    /// The `stage` label value.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Queue => "queue",
            Stage::Wal => "wal",
            Stage::Stab => "stab",
            Stage::Residual => "residual",
            Stage::Join => "join",
            Stage::Agenda => "agenda",
            Stage::Fire => "fire",
            Stage::Snapshot => "snapshot",
            Stage::Other => "other",
            Stage::GroupWait => "group_wait",
            Stage::Handoff => "handoff",
            Stage::Write => "write",
        }
    }
}

/// One op's nanoseconds and laps per stage, and the §5.2 work it did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageRecord {
    nanos: [u64; Stage::COUNT],
    laps: [u32; Stage::COUNT],
    /// The work counts the op's events were billed, summed; its
    /// `stab_nanos` is the op's `stab` plus `residual` time.
    pub work: CostSnapshot,
}

impl StageRecord {
    /// Nanoseconds charged to `stage`.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage as usize]
    }

    /// How many laps charged `stage`.
    pub fn laps(&self, stage: Stage) -> u32 {
        self.laps[stage as usize]
    }

    /// The op's wall time: the sum of its stages.
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `{"decode":…,…}`: every stage's nanoseconds by name, zeros
    /// included.
    pub(crate) fn write_stages_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for stage in Stage::ALL {
            w.key(stage.name()).uint(self.nanos(stage));
        }
        w.end_object();
    }

    /// A record of `nanos` in [`Stage::Other`].
    #[cfg(test)]
    pub(crate) fn other(nanos: u64) -> StageRecord {
        let mut record = StageRecord::default();
        record.charge(Stage::Other, nanos);
        record
    }

    /// Adds one lap of `nanos` to `stage`.
    fn charge(&mut self, stage: Stage, nanos: u64) {
        self.nanos[stage as usize] += nanos;
        self.laps[stage as usize] += 1;
    }
}

/// A request's running clock: the last stage boundary it crossed and
/// the record the laps fill. Off (the default) it does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageClock {
    last: Option<Instant>,
    record: StageRecord,
}

impl StageClock {
    /// A clock starting now when `on`, else an inert one.
    pub fn start(on: bool) -> StageClock {
        StageClock {
            last: on.then(Instant::now),
            record: StageRecord::default(),
        }
    }

    /// A running clock whose first boundary is `at`, so its total is
    /// measured from the same instant as a latency taken from `at`.
    pub fn start_at(at: Instant) -> StageClock {
        StageClock {
            last: Some(at),
            record: StageRecord::default(),
        }
    }

    /// Does this clock record anything?
    #[inline]
    pub fn is_on(&self) -> bool {
        self.last.is_some()
    }

    /// Where a running clock started: its laps tile the interval from
    /// there to the last boundary, so that is the record's total back.
    pub fn started(&self) -> Option<Instant> {
        let total = Duration::from_nanos(self.record.total());
        self.last.and_then(|last| last.checked_sub(total))
    }

    /// Charges the time since the last boundary to `stage`.
    #[inline]
    pub fn lap(&mut self, stage: Stage) {
        if self.last.is_some() {
            self.lap_at(stage, Instant::now());
        }
    }

    /// [`lap`](Self::lap) at a boundary the caller read (one reading
    /// can close several records).
    pub fn lap_at(&mut self, stage: Stage, now: Instant) {
        if let Some(last) = self.last.as_mut() {
            self.record.charge(stage, nanos(now.duration_since(*last)));
            *last = now;
        }
    }

    /// Laps `stage` around `inner`, the closed record of a layer that
    /// ran since the last boundary: `inner`'s stages, laps and work are
    /// added as they are, and `stage` gets the rest of the interval as
    /// one lap.
    pub fn enclose(&mut self, stage: Stage, inner: &StageRecord) {
        let Some(last) = self.last.as_mut() else {
            return;
        };
        let now = Instant::now();
        let own = nanos(now.duration_since(*last))
            .checked_sub(inner.total())
            .expect("an inner record lies inside the interval enclosing it");
        *last = now;
        self.record.charge(stage, own);
        for (mine, theirs) in self.record.nanos.iter_mut().zip(inner.nanos) {
            *mine += theirs;
        }
        for (mine, theirs) in self.record.laps.iter_mut().zip(inner.laps) {
            *mine += theirs;
        }
        self.record.work.add(&inner.work);
    }

    /// Adds `work` to the record.
    #[inline]
    pub fn add_work(&mut self, work: &CostSnapshot) {
        if self.last.is_some() {
            self.record.work.add(work);
        }
    }

    /// The record so far (all zeros for a clock that is off).
    pub fn record(&self) -> &StageRecord {
        &self.record
    }
}

/// Whole nanoseconds of `d`, saturating at `u64::MAX` (584 years).
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
