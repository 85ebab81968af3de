//! Stage clocks: laps tile an op's interval, an inner record folds into
//! the one around it, and an off clock records nothing.

use std::time::{Duration, Instant};
use telemetry::{nanos, CostSnapshot, Stage, StageClock, StageRecord};

/// A closed record of `n` nanoseconds of `stage`.
fn record_of(stage: Stage, n: u64) -> StageRecord {
    let at = Instant::now();
    let mut clock = StageClock::start_at(at);
    clock.lap_at(stage, at + Duration::from_nanos(n));
    *clock.record()
}

#[test]
fn an_off_clock_records_nothing() {
    let mut clock = StageClock::start(false);
    clock.lap(Stage::Stab);
    clock.enclose(Stage::Other, &record_of(Stage::Fire, 5));
    clock.add_work(&CostSnapshot {
        ops: 1,
        ..CostSnapshot::default()
    });
    assert!(!clock.is_on());
    assert_eq!(*clock.record(), StageRecord::default());
}

#[test]
fn laps_tile_the_interval_and_an_inner_record_folds_in() {
    let started = Instant::now();
    let mut inner = StageClock::start(true);
    std::thread::sleep(Duration::from_millis(1));
    inner.lap(Stage::Stab);
    inner.add_work(&CostSnapshot {
        ibs_nodes: 3,
        ..CostSnapshot::default()
    });
    let mut outer = StageClock::start_at(started);
    outer.enclose(Stage::Other, inner.record());
    outer.lap(Stage::Write);
    let end = Instant::now();
    let record = outer.record();
    assert_eq!(record.nanos(Stage::Stab), inner.record().total());
    assert!(record.nanos(Stage::Stab) >= 1_000_000);
    assert_eq!(record.work.ibs_nodes, 3);
    assert!(record.total() <= nanos(end - started));
    let stages: u64 = Stage::ALL.iter().map(|&s| record.nanos(s)).sum();
    assert_eq!(record.total(), stages);
}

#[test]
#[should_panic(expected = "an inner record lies inside the interval enclosing it")]
fn an_inner_record_longer_than_its_interval_is_refused() {
    let mut outer = StageClock::start(true);
    outer.enclose(Stage::Other, &record_of(Stage::Stab, u64::MAX / 2));
}
