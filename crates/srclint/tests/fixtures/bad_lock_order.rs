// srclint-fixture: path=crates/telemetry/src/bad_lock_order.rs
// A fixture, not compiled: lock-order violations. Ranks come from
// DESIGN.md §18's canonical table — `accounts` is rank 3, `names`
// rank 4, `metrics` rank 6 — so everything below runs backwards or
// sideways.

struct S {
    accounts: std::sync::Mutex<i32>,
    names: std::sync::Mutex<i32>,
    metrics: std::sync::Mutex<i32>,
    zebra: std::sync::Mutex<i32>,
}

impl S {
    fn backwards(&self) {
        let _m = self.metrics.lock();
        let _a = self.accounts.lock(); // rank 6 held, rank 3 acquired
    }

    fn reacquire(&self) {
        let _one = self.metrics.lock();
        let _two = self.metrics.lock(); // self-deadlock with std Mutex
    }

    fn unranked(&self) {
        let _m = self.accounts.lock();
        let _z = self.zebra.lock(); // `zebra` is in no table row
    }

    fn grab_names(&self) {
        let _n = self.names.lock();
    }

    fn transitive_backwards(&self) {
        let _m = self.metrics.lock();
        self.grab_names(); // locks `names` (rank 4) while `metrics` (6) held
    }
}
