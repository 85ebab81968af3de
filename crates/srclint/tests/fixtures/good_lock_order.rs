// srclint-fixture: path=crates/telemetry/src/good_lock_order.rs
// A fixture, not compiled: nested acquisitions that follow DESIGN.md
// §18's canonical order (accounts=3 < names=4 < metrics=6), the
// blessed sequential-guard escape hatch, and a scoped fan-out.

struct S {
    accounts: std::sync::Mutex<i32>,
    names: std::sync::Mutex<i32>,
    metrics: std::sync::Mutex<i32>,
}

impl S {
    fn descending_ranks(&self) {
        let _a = self.accounts.lock();
        let _n = self.names.lock();
        let _m = self.metrics.lock();
    }

    fn mint(&self) {
        let _n = self.names.lock();
        let _m = self.metrics.lock();
    }

    fn transitive_in_order(&self) {
        let _a = self.accounts.lock();
        self.mint(); // names then metrics, both above accounts
    }

    fn sequential_probe_then_mint(&self) {
        {
            let _probe = self.metrics.lock();
        }
        // The probe guard above is already dropped; the analysis
        // cannot see that, so the site declares it.
        // srclint:allow(lock-order): strictly sequential — the probe guard is dropped at its block end
        let _again = self.metrics.lock();
    }

    // Each scoped-thread closure is its own scope: its guard is not
    // held under the enclosing fn's, so this is no `names -> names`.
    fn fan_out(&self, workers: usize) {
        let _n = self.names.lock();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let _w = self.names.lock();
                });
            }
        });
    }
}
