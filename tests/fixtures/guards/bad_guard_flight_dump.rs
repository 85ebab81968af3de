// guard-fixture: path=crates/durable/src/engine.rs
// The open that left a flight dump in the home it refused, cut from its
// last version.

use telemetry::{FlightRecorder, Stage, StageClock, StageRecord, Telemetry};

/// Subdirectory of a durable home where flight dumps land.
pub const FLIGHT_DIR: &str = "flight";

fn open(dir: PathBuf, telemetry: Telemetry) -> Result<Recovered, DurableError> {
    let recovered = match replay_traced(&dir, &funcs, &actions, telemetry.tracer()) {
        Ok(r) => r,
        Err(e) => {
            if matches!(e, RecoverError::Corrupt { .. }) {
                let recorder = FlightRecorder::new(telemetry.clone(), dir.join(FLIGHT_DIR));
                let _ = recorder.dump("recovery-corrupt");
            }
            return Err(e.into());
        }
    };
    Ok(recovered)
}
