// guard-fixture: path=crates/telemetry/src/recorder.rs
// The flight recorder, cut from its last version: a test-only public
// type that wrote a dump file of its own, outside the durable crate's
// file seam.

use crate::handle::Telemetry;
use std::fs;
use std::io;
use std::path::PathBuf;

pub struct FlightRecorder {
    telemetry: Telemetry,
    dir: PathBuf,
}

impl FlightRecorder {
    pub fn render(&self, reason: &str) -> String {
        let mut out = format!("# flight dump: {reason}\n");
        out.push_str(&self.telemetry.profiler().render_flight());
        out
    }

    pub fn dump(&self, reason: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("flight-{reason}.txt"));
        fs::write(&path, self.render(reason))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    #[test]
    fn dump_writes_a_file() {
        assert!(fs::read_dir(std::env::temp_dir()).is_ok());
    }
}
