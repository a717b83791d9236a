//! Campaign progress reporting on stderr.
//!
//! One carriage-returned status line while the run is in flight, then a
//! final summary line. Kept on stderr so stdout stays a clean artifact
//! stream for the figure binaries.

use std::io::Write as _;
use std::time::Instant;

/// Streams `done/total`, throughput, and ETA to stderr.
pub struct Progress {
    experiment: String,
    total: usize,
    done: usize,
    cached: usize,
    started: Instant,
    enabled: bool,
}

impl Progress {
    /// Create a reporter for `total` cells; silent unless `enabled`.
    pub fn new(experiment: &str, total: usize, enabled: bool) -> Self {
        Progress {
            experiment: experiment.to_string(),
            total,
            done: 0,
            cached: 0,
            started: Instant::now(),
            enabled,
        }
    }

    /// Record one finished cell (`from_cache` marks a hit).
    pub fn tick(&mut self, from_cache: bool) {
        self.done += 1;
        if from_cache {
            self.cached += 1;
        }
        if !self.enabled {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate = self.done as f64 / elapsed;
        let remaining = self.total.saturating_sub(self.done);
        let eta = remaining as f64 / rate.max(1e-9);
        eprint!(
            "\r{}: {}/{} cells ({} cached) | {:.1} cells/s | ETA {:.0}s   ",
            self.experiment, self.done, self.total, self.cached, rate, eta
        );
        let _ = std::io::stderr().flush();
    }

    /// Finish the line with a run summary.
    pub fn finish(&self) {
        if !self.enabled {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        eprintln!(
            "\r{}: {} cells in {:.1}s ({} cached, {:.1} cells/s)        ",
            self.experiment,
            self.done,
            elapsed,
            self.cached,
            self.done as f64 / elapsed.max(1e-9)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_without_printing_when_disabled() {
        let mut p = Progress::new("exp", 3, false);
        p.tick(true);
        p.tick(false);
        p.finish();
        assert_eq!(p.done, 2);
        assert_eq!(p.cached, 1);
    }
}
