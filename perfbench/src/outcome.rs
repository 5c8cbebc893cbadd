//! Failure accounting. Every operation a workload attempts is counted,
//! and every refusal class counts as a failure: typed `ServeError`
//! answers (stale handle, backpressure, …) and the failures a tick
//! reports in-band (`deltas_failed`, `restore_failed`).

use std::collections::BTreeMap;

use afd_serve::{ServeError, TickReport};

/// Attempted and failed operations of one run, failures by class.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, discover calls made).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failures per refusal class.
    pub classes: BTreeMap<&'static str, u64>,
}

/// The refusal class of a served error.
pub fn class_of(e: &ServeError) -> &'static str {
    match e {
        ServeError::StaleHandle(_) => "stale_handle",
        ServeError::Backpressure { .. } => "backpressure",
        ServeError::AtCapacity { .. } => "at_capacity",
        ServeError::CorruptSpill { .. } => "corrupt_spill",
        ServeError::Auth(_) => "auth",
        ServeError::Io(_) => "io",
        ServeError::Remote(_) => "remote",
        _ => "other",
    }
}

impl Outcome {
    /// Counts one operation; on `Err` counts its failure and yields
    /// `None`.
    pub fn call<T>(&mut self, result: Result<T, ServeError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(class_of(&e), 1);
                None
            }
        }
    }

    /// Counts one operation that ran outside the serve protocol.
    pub fn attempt(&mut self, ok: bool, class: &'static str) {
        self.attempted += 1;
        if !ok {
            self.fail(class, 1);
        }
    }

    /// Counts the failures a tick reports in-band. Those deltas were
    /// already counted as attempted when they were enqueued.
    pub fn tick(&mut self, report: &TickReport) {
        self.fail("deltas_failed", report.deltas_failed as u64);
        self.fail("restore_failed", report.restore_failed as u64);
    }

    fn fail(&mut self, class: &'static str, n: u64) {
        if n > 0 {
            self.failed += n;
            *self.classes.entry(class).or_default() += n;
        }
    }

    /// Folds another connection's counts into this one.
    pub fn absorb(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        for (&class, &n) in &other.classes {
            self.fail(class, n);
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_serve::{AfdServe, DurabilityConfig, ServeClient, ServeConfig, ServeFront};
    use std::time::Duration;

    #[test]
    fn scores_on_a_released_handle_counts_as_a_stale_handle_failure() {
        let dir = std::env::temp_dir().join(format!("perfbench-outcome-{}", std::process::id()));
        let serve = AfdServe::new(ServeConfig {
            durability: DurabilityConfig::ephemeral(),
            ..ServeConfig::new(&dir)
        })
        .unwrap();
        let front = ServeFront::bind(serve, Default::default(), "127.0.0.1:0").unwrap();
        let mut client =
            ServeClient::connect(&front.addr().to_string(), Duration::from_secs(30)).unwrap();
        let rel = crate::gen::fixture(64, 3);
        let mut acct = Outcome::default();
        let handle = acct
            .call(client.register(crate::gen::snapshot_of(&rel, 1)))
            .unwrap();
        acct.call(client.release(handle)).unwrap();
        assert!(acct.call(client.scores(handle, 0)).is_none());
        assert_eq!((acct.attempted, acct.failed), (3, 1));
        assert_eq!(acct.classes.get("stale_handle"), Some(&1));
        drop(client);
        front.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tick_failures_count_without_new_attempts() {
        let mut acct = Outcome::default();
        acct.tick(&TickReport {
            deltas_failed: 2,
            restore_failed: 1,
            ..TickReport::default()
        });
        assert_eq!((acct.attempted, acct.failed), (0, 3));
        let mut total = Outcome::default();
        total.attempt(true, "discover");
        total.absorb(&acct);
        assert_eq!((total.attempted, total.failed), (1, 3));
        assert_eq!(total.classes.get("deltas_failed"), Some(&2));
    }
}
