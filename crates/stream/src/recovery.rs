//! Recovery policy and reporting for the self-healing shard fabric.
//!
//! A recovery-enabled [`ShardedSession`](crate::ShardedSession) keeps, per
//! shard, a checkpoint (the shard's live rows and the liveness of its
//! row-id slots) plus the routed [`RowDelta`](crate::RowDelta) slices
//! since that checkpoint. When a shard's transport fails (worker killed,
//! pipe corrupted, request deadline elapsed), the supervisor respawns the
//! worker and restores it at the coordinator's own row ids: one row per
//! checkpointed slot (an all-NULL row for a dead slot, deleted again at
//! once), then the logged slices verbatim. It then retries the in-flight
//! request, poisoning the session only once the
//! [`retry_budget`](RecoveryConfig::retry_budget) is exhausted. A
//! recovered shard holds the same live rows under the same ids as a
//! never-failed one, so merged score reads stay bit-identical. Replay is
//! bounded by [`checkpoint_every`](RecoveryConfig::checkpoint_every): a
//! recovery keeps the checkpoint it restored from, so a second failure
//! before the next checkpoint replays the whole log again. The restore
//! itself re-sends one row per slot the shard has had since its last
//! compaction, tombstones included, so a long-churned session that never
//! compacts pays for its whole delete history at every recovery.
//!
//! [`RecoveryConfig`] is the policy knob set (checkpoint cadence, retry
//! budget, backoff, request deadline); [`RecoveryReport`] is the
//! observability surface (respawns and replayed deltas per shard);
//! [`ShutdownReport`] accounts for graceful worker shutdown.

use crate::delta::StreamError;

/// Policy for supervised shard recovery.
///
/// Validated at construction boundaries ([`validate`](Self::validate)):
/// a zero checkpoint interval, retry budget, or request deadline is
/// rejected loudly rather than silently clamped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Refresh each shard's checkpoint every this many applies (K). A
    /// smaller K bounds replay work at the cost of a full snapshot
    /// round-trip per K applies; the `record_recovery` bench measures
    /// the trade-off.
    pub checkpoint_every: u64,
    /// How many respawn-restore-replay-retry attempts a single failing
    /// request gets before the session is poisoned.
    pub retry_budget: u32,
    /// Base backoff between attempts, in milliseconds; attempt `i`
    /// sleeps `backoff_ms << i` (capped). Zero disables backoff.
    pub backoff_ms: u64,
    /// Deadline for every coordinator→worker request, in milliseconds.
    /// A worker that does not answer in time is treated as dead and
    /// fed to the same recovery path.
    pub request_timeout_ms: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_every: 64,
            retry_budget: 3,
            backoff_ms: 10,
            request_timeout_ms: 30_000,
        }
    }
}

impl RecoveryConfig {
    /// Rejects configurations that would disable recovery semantics by
    /// accident: a zero checkpoint interval, retry budget, or request
    /// deadline.
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.checkpoint_every == 0 {
            return Err(StreamError::ShardConfig(
                "recovery checkpoint interval must be at least 1 apply".into(),
            ));
        }
        if self.retry_budget == 0 {
            return Err(StreamError::ShardConfig(
                "recovery retry budget must be at least 1 attempt".into(),
            ));
        }
        if self.request_timeout_ms == 0 {
            return Err(StreamError::ShardConfig(
                "request timeout must be at least 1 ms".into(),
            ));
        }
        Ok(())
    }
}

/// Per-shard recovery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRecoveryStats {
    /// Times this shard's worker was respawned.
    pub respawns: u64,
    /// Deltas replayed from the post-checkpoint log across all
    /// recoveries of this shard.
    pub deltas_replayed: u64,
}

/// What supervision did on behalf of a session: one entry per shard.
///
/// All-zero counters mean no fault was ever observed (or the session's
/// backends do not support recovery).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Counters, indexed by shard.
    pub shards: Vec<ShardRecoveryStats>,
}

impl RecoveryReport {
    /// Total worker respawns across all shards.
    pub fn total_respawns(&self) -> u64 {
        self.shards.iter().map(|s| s.respawns).sum()
    }

    /// Total replayed deltas across all shards.
    pub fn total_deltas_replayed(&self) -> u64 {
        self.shards.iter().map(|s| s.deltas_replayed).sum()
    }
}

/// Outcome of a graceful [`shutdown`](crate::ShardedSession::shutdown).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// How many shards were asked to exit.
    pub shards: usize,
    /// Shards that did not acknowledge the shutdown request within the
    /// deadline (their processes are still killed on drop).
    pub stragglers: Vec<u32>,
}

impl ShutdownReport {
    /// True when every worker acknowledged the shutdown request.
    pub fn clean(&self) -> bool {
        self.stragglers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        RecoveryConfig::default().validate().expect("default valid");
    }

    #[test]
    fn zero_knobs_are_rejected() {
        let zero_ckpt = RecoveryConfig {
            checkpoint_every: 0,
            ..RecoveryConfig::default()
        };
        assert!(matches!(
            zero_ckpt.validate(),
            Err(StreamError::ShardConfig(msg)) if msg.contains("checkpoint")
        ));
        let zero_budget = RecoveryConfig {
            retry_budget: 0,
            ..RecoveryConfig::default()
        };
        assert!(matches!(
            zero_budget.validate(),
            Err(StreamError::ShardConfig(msg)) if msg.contains("retry budget")
        ));
        let zero_deadline = RecoveryConfig {
            request_timeout_ms: 0,
            ..RecoveryConfig::default()
        };
        assert!(matches!(
            zero_deadline.validate(),
            Err(StreamError::ShardConfig(msg)) if msg.contains("timeout")
        ));
        // Zero backoff is a legitimate "retry immediately" policy.
        let zero_backoff = RecoveryConfig {
            backoff_ms: 0,
            ..RecoveryConfig::default()
        };
        zero_backoff.validate().expect("zero backoff is allowed");
    }

    #[test]
    fn report_totals_sum_over_shards() {
        let report = RecoveryReport {
            shards: vec![
                ShardRecoveryStats {
                    respawns: 1,
                    deltas_replayed: 4,
                },
                ShardRecoveryStats {
                    respawns: 2,
                    deltas_replayed: 9,
                },
            ],
        };
        assert_eq!(report.total_respawns(), 3);
        assert_eq!(report.total_deltas_replayed(), 13);
        assert_eq!(RecoveryReport::default().total_respawns(), 0);
    }

    #[test]
    fn shutdown_report_cleanliness() {
        assert!(ShutdownReport {
            shards: 2,
            stragglers: vec![]
        }
        .clean());
        assert!(!ShutdownReport {
            shards: 2,
            stragglers: vec![1]
        }
        .clean());
    }
}
