//! Deterministic fault injection for the shard fabric.
//!
//! Recovery code that is only exercised by real production failures is
//! recovery code that does not work. This module makes worker failure a
//! *first-class, reproducible input*:
//!
//! * [`WorkerFault`] — one injected fault: a protocol step (1-based
//!   request index) plus a [`WorkerFaultKind`] (kill, truncate a
//!   response frame, emit garbage bytes, stall past the deadline).
//! * [`AFD_WORKER_FAULTS_ENV`] — the worker-side hook: a real
//!   `afd shard-worker` process reads this environment variable and
//!   misbehaves accordingly, so integration tests inject faults into
//!   genuine child processes. The supervisor strips the variable on
//!   respawn, so a fault fires once per plan, not once per
//!   incarnation.
//! * [`FaultPlan`] — derives a single fault (site, kind, victim shard)
//!   deterministically from a seed via the in-repo `rand`, so
//!   proptests can sweep "any single fault at any protocol step" and
//!   reproduce failures from the seed alone.
//! * [`ChaosShard`] — a test/bench-only [`ShardBackend`] wrapping
//!   [`InProcShard`] that fails with the matching
//!   [`TransportErrorKind`] at the planned site and supports respawn,
//!   so supervisor logic is testable without spawning processes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afd_relation::{Fd, Relation, Schema, Value};

use crate::backend::{InProcShard, ShardBackend};
use crate::delta::{RowDelta, StreamError, TransportError, TransportErrorKind};
use crate::session::CompactionReport;
use crate::table::IncTable;

/// Environment variable a real `afd shard-worker` process inspects for
/// an injected fault, e.g. `kill:3`, `truncate:2`, `garbage:1`,
/// `stall:2:400` (see [`WorkerFault::to_env`]).
pub const AFD_WORKER_FAULTS_ENV: &str = "AFD_WORKER_FAULTS";

/// How an injected fault misbehaves at its protocol step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFaultKind {
    /// Exit without responding — the coordinator sees EOF (a crash).
    Kill,
    /// Write only half of the response frame, then exit — the
    /// coordinator sees a mid-frame EOF.
    Truncate,
    /// Write bytes that are not a frame, then exit — the coordinator
    /// sees a frame decode failure.
    Garbage,
    /// Sleep this many milliseconds before responding — with a shorter
    /// coordinator deadline, a hung worker.
    Stall {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

/// One injected fault: misbehave with [`kind`](Self::kind) while
/// serving the [`site`](Self::site)-th request (1-based, counting every
/// protocol request including `Init`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// 1-based index of the request at which the fault fires.
    pub site: u64,
    /// The misbehaviour.
    pub kind: WorkerFaultKind,
}

impl WorkerFault {
    /// Renders the fault in the [`AFD_WORKER_FAULTS_ENV`] format:
    /// `kill:N` | `truncate:N` | `garbage:N` | `stall:N:MS`.
    pub fn to_env(&self) -> String {
        match self.kind {
            WorkerFaultKind::Kill => format!("kill:{}", self.site),
            WorkerFaultKind::Truncate => format!("truncate:{}", self.site),
            WorkerFaultKind::Garbage => format!("garbage:{}", self.site),
            WorkerFaultKind::Stall { millis } => format!("stall:{}:{millis}", self.site),
        }
    }

    /// Parses the [`AFD_WORKER_FAULTS_ENV`] format; `None` on anything
    /// malformed (a worker must never die because the harness typo'd).
    pub fn parse(s: &str) -> Option<WorkerFault> {
        let mut parts = s.trim().split(':');
        let kind = parts.next()?;
        let site: u64 = parts.next()?.parse().ok()?;
        if site == 0 {
            return None;
        }
        let fault = match kind {
            "kill" => WorkerFault {
                site,
                kind: WorkerFaultKind::Kill,
            },
            "truncate" => WorkerFault {
                site,
                kind: WorkerFaultKind::Truncate,
            },
            "garbage" => WorkerFault {
                site,
                kind: WorkerFaultKind::Garbage,
            },
            "stall" => {
                let millis: u64 = parts.next()?.parse().ok()?;
                WorkerFault {
                    site,
                    kind: WorkerFaultKind::Stall { millis },
                }
            }
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(fault)
    }
}

/// A deterministic single-fault plan: which shard misbehaves, how, and
/// at which protocol step — all derived from `seed` alone, so a failing
/// proptest case is reproducible from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was derived from.
    pub seed: u64,
    /// The victim shard index (`0..n_shards`).
    pub shard: u32,
    /// The injected fault.
    pub fault: WorkerFault,
}

impl FaultPlan {
    /// Derives a plan from `seed`: a uniform victim shard, a uniform
    /// fault site in `1..=max_site`, and one of the four kinds (stalls
    /// use `stall_ms`).
    pub fn single(seed: u64, n_shards: u32, max_site: u64, stall_ms: u64) -> FaultPlan {
        assert!(n_shards > 0, "fault plan needs at least one shard");
        assert!(max_site > 0, "fault plan needs at least one site");
        let mut rng = StdRng::seed_from_u64(seed);
        let shard = rng.gen_range(0..n_shards);
        let site = rng.gen_range(1..=max_site);
        let kind = match rng.gen_range(0..4u32) {
            0 => WorkerFaultKind::Kill,
            1 => WorkerFaultKind::Truncate,
            2 => WorkerFaultKind::Garbage,
            _ => WorkerFaultKind::Stall { millis: stall_ms },
        };
        FaultPlan {
            seed,
            shard,
            fault: WorkerFault { site, kind },
        }
    }
}

/// A fault-injecting in-process backend for supervisor tests: behaves
/// like [`InProcShard`] until the armed fault's site, then fails with
/// the matching [`TransportErrorKind`]; a
/// [`respawn`](ShardBackend::respawn) yields a fresh empty incarnation
/// exactly like a restarted worker process.
///
/// Test/bench-only by intent: it exists so recovery logic can be
/// exercised hermetically and deterministically, without process spawn
/// latency or platform differences.
#[derive(Debug)]
pub struct ChaosShard {
    inner: InProcShard,
    schema: Schema,
    shard_index: u32,
    fault: Option<WorkerFault>,
    /// When set, the fault re-arms after every respawn — the shard
    /// never becomes healthy, for retry-budget-exhaustion tests.
    sticky: bool,
    requests: u64,
    respawns: u64,
}

impl ChaosShard {
    /// An empty chaos shard over `schema`, optionally pre-armed.
    pub fn new(schema: Schema, fault: Option<WorkerFault>) -> Self {
        ChaosShard {
            inner: InProcShard::new(schema.clone()),
            schema,
            shard_index: 0,
            fault,
            sticky: false,
            requests: 0,
            respawns: 0,
        }
    }

    /// Makes the armed fault survive respawns: every incarnation fails
    /// again, so the supervisor's retry budget must run out.
    #[must_use]
    pub fn sticky(mut self) -> Self {
        self.sticky = true;
        self
    }

    /// Arms a fault on the current incarnation.
    pub fn arm(&mut self, fault: WorkerFault) {
        self.fault = Some(fault);
    }

    /// How many times this shard was respawned.
    pub fn respawn_count(&self) -> u64 {
        self.respawns
    }

    /// Counts a request and fires the armed fault at (or past) its
    /// site. `>=` rather than `==`: a plan's site may exceed the number
    /// of requests a shorter interaction makes, and "fires at the next
    /// opportunity" keeps every seed meaningful.
    fn trip(&mut self) -> Result<(), StreamError> {
        self.requests += 1;
        let Some(fault) = self.fault else {
            return Ok(());
        };
        if self.requests < fault.site {
            return Ok(());
        }
        if !self.sticky {
            self.fault = None;
        }
        let kind = match fault.kind {
            WorkerFaultKind::Kill => {
                TransportErrorKind::Read("worker closed its pipe (injected kill)".into())
            }
            WorkerFaultKind::Truncate => {
                TransportErrorKind::Read("mid-frame EOF (injected truncation)".into())
            }
            WorkerFaultKind::Garbage => {
                TransportErrorKind::Decode("bad frame magic (injected garbage)".into())
            }
            WorkerFaultKind::Stall { millis } => TransportErrorKind::Timeout { millis },
        };
        Err(StreamError::Transport(
            TransportError::of_kind(kind)
                .with_shard(self.shard_index)
                .with_stderr(vec![format!(
                    "afd-worker: injected fault at request {}",
                    self.requests
                )]),
        ))
    }
}

impl ShardBackend for ChaosShard {
    fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError> {
        self.trip()?;
        self.inner.subscribe(fd)
    }

    fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
        self.trip()?;
        self.inner.apply(delta)
    }

    fn table(&self, cid: usize) -> &IncTable {
        self.inner.table(cid)
    }

    fn touched_y_ids(&self, cid: usize) -> &[u32] {
        self.inner.touched_y_ids(cid)
    }

    fn n_live(&self) -> usize {
        self.inner.n_live()
    }

    fn n_y_side_ids(&self, cid: usize) -> usize {
        self.inner.n_y_side_ids(cid)
    }

    fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
        self.inner.y_side_values(cid, id)
    }

    fn snapshot(&mut self) -> Result<Relation, StreamError> {
        self.trip()?;
        self.inner.snapshot()
    }

    fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        self.trip()?;
        self.inner.compact()
    }

    fn configure(&mut self, shard_index: u32, _deadline: std::time::Duration) {
        self.shard_index = shard_index;
    }

    fn supports_recovery(&self) -> bool {
        true
    }

    fn respawn(&mut self) -> Result<(), StreamError> {
        self.inner = InProcShard::new(self.schema.clone());
        self.respawns += 1;
        self.requests = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_env_round_trip() {
        let faults = [
            WorkerFault {
                site: 3,
                kind: WorkerFaultKind::Kill,
            },
            WorkerFault {
                site: 2,
                kind: WorkerFaultKind::Truncate,
            },
            WorkerFault {
                site: 1,
                kind: WorkerFaultKind::Garbage,
            },
            WorkerFault {
                site: 7,
                kind: WorkerFaultKind::Stall { millis: 400 },
            },
        ];
        for fault in faults {
            assert_eq!(WorkerFault::parse(&fault.to_env()), Some(fault));
        }
    }

    #[test]
    fn malformed_fault_specs_are_ignored() {
        for bad in [
            "",
            "kill",
            "kill:",
            "kill:0",
            "kill:x",
            "explode:3",
            "stall:2",
            "stall:2:x",
            "kill:1:2",
            "stall:1:5:9",
        ] {
            assert_eq!(WorkerFault::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn fault_plan_is_deterministic_and_in_range() {
        for seed in 0..64 {
            let a = FaultPlan::single(seed, 4, 10, 50);
            let b = FaultPlan::single(seed, 4, 10, 50);
            assert_eq!(a, b);
            assert!(a.shard < 4);
            assert!((1..=10).contains(&a.fault.site));
        }
        // Different seeds exercise different kinds/sites.
        let plans: std::collections::BTreeSet<String> = (0..64)
            .map(|s| FaultPlan::single(s, 4, 10, 50).fault.to_env())
            .collect();
        assert!(plans.len() > 8, "seeds should spread over the plan space");
    }

    #[test]
    fn chaos_shard_trips_then_recovers() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let mut shard = ChaosShard::new(
            schema,
            Some(WorkerFault {
                site: 2,
                kind: WorkerFaultKind::Kill,
            }),
        );
        shard.configure(3, std::time::Duration::from_secs(1));
        let fd = Fd::linear(afd_relation::AttrId(0), afd_relation::AttrId(1));
        shard.subscribe(&fd).expect("site 1 passes");
        let err = shard
            .apply(&RowDelta::insert_only([vec![Value::Int(1), Value::Int(2)]]))
            .expect_err("site 2 trips");
        match err {
            StreamError::Transport(te) => {
                assert_eq!(te.shard, Some(3));
                assert!(matches!(te.kind, TransportErrorKind::Read(_)));
                assert!(!te.stderr.is_empty());
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(shard.supports_recovery());
        shard.respawn().expect("chaos respawn");
        assert_eq!(shard.respawn_count(), 1);
        // Fresh incarnation: empty and healthy (fault consumed).
        assert_eq!(shard.n_live(), 0);
        shard.subscribe(&fd).expect("healthy after respawn");
        shard
            .apply(&RowDelta::insert_only([vec![Value::Int(1), Value::Int(2)]]))
            .expect("healthy after respawn");
        assert_eq!(shard.n_live(), 1);
    }

    #[test]
    fn sticky_chaos_shard_refaults_after_respawn() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let fault = WorkerFault {
            site: 1,
            kind: WorkerFaultKind::Stall { millis: 9 },
        };
        let mut shard = ChaosShard::new(schema, Some(fault)).sticky();
        let fd = Fd::linear(afd_relation::AttrId(0), afd_relation::AttrId(1));
        assert!(shard.subscribe(&fd).is_err());
        shard.respawn().unwrap();
        let err = shard.subscribe(&fd).expect_err("sticky fault re-arms");
        assert!(matches!(
            err,
            StreamError::Transport(TransportError {
                kind: TransportErrorKind::Timeout { millis: 9 },
                ..
            })
        ));
    }
}
