//! Seeded workload inputs. Everything the server receives — fixture
//! rows, registration snapshots and deltas — is generated here from the
//! run's `--seed`, so one seed always replays the same bytes.

use afd_engine::{AfdEngine, EngineConfig, SnapshotRequest, SubscribeRequest};
use afd_relation::{AttrId, AttrSet, Fd, Relation};
use afd_synth::{generate_positive, Beta, GenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The candidate every served session subscribes to: X → Y.
pub fn fd() -> Fd {
    Fd::linear(AttrId(0), AttrId(1))
}

/// An independent seed for generator stream `stream` of run `seed`
/// (SplitMix64 finaliser, so neighbouring seeds do not correlate).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A noisy X → Y relation of `n` rows with the shape of the repository's
/// bench fixture (|dom(X)| = n/8, |dom(Y)| = n/32, 1% errors), but with
/// both value distributions fixed to uniform: the seed moves the values,
/// never the distribution, so one seed costs what another does.
pub fn fixture(n: usize, seed: u64) -> Relation {
    let params = GenParams {
        n_rows: n,
        dom_x: (n / 8).max(4),
        dom_y: (n / 32).max(3),
        beta_x: Beta::new(1.0, 1.0),
        beta_y: Beta::new(1.0, 1.0),
        error_rate: 0.01,
    };
    generate_positive(&params, &mut StdRng::seed_from_u64(seed)).0
}

/// The framed snapshot (`AfdEngine::save` bytes) of an engine over
/// `rel` subscribed to X → Y, partitioned into `shards` shards on X.
pub fn snapshot_of(rel: &Relation, shards: usize) -> Vec<u8> {
    let cfg = EngineConfig {
        shards,
        shard_key: (shards > 1).then(|| AttrSet::single(AttrId(0))),
        ..EngineConfig::default()
    };
    let mut engine = AfdEngine::from_relation(rel.clone())
        .with_config(cfg)
        .expect("valid shard topology");
    engine
        .subscribe(&SubscribeRequest::new(fd()))
        .expect("X -> Y is in the two-column fixture");
    engine
        .save(&SnapshotRequest::default())
        .expect("in-process save cannot fail")
        .bytes
}

/// One churned session's inputs: the rows it starts with and the
/// snapshot that registers it.
#[derive(Debug, Clone)]
pub struct ChurnSession {
    /// Starting rows (also what a `ChurnPlanner` churns).
    pub fixture: Relation,
    /// Registration snapshot of `fixture`.
    pub snapshot: Vec<u8>,
}

/// Inputs for `sessions` churned sessions of `rows` rows each.
pub fn churn_sessions(seed: u64, sessions: usize, rows: usize, shards: usize) -> Vec<ChurnSession> {
    (0..sessions)
        .map(|i| {
            let fixture = fixture(rows, sub_seed(seed, i as u64));
            let snapshot = snapshot_of(&fixture, shards);
            ChurnSession { fixture, snapshot }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_stream::ChurnPlanner;
    use afd_wire::Encode;

    /// Every byte a served workload sends for `seed`: registration
    /// snapshots and churn deltas.
    fn inputs(seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for s in churn_sessions(seed, 2, 256, 2) {
            out.extend_from_slice(&s.snapshot);
            let mut planner = ChurnPlanner::new(&s.fixture);
            for _ in 0..4 {
                planner.next_delta(16).encode(&mut out);
            }
        }
        out
    }

    #[test]
    fn one_seed_replays_byte_identical_inputs() {
        assert_eq!(inputs(7), inputs(7));
    }

    #[test]
    fn another_seed_differs() {
        assert_ne!(inputs(7), inputs(8));
    }

    #[test]
    fn sub_seeds_are_distinct() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }
}
