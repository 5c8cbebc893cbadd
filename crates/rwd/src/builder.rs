//! Materialises a [`RelationSpec`] into a
//! relation plus its ground-truth design schema.

use std::collections::HashMap;

use afd_relation::{AttrId, Fd, Relation, Schema, Value};
use afd_synth::Beta;
use rand::Rng;

use crate::spec::{beta_for_skew, ColumnSpec, RelationSpec};

/// One simulated RWD relation with its ground truth.
#[derive(Debug, Clone)]
pub struct RwdRelation {
    /// Short name (mirrors Table II).
    pub name: &'static str,
    /// The data.
    pub relation: Relation,
    /// Declared design FDs that hold exactly (`PFD(R)`).
    pub pfds: Vec<Fd>,
    /// Declared design FDs violated by errors (`AFD(R)` — the ground
    /// truth for AFD discovery).
    pub afds: Vec<Fd>,
}

/// Builds the relation at `rows` tuples.
///
/// # Panics
/// Panics if the spec is internally inconsistent (derived column before
/// its source, bad cluster index) — programmer error in the spec tables.
pub fn build(spec: &RelationSpec, rows: usize, rng: &mut impl Rng) -> RwdRelation {
    let n = rows.max(16);
    let mild = Beta::with_skewness(0.4);
    // Hidden cluster bases.
    let cluster_card: Vec<usize> = spec.clusters.iter().map(|&c| c.clamp(2, n)).collect();
    let cluster_base: Vec<Vec<u32>> = cluster_card
        .iter()
        .map(|&card| {
            (0..n)
                .map(|_| mild.sample_index(card, rng) as u32)
                .collect()
        })
        .collect();

    // Generate per-column codes.
    let mut codes: Vec<Vec<u32>> = Vec::with_capacity(spec.columns.len());
    let mut afd_edges: Vec<(usize, usize)> = Vec::new(); // (source, col)
    let mut exact_edges: Vec<(usize, usize)> = Vec::new();
    for (ci, col) in spec.columns.iter().enumerate() {
        let v = match col {
            ColumnSpec::Key => (0..n as u32).collect(),
            ColumnSpec::NearKey { uniqueness } => near_key(n, *uniqueness, rng),
            ColumnSpec::Categorical { cardinality, skew } => {
                let b = beta_for_skew(*skew);
                let card = (*cardinality).clamp(2, n);
                (0..n).map(|_| b.sample_index(card, rng) as u32).collect()
            }
            ColumnSpec::ClusterMember { cluster } => {
                let base = &cluster_base[*cluster];
                let perm = permutation(cluster_card[*cluster], rng);
                base.iter().map(|&b| perm[b as usize]).collect()
            }
            ColumnSpec::DerivedExact {
                source,
                cardinality,
            } => {
                assert!(*source < ci, "derived column before its source");
                exact_edges.push((*source, ci));
                derive(&codes[*source], (*cardinality).max(2), rng)
            }
            ColumnSpec::DerivedNoisy {
                source,
                cardinality,
                error_rate,
            } => {
                assert!(*source < ci, "derived column before its source");
                afd_edges.push((*source, ci));
                let mut v = derive(&codes[*source], (*cardinality).max(2), rng);
                corrupt(&mut v, (*error_rate * n as f64).ceil() as usize, rng);
                ensure_violated(&codes[*source], &mut v, rng);
                v
            }
            ColumnSpec::CopyNoisy { source, error_rate } => {
                assert!(*source < ci, "copy column before its source");
                let mut v = codes[*source].clone();
                corrupt(&mut v, (*error_rate * n as f64).ceil() as usize, rng);
                v
            }
            ColumnSpec::WeakAssoc {
                source,
                cardinality,
                strength,
            } => {
                assert!(*source < ci, "associated column before its source");
                let card = (*cardinality).max(2);
                let derived = derive(&codes[*source], card, rng);
                derived
                    .into_iter()
                    .map(|d| {
                        if rng.gen::<f64>() < *strength {
                            d
                        } else {
                            rng.gen_range(0..card as u32)
                        }
                    })
                    .collect()
            }
        };
        codes.push(v);
    }

    // Assemble the relation (Int values; each column has its own
    // dictionary so raw codes are fine as values).
    let schema = Schema::new((0..spec.columns.len()).map(|i| format!("a{i}")))
        .expect("generated names are unique");
    let mut relation = Relation::from_rows(
        schema,
        (0..n).map(|r| {
            codes
                .iter()
                .map(|col| Value::Int(i64::from(col[r])))
                .collect::<Vec<_>>()
        }),
    )
    .expect("arity consistent");

    // NULL injection.
    for &(col, rate) in &spec.null_rates {
        for r in 0..n {
            if rng.gen::<f64>() < rate {
                relation.set_value(r, AttrId(col as u32), Value::Null);
            }
        }
    }

    // Declared design schema: cluster pairs first, then exact edges.
    let mut pfds = Vec::new();
    'declare: for (c, _) in spec.clusters.iter().enumerate() {
        let members: Vec<usize> = spec
            .columns
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, ColumnSpec::ClusterMember { cluster } if *cluster == c))
            .map(|(i, _)| i)
            .collect();
        for &a in &members {
            for &b in &members {
                if a != b {
                    if pfds.len() == spec.declared_pfds {
                        break 'declare;
                    }
                    pfds.push(Fd::linear(AttrId(a as u32), AttrId(b as u32)));
                }
            }
        }
    }
    for &(s, t) in &exact_edges {
        if pfds.len() == spec.declared_pfds {
            break;
        }
        pfds.push(Fd::linear(AttrId(s as u32), AttrId(t as u32)));
    }
    let afds: Vec<Fd> = afd_edges
        .iter()
        .map(|&(s, t)| Fd::linear(AttrId(s as u32), AttrId(t as u32)))
        .collect();

    debug_assert!(pfds.iter().all(|fd| fd.holds_in(&relation)));
    debug_assert!(afds.iter().all(|fd| !fd.holds_in(&relation)));
    RwdRelation {
        name: spec.name,
        relation,
        pfds,
        afds,
    }
}

/// A column with `≈ uniqueness·n` distinct values: start from a unique
/// column, then make `(1−u)·n` rows reuse another row's value.
fn near_key(n: usize, uniqueness: f64, rng: &mut impl Rng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    let dups = ((1.0 - uniqueness.clamp(0.0, 1.0)) * n as f64) as usize;
    for _ in 0..dups {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        v[i] = v[j];
    }
    v
}

fn permutation(k: usize, rng: &mut impl Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..k as u32).collect();
    for i in (1..k).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// Maps each distinct source code to a random target in `0..card`.
fn derive(source: &[u32], card: usize, rng: &mut impl Rng) -> Vec<u32> {
    let mut dict: HashMap<u32, u32> = HashMap::new();
    source
        .iter()
        .map(|&s| {
            *dict
                .entry(s)
                .or_insert_with(|| rng.gen_range(0..card as u32))
        })
        .collect()
}

/// Copy error channel on raw codes: `k` cells get another row's value.
fn corrupt(v: &mut [u32], k: usize, rng: &mut impl Rng) {
    let n = v.len();
    if n < 2 {
        return;
    }
    let mut done = 0;
    let mut attempts = 0;
    while done < k && attempts < 20 * k + 64 {
        attempts += 1;
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if v[i] != v[j] {
            v[i] = v[j];
            done += 1;
        }
    }
}

/// Guarantees the FD `source → target` is violated: if it still holds
/// (possible when every corrupted row sat in a singleton group), flip the
/// target of one row inside a non-singleton source group.
fn ensure_violated(source: &[u32], target: &mut [u32], rng: &mut impl Rng) {
    let mut groups: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, &s) in source.iter().enumerate() {
        groups.entry(s).or_default().push(i);
    }
    let violated = groups
        .values()
        .any(|rows| rows.iter().any(|&r| target[r] != target[rows[0]]));
    if violated {
        return;
    }
    if let Some(rows) = groups.values().find(|rs| rs.len() >= 2) {
        let r = rows[0];
        let max = target.iter().copied().max().unwrap_or(0);
        // Any different value violates; prefer an existing one.
        let other = target
            .iter()
            .copied()
            .find(|&t| t != target[r])
            .unwrap_or_else(|| {
                let _ = rng; // deterministic fallback
                max + 1
            });
        target[r] = other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_relation::{lhs_uniqueness, AttrSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo_spec() -> RelationSpec {
        RelationSpec {
            name: "demo",
            paper_rows: 1000,
            clusters: vec![20],
            columns: vec![
                ColumnSpec::Key,
                ColumnSpec::ClusterMember { cluster: 0 },
                ColumnSpec::ClusterMember { cluster: 0 },
                ColumnSpec::ClusterMember { cluster: 0 },
                ColumnSpec::Categorical {
                    cardinality: 30,
                    skew: 0.5,
                },
                ColumnSpec::DerivedNoisy {
                    source: 4,
                    cardinality: 8,
                    error_rate: 0.01,
                },
                ColumnSpec::DerivedExact {
                    source: 1,
                    cardinality: 5,
                },
                ColumnSpec::NearKey { uniqueness: 0.9 },
            ],
            declared_pfds: 7, // 6 cluster pairs + 1 exact edge
            null_rates: vec![(4, 0.05)],
        }
    }

    #[test]
    fn declared_counts_match() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = build(&demo_spec(), 800, &mut rng);
        assert_eq!(r.pfds.len(), 7);
        assert_eq!(r.afds.len(), 1);
        assert_eq!(r.relation.n_rows(), 800);
        assert_eq!(r.relation.arity(), 8);
    }

    #[test]
    fn pfds_hold_and_afds_violated() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = build(&demo_spec(), 600, &mut rng);
        for fd in &r.pfds {
            assert!(fd.holds_in(&r.relation), "PFD must hold");
        }
        for fd in &r.afds {
            assert!(!fd.holds_in(&r.relation), "AFD must be violated");
        }
    }

    #[test]
    fn near_key_uniqueness_close_to_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = build(&demo_spec(), 1000, &mut rng);
        let u = lhs_uniqueness(&r.relation, &AttrSet::single(AttrId(7)));
        assert!(u > 0.8 && u <= 1.0, "uniqueness={u}");
    }

    #[test]
    fn nulls_injected_at_requested_rate() {
        let mut rng = StdRng::seed_from_u64(4);
        let r = build(&demo_spec(), 2000, &mut rng);
        let nulls = r.relation.column(AttrId(4)).null_count();
        assert!(nulls > 40 && nulls < 220, "nulls={nulls}");
    }

    #[test]
    fn cluster_members_are_mutually_determining() {
        let mut rng = StdRng::seed_from_u64(5);
        let r = build(&demo_spec(), 500, &mut rng);
        for (a, b) in [(1u32, 2u32), (2, 3), (3, 1)] {
            assert!(Fd::linear(AttrId(a), AttrId(b)).holds_in(&r.relation));
            assert!(Fd::linear(AttrId(b), AttrId(a)).holds_in(&r.relation));
        }
    }

    #[test]
    fn determinism() {
        let a = build(&demo_spec(), 300, &mut StdRng::seed_from_u64(9));
        let b = build(&demo_spec(), 300, &mut StdRng::seed_from_u64(9));
        for i in 0..a.relation.n_rows() {
            assert_eq!(a.relation.row(i), b.relation.row(i));
        }
    }

    #[test]
    fn ensure_violated_flips_one_cell_when_needed() {
        let source = vec![0, 0, 1, 1];
        let mut target = vec![5, 5, 6, 6];
        let mut rng = StdRng::seed_from_u64(6);
        ensure_violated(&source, &mut target, &mut rng);
        // Some group must now disagree.
        assert!(target[0] != target[1] || target[2] != target[3]);
    }
}
