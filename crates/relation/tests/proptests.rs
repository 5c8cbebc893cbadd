//! Property-based tests for the relation substrate invariants.

use afd_relation::{
    read_csv, strip_codes_into, with_scratch, write_csv, AttrId, AttrSet, ContingencyTable, Pli,
    Relation, Schema, Value, YMatrix, YSide, NULL_CODE,
};
use proptest::prelude::*;

/// Strategy: a small bag of (x, y) pairs with limited domains so that
/// duplicates and groups actually occur.
fn pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..8, 0u64..6), 0..120)
}

/// Strategy: rows of three optional small integers (None = NULL).
fn rows3() -> impl Strategy<Value = Vec<[Option<i64>; 3]>> {
    prop::collection::vec(
        [
            prop::option::weighted(0.85, 0i64..6),
            prop::option::weighted(0.85, 0i64..5),
            prop::option::weighted(0.85, 0i64..4),
        ],
        0..80,
    )
}

/// A small deterministic generator for properties whose inputs are
/// easier to derive from one seed than to describe as strategies.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }
}

fn rel3(rows: &[[Option<i64>; 3]]) -> Relation {
    Relation::from_rows(
        Schema::new(["A", "B", "C"]).unwrap(),
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::from(v)).collect::<Vec<_>>()),
    )
    .unwrap()
}

proptest! {
    #[test]
    fn contingency_margins_consistent(pairs in pairs()) {
        let rel = Relation::from_pairs(pairs.iter().copied());
        let t = ContingencyTable::from_relation(
            &rel, &AttrSet::single(AttrId(0)), &AttrSet::single(AttrId(1)));
        prop_assert_eq!(t.n() as usize, rel.n_rows());
        prop_assert_eq!(t.row_totals().iter().sum::<u64>(), t.n());
        prop_assert_eq!(t.col_totals().iter().sum::<u64>(), t.n());
        prop_assert_eq!(t.cells().map(|(_,_,c)| c).sum::<u64>(), t.n());
        // Each row's cells sum to its total.
        for (i, &a) in t.row_totals().iter().enumerate() {
            prop_assert_eq!(t.row(i).iter().map(|&(_,c)| c).sum::<u64>(), a);
        }
        // sum_row_max is between N/Ky-ish lower bound and N.
        let s = t.summary();
        prop_assert!(s.sum_row_max() >= t.n_x() as u64 * u64::from(t.n() > 0));
        prop_assert!(s.sum_row_max() <= t.n());
    }

    #[test]
    fn group_encode_counts_match_distinct_rows(rows in rows3()) {
        let rel = rel3(&rows);
        let attrs = AttrSet::new([AttrId(0), AttrId(2)]);
        let enc = rel.group_encode(&attrs);
        // Count distinct non-null (A, C) pairs by brute force.
        let mut distinct = std::collections::HashSet::new();
        for r in &rows {
            if let (Some(a), Some(c)) = (r[0], r[2]) {
                distinct.insert((a, c));
            }
        }
        prop_assert_eq!(enc.n_groups as usize, distinct.len());
        // Two rows share a group iff their values agree.
        for (i, ri) in rows.iter().enumerate() {
            for (j, rj) in rows.iter().enumerate() {
                let vi = (ri[0], ri[2]);
                let vj = (rj[0], rj[2]);
                if vi.0.is_some() && vi.1.is_some() && vj.0.is_some() && vj.1.is_some() {
                    prop_assert_eq!(
                        enc.codes[i] == enc.codes[j],
                        vi == vj,
                        "rows {} and {}", i, j
                    );
                }
            }
        }
    }

    #[test]
    fn pli_refine_matches_direct(rows in rows3()) {
        let rel = rel3(&rows);
        let pa = Pli::from_relation(&rel, &AttrSet::single(AttrId(0)));
        let refined = pa.refine(&rel.group_encode(&AttrSet::single(AttrId(1))).codes);
        let direct = Pli::from_relation(&rel, &AttrSet::new([AttrId(0), AttrId(1)]));
        prop_assert_eq!(normalized_clusters(&refined), normalized_clusters(&direct));
    }

    /// The one-pass tally of a stripped candidate equals the summary of
    /// its full-codes table, the exact pdep sum included — with NULLs on
    /// every column, so X-NULL rows, Y-NULL rows and clusters whose
    /// first row is Y-NULL all occur. X is each pair of attributes, Y
    /// the third.
    #[test]
    fn tally_equals_table_summary(rows in rows3()) {
        let rel = rel3(&rows);
        for (a, b, c) in [(0, 1, 2), (0, 2, 1), (1, 2, 0)] {
            let x = rel.group_encode(&AttrSet::new([AttrId(a), AttrId(b)]));
            let y = rel.group_encode(&AttrSet::single(AttrId(c)));
            let (mut c_rows, mut starts, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
            let y_lane = YMatrix::new(vec![YSide::new(&y.codes, y.n_groups)]);
            let mut tally = Vec::new();
            with_scratch(|s| {
                strip_codes_into(s, &x.codes, x.n_groups, &mut c_rows, &mut starts, &mut dropped);
                y_lane.tally_with(s, &c_rows, &starts, &dropped, &[0], &mut tally);
            });
            let want = ContingencyTable::from_codes(&x.codes, &y.codes).summary();
            prop_assert_eq!(&tally[..], &[want], "Y = attribute {}", c);
        }
    }

    /// The multi-RHS tally on wide matrices: every lane's summary equals
    /// its full-codes table's. X-groups of 1 to 17 rows straddle the
    /// small-group bound (8) and include two-row groups; some lanes have
    /// NULLs, also inside small and two-row groups; some rows are X-NULL;
    /// 1 to 40 lanes cross the compare blocks. Each lane is requested,
    /// in a shuffled order with one lane left out.
    #[test]
    fn lane_tally_equals_table_summaries(
        width in 1usize..41,
        groups in prop::collection::vec(1usize..18, 1..40),
        x_nulls in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = SplitMix(seed);
        // Row i belongs to X-group x[i]; groups are interleaved.
        let mut x: Vec<u32> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, &len)| std::iter::repeat_n(g as u32, len))
            .chain(std::iter::repeat_n(NULL_CODE, x_nulls))
            .collect();
        for i in (1..x.len()).rev() {
            x.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let n = x.len();
        // Lane domains from constant to near-unique; about a third of
        // the lanes are NULL on about a fifth of their rows.
        let cols: Vec<(Vec<u32>, u32)> = (0..width)
            .map(|_| {
                let dom = [1, 2, 3, 5, 40][rng.below(5) as usize];
                let nullable = rng.below(3) == 0;
                let col = (0..n)
                    .map(|_| {
                        if nullable && rng.below(5) == 0 {
                            NULL_CODE
                        } else {
                            rng.below(u64::from(dom)) as u32
                        }
                    })
                    .collect();
                (col, dom)
            })
            .collect();
        let m = YMatrix::new(cols.iter().map(|(c, dom)| YSide::new(c, *dom)).collect());
        let mut lanes: Vec<usize> = (0..width).collect();
        for i in (1..width).rev() {
            lanes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        if width > 1 {
            lanes.pop();
        }
        let (mut c_rows, mut starts, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
        let mut got = Vec::new();
        with_scratch(|s| {
            strip_codes_into(s, &x, groups.len() as u32, &mut c_rows, &mut starts, &mut dropped);
            m.tally_with(s, &c_rows, &starts, &dropped, &lanes, &mut got);
        });
        prop_assert_eq!(got.len(), lanes.len());
        for (summary, &k) in got.iter().zip(&lanes) {
            let want = ContingencyTable::from_codes(&x, &cols[k].0).summary();
            prop_assert_eq!(summary, &want, "lane {} of {}", k, width);
        }
    }

    #[test]
    fn csv_roundtrip(rows in rows3()) {
        let rel = rel3(&rows);
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        prop_assert_eq!(back.n_rows(), rel.n_rows());
        for i in 0..rel.n_rows() {
            prop_assert_eq!(back.row(i), rel.row(i));
        }
    }

    #[test]
    fn projection_preserves_cardinality_and_groups(pairs in pairs()) {
        let rel = Relation::from_pairs(pairs.iter().copied());
        let p = rel.project(&AttrSet::single(AttrId(1)));
        prop_assert_eq!(p.n_rows(), rel.n_rows());
        prop_assert_eq!(
            p.distinct_count(&AttrSet::single(AttrId(0))),
            rel.distinct_count(&AttrSet::single(AttrId(1)))
        );
    }
}

// ------------------------------------------------------------------
// Optimized kernels ≡ naive reference implementations
// (the stamped-array kernels in `afd_relation::kernels` vs the retained
// hash-based paths in `afd_relation::naive`).

/// Partition equality up to cluster renaming: sorted sorted-clusters.
fn normalized_clusters(p: &Pli) -> Vec<Vec<u32>> {
    let mut cs: Vec<Vec<u32>> = p
        .clusters()
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            c
        })
        .collect();
    cs.sort();
    cs
}

proptest! {
    #[test]
    fn contingency_optimized_matches_naive(rows in rows3()) {
        let rel = rel3(&rows);
        let gx = rel.group_encode(&AttrSet::new([AttrId(0), AttrId(1)]));
        let gy = rel.group_encode(&AttrSet::single(AttrId(2)));
        let fast = ContingencyTable::from_codes(&gx.codes, &gy.codes);
        let slow = afd_relation::naive::contingency_from_codes(&gx.codes, &gy.codes);
        prop_assert_eq!(fast.n(), slow.n());
        prop_assert_eq!(fast.n_x(), slow.n_x());
        prop_assert_eq!(fast.n_y(), slow.n_y());
        prop_assert_eq!(fast.row_totals(), slow.row_totals());
        prop_assert_eq!(fast.col_totals(), slow.col_totals());
        for i in 0..fast.n_x() {
            prop_assert_eq!(fast.row(i), slow.row(i), "row {}", i);
        }
        // Margin/cell-sum invariants hold on the optimized table.
        prop_assert_eq!(fast.cells().map(|(_, _, c)| c).sum::<u64>(), fast.n());
        prop_assert_eq!(fast.row_totals().iter().sum::<u64>(), fast.n());
        prop_assert_eq!(fast.col_totals().iter().sum::<u64>(), fast.n());
    }

    #[test]
    fn group_encode_multi_matches_naive(rows in rows3()) {
        let rel = rel3(&rows);
        for nulls in [
            afd_relation::NullSemantics::DropTuples,
            afd_relation::NullSemantics::NullAsValue,
        ] {
            for ids in [
                vec![AttrId(0), AttrId(1)],
                vec![AttrId(0), AttrId(1), AttrId(2)],
                vec![AttrId(1), AttrId(2)],
            ] {
                let attrs = AttrSet::new(ids.iter().copied());
                let fast = rel.group_encode_with(&attrs, nulls);
                let slow = afd_relation::naive::group_encode_multi(&rel, attrs.ids(), nulls);
                // The pair-code fold assigns ids in first-encounter order,
                // exactly like the naive composite-key map: byte equality.
                prop_assert_eq!(&fast.codes, &slow.codes, "attrs {:?} nulls {:?}", &attrs, nulls);
                prop_assert_eq!(fast.n_groups, slow.n_groups);
            }
        }
    }

    #[test]
    fn pli_refine_matches_naive(rows in rows3()) {
        let rel = rel3(&rows);
        let pa = Pli::from_relation(&rel, &AttrSet::single(AttrId(0)));
        let codes = rel.group_encode(&AttrSet::single(AttrId(1))).codes;
        let fast = pa.refine(&codes);
        let slow = afd_relation::naive::pli_refine(&pa, &codes);
        prop_assert_eq!(normalized_clusters(&fast), normalized_clusters(&slow));
        prop_assert_eq!(fast.stripped_size(), slow.stripped_size());
        prop_assert_eq!(fast.n_rows(), slow.n_rows());
    }

    #[test]
    fn pli_build_matches_naive(rows in rows3()) {
        let rel = rel3(&rows);
        let attrs = AttrSet::new([AttrId(0), AttrId(2)]);
        let enc = rel.group_encode(&attrs);
        let fast = Pli::from_encoding(&enc, rel.n_rows());
        let slow = afd_relation::naive::pli_from_encoding(&enc, rel.n_rows());
        prop_assert_eq!(normalized_clusters(&fast), normalized_clusters(&slow));
    }

    #[test]
    fn code_level_project_matches_value_level(rows in rows3()) {
        let rel = rel3(&rows);
        for attrs in [
            AttrSet::single(AttrId(1)),
            AttrSet::new([AttrId(0), AttrId(2)]),
            AttrSet::new([AttrId(0), AttrId(1), AttrId(2)]),
        ] {
            let fast = rel.project(&attrs);
            let slow = afd_relation::naive::project(&rel, &attrs);
            prop_assert_eq!(fast.n_rows(), slow.n_rows());
            prop_assert_eq!(fast.schema(), slow.schema());
            for r in 0..fast.n_rows() {
                prop_assert_eq!(fast.row(r), slow.row(r), "row {} attrs {:?}", r, &attrs);
            }
            // Group structure (the only thing the kernels see) is
            // byte-identical even though dictionary numbering may differ.
            let all = AttrSet::new(fast.schema().attrs());
            let fe = fast.group_encode(&all);
            let se = slow.group_encode(&all);
            prop_assert_eq!(&fe.codes, &se.codes);
            prop_assert_eq!(fe.n_groups, se.n_groups);
        }
    }

    #[test]
    fn code_level_filter_rows_matches_value_level(rows in rows3()) {
        let rel = rel3(&rows);
        let keep = |r: usize| r % 3 != 1;
        let fast = rel.filter_rows(keep);
        let slow = afd_relation::naive::filter_rows(&rel, keep);
        prop_assert_eq!(fast.n_rows(), slow.n_rows());
        for r in 0..fast.n_rows() {
            prop_assert_eq!(fast.row(r), slow.row(r), "row {}", r);
        }
        for a in 0..3u32 {
            let attrs = AttrSet::single(AttrId(a));
            let fe = fast.group_encode(&attrs);
            let se = slow.group_encode(&attrs);
            prop_assert_eq!(&fe.codes, &se.codes, "attr {}", a);
            prop_assert_eq!(fe.n_groups, se.n_groups);
            prop_assert_eq!(
                fast.column(AttrId(a)).null_count(),
                slow.column(AttrId(a)).null_count()
            );
        }
    }

    #[test]
    fn cached_contingency_matches_uncached(rows in rows3()) {
        let rel = rel3(&rows);
        let mut cache = afd_relation::EncodingCache::new();
        for (x, y) in [(0u32, 1u32), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            let fd = afd_relation::Fd::linear(AttrId(x), AttrId(y));
            let cached = fd.contingency_cached(&rel, &mut cache);
            let direct = fd.contingency(&rel);
            prop_assert_eq!(cached.n(), direct.n());
            prop_assert_eq!(cached.row_totals(), direct.row_totals());
            prop_assert_eq!(cached.col_totals(), direct.col_totals());
            for i in 0..cached.n_x() {
                prop_assert_eq!(cached.row(i), direct.row(i), "row {}", i);
            }
        }
        // Three attributes, six candidates: every side re-encoding after
        // the first three is a cache hit.
        prop_assert_eq!(cache.misses(), 3);
        prop_assert_eq!(cache.hits(), 9);
    }
}
