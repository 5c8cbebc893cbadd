//! Shared per-attribute-set encoding cache.
//!
//! `Fd::contingency` group-encodes both FD sides from scratch for every
//! candidate, so scoring all linear candidates of an `m`-attribute
//! relation re-encodes each attribute up to `2(m−1)` times. An
//! [`EncodingCache`] amortises that: each distinct [`AttrSet`] is encoded
//! once and the resulting [`GroupEncoding`] is shared by every candidate
//! that mentions it — both by the engine front door's batch matrix path
//! (`afd-engine`) and by `afd-eval`'s `build_tables`. (The stream
//! engine's compaction checks call `Fd::contingency` per candidate.)
//!
//! A cache is tied to the relation whose encodings it holds; it never
//! stores the relation itself, so reusing one cache across different (or
//! mutated) relations is a logic error. Build a fresh cache per
//! relation/version.

use std::collections::HashMap;

use crate::contingency::ContingencyTable;
use crate::fd::Fd;
use crate::relation::{GroupEncoding, Relation};
use crate::schema::AttrSet;

/// A memo table `AttrSet -> GroupEncoding` for one relation.
#[derive(Debug, Default)]
pub struct EncodingCache {
    map: HashMap<AttrSet, GroupEncoding>,
    hits: u64,
    misses: u64,
}

impl EncodingCache {
    /// An empty cache.
    pub fn new() -> Self {
        EncodingCache::default()
    }

    /// The encoding of `attrs` on `rel`, computing and caching it on
    /// first use.
    pub fn encoding(&mut self, rel: &Relation, attrs: &AttrSet) -> &GroupEncoding {
        if self.map.contains_key(attrs) {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.map.insert(attrs.clone(), rel.group_encode(attrs));
        }
        &self.map[attrs]
    }

    /// A cached encoding, if present (no computation). Lets read-only
    /// sharing across threads work on a pre-warmed cache.
    pub fn get(&self, attrs: &AttrSet) -> Option<&GroupEncoding> {
        self.map.get(attrs)
    }

    /// Stores a precomputed encoding (the parallel warm-up path:
    /// encodings are computed across workers, then inserted here).
    pub fn insert(&mut self, attrs: AttrSet, enc: GroupEncoding) {
        self.map.insert(attrs, enc);
    }

    /// Ensures every attribute set in `sets` is cached.
    pub fn warm<'a>(&mut self, rel: &Relation, sets: impl IntoIterator<Item = &'a AttrSet>) {
        for s in sets {
            self.encoding(rel, s);
        }
    }

    /// Builds `fd`'s contingency table from cached side encodings —
    /// byte-identical to [`Fd::contingency`] (both feed first-encounter
    /// dense codes into the same CSR kernel).
    pub fn contingency(&mut self, rel: &Relation, fd: &Fd) -> ContingencyTable {
        self.encoding(rel, fd.lhs());
        self.encoding(rel, fd.rhs());
        self.contingency_prewarmed(fd)
            .expect("both sides cached above")
    }

    /// As [`EncodingCache::contingency`], but read-only: returns `None`
    /// if either side was never cached. This is the shape the parallel
    /// scoring loop uses (`&self` is `Sync`-shareable).
    pub fn contingency_prewarmed(&self, fd: &Fd) -> Option<ContingencyTable> {
        let gx = self.map.get(fd.lhs())?;
        let gy = self.map.get(fd.rhs())?;
        Some(ContingencyTable::from_codes(&gx.codes, &gy.codes))
    }

    /// Number of cached attribute sets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to encode.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;

    fn rel() -> Relation {
        Relation::from_pairs([(1, 10), (1, 10), (1, 11), (2, 20), (3, 20)])
    }

    #[test]
    fn caches_and_counts() {
        let r = rel();
        let mut cache = EncodingCache::new();
        let x = AttrSet::single(AttrId(0));
        assert_eq!(cache.encoding(&r, &x).n_groups, 3);
        assert_eq!(cache.encoding(&r, &x).n_groups, 3);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn cached_contingency_matches_direct() {
        let r = rel();
        let mut cache = EncodingCache::new();
        for fd in [
            Fd::linear(AttrId(0), AttrId(1)),
            Fd::linear(AttrId(1), AttrId(0)),
        ] {
            let cached = cache.contingency(&r, &fd);
            let direct = fd.contingency(&r);
            assert_eq!(cached.n(), direct.n());
            assert_eq!(cached.row_totals(), direct.row_totals());
            assert_eq!(cached.col_totals(), direct.col_totals());
            for i in 0..cached.n_x() {
                assert_eq!(cached.row(i), direct.row(i));
            }
        }
        // Two linear candidates over two attributes: two encodings, two
        // hits (each side reused once).
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn prewarmed_lookup_is_read_only() {
        let r = rel();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let cache = EncodingCache::new();
        assert!(cache.contingency_prewarmed(&fd).is_none());
        let mut cache = cache;
        cache.warm(&r, [fd.lhs(), fd.rhs()]);
        let t = cache.contingency_prewarmed(&fd).unwrap();
        assert_eq!(t.n(), 5);
        assert!(cache.get(fd.lhs()).is_some());
    }

    #[test]
    fn insert_accepts_external_encodings() {
        let r = rel();
        let x = AttrSet::single(AttrId(0));
        let mut cache = EncodingCache::new();
        cache.insert(x.clone(), r.group_encode(&x));
        assert_eq!(cache.len(), 1);
        let mut c2 = EncodingCache::new();
        assert_eq!(cache.encoding(&r, &x).codes, c2.encoding(&r, &x).codes);
    }
}
