//! The [`Measure`] trait: the uniform interface to all 14 AFD measures.
//!
//! An AFD measure maps a pair `(φ, R)` — an FD and a relation — to `[0, 1]`,
//! with 1 meaning `R |= φ` (Section IV). The paper's conventions are
//! implemented once, in [`Measure::score`]:
//!
//! * tuples with NULL in `X ∪ Y` are dropped (Section VI-A),
//! * if the remaining relation satisfies `φ` (including the empty
//!   relation), the score is exactly `1.0`,
//! * otherwise the measure formula is evaluated on the contingency table,
//!   where `|dom(X)| < N` and `|dom(Y)| > 1` are guaranteed, so no formula
//!   divides by zero.

use afd_relation::{ContingencyTable, Fd, Relation, Summary};

/// The three classes of AFD measures (Section IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasureClass {
    /// Measures quantifying a notion of violation: ρ, g2, g3, g3′.
    Violation,
    /// Measures based on Shannon entropy: g1ˢ, FI, RFI⁺, RFI′⁺, SFI.
    Shannon,
    /// Measures based on logical entropy: g1, g1′, pdep, τ, µ⁺.
    Logical,
}

impl MeasureClass {
    /// Single-letter tag used in Table III ("V"/"S"/"L").
    pub fn tag(self) -> &'static str {
        match self {
            MeasureClass::Violation => "V",
            MeasureClass::Shannon => "S",
            MeasureClass::Logical => "L",
        }
    }
}

impl std::fmt::Display for MeasureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MeasureClass::Violation => "VIOLATION",
            MeasureClass::Shannon => "SHANNON",
            MeasureClass::Logical => "LOGICAL",
        };
        f.write_str(s)
    }
}

/// A three-valued property entry, matching Table III's ✓ / ✗ / ⊘ cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tribool {
    /// The property applies (✓).
    Yes,
    /// The property does not apply (✗).
    No,
    /// Not applicable — the measure has no distinguishing power on this
    /// axis at all (the paper's ⊘ cells for g1, g1′, SFI).
    NotApplicable,
}

impl Tribool {
    /// The symbol used when rendering Table III.
    pub fn symbol(self) -> &'static str {
        match self {
            Tribool::Yes => "yes",
            Tribool::No => "no",
            Tribool::NotApplicable => "n/a",
        }
    }
}

/// Static per-measure metadata: the qualitative rows of Table III.
#[derive(Debug, Clone)]
pub struct MeasureProperties {
    /// Where the measure was proposed / which discovery algorithms use it.
    pub considered_in: &'static str,
    /// Does the measure have baselines (relations scoring exactly 0)?
    pub has_baselines: bool,
    /// Is the measure efficiently computable (paper: everything except
    /// RFI⁺, RFI′⁺ and SFI)?
    pub efficiently_computable: bool,
    /// Is the score inversely proportional to the error level (ERR axis)?
    pub inverse_to_error: Tribool,
    /// Is the separation insensitive to LHS-uniqueness (UNIQ axis)?
    pub insensitive_lhs_uniqueness: Tribool,
    /// Is the separation insensitive to RHS-skew (SKEW axis)?
    pub insensitive_rhs_skew: Tribool,
}

/// A single AFD measure.
///
/// Implementations provide [`Measure::score_table`], which is called
/// with a non-degenerate contingency table (non-empty, FD violated), and
/// [`Measure::summary_formula`] when that formula reads only table
/// aggregates. All conventions live in the provided [`Measure::score`]
/// methods.
pub trait Measure: Send + Sync {
    /// The paper's name for the measure (`"rho"`, `"g3'"`, `"mu+"`, ...).
    fn name(&self) -> &'static str;

    /// The measure's class (Section IV-E).
    fn class(&self) -> MeasureClass;

    /// Table III metadata.
    fn properties(&self) -> MeasureProperties;

    /// Evaluates the raw formula on a contingency table for which the FD
    /// does **not** hold exactly and `N > 0`. Callers should normally use
    /// [`Measure::score`] / [`Measure::score_contingency`], which apply the
    /// `R |= φ → 1` convention first.
    fn score_table(&self, t: &ContingencyTable) -> f64;

    /// The measure's formula over a table's [`Summary`], for the measures
    /// whose formula reads only table aggregates: ρ, g2, g3, g3′, g1, g1′,
    /// pdep, τ and µ⁺. Their [`Measure::score_table`] is this function
    /// applied to [`ContingencyTable::summary`], so each formula exists
    /// once, and the stripped lattice scores their candidates from a
    /// tally that counts every RHS of an LHS set in one pass over its
    /// clusters ([`afd_relation::YMatrix::tally_with`]) without building
    /// a table. The summary's float sum is exact, so the tally, a table
    /// and a stream give the same bits. `None` (the default) for measures
    /// that read more than a [`Summary`].
    ///
    /// The function has [`Measure::score_table`]'s contract: the summary
    /// is of a non-empty table whose FD does not hold exactly, and the
    /// result is not yet clamped; [`score_summary`] applies the
    /// conventions.
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        None
    }

    /// `true` iff [`Measure::score_table`] is **bit-identical** on a
    /// table with implicit singleton X-groups
    /// ([`ContingencyTable::implicit_singletons`]) to the same table in
    /// full-codes form. Only the stripped lattice's table path asks:
    /// measures with a [`Measure::summary_formula`] are tallied instead.
    /// Holds for g1ˢ and FI (an implicit singleton adds exactly 0 to the
    /// exact Shannon sums) and for the RFI family (the margin histogram
    /// folds singletons in exactly); measures that accumulate nonzero
    /// per-singleton terms in row order (SFI, Monte-Carlo extensions)
    /// override this to `false`, and the stripped lattice then scores
    /// them on a materialised full-codes table instead.
    fn bit_exact_on_implicit_singletons(&self) -> bool {
        true
    }

    /// Scores a contingency table with the paper's conventions applied:
    /// empty or exactly-satisfied tables score 1, everything else is
    /// clamped into `[0, 1]`.
    fn score_contingency(&self, t: &ContingencyTable) -> f64 {
        if t.is_empty() || t.is_exact_fd() {
            return 1.0;
        }
        self.score_table(t).clamp(0.0, 1.0)
    }

    /// Scores `fd` on `rel`: builds the NULL-filtered contingency table and
    /// applies the conventions.
    fn score(&self, rel: &Relation, fd: &Fd) -> f64 {
        self.score_contingency(&fd.contingency(rel))
    }
}

/// Scores a table's [`Summary`] through `formula` (a
/// [`Measure::summary_formula`], or a formula over sums the summary
/// stands beside) with the paper's conventions, as
/// [`Measure::score_contingency`] applies them to a table: 1 when the
/// table is empty or the FD holds exactly, otherwise the formula
/// clamped into `[0, 1]`. Every path that scores from aggregates
/// instead of a table goes through here.
pub fn score_summary(s: &Summary, formula: impl FnOnce(&Summary) -> f64) -> f64 {
    if s.n() == 0 || s.is_exact_fd() {
        return 1.0;
    }
    formula(s).clamp(0.0, 1.0)
}

impl std::fmt::Debug for dyn Measure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Measure({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Half;
    impl Measure for Half {
        fn name(&self) -> &'static str {
            "half"
        }
        fn class(&self) -> MeasureClass {
            MeasureClass::Violation
        }
        fn properties(&self) -> MeasureProperties {
            MeasureProperties {
                considered_in: "test",
                has_baselines: true,
                efficiently_computable: true,
                inverse_to_error: Tribool::Yes,
                insensitive_lhs_uniqueness: Tribool::No,
                insensitive_rhs_skew: Tribool::No,
            }
        }
        fn score_table(&self, _: &ContingencyTable) -> f64 {
            1.5 // deliberately out of range: must be clamped
        }
    }

    #[test]
    fn conventions_exact_fd_scores_one() {
        let t = ContingencyTable::from_counts(&[vec![3, 0], vec![0, 2]]);
        assert_eq!(Half.score_contingency(&t), 1.0);
        let empty = ContingencyTable::from_counts(&[]);
        assert_eq!(Half.score_contingency(&empty), 1.0);
    }

    #[test]
    fn out_of_range_scores_clamped() {
        let t = ContingencyTable::from_counts(&[vec![1, 1]]);
        assert_eq!(Half.score_contingency(&t), 1.0); // clamped from 1.5
    }

    #[test]
    fn class_rendering() {
        assert_eq!(MeasureClass::Violation.tag(), "V");
        assert_eq!(MeasureClass::Shannon.to_string(), "SHANNON");
        assert_eq!(Tribool::NotApplicable.symbol(), "n/a");
    }
}
