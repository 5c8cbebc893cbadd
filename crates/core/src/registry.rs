//! Registry of all 14 measures in the paper's column order.

use afd_entropy::pdep_xy;
use afd_relation::{ShannonSums, Summary};

use crate::logical_measures::{G1Prime, MuPlus, Pdep, Tau, G1};
use crate::measure::{score_summary, Measure};
use crate::shannon_measures::{Fi, RfiPlus, RfiPrimePlus, Sfi, G1S};
use crate::violation::{G3Prime, Rho, G2, G3};

/// All 14 measures in Table III column order:
/// ρ, g2, g3, g3′, g1ˢ, FI, RFI⁺, RFI′⁺, SFI(0.5), g1, g1′, pdep, τ, µ⁺.
///
/// SFI uses α = 0.5, the parameterisation the paper reports (it dominated
/// α ∈ {1, 2} in their experiments).
pub fn all_measures() -> Vec<Box<dyn Measure>> {
    vec![
        Box::new(Rho),
        Box::new(G2),
        Box::new(G3),
        Box::new(G3Prime),
        Box::new(G1S),
        Box::new(Fi),
        Box::new(RfiPlus),
        Box::new(RfiPrimePlus),
        Box::new(Sfi::half()),
        Box::new(G1),
        Box::new(G1Prime),
        Box::new(Pdep),
        Box::new(Tau),
        Box::new(MuPlus),
    ]
}

/// The measures the paper calls *efficiently computable* — everything
/// except RFI⁺, RFI′⁺ and SFI. Useful for full-benchmark runs where the
/// slow measures must be budgeted separately (the paper's RWD⁻ mechanism).
pub fn fast_measures() -> Vec<Box<dyn Measure>> {
    all_measures()
        .into_iter()
        .filter(|m| m.properties().efficiently_computable)
        .collect()
}

/// The scores of the 11 [`fast_measures`], in their order, from a table's
/// [`Summary`] and [`ShannonSums`]: bit for bit each measure's
/// [`Measure::score_contingency`] on that table (same formulas, same
/// conventions, applied by [`score_summary`]). The streaming engine
/// scores through this function.
pub fn fast_scores(s: &Summary, h: &ShannonSums) -> [f64; 11] {
    let shannon = |formula: fn(&ShannonSums) -> f64| score_summary(s, |_| formula(h));
    [
        score_summary(s, Rho::formula),
        score_summary(s, G2::formula),
        score_summary(s, G3::formula),
        score_summary(s, G3Prime::formula),
        shannon(G1S::formula),
        shannon(Fi::formula),
        score_summary(s, G1::formula),
        score_summary(s, G1Prime::formula),
        score_summary(s, pdep_xy),
        score_summary(s, Tau::formula),
        score_summary(s, MuPlus::formula),
    ]
}

/// Looks a measure up by its paper name (e.g. `"mu+"`, `"g3'"`, `"RFI'+"`).
/// Matching is case-insensitive.
pub fn measure_by_name(name: &str) -> Option<Box<dyn Measure>> {
    all_measures()
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureClass;

    #[test]
    fn fourteen_measures_in_paper_order() {
        let names: Vec<&str> = all_measures().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "rho", "g2", "g3", "g3'", "g1S", "FI", "RFI+", "RFI'+", "SFI", "g1", "g1'", "pdep",
                "tau", "mu+"
            ]
        );
    }

    #[test]
    fn class_partition_matches_section_4e() {
        let ms = all_measures();
        let by_class = |c: MeasureClass| -> Vec<&str> {
            ms.iter()
                .filter(|m| m.class() == c)
                .map(|m| m.name())
                .collect()
        };
        assert_eq!(
            by_class(MeasureClass::Violation),
            vec!["rho", "g2", "g3", "g3'"]
        );
        assert_eq!(
            by_class(MeasureClass::Shannon),
            vec!["g1S", "FI", "RFI+", "RFI'+", "SFI"]
        );
        assert_eq!(
            by_class(MeasureClass::Logical),
            vec!["g1", "g1'", "pdep", "tau", "mu+"]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(measure_by_name("mu+").is_some());
        assert!(measure_by_name("MU+").is_some());
        assert!(measure_by_name("RFI'+").is_some());
        assert!(measure_by_name("nonsense").is_none());
    }

    #[test]
    fn fast_measures_excludes_slow_three() {
        let names: Vec<&str> = fast_measures().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 11);
        assert!(!names.contains(&"RFI+"));
        assert!(!names.contains(&"RFI'+"));
        assert!(!names.contains(&"SFI"));
    }

    #[test]
    fn ten_measures_have_baselines() {
        // Table III: everything except ρ, g3, g1, pdep.
        let with: Vec<&str> = all_measures()
            .iter()
            .filter(|m| m.properties().has_baselines)
            .map(|m| m.name())
            .collect();
        assert_eq!(with.len(), 10);
        for lacking in ["rho", "g3", "g1", "pdep"] {
            assert!(!with.contains(&lacking), "{lacking} must lack baselines");
        }
    }
}
