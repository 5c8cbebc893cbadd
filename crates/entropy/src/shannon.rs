//! Shannon entropy over contingency tables.
//!
//! All entropies are in **bits** (base-2 logs). The paper's FI-family
//! measures are ratios and therefore base-invariant, but `g1^S` depends on
//! the base; base 2 matches the information-theoretic convention used by
//! Giannella & Robertson.
//!
//! Every quantity reads a table's exact [`ShannonSums`], e.g.
//! `H(Y|X) = (Σ a·lg a − Σ n·lg n)/N`: an exact difference rounded once,
//! so it has the same bits in every row order.

use afd_relation::{ExactSum, ShannonSums};

/// `num / N`, or 0 for an empty table.
fn over_n(num: ExactSum, h: &ShannonSums) -> f64 {
    if h.n == 0 {
        return 0.0;
    }
    num.value() / h.n as f64
}

/// `N·lg N`, exactly.
fn n_lg_n(h: &ShannonSums) -> ExactSum {
    let mut s = ExactSum::default();
    s.add_v_lg_v(h.n, 1);
    s
}

/// `H_R(X)`: marginal Shannon entropy of the X side.
pub fn shannon_x(h: &ShannonSums) -> f64 {
    over_n(n_lg_n(h) - h.rows, h)
}

/// `H_R(Y)`: marginal Shannon entropy of the Y side.
pub fn shannon_y(h: &ShannonSums) -> f64 {
    over_n(n_lg_n(h) - h.cols, h)
}

/// `H_R(XY)`: joint Shannon entropy.
pub fn shannon_xy(h: &ShannonSums) -> f64 {
    over_n(n_lg_n(h) - h.cells, h)
}

/// `H_R(Y | X) = H(XY) − H(X)`: conditional Shannon entropy.
pub fn shannon_y_given_x(h: &ShannonSums) -> f64 {
    over_n(h.rows - h.cells, h)
}

/// `I_R(X; Y) = H(Y) − H(Y|X)`: mutual information in bits.
/// Clamped at 0: on independent data the rounded terms can leave a
/// residue of either sign.
pub fn mutual_information(h: &ShannonSums) -> f64 {
    over_n(n_lg_n(h) - h.cols - (h.rows - h.cells), h).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_relation::ContingencyTable;

    fn sums(counts: &[Vec<u64>]) -> ShannonSums {
        ContingencyTable::from_counts(counts).shannon_sums()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn uniform_entropy_is_log_k() {
        let t = sums(&[vec![1, 0], vec![0, 1]]);
        assert!(close(shannon_x(&t), 1.0));
        assert!(close(shannon_y(&t), 1.0));
        assert!(close(shannon_xy(&t), 1.0));
    }

    #[test]
    fn single_value_entropy_zero() {
        let t = sums(&[vec![5]]);
        assert_eq!(shannon_x(&t), 0.0);
        assert_eq!(shannon_y(&t), 0.0);
        assert_eq!(shannon_y_given_x(&t), 0.0);
    }

    #[test]
    fn chain_rule_holds() {
        let t = sums(&[vec![3, 1], vec![2, 2], vec![0, 4]]);
        assert!(close(shannon_y_given_x(&t), shannon_xy(&t) - shannon_x(&t)));
    }

    #[test]
    fn exact_fd_gives_zero_conditional_entropy() {
        let t = sums(&[vec![4, 0], vec![0, 3]]);
        assert_eq!(shannon_y_given_x(&t), 0.0);
        assert!(close(mutual_information(&t), shannon_y(&t)));
    }

    #[test]
    fn independence_gives_zero_mi() {
        // p(x,y) = p(x)p(y): counts proportional to outer product.
        let t = sums(&[vec![2, 4], vec![4, 8]]);
        assert!(mutual_information(&t) < 1e-12);
    }

    #[test]
    fn mi_symmetry() {
        let t = sums(&[vec![3, 1, 0], vec![1, 2, 2]]);
        let tt = sums(&[vec![3, 1], vec![1, 2], vec![0, 2]]);
        assert!(close(mutual_information(&t), mutual_information(&tt)));
    }

    #[test]
    fn known_value_quarter_half() {
        // counts: (x1,y1)=1 (x1,y2)=1 (x2,y2)=2 ; H(X)=1, H(Y)= H(1/4,3/4)
        let t = sums(&[vec![1, 1], vec![0, 2]]);
        let hy = -(0.25f64 * 0.25f64.log2() + 0.75 * 0.75f64.log2());
        assert!(close(shannon_y(&t), hy));
        // H(Y|X): x1 contributes (2/4)*1 bit, x2 contributes 0.
        assert!(close(shannon_y_given_x(&t), 0.5));
    }

    #[test]
    fn empty_table_all_zero() {
        let t = sums(&[]);
        assert_eq!(shannon_x(&t), 0.0);
        assert_eq!(shannon_y_given_x(&t), 0.0);
        assert_eq!(mutual_information(&t), 0.0);
    }
}
