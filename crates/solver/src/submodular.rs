//! Black-box set functions and brute-force property checks.
//!
//! The paper treats valuation functions as opaque callables that arrive
//! from applications; [`SetFunction`] is that interface over subsets of
//! `0..n`, and [`FnSet`] adapts a closure to it. [`verify_submodular`]
//! and [`verify_monotone`] are exhaustive checkers used in tests (the
//! paper remarks that Eq. 5 is *not* submodular once sensor quality
//! enters — the valuation tests confirm exactly that). The schedulers'
//! optimization engines live in [`crate::ufl`].

use crate::bitset::BitSet;

/// A black-box real-valued set function over ground set `0..ground_size()`.
pub trait SetFunction {
    /// Size of the ground set.
    fn ground_size(&self) -> usize;
    /// Evaluates the function on a subset.
    fn eval(&self, set: &BitSet) -> f64;
}

/// Adapter turning `(n, closure)` into a [`SetFunction`].
pub struct FnSet<F: Fn(&BitSet) -> f64> {
    n: usize,
    f: F,
}

impl<F: Fn(&BitSet) -> f64> FnSet<F> {
    /// Wraps a closure over subsets of `0..n`.
    pub fn new(n: usize, f: F) -> Self {
        Self { n, f }
    }
}

impl<F: Fn(&BitSet) -> f64> SetFunction for FnSet<F> {
    fn ground_size(&self) -> usize {
        self.n
    }

    fn eval(&self, set: &BitSet) -> f64 {
        (self.f)(set)
    }
}

/// Brute-force submodularity check: for all `A ⊆ B` and `v ∉ B`,
/// `f(A+v) − f(A) ≥ f(B+v) − f(B)` within `tol`. Exponential; test use
/// only (`n ≤ 10`).
pub fn verify_submodular<F: SetFunction>(f: &F, tol: f64) -> bool {
    let n = f.ground_size();
    assert!(n <= 10, "submodularity check limited to 10 elements");
    let vals: Vec<f64> = (0u64..(1 << n))
        .map(|mask| {
            let set = BitSet::from_iter(n, (0..n).filter(|&v| mask & (1 << v) != 0));
            f.eval(&set)
        })
        .collect();
    for a in 0u64..(1 << n) {
        for b in 0u64..(1 << n) {
            if a & b != a || a == b {
                continue; // need A ⊆ B
            }
            for v in 0..n {
                let bit = 1u64 << v;
                if b & bit != 0 {
                    continue;
                }
                let lhs = vals[(a | bit) as usize] - vals[a as usize];
                let rhs = vals[(b | bit) as usize] - vals[b as usize];
                if lhs + tol < rhs {
                    return false;
                }
            }
        }
    }
    true
}

/// Brute-force monotonicity check (`A ⊆ B ⇒ f(A) ≤ f(B)`); test use only.
pub fn verify_monotone<F: SetFunction>(f: &F, tol: f64) -> bool {
    let n = f.ground_size();
    assert!(n <= 10, "monotonicity check limited to 10 elements");
    let vals: Vec<f64> = (0u64..(1 << n))
        .map(|mask| {
            let set = BitSet::from_iter(n, (0..n).filter(|&v| mask & (1 << v) != 0));
            f.eval(&set)
        })
        .collect();
    for a in 0u64..(1 << n) {
        for v in 0..n {
            let bit = 1u64 << v;
            if a & bit == 0 && vals[(a | bit) as usize] + tol < vals[a as usize] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weighted cut function of a small undirected graph — the canonical
    /// non-monotone submodular function.
    fn cut_function(n: usize, edges: Vec<(usize, usize, f64)>) -> FnSet<impl Fn(&BitSet) -> f64> {
        FnSet::new(n, move |s: &BitSet| {
            edges
                .iter()
                .filter(|&&(u, v, _)| s.contains(u) != s.contains(v))
                .map(|&(_, _, w)| w)
                .sum()
        })
    }

    #[test]
    fn cut_function_is_submodular_not_monotone() {
        let f = cut_function(
            5,
            vec![
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.5),
                (3, 4, 1.0),
                (0, 4, 0.5),
            ],
        );
        assert!(verify_submodular(&f, 1e-9));
        assert!(!verify_monotone(&f, 1e-9));
    }

    #[test]
    fn modular_function_is_submodular_and_monotone_iff_nonnegative() {
        let modular = |w: [f64; 3]| FnSet::new(3, move |s: &BitSet| s.iter().map(|i| w[i]).sum());
        assert!(verify_submodular(&modular([3.0, 0.0, 2.5]), 1e-9));
        assert!(verify_monotone(&modular([3.0, 0.0, 2.5]), 1e-9));
        assert!(verify_submodular(&modular([3.0, -1.0, 2.5]), 1e-9));
        assert!(!verify_monotone(&modular([3.0, -1.0, 2.5]), 1e-9));
    }

    #[test]
    fn squared_cardinality_is_monotone_not_submodular() {
        let f = FnSet::new(4, |s: &BitSet| (s.len() * s.len()) as f64);
        assert!(!verify_submodular(&f, 1e-9));
        assert!(verify_monotone(&f, 1e-9));
    }
}
