//! Brute-force set-function property checks.
//!
//! The paper treats valuation functions as opaque callables that arrive
//! from applications. [`verify_submodular`] and [`verify_monotone`] take
//! such a function as a closure over subsets of `0..n` and check it
//! exhaustively; they are used in tests (the paper remarks that Eq. 5 is
//! *not* submodular once sensor quality enters — the valuation tests
//! confirm exactly that). The schedulers' optimization engines live in
//! [`crate::ufl`].

/// `f` on every subset of `0..n`, indexed by membership bitmask. Each
/// subset reaches `f` as its members in ascending order.
fn tabulate(n: usize, f: impl Fn(&[usize]) -> f64) -> Vec<f64> {
    let mut members = Vec::with_capacity(n);
    (0u64..(1 << n))
        .map(|mask| {
            members.clear();
            members.extend((0..n).filter(|&v| mask & (1 << v) != 0));
            f(&members)
        })
        .collect()
}

/// Brute-force submodularity check of `f` over subsets of `0..n`: for
/// all `A ⊆ B` and `v ∉ B`, `f(A+v) − f(A) ≥ f(B+v) − f(B)` within
/// `tol`. `f` receives each subset's members in ascending order.
/// Exponential; test use only (`n ≤ 10`).
pub fn verify_submodular(n: usize, f: impl Fn(&[usize]) -> f64, tol: f64) -> bool {
    assert!(n <= 10, "submodularity check limited to 10 elements");
    let vals = tabulate(n, f);
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

/// Brute-force monotonicity check of `f` over subsets of `0..n`
/// (`A ⊆ B ⇒ f(A) ≤ f(B)` within `tol`); `f` receives each subset's
/// members in ascending order. Test use only (`n ≤ 10`).
pub fn verify_monotone(n: usize, f: impl Fn(&[usize]) -> f64, tol: f64) -> bool {
    assert!(n <= 10, "monotonicity check limited to 10 elements");
    let vals = tabulate(n, f);
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
    fn cut_function(edges: Vec<(usize, usize, f64)>) -> impl Fn(&[usize]) -> f64 {
        move |s: &[usize]| {
            edges
                .iter()
                .filter(|&&(u, v, _)| s.contains(&u) != s.contains(&v))
                .map(|&(_, _, w)| w)
                .sum()
        }
    }

    #[test]
    fn cut_function_is_submodular_not_monotone() {
        let f = cut_function(vec![
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 1.5),
            (3, 4, 1.0),
            (0, 4, 0.5),
        ]);
        assert!(verify_submodular(5, &f, 1e-9));
        assert!(!verify_monotone(5, &f, 1e-9));
    }

    #[test]
    fn modular_function_is_submodular_and_monotone_iff_nonnegative() {
        let modular = |w: [f64; 3]| move |s: &[usize]| s.iter().map(|&i| w[i]).sum::<f64>();
        assert!(verify_submodular(3, modular([3.0, 0.0, 2.5]), 1e-9));
        assert!(verify_monotone(3, modular([3.0, 0.0, 2.5]), 1e-9));
        assert!(verify_submodular(3, modular([3.0, -1.0, 2.5]), 1e-9));
        assert!(!verify_monotone(3, modular([3.0, -1.0, 2.5]), 1e-9));
    }

    #[test]
    fn squared_cardinality_is_monotone_not_submodular() {
        let f = |s: &[usize]| (s.len() * s.len()) as f64;
        assert!(!verify_submodular(4, f, 1e-9));
        assert!(verify_monotone(4, f, 1e-9));
    }

    #[test]
    fn every_subset_reaches_f_once_with_members_ascending() {
        let n = 5;
        let seen = std::cell::RefCell::new(Vec::new());
        let tabulated = tabulate(n, |s: &[usize]| {
            seen.borrow_mut().push(s.to_vec());
            s.len() as f64
        });
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 1 << n);
        assert_eq!(tabulated.len(), 1 << n);
        let mut masks: Vec<u64> = seen
            .iter()
            .map(|s| {
                assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?} not ascending");
                assert!(s.iter().all(|&v| v < n), "{s:?} leaves 0..{n}");
                s.iter().map(|&v| 1u64 << v).sum()
            })
            .collect();
        // Each value sits at its subset's membership bitmask.
        for (mask, v) in masks.iter().zip(&tabulated) {
            assert_eq!(*v, mask.count_ones() as f64);
        }
        masks.sort_unstable();
        assert!(masks.iter().copied().eq(0..1 << n), "a subset is missing");
    }

    #[test]
    fn empty_ground_set_passes_both_checks() {
        let calls = std::cell::Cell::new(0);
        let f = |s: &[usize]| {
            assert!(s.is_empty());
            calls.set(calls.get() + 1);
            7.0
        };
        assert!(verify_submodular(0, f, 0.0));
        assert!(verify_monotone(0, f, 0.0));
        assert_eq!(calls.get(), 2, "one call per check, on the empty set");
    }

    #[test]
    fn tolerance_forgives_rounding_but_not_a_real_violation() {
        // A constant function with only the full set nudged: raising it
        // breaks submodularity (the last marginal grows), lowering it
        // breaks monotonicity, each by exactly `eps`.
        let nudged = |eps: f64| move |s: &[usize]| if s.len() == 3 { 1.0 + eps } else { 1.0 };
        for (eps, tol, holds) in [
            (1e-12, 1e-9, true),
            (1e-12, 0.0, false),
            (1e-3, 1e-9, false),
        ] {
            assert_eq!(
                verify_submodular(3, nudged(eps), tol),
                holds,
                "raised {eps} tol {tol}"
            );
            assert!(verify_monotone(3, nudged(eps), tol));
            assert_eq!(
                verify_monotone(3, nudged(-eps), tol),
                holds,
                "lowered {eps} tol {tol}"
            );
            assert!(verify_submodular(3, nudged(-eps), tol));
        }
    }

    #[test]
    fn a_single_complementary_pair_is_found() {
        // Capped cardinality is submodular; a bonus for holding both 2
        // and 5 makes 5's marginal larger on {2} than on ∅ — one pair
        // among 64 subsets.
        let f = |s: &[usize]| {
            let bonus = if s.contains(&2) && s.contains(&5) {
                0.5
            } else {
                0.0
            };
            s.len().min(3) as f64 + bonus
        };
        assert!(!verify_submodular(6, f, 1e-9));
        assert!(verify_monotone(6, f, 1e-9));
        assert!(verify_submodular(
            6,
            |s: &[usize]| s.len().min(3) as f64,
            1e-9
        ));
    }

    #[test]
    #[should_panic(expected = "limited to 10 elements")]
    fn verify_submodular_refuses_eleven_elements() {
        verify_submodular(11, |s: &[usize]| s.len() as f64, 0.0);
    }

    #[test]
    #[should_panic(expected = "limited to 10 elements")]
    fn verify_monotone_refuses_eleven_elements() {
        verify_monotone(11, |s: &[usize]| s.len() as f64, 0.0);
    }
}
