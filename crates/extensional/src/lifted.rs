//! Lifted inference: Möbius inversion plus run-factorized closed forms.

use std::fmt;

use intext_lattice::cnf_lattice;
use intext_numeric::BigRational;
use intext_query::HQuery;
use intext_tid::{Tid, TupleDesc};

/// Errors from the extensional engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtensionalError {
    /// Extensional evaluation covers UCQs only (monotone `φ`).
    NotMonotone,
    /// The query is unsafe (`µ_CNF(0̂,1̂) ≠ 0`): `PQE` is `#P`-hard and
    /// the lifted algorithm cannot apply.
    NotSafe,
    /// Database vocabulary mismatch.
    VocabularyMismatch {
        /// `k` expected by the query.
        expected: u8,
        /// `k` of the database.
        got: u8,
    },
}

impl fmt::Display for ExtensionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtensionalError::NotMonotone => {
                write!(f, "extensional evaluation requires a monotone φ (a UCQ)")
            }
            ExtensionalError::NotSafe => {
                write!(f, "query is unsafe: µ_CNF(0̂,1̂) ≠ 0, PQE is #P-hard")
            }
            ExtensionalError::VocabularyMismatch { expected, got } => {
                write!(f, "query is over k={expected} but database has k={got}")
            }
        }
    }
}

impl std::error::Error for ExtensionalError {}

/// Probability that a *potential* tuple is present: its TID probability
/// when it exists in the database, zero otherwise.
fn tuple_prob(tid: &Tid, t: TupleDesc) -> BigRational {
    match tid.database().tuple_id(t) {
        Some(id) => tid.prob(id).clone(),
        None => BigRational::zero(),
    }
}

/// `Pr(no two consecutive present)` over a chain of presence
/// probabilities — the inner DP of the run factorization.
fn chain_no_consecutive(probs: &[BigRational]) -> BigRational {
    // a = Pr(ok, last absent), b = Pr(ok, last present).
    let mut a = BigRational::one();
    let mut b = BigRational::zero();
    for p in probs {
        let na = &p.complement() * &(&a + &b);
        let nb = p * &a;
        a = na;
        b = nb;
    }
    &a + &b
}

/// Decomposes a set of `h`-indices (bitmask) into maximal runs of
/// consecutive indices `[i..=j]`.
fn runs(d: u32, k: u8) -> Vec<(u8, u8)> {
    let mut out = Vec::new();
    let mut i = 0u8;
    while i <= k {
        if d & (1 << i) == 0 {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < k && d & (1 << (j + 1)) != 0 {
            j += 1;
        }
        out.push((i, j));
        i = j + 1;
    }
    out
}

/// `N(d) = Pr(⋀_{j∈d} ¬h_{k,j})`: the probability that none of the
/// selected `h` queries holds, computed in closed form by independence
/// across runs and across groups (PTIME in the database).
///
/// # Panics
/// Panics if `d` contains the full run `[0..k]` (the `#P`-hard bottom
/// element — callers skip it because its Möbius coefficient is zero for
/// safe queries).
pub fn neg_h_probability(tid: &Tid, d: u32) -> BigRational {
    let db = tid.database();
    let k = db.k();
    let n = db.domain_size();
    let mut acc = BigRational::one();
    for (i, j) in runs(d, k) {
        assert!(
            !(i == 0 && j == k),
            "N(d) with the full run [0..k] is the #P-hard bottom element"
        );
        let run_prob = if i >= 1 && j < k {
            // Middle run: independent per (a, b) pair over S_i..S_{j+1}.
            let mut p = BigRational::one();
            for a in 0..n {
                for b in 0..n {
                    let chain: Vec<BigRational> = (i..=j + 1)
                        .map(|c| tuple_prob(tid, TupleDesc::S(c, a, b)))
                        .collect();
                    p = &p * &chain_no_consecutive(&chain);
                }
            }
            p
        } else if i == 0 {
            // Run [0..j], j < k: group by the x-value, condition on R(a).
            let mut p = BigRational::one();
            for a in 0..n {
                // R(a) absent: only the middle constraints S_1..S_{j+1}.
                let mut free = BigRational::one();
                // R(a) present: additionally S_1(a,b) absent for all b.
                let mut constrained = BigRational::one();
                for b in 0..n {
                    let chain: Vec<BigRational> = (1..=j + 1)
                        .map(|c| tuple_prob(tid, TupleDesc::S(c, a, b)))
                        .collect();
                    free = &free * &chain_no_consecutive(&chain);
                    let s1_absent = chain[0].complement();
                    let rest = chain_no_consecutive(&chain[1..]);
                    constrained = &constrained * &(&s1_absent * &rest);
                }
                let pr = tuple_prob(tid, TupleDesc::R(a));
                p = &p * &(&(&pr.complement() * &free) + &(&pr * &constrained));
            }
            p
        } else {
            // Run [i..k], i > 0: group by the y-value, condition on T(b).
            let mut p = BigRational::one();
            for b in 0..n {
                let mut free = BigRational::one();
                let mut constrained = BigRational::one();
                for a in 0..n {
                    let chain: Vec<BigRational> = (i..=k)
                        .map(|c| tuple_prob(tid, TupleDesc::S(c, a, b)))
                        .collect();
                    free = &free * &chain_no_consecutive(&chain);
                    let sk_absent = chain[chain.len() - 1].complement();
                    let rest = chain_no_consecutive(&chain[..chain.len() - 1]);
                    constrained = &constrained * &(&sk_absent * &rest);
                }
                let pt = tuple_prob(tid, TupleDesc::T(b));
                p = &p * &(&(&pt.complement() * &free) + &(&pt * &constrained));
            }
            p
        };
        acc = &acc * &run_prob;
    }
    acc
}

/// Extensional `PQE(Q_φ)` by lifted inference (Proposition 3.5 +
/// Appendix B.2): `Pr = Σ_{d∈L} µ(d,1̂)·N(d)`, with the `#P`-hard bottom
/// term cancelled by its zero Möbius coefficient for safe queries.
pub fn pqe_extensional(q: &HQuery, tid: &Tid) -> Result<BigRational, ExtensionalError> {
    let phi = q.phi();
    if !phi.is_monotone() {
        return Err(ExtensionalError::NotMonotone);
    }
    if tid.database().k() != q.k() {
        return Err(ExtensionalError::VocabularyMismatch {
            expected: q.k(),
            got: tid.database().k(),
        });
    }
    if phi.is_bottom() {
        // Short-circuit before building a lattice: ⊥ holds nowhere.
        return Ok(BigRational::zero());
    }
    let lat = cnf_lattice(phi);
    let full = (1u32 << phi.num_vars()) - 1;
    let mut acc = BigRational::zero();
    for (idx, &d) in lat.elements.iter().enumerate() {
        let mu = lat.mobius_to_top[idx];
        if mu == 0 {
            continue;
        }
        if d == full {
            // Nonzero coefficient on the hard bottom: unsafe query.
            return Err(ExtensionalError::NotSafe);
        }
        let term = neg_h_probability(tid, d);
        let mu_rat = BigRational::from_int(mu);
        acc = &acc + &(&mu_rat * &term);
    }
    Ok(acc)
}

/// `f64` wrapper around [`pqe_extensional`] (exact computation, lossy
/// conversion at the end; the rationals involved stay small).
pub fn pqe_extensional_f64(q: &HQuery, tid: &Tid) -> Result<f64, ExtensionalError> {
    pqe_extensional(q, tid).map(|p| p.to_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::{enumerate, phi9, small, BoolFn};
    use intext_query::pqe_brute_force;
    use intext_tid::{complete_database, random_database, random_tid, DbGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn runs_decomposition() {
        assert_eq!(runs(0b0000, 3), vec![]);
        assert_eq!(runs(0b0001, 3), vec![(0, 0)]);
        assert_eq!(runs(0b1011, 3), vec![(0, 1), (3, 3)]);
        assert_eq!(runs(0b0110, 3), vec![(1, 2)]);
        assert_eq!(runs(0b1111, 3), vec![(0, 3)]);
    }

    #[test]
    fn chain_dp_matches_enumeration() {
        let probs: Vec<BigRational> = [1, 2, 3]
            .iter()
            .map(|&x| BigRational::from_ratio(x, 4))
            .collect();
        // Enumerate all presence patterns of the 3-chain.
        let mut expect = BigRational::zero();
        for m in 0u32..8 {
            if (m & 0b011) == 0b011 || (m & 0b110) == 0b110 {
                continue; // two consecutive present
            }
            let mut w = BigRational::one();
            for (i, p) in probs.iter().enumerate() {
                w = &w
                    * &if (m >> i) & 1 == 1 {
                        p.clone()
                    } else {
                        p.complement()
                    };
            }
            expect = &expect + &w;
        }
        assert_eq!(chain_no_consecutive(&probs), expect);
    }

    #[test]
    fn neg_h_matches_brute_force() {
        // N(d) = Pr(⋀ ¬h_j) verified against brute force for every
        // non-full d on random instances.
        let mut rng = StdRng::seed_from_u64(9);
        let db = random_database(
            &DbGenConfig {
                k: 2,
                domain_size: 2,
                density: 0.7,
                prob_denominator: 7,
            },
            &mut rng,
        );
        let tid = random_tid(db, 7, &mut rng);
        for d in 0..0b111u32 {
            // ⋀_{j∈d} ¬h_j as an H-query: φ(v) = (v ∩ d == ∅).
            let phi = BoolFn::from_fn(3, |v| v & d == 0);
            let q = HQuery::new(phi);
            let expect = pqe_brute_force(&q, &tid).unwrap();
            assert_eq!(neg_h_probability(&tid, d), expect, "d={d:#b}");
        }
    }

    #[test]
    #[should_panic(expected = "#P-hard bottom")]
    fn full_run_rejected() {
        let tid = intext_tid::uniform_tid(complete_database(2, 1), BigRational::from_ratio(1, 2));
        let _ = neg_h_probability(&tid, 0b111);
    }

    #[test]
    fn phi9_extensional_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..3 {
            let db = random_database(
                &DbGenConfig {
                    k: 3,
                    domain_size: 2,
                    density: 0.6,
                    prob_denominator: 5,
                },
                &mut rng,
            );
            let tid = random_tid(db, 5, &mut rng);
            let q = HQuery::new(phi9());
            let lifted = pqe_extensional(&q, &tid).unwrap();
            let brute = pqe_brute_force(&q, &tid).unwrap();
            assert_eq!(lifted, brute, "trial {trial}");
        }
    }

    #[test]
    fn all_safe_monotone_k2_match_brute_force() {
        // Every safe monotone function on k = 2 against ground truth.
        let mut rng = StdRng::seed_from_u64(31);
        let db = random_database(
            &DbGenConfig {
                k: 2,
                domain_size: 2,
                density: 0.8,
                prob_denominator: 6,
            },
            &mut rng,
        );
        let tid = random_tid(db, 6, &mut rng);
        let mut safe_checked = 0;
        for t in enumerate::monotone_tables(3) {
            let phi = BoolFn::from_table_u64(3, t);
            let q = HQuery::new(phi.clone());
            match pqe_extensional(&q, &tid) {
                Ok(p) => {
                    let brute = pqe_brute_force(&q, &tid).unwrap();
                    assert_eq!(p, brute, "t={t:#x}");
                    safe_checked += 1;
                }
                Err(ExtensionalError::NotSafe) => {
                    assert_ne!(small::euler(3, t), 0, "safe query rejected: {t:#x}");
                }
                Err(e) => panic!("unexpected error {e:?} for t={t:#x}"),
            }
        }
        assert!(
            safe_checked > 5,
            "only {safe_checked} safe functions checked"
        );
    }

    #[test]
    fn unsafe_query_rejected() {
        let tid = intext_tid::uniform_tid(complete_database(3, 2), BigRational::from_ratio(1, 2));
        // The hard query: all h's in one disjunction.
        let q = HQuery::new(BoolFn::from_fn(4, |v| v != 0));
        assert_eq!(
            pqe_extensional(&q, &tid).unwrap_err(),
            ExtensionalError::NotSafe
        );
    }

    #[test]
    fn non_monotone_rejected() {
        let tid = intext_tid::uniform_tid(complete_database(3, 1), BigRational::from_ratio(1, 2));
        let q = HQuery::new(!&phi9());
        assert_eq!(
            pqe_extensional(&q, &tid).unwrap_err(),
            ExtensionalError::NotMonotone
        );
    }

    #[test]
    fn constants_evaluate() {
        let tid = intext_tid::uniform_tid(complete_database(2, 2), BigRational::from_ratio(1, 3));
        assert!(pqe_extensional(&HQuery::new(BoolFn::top(3)), &tid)
            .unwrap()
            .is_one());
        assert!(pqe_extensional(&HQuery::new(BoolFn::bottom(3)), &tid)
            .unwrap()
            .is_zero());
    }
}
