//! Brute-force probabilistic query evaluation: the exact, exponential
//! ground truth (`Pr(Q, (D,π)) = Σ_{D' |= Q} Pr(D')`, Section 2).
//!
//! This is also the honest baseline for *unsafe* queries: when
//! `PQE(Q_φ)` is `#P`-hard no polynomial algorithm is expected to exist,
//! and the scaling experiment (EXPERIMENTS.md, E15) contrasts this
//! evaluator's exponential growth with the paper's polynomial d-D
//! pipeline on safe queries.

use std::fmt;

use intext_boolfn::BoolFn;
use intext_numeric::{BigRational, Scalar};
use intext_tid::{Database, Tid, TupleId};

use crate::{h_witnesses, HQuery};

/// Errors from the brute-force evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BruteForceError {
    /// More tuples than the world bitmask supports.
    TooManyTuples(usize),
}

impl fmt::Display for BruteForceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BruteForceError::TooManyTuples(n) => {
                write!(f, "brute force supports < 64 tuples, got {n}")
            }
        }
    }
}

impl std::error::Error for BruteForceError {}

/// Precomputed per-`h` witness masks for fast world evaluation.
fn witness_masks(q: &HQuery, tid: &Tid) -> Vec<Vec<u64>> {
    (0..=q.k())
        .map(|i| {
            h_witnesses(tid.database(), i)
                .into_iter()
                .map(|(t1, t2)| (1u64 << t1.0) | (1u64 << t2.0))
                .collect()
        })
        .collect()
}

fn world_truth(phi: &BoolFn, masks: &[Vec<u64>], world: u64) -> bool {
    let mut truth = 0u32;
    for (i, ms) in masks.iter().enumerate() {
        // False positive of clippy::manual_contains: `m` is bound on both
        // sides (witness-mask inclusion, not membership).
        #[allow(clippy::manual_contains)]
        if ms.iter().any(|&m| world & m == m) {
            truth |= 1 << i;
        }
    }
    phi.eval(truth)
}

/// Per tuple, the world-weight factors `p` (tuple kept) and `1 − p`
/// (dropped), each `None` when exactly zero — so world enumerations can
/// skip weight-zero worlds without comparing values of type `N`.
pub(crate) fn weight_factors<N: Scalar>(tid: &Tid) -> Vec<(Option<N>, Option<N>)> {
    (0..tid.len())
        .map(|i| {
            let p = tid.prob(TupleId(i as u32));
            let kept = N::from_exact(p);
            let dropped = N::one().sub(&kept);
            (
                (!p.is_zero()).then_some(kept),
                (!p.is_one()).then_some(dropped),
            )
        })
        .collect()
}

/// The total weight of the worlds of `tid` whose sub-database
/// satisfies `holds`, enumerating all `2^|D|` worlds and materializing
/// each one of nonzero weight — the query-agnostic oracle behind the
/// general brute-force evaluators.
pub(crate) fn sum_worlds<N: Scalar>(
    tid: &Tid,
    holds: impl Fn(&Database) -> bool,
) -> Result<N, BruteForceError> {
    let db = tid.database();
    let m = db.len();
    if m >= 64 {
        return Err(BruteForceError::TooManyTuples(m));
    }
    let factors = weight_factors::<N>(tid);
    let mut total = N::zero();
    'worlds: for world in 0u64..(1u64 << m) {
        let mut weight = N::one();
        for (i, (kept, dropped)) in factors.iter().enumerate() {
            match if world >> i & 1 == 1 { kept } else { dropped } {
                Some(f) => weight = weight.mul(f),
                None => continue 'worlds,
            }
        }
        let mut sub = Database::new(db.k(), db.domain_size());
        for i in (0..m).filter(|i| world >> i & 1 == 1) {
            sub.insert(db.describe(TupleId(i as u32)))
                .expect("tuples re-insert into an equal-shape database");
        }
        if holds(&sub) {
            total = total.add(&weight);
        }
    }
    Ok(total)
}

/// Brute-force `PQE(Q_φ)` by summing over all `2^|D|` worlds, in any
/// scalar number type ([`BigRational`] or `f64`).
///
/// The recursion shares partial products along world prefixes, so the
/// total cost is `O(2^|D|)` multiplications plus a witness scan per
/// world. A tuple of probability `0` (`1`) prunes the branch that keeps
/// (drops) it: every world below has weight zero.
pub fn pqe_brute_force_as<N: Scalar>(q: &HQuery, tid: &Tid) -> Result<N, BruteForceError> {
    let m = tid.len();
    if m >= 64 {
        return Err(BruteForceError::TooManyTuples(m));
    }
    let masks = witness_masks(q, tid);
    let branches = weight_factors::<N>(tid);
    fn rec<N: Scalar>(
        phi: &BoolFn,
        masks: &[Vec<u64>],
        branches: &[(Option<N>, Option<N>)],
        depth: usize,
        world: u64,
        weight: N,
    ) -> N {
        let Some((kept, dropped)) = branches.get(depth) else {
            return if world_truth(phi, masks, world) {
                weight
            } else {
                N::zero()
            };
        };
        let branch = |factor: &Option<N>, world: u64| {
            factor.as_ref().map_or_else(N::zero, |f| {
                rec(phi, masks, branches, depth + 1, world, weight.mul(f))
            })
        };
        branch(kept, world | (1 << depth)).add(&branch(dropped, world))
    }
    Ok(rec(q.phi(), &masks, &branches, 0, 0, N::one()))
}

/// Exact [`pqe_brute_force_as`]: the ground truth every other engine is
/// checked against.
pub fn pqe_brute_force(q: &HQuery, tid: &Tid) -> Result<BigRational, BruteForceError> {
    pqe_brute_force_as(q, tid)
}

/// `f64` [`pqe_brute_force_as`].
pub fn pqe_brute_force_f64(q: &HQuery, tid: &Tid) -> Result<f64, BruteForceError> {
    pqe_brute_force_as(q, tid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::{phi9, BoolFn};
    use intext_tid::{random_tid, uniform_tid, Database, DbGenConfig, TupleDesc};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    #[test]
    fn single_h_query_probability_by_hand() {
        // Q = h_{1,0} = ∃x∃y R(x)∧S1(x,y); D = {R(0), S1(0,0)} with
        // probabilities 1/2 and 1/3: Pr = 1/6.
        let mut db = Database::new(1, 1);
        db.insert(TupleDesc::R(0)).unwrap();
        db.insert(TupleDesc::S(1, 0, 0)).unwrap();
        let tid = intext_tid::Tid::new(db, vec![r(1, 2), r(1, 3)]).unwrap();
        let q = HQuery::new(BoolFn::var(2, 0));
        assert_eq!(pqe_brute_force(&q, &tid).unwrap(), r(1, 6));
    }

    #[test]
    fn negated_query_complements() {
        let mut db = Database::new(1, 1);
        db.insert(TupleDesc::R(0)).unwrap();
        db.insert(TupleDesc::S(1, 0, 0)).unwrap();
        let tid = intext_tid::Tid::new(db, vec![r(1, 2), r(1, 3)]).unwrap();
        let q = HQuery::new(BoolFn::var(2, 0));
        let nq = HQuery::new(!&BoolFn::var(2, 0));
        let p = pqe_brute_force(&q, &tid).unwrap();
        let np = pqe_brute_force(&nq, &tid).unwrap();
        assert!((&p + &np).is_one());
    }

    #[test]
    fn tautology_and_contradiction() {
        let tid = uniform_tid(intext_tid::complete_database(2, 2), r(1, 2));
        let top = HQuery::new(BoolFn::top(3));
        let bot = HQuery::new(BoolFn::bottom(3));
        assert!(pqe_brute_force(&top, &tid).unwrap().is_one());
        assert!(pqe_brute_force(&bot, &tid).unwrap().is_zero());
    }

    #[test]
    fn f64_matches_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let db = intext_tid::random_database(
            &DbGenConfig {
                k: 3,
                domain_size: 2,
                density: 0.8,
                prob_denominator: 10,
            },
            &mut rng,
        );
        let tid = random_tid(db, 10, &mut rng);
        let q = HQuery::new(phi9());
        let exact = pqe_brute_force(&q, &tid).unwrap().to_f64();
        let fast = pqe_brute_force_f64(&q, &tid).unwrap();
        assert!((exact - fast).abs() < 1e-12, "{exact} vs {fast}");
    }

    #[test]
    fn deterministic_worlds_reduce_to_model_checking() {
        // All probabilities 1: Pr(Q) = [D |= Q].
        let mut db = Database::new(3, 2);
        db.insert(TupleDesc::R(0)).unwrap();
        db.insert(TupleDesc::S(1, 0, 1)).unwrap();
        let tid = uniform_tid(db, BigRational::one());
        let q = HQuery::new(BoolFn::var(4, 0)); // h_{3,0}
        assert!(pqe_brute_force(&q, &tid).unwrap().is_one());
        let q1 = HQuery::new(BoolFn::var(4, 1)); // h_{3,1}: no S2 tuples
        assert!(pqe_brute_force(&q1, &tid).unwrap().is_zero());
    }

    #[test]
    fn too_many_tuples_is_reported() {
        let tid = uniform_tid(intext_tid::complete_database(3, 5), r(1, 2));
        let q = HQuery::new(phi9());
        assert!(matches!(
            pqe_brute_force(&q, &tid),
            Err(BruteForceError::TooManyTuples(_))
        ));
    }
}
