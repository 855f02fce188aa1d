//! The one arithmetic seam every probability walk is generic over.
//!
//! A d-D is evaluated with three rules — `∧ → ×`, `∨ → +`, `¬ → 1 − x`
//! (Monet 2020, Section 2) — and the lifted rules need nothing more, so
//! each walk is written once against [`Num`] and instantiated at exact
//! rationals, at `f64`, and at `[f64; L]` lanes.

use crate::BigRational;

/// The arithmetic a probability walk needs: constants `0` and `1`,
/// and `+`, `−`, `×`.
///
/// The `[f64; L]` impl runs `L` scenarios side by side: every lane does
/// the `f64` impl's operation, so lane `l` of any walk is bit-identical
/// to the same walk at `f64` under lane `l`'s inputs — by construction,
/// since both instantiate one source.
pub trait Num: Clone {
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// `self + other`.
    fn add(&self, other: &Self) -> Self;
    /// `self − other`.
    fn sub(&self, other: &Self) -> Self;
    /// `self × other`.
    fn mul(&self, other: &Self) -> Self;
}

/// A single-scenario [`Num`]: one that exact inputs and `f64` estimates
/// can enter.
pub trait Scalar: Num {
    /// `q` in this type: itself for [`BigRational`], rounded to nearest
    /// for `f64` (the same bits as [`BigRational::to_f64`]).
    fn from_exact(q: &BigRational) -> Self;
    /// `x` in this type. Lossless for both impls: every finite `f64` is
    /// a dyadic rational ([`BigRational::from_f64`]).
    ///
    /// # Panics
    /// The [`BigRational`] impl panics on NaN or an infinity.
    fn from_f64(x: f64) -> Self;
}

/// [`Num`] for a scalar type whose references implement `+`, `−` and
/// `×`.
macro_rules! scalar_num {
    ($t:ty, $zero:expr, $one:expr) => {
        impl Num for $t {
            fn zero() -> Self {
                $zero
            }
            fn one() -> Self {
                $one
            }
            fn add(&self, other: &Self) -> Self {
                self + other
            }
            fn sub(&self, other: &Self) -> Self {
                self - other
            }
            fn mul(&self, other: &Self) -> Self {
                self * other
            }
        }
    };
}

scalar_num!(BigRational, BigRational::zero(), BigRational::one());
scalar_num!(f64, 0.0, 1.0);

impl Scalar for BigRational {
    fn from_exact(q: &BigRational) -> Self {
        q.clone()
    }
    fn from_f64(x: f64) -> Self {
        BigRational::from_f64(x).expect("only finite f64 values have a rational value")
    }
}

impl Scalar for f64 {
    fn from_exact(q: &BigRational) -> Self {
        q.to_f64()
    }
    fn from_f64(x: f64) -> Self {
        x
    }
}

/// Applies `op` lane by lane; the fixed-width loop auto-vectorizes
/// without reordering any lane's operations.
#[inline]
fn lanewise<const L: usize>(a: &[f64; L], b: &[f64; L], op: impl Fn(f64, f64) -> f64) -> [f64; L] {
    let mut out = *a;
    for (o, &y) in out.iter_mut().zip(b) {
        *o = op(*o, y);
    }
    out
}

impl<const L: usize> Num for [f64; L] {
    fn zero() -> Self {
        [0.0; L]
    }
    fn one() -> Self {
        [1.0; L]
    }
    fn add(&self, other: &Self) -> Self {
        lanewise(self, other, |x, y| x + y)
    }
    fn sub(&self, other: &Self) -> Self {
        lanewise(self, other, |x, y| x - y)
    }
    fn mul(&self, other: &Self) -> Self {
        lanewise(self, other, |x, y| x * y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_do_the_scalar_ops() {
        let a = [0.1, 0.7, 1.0, 0.0];
        let b = [0.3, 0.2, 0.5, 1.0];
        for l in 0..4 {
            assert_eq!(a.add(&b)[l].to_bits(), Num::add(&a[l], &b[l]).to_bits());
            assert_eq!(a.sub(&b)[l].to_bits(), Num::sub(&a[l], &b[l]).to_bits());
            assert_eq!(a.mul(&b)[l].to_bits(), Num::mul(&a[l], &b[l]).to_bits());
        }
        assert_eq!(<[f64; 4]>::zero(), [0.0; 4]);
        assert_eq!(<[f64; 4]>::one(), [1.0; 4]);
    }

    #[test]
    fn scalar_conversions_agree() {
        let q = BigRational::from_ratio(1, 3);
        assert_eq!(f64::from_exact(&q).to_bits(), q.to_f64().to_bits());
        assert_eq!(<BigRational as Scalar>::from_exact(&q), q);
        let x = 0.1f64;
        assert_eq!(<BigRational as Scalar>::from_f64(x).to_f64(), x);
        assert_eq!(<f64 as Scalar>::from_f64(x), x);
        let r = BigRational::from_ratio(2, 5);
        assert_eq!(q.add(&r), &q + &r);
        assert_eq!(q.sub(&r), &q - &r);
        assert_eq!(q.mul(&r), &q * &r);
    }
}
