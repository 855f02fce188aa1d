//! Extensional (lifted) probabilistic query evaluation for `H⁺`-queries.
//!
//! This is the baseline the paper's intensional pipeline is measured
//! against: Dalvi and Suciu's algorithm specialized to the `H`-query
//! vocabulary. For a monotone `φ` with minimized CNF clauses
//! `C_0, ..., C_n` (each a set of `h`-indices), Möbius inversion over the
//! CNF lattice (Definition 3.4, Appendix B.2) gives
//!
//! ```text
//! Pr(Q_φ) = Σ_{d ∈ L} µ(d, 1̂) · N(d),    N(d) = Pr(⋀_{j∈d} ¬h_{k,j})
//! ```
//!
//! The negative terms `N(d)` factorize over the maximal runs of
//! consecutive indices in `d`: a run not containing `0` or `k` decomposes
//! per `(a,b)` pair into a no-two-consecutive chain DP; a run containing
//! `0` (resp. `k`) groups by the x-value (resp. y-value) and conditions
//! on `R(a)` (resp. `T(b)`). The only non-factorizable run is the full
//! `[0..k]` — precisely the lattice bottom `0̂`, whose Möbius value is
//! zero exactly for the *safe* queries (Proposition 3.5), so the hard
//! subquery cancels and never needs to be evaluated. Asking for an unsafe
//! query returns [`ExtensionalError::NotSafe`].

mod lifted;
mod safety;

pub use lifted::{neg_h_probability, pqe_extensional, pqe_extensional_f64, ExtensionalError};
pub use safety::{is_safe, is_safe_euler, SafetyError};
