//! The lane-batched evaluation kernel's data plane: a
//! structure-of-arrays probability matrix and a reusable scratch arena.
//!
//! Once a d-D or OBDD is compiled, probability evaluation is a *linear*
//! walk of an immutable artifact — yet a scalar walk per scenario pays a
//! fresh buffer allocation, a full gate decode, and a closure call per
//! variable, per scenario. The kernel amortizes all three: the same
//! walk, instantiated at `[f64; LANES]`, computes [`LANES`] scenarios in
//! one forward pass over the gate (or node) table, reading
//! per-variable probabilities from a [`ProbMatrix`] block and keeping
//! every intermediate in an [`EvalScratch`] that is grown once and
//! reused forever (zero heap allocations in steady state).
//!
//! **Bit-identity contract.** Each artifact kind has one walk —
//! [`Circuit::probability`](crate::Circuit::probability) and
//! [`ObddManager::probability`](crate::ObddManager::probability) —
//! generic over [`Num`](intext_numeric::Num), and the exact, f64 and
//! lane walks are its instantiations. The `[f64; L]` impl does the
//! `f64` operation in every lane, so lane `l` of
//! [`Circuit::probability_f64_many`](crate::Circuit::probability_f64_many)
//! is bit-identical to
//! [`Circuit::probability_f64`](crate::Circuit::probability_f64) under
//! lane `l`'s probabilities by construction: there is no second copy of
//! the operation order to drift. Batching is a performance knob, never
//! a semantics knob. The fixed-width inner loops over `LANES` are what
//! lets the compiler auto-vectorize the pass without changing that
//! order.
//!
//! See `DESIGN.md` §6 for the layout diagrams and the zero-allocation
//! argument; the `kernel` bench (E21 in `EXPERIMENTS.md`) measures the
//! payoff.

/// Number of scenarios one kernel invocation evaluates together.
///
/// Eight `f64` lanes fill one 64-byte cache line per variable block and
/// map onto one AVX-512 register (or two AVX2 / four NEON registers), so
/// the auto-vectorized inner loops stay register-resident. Ragged batch
/// tails simply leave trailing lanes unused — callers read back only the
/// lanes they filled.
pub const LANES: usize = 8;

/// Per-variable probabilities for a block of up to [`LANES`] scenarios,
/// in structure-of-arrays layout: variable-major, lane-minor, so the
/// `LANES` probabilities of one variable are one contiguous (and
/// cache-line-aligned-in-practice) block.
///
/// The matrix is a plain dense buffer indexed by variable id — in this
/// project variable ids are [`TupleId`]s, which are dense by
/// construction — and is meant to be **reused across blocks**:
/// [`reset`](Self::reset) only grows the backing storage, never shrinks
/// or reallocates it once the high-water mark is reached.
///
/// [`TupleId`]: https://docs.rs/intext-tid
#[derive(Clone, Debug, Default)]
pub struct ProbMatrix {
    vars: usize,
    data: Vec<f64>,
}

impl ProbMatrix {
    /// An empty matrix; size it with [`reset`](Self::reset).
    pub fn new() -> Self {
        ProbMatrix::default()
    }

    /// Prepares the matrix for a block over variables `0..vars`,
    /// growing the backing buffer if this is the largest block seen so
    /// far (newly grown lanes start at `0.0`). Lane contents from a
    /// previous block persist — callers overwrite every lane they will
    /// read back, and unread lanes are never observable.
    pub fn reset(&mut self, vars: usize) {
        self.vars = vars;
        let need = vars * LANES;
        if self.data.len() < need {
            self.data.resize(need, 0.0);
        }
    }

    /// Number of variables the matrix currently covers.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Sets variable `var`'s probability in scenario lane `lane`.
    ///
    /// # Panics
    /// Panics if `lane >= LANES` or `var` is outside the
    /// [`reset`](Self::reset) range.
    pub fn set(&mut self, var: u32, lane: usize, p: f64) {
        assert!(lane < LANES, "lane {lane} out of range");
        assert!((var as usize) < self.vars, "variable {var} out of range");
        self.data[var as usize * LANES + lane] = p;
    }

    /// The contiguous lane block of one variable — the leaf a
    /// lane-batched walk reads.
    #[inline]
    pub fn block(&self, var: u32) -> &[f64; LANES] {
        // Same contract as `set`: reads outside the `reset` range would
        // silently see stale data from an earlier, larger block (the
        // backing buffer never shrinks), so catch the misuse in debug
        // builds rather than index arithmetic hiding it.
        debug_assert!((var as usize) < self.vars, "variable {var} out of range");
        self.data[var as usize * LANES..][..LANES]
            .try_into()
            .expect("block is exactly LANES wide")
    }
}

/// Reusable dense buffers for the probability walks — the reason a
/// steady-state batch evaluation performs **zero heap allocations per
/// scenario**.
///
/// One scratch type serves every number type the walks are
/// instantiated at: `values` holds one `N` per gate (d-D) or per
/// reachable node (OBDD), and the remaining buffers are the OBDD walk's
/// reachability pass. All buffers grow to the largest artifact walked
/// through them and are then reused verbatim: `values` is resized to
/// the walk (allocating only past its high-water capacity) and every
/// slot is overwritten by the forward pass before it is read, the
/// reachability marks are un-set via the visit list (never a full
/// clear), and the position map needs no reset at all, because a walk
/// reads only the entries its own reachability pass just wrote. Shard
/// workers each own one scratch, so walks stay free of shared mutable
/// state.
#[derive(Debug)]
pub struct WalkScratch<N> {
    /// One running value per gate, or per reachable OBDD node in
    /// topological order.
    pub(crate) values: Vec<N>,
    /// OBDD reachability marks, indexed by node index; always all-false
    /// between walks.
    pub(crate) visited: Vec<bool>,
    /// DFS work stack for the OBDD reachability pass.
    pub(crate) stack: Vec<u32>,
    /// Reachable node indices in ascending (= topological) order.
    pub(crate) topo: Vec<u32>,
    /// Node index → position in `topo` (and in `values`), valid for the
    /// nodes the current walk reaches.
    pub(crate) pos: Vec<u32>,
}

/// The lane kernel's scratch: [`LANES`] running `f64`s per slot.
pub type EvalScratch = WalkScratch<[f64; LANES]>;

impl<N> Default for WalkScratch<N> {
    fn default() -> Self {
        WalkScratch {
            values: Vec::new(),
            visited: Vec::new(),
            stack: Vec::new(),
            topo: Vec::new(),
            pos: Vec::new(),
        }
    }
}

impl<N> WalkScratch<N> {
    /// A fresh scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        WalkScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_variable_major_lane_minor() {
        let mut m = ProbMatrix::new();
        m.reset(3);
        assert_eq!(m.vars(), 3);
        m.set(0, 0, 0.25);
        m.set(0, 7, 0.75);
        m.set(2, 3, 0.5);
        assert_eq!(m.block(0)[0], 0.25);
        assert_eq!(m.block(0)[7], 0.75);
        assert_eq!(m.block(2)[3], 0.5);
        assert_eq!(m.block(1), &[0.0; LANES]);
    }

    #[test]
    fn matrix_reset_grows_but_never_shrinks() {
        let mut m = ProbMatrix::new();
        m.reset(4);
        m.set(3, 1, 0.9);
        m.reset(2);
        assert_eq!(m.vars(), 2);
        m.reset(4);
        // The high-water buffer persisted; stale lanes are defined
        // (previous contents), just unread by well-behaved callers.
        assert_eq!(m.block(3)[1], 0.9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn matrix_rejects_out_of_range_vars() {
        let mut m = ProbMatrix::new();
        m.reset(2);
        m.set(2, 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn matrix_rejects_out_of_range_lanes() {
        let mut m = ProbMatrix::new();
        m.reset(2);
        m.set(0, LANES, 0.5);
    }

    #[test]
    fn scratch_buffers_grow_once_and_stay() {
        let mut m = crate::ObddManager::new(vec![0, 1, 2]);
        let x0 = m.literal(0, true);
        let x1 = m.literal(1, true);
        let x2 = m.literal(2, true);
        let t = m.and(x0, x1);
        let f = m.xor(t, x2);
        let mut probs = ProbMatrix::new();
        probs.reset(3);
        let mut s = EvalScratch::new();
        m.probability_f64_many(f, &probs, &mut s);
        let (values, slots) = (s.values.capacity(), s.visited.len());
        assert!(values >= s.topo.len() && slots >= s.topo.len());
        // A smaller walk reuses the same storage and leaves the marks
        // all-false for the next one.
        m.probability_f64_many(x0, &probs, &mut s);
        assert_eq!((s.values.capacity(), s.visited.len()), (values, slots));
        assert!(s.visited.iter().all(|&v| !v) && s.stack.is_empty());
    }
}
