//! The benchmark's inputs: the warm query/shape pairs, the seeded
//! request stream of every connection, and the never-seen cold shapes.
//!
//! Every request is a pure function of `(seed, stream, index)`, so the
//! answer oracle and the in-process replays regenerate exactly the
//! requests the load generator sent without storing them.

use std::collections::HashSet;
use std::sync::Arc;

use intext_boolfn::{phi9, BoolFn};
use intext_query::{HQuery, Query};
use intext_serve::Request;
use intext_tid::{
    complete_database, random_database, random_tid, Database, DbGenConfig, Tid, TupleDesc,
    Vocabulary,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Dalvi–Suciu-safe UCQ that is not H-shaped, so the engine answers
/// it with the lifted plan. (`R(x), S1(x,y)` alone is recognised as
/// `h_{1,0}` and compiled to an OBDD; the `| T(y)` disjunct keeps it on
/// the lifted evaluator.)
pub const LIFTED_TEXT: &str = "R(x), S1(x,y) | T(y)";
/// The canonical unsafe join: grounded to a circuit and cached.
pub const UNSAFE_TEXT: &str = "R(x), S1(x,y), T(y)";

/// Scenarios in one `BatchF64` request of the sweep.
pub const SWEEP_BATCH: usize = 256;
/// Lane-kernel fan-out requested by the sweep.
pub const SWEEP_SHARDS: usize = 2;
/// Scenarios in one exact `Batch` request of the sweep.
pub const SWEEP_EXACT: usize = 2;
/// Never-seen shapes the cold writer sends per run, whatever the run
/// length: memory and compile work stay equal from run to run.
pub const COLD_SHAPES: usize = 100;
/// Server set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 10;

/// Requests each connection completes even when the window is over, so
/// the traced prefix the counts are taken on is always sent.
pub const READER_MIN: usize = 32;
/// As [`READER_MIN`], for the sweep connection (two full cycles).
pub const SWEEPER_MIN: usize = 8;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two point readers over the four warm pairs.
    WarmPoint,
    /// A batch sweeper beside one point reader.
    ScenarioSweep,
    /// A cold-shape writer beside one point reader.
    ColdChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WarmPoint,
        Workload::ScenarioSweep,
        Workload::ColdChurn,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmPoint => "warm_point",
            Workload::ScenarioSweep => "scenario_sweep",
            Workload::ColdChurn => "cold_churn",
        }
    }

    /// One role per connection, in connection order.
    pub fn roles(self) -> [Role; 2] {
        match self {
            Workload::WarmPoint => [Role::Reader, Role::Reader],
            Workload::ScenarioSweep => [Role::Reader, Role::Sweeper],
            Workload::ColdChurn => [Role::Reader, Role::ColdWriter],
        }
    }
}

/// What one closed-loop connection sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Single-scenario `EvaluateF64` requests, round-robin over the
    /// warm pairs.
    Reader,
    /// `BatchF64` over the φ9 d-D and the `h_{3,0}` OBDD in turn, each
    /// followed by an exact `Batch` of φ9 scenarios.
    Sweeper,
    /// Never-seen shapes, cycling through three kinds, paced over the
    /// window.
    ColdWriter,
}

impl Role {
    /// Requests per cycle of the stream; tracing alternates whole
    /// cycles so traced and untraced requests carry the same mix.
    pub fn period(self) -> usize {
        match self {
            Role::Reader => PAIRS,
            Role::Sweeper => 4,
            Role::ColdWriter => COLD_KINDS,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Role::Reader => "reader",
            Role::Sweeper => "sweeper",
            Role::ColdWriter => "cold_writer",
        }
    }
}

/// Whether request `index` of a stream with this role goes through the
/// traced client path (in a traced run).
pub fn traced_index(role: Role, index: usize) -> bool {
    (index / role.period()) % 2 == 1
}

/// The traced requests the deterministic counts are taken on: the
/// traced ones among the first [`READER_MIN`] / [`SWEEPER_MIN`]
/// requests, and every traced cold request.
pub fn in_count_prefix(role: Role, index: usize) -> bool {
    traced_index(role, index)
        && match role {
            Role::Reader => index < READER_MIN,
            Role::Sweeper => index < SWEEPER_MIN,
            Role::ColdWriter => true,
        }
}

/// How a request's latency is classed in the metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A single-scenario request on a compiled shape.
    Point,
    /// A first touch of a shape the server has not seen.
    Cold,
    /// A lane-kernel f64 batch.
    BatchF64,
    /// An exact batch.
    Exact,
}

/// Warm query/shape pairs the readers cycle through.
pub const PAIRS: usize = 4;

/// One pre-warmed query on a fixed shape. Shapes are complete
/// databases, so the work per request does not depend on the seed:
/// only the probabilities do.
pub struct Pair {
    pub label: &'static str,
    pub query: Query,
    pub shape: Database,
}

/// The shapes a workload warms at set-up. The first [`PAIRS`] are the
/// reader mix: φ9 d-D (k=3, domain 6), `h_{3,0}` OBDD (domain 16), the
/// lifted safe UCQ (k=1, domain 16), the grounded unsafe UCQ (k=1,
/// domain 5). `scenario_sweep` adds the φ9 d-D at domain 4 its exact
/// batches walk: exact φ9 at domain 6 costs about 135 ms a scenario, so
/// a few of them would swamp the sweep's f64 batches and its noise.
pub fn warm_pairs(workload: Workload) -> Vec<Pair> {
    let voc = Vocabulary::h(1);
    let mut pairs = vec![
        Pair {
            label: "phi9_dd",
            query: HQuery::new(phi9()).into(),
            shape: complete_database(3, 6),
        },
        Pair {
            label: "h30_obdd",
            query: HQuery::new(BoolFn::var(4, 0)).into(),
            shape: complete_database(3, 16),
        },
        Pair {
            label: "ucq_lifted",
            query: Query::parse(LIFTED_TEXT, &voc).expect("LIFTED_TEXT parses"),
            shape: complete_database(1, 16),
        },
        Pair {
            label: "ucq_grounded",
            query: Query::parse(UNSAFE_TEXT, &voc).expect("UNSAFE_TEXT parses"),
            shape: complete_database(1, 5),
        },
    ];
    if workload == Workload::ScenarioSweep {
        pairs.push(Pair {
            label: "phi9_dd",
            query: HQuery::new(phi9()).into(),
            shape: complete_database(3, 4),
        });
    }
    pairs
}

/// Index of the φ9 d-D pair in [`warm_pairs`].
pub const PHI9_PAIR: usize = 0;
/// Index of the `h_{3,0}` OBDD pair in [`warm_pairs`].
pub const H30_PAIR: usize = 1;
/// Index of the sweep's exact-batch pair in [`warm_pairs`].
pub const EXACT_PAIR: usize = PAIRS;

/// Kinds of never-seen shape the cold writer cycles through.
pub const COLD_KINDS: usize = 3;

/// Cold kind `kind`: the query and the random-shape generator settings
/// (φ9 d-D at domain 4, `h_{3,0}` at domain 16, the unsafe UCQ at
/// domain 5; each potential tuple present with probability 0.8).
pub fn cold_kind(kind: usize) -> (&'static str, Query, DbGenConfig) {
    let cfg = |k, domain_size| DbGenConfig {
        k,
        domain_size,
        density: 0.8,
        prob_denominator: 10,
    };
    match kind % COLD_KINDS {
        0 => ("phi9_dd", HQuery::new(phi9()).into(), cfg(3, 4)),
        1 => (
            "h30_obdd",
            HQuery::new(BoolFn::var(4, 0)).into(),
            cfg(3, 16),
        ),
        _ => (
            "ucq_grounded",
            Query::parse(UNSAFE_TEXT, &Vocabulary::h(1)).expect("UNSAFE_TEXT parses"),
            cfg(1, 5),
        ),
    }
}

/// Stream ids: each names an independent seeded RNG stream.
pub mod stream {
    /// Connection `c`'s request stream.
    pub fn connection(c: usize) -> u64 {
        1 + c as u64
    }
    /// The never-seen shapes of the cold writer.
    pub const COLD: u64 = 50;
    /// Extra cold shapes the lock-contention probe compiles.
    pub const PROBE_COLD: u64 = 60;
    /// Scenarios of the in-process engine probes.
    pub const PROBE: u64 = 70;
    /// Set-up `r`'s warm-up requests.
    pub fn setup(r: usize) -> u64 {
        100 + r as u64
    }
}

/// SplitMix64 finaliser: spreads `(seed, stream)` over the RNG's seed
/// space.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ mix(stream)))
}

/// Fresh probabilities `k/10`, `1 ≤ k ≤ 9`, on a fixed shape, as in
/// `intext_bench::bench_tid`.
pub fn scenario(shape: &Database, rng: &mut StdRng) -> Tid {
    random_tid(shape.clone(), 10, rng)
}

/// The warm-up of set-up `r`: one first-touch `EvaluateF64` per warm
/// pair.
pub fn setup_requests(pairs: &[Pair], seed: u64, r: usize) -> Vec<Request> {
    let mut rng = stream_rng(seed, stream::setup(r));
    pairs
        .iter()
        .map(|p| Request::EvaluateF64 {
            q: p.query.clone(),
            tid: scenario(&p.shape, &mut rng),
        })
        .collect()
}

/// A generated request and how its latency is classed.
pub struct Generated {
    pub request: Request,
    pub class: Class,
}

/// Generates one connection's requests in order.
pub struct Stream {
    role: Role,
    conn: usize,
    next: usize,
    rng: StdRng,
    pairs: Arc<[Pair]>,
    cold: Option<ColdShapes>,
}

impl Stream {
    pub fn new(role: Role, conn: usize, seed: u64, pairs: Arc<[Pair]>) -> Stream {
        Stream {
            role,
            conn,
            next: 0,
            rng: stream_rng(seed, stream::connection(conn)),
            cold: (role == Role::ColdWriter).then(|| ColdShapes::new(seed, stream::COLD, &pairs)),
            pairs,
        }
    }

    pub fn role(&self) -> Role {
        self.role
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Generated {
        let i = self.next;
        self.next += 1;
        match self.role {
            Role::Reader => {
                let p = &self.pairs[(i + self.conn) % PAIRS];
                Generated {
                    request: Request::EvaluateF64 {
                        q: p.query.clone(),
                        tid: scenario(&p.shape, &mut self.rng),
                    },
                    class: Class::Point,
                }
            }
            Role::Sweeper => {
                // φ9 f64, φ9 exact, h_{3,0} f64, φ9 exact, ...
                if i.is_multiple_of(2) {
                    let p = &self.pairs[if i % 4 == 2 { H30_PAIR } else { PHI9_PAIR }];
                    let tids = (0..SWEEP_BATCH)
                        .map(|_| scenario(&p.shape, &mut self.rng))
                        .collect();
                    Generated {
                        request: Request::BatchF64 {
                            q: p.query.clone(),
                            tids,
                            shards: SWEEP_SHARDS,
                        },
                        class: Class::BatchF64,
                    }
                } else {
                    let p = &self.pairs[EXACT_PAIR];
                    let tids = (0..SWEEP_EXACT)
                        .map(|_| scenario(&p.shape, &mut self.rng))
                        .collect();
                    Generated {
                        request: Request::Batch {
                            q: p.query.clone(),
                            tids,
                        },
                        class: Class::Exact,
                    }
                }
            }
            Role::ColdWriter => {
                let (query, tid) = self
                    .cold
                    .as_mut()
                    .expect("a cold writer owns a shape stream")
                    .next_shape();
                Generated {
                    request: Request::EvaluateF64 { q: query, tid },
                    class: Class::Cold,
                }
            }
        }
    }
}

/// A seeded stream of never-seen `(query, scenario)` pairs, cycling
/// through the [`COLD_KINDS`] kinds. A shape drawn twice (or equal to a
/// warm shape) is redrawn, so every request is a first touch.
pub struct ColdShapes {
    rng: StdRng,
    next: usize,
    seen: HashSet<(usize, Vec<TupleDesc>)>,
}

impl ColdShapes {
    pub fn new(seed: u64, stream: u64, pairs: &[Pair]) -> ColdShapes {
        let mut seen = HashSet::new();
        for kind in 0..COLD_KINDS {
            for p in pairs {
                seen.insert((kind, tuples(&p.shape)));
            }
        }
        ColdShapes {
            rng: stream_rng(seed, stream),
            next: 0,
            seen,
        }
    }

    /// The kind of the shape [`next_shape`](Self::next_shape) returns
    /// next.
    pub fn next_kind(&self) -> usize {
        self.next % COLD_KINDS
    }

    pub fn next_shape(&mut self) -> (Query, Tid) {
        let kind = self.next_kind();
        self.next += 1;
        let (_, query, cfg) = cold_kind(kind);
        loop {
            let db = random_database(&cfg, &mut self.rng);
            if self.seen.insert((kind, tuples(&db))) {
                return (query, random_tid(db, cfg.prob_denominator, &mut self.rng));
            }
        }
    }
}

fn tuples(db: &Database) -> Vec<TupleDesc> {
    db.iter().map(|(_, t)| t).collect()
}

/// The first-touch shapes of a run, as `(kind label, query, shape)`:
/// the warm pairs (touched by every set-up), plus the cold writer's
/// shapes on `cold_churn`.
pub fn cold_shapes(
    workload: Workload,
    seed: u64,
    pairs: &[Pair],
) -> Vec<(&'static str, Query, Tid)> {
    let mut rng = stream_rng(seed, stream::setup(0));
    let mut out: Vec<_> = pairs
        .iter()
        .map(|p| (p.label, p.query.clone(), scenario(&p.shape, &mut rng)))
        .collect();
    if workload == Workload::ColdChurn {
        let mut cold = ColdShapes::new(seed, stream::COLD, pairs);
        for _ in 0..COLD_SHAPES {
            let label = cold_kind(cold.next_kind()).0;
            let (q, tid) = cold.next_shape();
            out.push((label, q, tid));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_engine::{Plan, PqeEngine};
    use intext_serve::wire::encode_request;

    #[test]
    fn warm_pairs_take_the_intended_plans() {
        let engine = PqeEngine::new();
        let mut rng = stream_rng(1, 1);
        let want = [
            Plan::DdCircuit,
            Plan::Obdd,
            Plan::Lifted,
            Plan::GroundCircuit,
            Plan::DdCircuit,
        ];
        let pairs = warm_pairs(Workload::ScenarioSweep);
        assert_eq!(pairs.len(), want.len());
        for (p, plan) in pairs.iter().zip(want) {
            let tid = scenario(&p.shape, &mut rng);
            assert_eq!(engine.plan(p.query.clone(), &tid), Ok(plan), "{}", p.label);
        }
    }

    #[test]
    fn streams_repeat_under_one_seed() {
        let pairs: Arc<[Pair]> = warm_pairs(Workload::ScenarioSweep).into();
        for role in [Role::Reader, Role::Sweeper, Role::ColdWriter] {
            let mut a = Stream::new(role, 1, 7, Arc::clone(&pairs));
            let mut b = Stream::new(role, 1, 7, Arc::clone(&pairs));
            for _ in 0..6 {
                let (x, y) = (a.next_request().request, b.next_request().request);
                assert_eq!(encode_request(0, &x), encode_request(0, &y));
            }
        }
    }

    #[test]
    fn cold_shapes_are_never_repeated() {
        let pairs = warm_pairs(Workload::ColdChurn);
        let shapes = cold_shapes(Workload::ColdChurn, 3, &pairs);
        let distinct: HashSet<_> = shapes
            .iter()
            .map(|(label, _, tid)| (*label, tuples(tid.database())))
            .collect();
        assert_eq!(distinct.len(), PAIRS + COLD_SHAPES);
    }
}
