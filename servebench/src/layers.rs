//! The traced run's in-process half: the run's own requests and shapes
//! pushed through each layer's public functions, one span per call.
//!
//! * `serve`: the same requests replayed on a `Server` in this process
//!   (`ServeHandle::request`), after the same warm-up; its
//!   `ServeHandle::stats()` gives the engine counters.
//! * `serve::shared`: `SharedEngine::prepare` on warm keys, alone and
//!   while a second thread compiles never-seen shapes.
//! * `engine`: `PreparedQuery` walks on the warm pairs, and
//!   `PqeEngine::prepare` on the run's first-touch shapes.
//! * `core` / `lineage`: the paper's compile stages on the run's φ9
//!   first-touch shapes.
//! * `query`: parsing, lifted evaluation, grounding.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use intext_boolfn::phi9;
use intext_core::{compile_dd, steps_to_bottom, Fragmentation};
use intext_engine::{EngineStats, LaneScratch, PqeEngine};
use intext_lineage::compile_degenerate_obdd;
use intext_query::{ground_circuit, lifted_probability_f64, parse_query, Query};
use intext_serve::{ServeConfig, Server};
use intext_tid::{Tid, Vocabulary};

use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workload::{
    cold_shapes, scenario, setup_requests, stream, stream_rng, Class, ColdShapes, Pair, Role,
    Stream, Workload, COLD_SHAPES, LIFTED_TEXT, READER_MIN, UNSAFE_TEXT,
};

/// Scenarios per warm pair for the scalar-walk probes.
const WALK_SCENARIOS: usize = 16;
/// Of those, how many also take the exact walk.
const EXACT_SCENARIOS: usize = 2;
/// Scenarios in the lane-kernel run per warm pair.
const RUN_SCENARIOS: usize = 256;
/// Rounds over the warm keys for the uncontended prepare probe.
const PREPARE_ROUNDS: usize = 64;
/// Never-seen shapes compiled beside the contended prepare probe.
const CONTENDED_COMPILES: usize = 12;
/// Times each compile stage is repeated per shape.
const STAGE_REPEATS: usize = 3;
/// Parses per query text.
const PARSE_ROUNDS: usize = 64;

/// Span request ids of the in-process half: high bit set, so they never
/// match a socket request's id.
fn probe_id(group: u64, index: usize) -> u64 {
    (1 << 63) | (group << 32) | index as u64
}

pub struct Probe {
    pub values: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

pub fn probe(
    workload: Workload,
    pairs: &Arc<[Pair]>,
    seed: u64,
    epoch: Instant,
) -> Result<Probe, String> {
    let mut values = BTreeMap::new();
    let mut tracer = Tracer::new(epoch);
    serve_replay(workload, pairs, seed, epoch, &mut values, &mut tracer)?;
    engine_walks(pairs, seed, &mut values, &mut tracer)?;
    first_touches(workload, pairs, seed, &mut values, &mut tracer)?;
    query_layer(workload, pairs, seed, &mut tracer)?;
    Ok(Probe { values, tracer })
}

/// Replays set-up 0's warm-up, then each connection's first requests
/// (every cold shape on `cold_churn`), concurrently as the connections
/// sent them; then probes `SharedEngine::prepare` on the warm server.
fn serve_replay(
    workload: Workload,
    pairs: &Arc<[Pair]>,
    seed: u64,
    epoch: Instant,
    values: &mut BTreeMap<&'static str, f64>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let server =
        Server::start(ServeConfig::default()).map_err(|e| format!("in-process server: {e}"))?;
    let handle = server.handle();
    for req in setup_requests(pairs, seed, 0) {
        handle
            .request(req)
            .map_err(|e| format!("replayed warm-up: {e}"))?;
    }
    let before = handle.stats();
    let replays: Vec<Result<Tracer, String>> = thread::scope(|s| {
        let handles: Vec<_> = workload
            .roles()
            .into_iter()
            .enumerate()
            .map(|(c, role)| {
                let handle = handle.clone();
                let pairs = Arc::clone(pairs);
                s.spawn(move || {
                    let mut t = Tracer::new(epoch);
                    let mut stream = Stream::new(role, c, seed, pairs);
                    let n = match role {
                        Role::Reader => READER_MIN,
                        Role::Sweeper => Role::Sweeper.period(),
                        Role::ColdWriter => COLD_SHAPES,
                    };
                    for i in 0..n {
                        let g = stream.next_request();
                        let reply = if g.class == Class::Point {
                            t.time("serve.request", None, probe_id(c as u64, i), || {
                                handle.request(g.request)
                            })
                        } else {
                            handle.request(g.request)
                        };
                        reply.map_err(|e| format!("replayed request: {e}"))?;
                    }
                    Ok(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    for t in replays {
        tracer.absorb(t?);
    }
    let after = handle.stats();
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    values.insert("engine.cache_hits", hits);
    values.insert("engine.cache_misses", misses);
    values.insert("engine.hit_ratio", hits / (hits + misses).max(1.0));
    values.insert(
        "engine.lane_kernel_calls",
        (after.lane_kernel_calls - before.lane_kernel_calls) as f64,
    );
    values.insert(
        "engine.compile_ms",
        (after.compile_nanos() - before.compile_nanos()) as f64 / 1e6,
    );
    values.insert(
        "engine.walk_ms",
        (after.walk_nanos - before.walk_nanos) as f64 / 1e6,
    );
    values.insert("engine.cache_gates", handle.engine().cache_gates() as f64);
    values.insert("serve.queue_high_water", handle.queue_high_water() as f64);

    // `SharedEngine::prepare` on warm keys: alone, then while another
    // thread compiles never-seen shapes under the write lock.
    let engine = handle.engine();
    let mut rng = stream_rng(seed, stream::PROBE);
    let keys: Vec<(&Query, Tid)> = pairs
        .iter()
        .map(|p| (&p.query, scenario(&p.shape, &mut rng)))
        .collect();
    for round in 0..PREPARE_ROUNDS {
        for (k, (q, tid)) in keys.iter().enumerate() {
            let id = probe_id(10, round * keys.len() + k);
            tracer
                .time("shared.prepare", None, id, || engine.prepare(q, tid))
                .map_err(|e| format!("prepare: {e}"))?;
        }
    }
    let compiling = AtomicBool::new(true);
    let mut contended = Tracer::new(epoch);
    let compiled: Result<(), String> = thread::scope(|s| {
        let compiler = s.spawn(|| {
            let mut cold = ColdShapes::new(seed, stream::PROBE_COLD, pairs);
            let out = (0..CONTENDED_COMPILES).try_for_each(|_| {
                let (q, tid) = cold.next_shape();
                engine.prepare(&q, &tid).map(drop)
            });
            compiling.store(false, Ordering::SeqCst);
            out
        });
        let mut i = 0;
        loop {
            for (q, tid) in &keys {
                contended
                    .time(
                        "shared.prepare_under_compile",
                        None,
                        probe_id(11, i),
                        || engine.prepare(q, tid),
                    )
                    .map_err(|e| format!("prepare: {e}"))?;
                i += 1;
            }
            if !compiling.load(Ordering::SeqCst) {
                break;
            }
        }
        compiler
            .join()
            .expect("compile thread panicked")
            .map_err(|e| format!("compile: {e}"))
    });
    compiled?;
    // Blocking on the write lock hits a few probes hard: the mean, not
    // the median, is what it costs a reader.
    let waits = contended.self_times_us(|_| true);
    values.insert(
        "shared.prepare_under_compile_us",
        mean(&waits["shared.prepare_under_compile"]),
    );
    tracer.absorb(contended);
    server.shutdown();
    Ok(())
}

/// Scalar, exact and lane walks of `PreparedQuery` on every warm pair.
fn engine_walks(
    pairs: &Arc<[Pair]>,
    seed: u64,
    values: &mut BTreeMap<&'static str, f64>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut engine = PqeEngine::new();
    let mut rng = stream_rng(seed, stream::PROBE);
    let mut stats = EngineStats::default();
    let (mut f64_us, mut exact_us, mut bits) = (0.0, 0.0, 0u64);
    let mut per_scen = Vec::new();
    for (pi, p) in pairs.iter().enumerate() {
        let tids: Vec<Tid> = (0..WALK_SCENARIOS)
            .map(|_| scenario(&p.shape, &mut rng))
            .collect();
        let prepared = engine
            .prepare(p.query.clone(), &tids[0])
            .map_err(|e| format!("prepare {}: {e}", p.label))?;
        for (i, tid) in tids.iter().enumerate() {
            let id = probe_id(20 + pi as u64, i);
            black_box(tracer.time("engine.eval_f64", None, id, || {
                prepared.eval_f64(tid, 0, &mut stats)
            }));
            if i < EXACT_SCENARIOS {
                f64_us += tracer.last_us();
                let answer = tracer.time("engine.eval_exact", None, id, || {
                    prepared.eval_exact(tid, 0, &mut stats)
                });
                exact_us += tracer.last_us();
                bits = bits.max(answer.denom().bits());
            }
        }
        let run: Vec<Tid> = (0..RUN_SCENARIOS)
            .map(|_| scenario(&p.shape, &mut rng))
            .collect();
        let mut scratch = LaneScratch::new();
        let mut out = Vec::with_capacity(run.len());
        tracer.time(
            "engine.eval_run_f64",
            None,
            probe_id(30 + pi as u64, 0),
            || prepared.eval_run_f64(&run, 0, &mut scratch, &mut out, &mut stats),
        );
        per_scen.push(tracer.last_us() / run.len() as f64);
        black_box(out);
    }
    values.insert("engine.eval_run_f64_us_per_scen", median(&per_scen));
    values.insert("numeric.exact_over_f64", exact_us / f64_us);
    values.insert("numeric.answer_bits", bits as f64);
    Ok(())
}

/// Cold compiles of the run's first-touch shapes, whole
/// (`PqeEngine::prepare`) and stage by stage for φ9's d-D.
fn first_touches(
    workload: Workload,
    pairs: &Arc<[Pair]>,
    seed: u64,
    values: &mut BTreeMap<&'static str, f64>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let shapes = cold_shapes(workload, seed, pairs);
    let mut engine = PqeEngine::new();
    for (i, (_, q, tid)) in shapes.iter().enumerate() {
        tracer
            .time("engine.cold_prepare", None, probe_id(40, i), || {
                engine.prepare(q.clone(), tid).map(drop)
            })
            .map_err(|e| format!("cold prepare: {e}"))?;
    }
    let phi = phi9();
    let (mut obdd, mut plug, mut gates) = (Vec::new(), Vec::new(), 0usize);
    for (i, (_, _, tid)) in shapes.iter().enumerate().filter(|(_, s)| s.0 == "phi9_dd") {
        let db = tid.database();
        for rep in 0..STAGE_REPEATS {
            let id = probe_id(50, i * STAGE_REPEATS + rep);
            tracer
                .time("core.transform", None, id, || steps_to_bottom(&phi))
                .map_err(|e| format!("steps_to_bottom: {e}"))?;
            let frag = tracer
                .time("core.fragment", None, id, || Fragmentation::of(&phi))
                .map_err(|e| format!("fragmentation: {e}"))?;
            let fragment_us = tracer.last_us();
            let mut leaves_us = 0.0;
            for leaf in &frag.leaves {
                tracer
                    .time("lineage.obdd", None, id, || {
                        compile_degenerate_obdd(leaf, db)
                    })
                    .map_err(|e| format!("leaf obdd: {e}"))?;
                leaves_us += tracer.last_us();
            }
            let compiled = tracer
                .time("core.compile_dd", None, id, || compile_dd(&phi, db))
                .map_err(|e| format!("compile_dd: {e}"))?;
            obdd.push(leaves_us);
            plug.push(tracer.last_us() - fragment_us - leaves_us);
            if rep == 0 {
                gates += compiled.stats().gates;
            }
        }
    }
    values.insert("lineage.obdd_us", median(&obdd));
    values.insert("core.plug_us", median(&plug));
    values.insert("core.dd_gates", gates as f64);
    Ok(())
}

/// Parsing, lifted evaluation, and grounding of the UCQ shapes.
fn query_layer(
    workload: Workload,
    pairs: &Arc<[Pair]>,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let voc = Vocabulary::h(1);
    for round in 0..PARSE_ROUNDS {
        for text in [LIFTED_TEXT, UNSAFE_TEXT] {
            tracer
                .time("query.parse", None, probe_id(60, round), || {
                    Query::parse(text, &voc)
                })
                .map_err(|e| format!("parse: {e}"))?;
        }
    }
    let lifted = parse_query(LIFTED_TEXT, &voc)
        .ok()
        .and_then(|e| e.to_ucq())
        .map(|u| u.normalize())
        .ok_or("LIFTED_TEXT is not a UCQ")?;
    let lifted_pair = pairs
        .iter()
        .find(|p| p.label == "ucq_lifted")
        .ok_or("no lifted pair")?;
    let mut rng = stream_rng(seed, stream::PROBE);
    for i in 0..WALK_SCENARIOS {
        let tid = scenario(&lifted_pair.shape, &mut rng);
        tracer
            .time("query.lifted", None, probe_id(61, i), || {
                lifted_probability_f64(&lifted, &tid)
            })
            .ok_or("the lifted pair does not lift")?;
    }
    let grounded = parse_query(UNSAFE_TEXT, &voc).map_err(|e| format!("parse: {e}"))?;
    let shapes = cold_shapes(workload, seed, pairs);
    for (i, (_, _, tid)) in shapes
        .iter()
        .enumerate()
        .filter(|(_, s)| s.0 == "ucq_grounded")
    {
        for rep in 0..STAGE_REPEATS {
            black_box(tracer.time(
                "query.ground",
                None,
                probe_id(62, i * STAGE_REPEATS + rep),
                || ground_circuit(&grounded, tid.database()),
            ));
        }
    }
    Ok(())
}
