//! The benchmark's own tests of its counts and of `BENCHMARK.json`.
//!
//! The count check drives the same client, replay and probe code as a
//! traced run, against an in-process server behind the real TCP
//! listener, twice under one seed. Exact arithmetic makes it slow in a
//! debug build; run it with
//! `cargo test --release --manifest-path servebench/Cargo.toml`.

use super::*;
use intext_serve::{listen_tcp, ServeConfig, Server};

use crate::workload::COLD_SHAPES;

/// Counts that must repeat exactly under one seed.
const COUNTS: [&str; 5] = [
    "engine.cache_misses",
    "engine.lane_kernel_calls",
    "core.dd_gates",
    "net.frame_bytes",
    "numeric.answer_bits",
];

/// A traced run with a zero-length window: each connection sends its
/// minimum (the count prefix), every answer is checked by the oracle.
fn counts(workload: Workload, seed: u64) -> Vec<f64> {
    let server = Server::start(ServeConfig::default()).expect("default config is valid");
    let listener = listen_tcp(server.handle(), "127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.tcp_addr().expect("a tcp listener").to_string();
    let pairs: Arc<[Pair]> = warm_pairs(workload).into();
    let epoch = Instant::now();
    let mut records = run::warm_up(&addr, &pairs, seed, 0).expect("warm-up");
    let mut window = run::window(&addr, workload, &pairs, seed, 0.0, true, epoch).expect("window");
    listener.stop();
    server.shutdown();
    records.extend(std::mem::take(&mut window.records));
    assert_eq!(oracle::check(workload, &pairs, seed, &mut records), 0);
    assert!(records.iter().all(|r| r.outcome.is_ok()));
    let layers = per_layer(
        workload,
        seed,
        &pairs,
        &records,
        &window.conns,
        &mut window.tracer,
        epoch,
    )
    .expect("per-layer split");
    COUNTS.iter().map(|c| layers[c]).collect()
}

#[test]
fn counts_repeat_under_one_seed() {
    for workload in Workload::ALL {
        let first = counts(workload, 5);
        assert_eq!(
            first,
            counts(workload, 5),
            "{}: {COUNTS:?}",
            workload.name()
        );
        let cold = if workload == Workload::ColdChurn {
            COLD_SHAPES
        } else {
            0
        };
        assert_eq!(first[0], cold as f64, "{}: cache misses", workload.name());
        if workload == Workload::ScenarioSweep {
            assert!(first[1] > 0.0, "the sweep drives the lane kernel");
        }
    }
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let json = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}
