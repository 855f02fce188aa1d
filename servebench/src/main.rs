//! Socket-level benchmark for `intext-serve`.
//!
//! ```text
//! servebench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Spawns the real server binary on an ephemeral TCP port (set up
//! [`SETUPS`](workload::SETUPS) times; `setup_s` is the median), drives
//! it from two closed-loop connections for `S` seconds, checks every
//! answer against a sequential in-process engine, and prints a report
//! followed by one JSON line: the end-to-end metrics (`--trace 0`) or
//! the per-layer split (`--trace 1`). Exits 1 when any answer is wrong
//! or any request failed, 2 when the run could not be made.
//! `README.md` beside this package documents the workloads and metrics.

mod child;
mod client;
mod layers;
mod oracle;
mod run;
#[cfg(test)]
mod selfcheck;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use crate::child::ServerProcess;
use crate::run::{conn_of, ConnSummary, Origin, Record};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{in_count_prefix, warm_pairs, Class, Pair, Role, Workload};

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("point_p50_ms", "ms"),
    ("point_p95_ms", "ms"),
    ("point_rps", "1/s"),
    ("scen_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("server_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run and their units, as
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("net.encode_us", "us"),
    ("net.write_us", "us"),
    ("net.wait_us", "us"),
    ("net.decode_us", "us"),
    ("net.stall_us", "us"),
    ("net.frame_bytes", "bytes"),
    ("client.self_us", "us"),
    ("serve.request_us", "us"),
    ("serve.queue_high_water", "count"),
    ("shared.prepare_us", "us"),
    ("shared.prepare_under_compile_us", "us"),
    ("engine.eval_f64_us", "us"),
    ("engine.eval_exact_us", "us"),
    ("engine.eval_run_f64_us_per_scen", "us"),
    ("engine.cold_prepare_us", "us"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.hit_ratio", "ratio"),
    ("engine.lane_kernel_calls", "count"),
    ("engine.compile_ms", "ms"),
    ("engine.walk_ms", "ms"),
    ("engine.cache_gates", "count"),
    ("core.transform_us", "us"),
    ("core.fragment_us", "us"),
    ("lineage.obdd_us", "us"),
    ("core.compile_dd_us", "us"),
    ("core.plug_us", "us"),
    ("core.dd_gates", "count"),
    ("query.parse_us", "us"),
    ("query.lifted_us", "us"),
    ("query.ground_us", "us"),
    ("numeric.exact_over_f64", "ratio"),
    ("numeric.answer_bits", "bits"),
    ("trace.overhead_ms", "ms"),
];

struct Args {
    server: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut server, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--server" => server = Some(value),
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expects 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    Ok(Args {
        server: server.ok_or_else(|| need("--server"))?,
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| need("--seconds (a non-negative number)"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(out) => {
            print!("{}", out.report);
            println!("{}", out.json);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("servebench: failed or wrong answers; see the report above");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Output {
    report: String,
    json: String,
    correct: bool,
}

fn bench(args: &Args) -> Result<Output, String> {
    let epoch = Instant::now();
    let pairs: Arc<[Pair]> = warm_pairs(args.workload).into();
    let (server, setup_times, mut records) = run::setups(&args.server, &pairs, args.seed)?;
    let mut window = run::window(
        server.addr(),
        args.workload,
        &pairs,
        args.seed,
        args.seconds,
        args.trace,
        epoch,
    )?;
    let rss_mb = server.peak_rss_mb()?;
    drop(server);
    records.extend(window.records);
    let wrong = oracle::check(args.workload, &pairs, args.seed, &mut records);
    let failed = records.iter().filter(|r| r.outcome.is_err()).count();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "provenance {}",
        provenance(args, &setup_times, &records, &window.conns)
    );
    for r in records.iter() {
        if let Err(e) = &r.outcome {
            let _ = writeln!(report, "error {:?} #{}: {e}", r.origin, r.index);
        }
    }
    let (e2e, counts) = end_to_end(args.workload, &records, &setup_times, rss_mb);
    for (name, unit) in END_TO_END {
        let _ = writeln!(report, "metric {name} {} {unit}", e2e[name]);
    }
    for (name, value, unit) in counts.iter().chain(&per_kind(&records, failed)) {
        let _ = writeln!(report, "metric {name} {value} {unit}");
    }
    let _ = writeln!(report, "wrong_answers {wrong}");

    let metrics = if args.trace {
        let per_layer = per_layer(
            args.workload,
            args.seed,
            &pairs,
            &records,
            &window.conns,
            &mut window.tracer,
            epoch,
        )?;
        write_spans(args, &window.tracer)?;
        for (name, unit) in PER_LAYER {
            let _ = writeln!(report, "layer {name} {} {unit}", per_layer[name]);
        }
        metrics_json(&PER_LAYER, &per_layer)?
    } else {
        metrics_json(&END_TO_END, &e2e)?
    };
    let correct = failed == 0;
    Ok(Output {
        report,
        json: format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
            records.len()
        ),
        correct,
    })
}

fn ms(r: &Record) -> f64 {
    r.latency_ns as f64 / 1e6
}

/// Answered untraced requests (a traced run's end-to-end figures come
/// from its untraced half).
fn answered_any(records: &[Record]) -> impl Iterator<Item = &Record> {
    records.iter().filter(|r| r.outcome.is_ok() && !r.traced)
}

/// [`answered_any`] of one class.
fn answered(records: &[Record], class: Class) -> impl Iterator<Item = &Record> {
    answered_any(records).filter(move |r| r.class == class)
}

/// A reported figure: name, value, unit.
type Figure = (&'static str, f64, &'static str);

/// The end-to-end metrics, plus the latency sample counts behind them.
fn end_to_end(
    workload: Workload,
    records: &[Record],
    setup_times: &[f64],
    rss_mb: f64,
) -> (BTreeMap<&'static str, f64>, [Figure; 2]) {
    let point: Vec<f64> = answered(records, Class::Point).map(ms).collect();
    // First touches: the cold writer's stream where there is one, else
    // the set-ups' warm-up requests.
    let cold: Vec<f64> = answered(records, Class::Cold)
        .filter(|r| (workload == Workload::ColdChurn) == matches!(r.origin, Origin::Conn(_)))
        .map(ms)
        .collect();
    // Throughput of a closed-loop connection at its median cycle. Each
    // stream repeats a fixed cycle of requests; the median latencies of
    // the cycle's positions add up to a median cycle time (client-side
    // request generation left out). Summed over connections.
    let rate = |keep: &dyn Fn(&Record) -> bool| -> f64 {
        let mut slots: BTreeMap<(usize, usize), (f64, Vec<f64>)> = BTreeMap::new();
        for r in answered_any(records).filter(|r| keep(r)) {
            if let (Origin::Conn(c), Some(role)) = (r.origin, r.role) {
                let (scen, secs) = slots.entry((c, r.index % role.period())).or_default();
                *scen = r.scenarios as f64;
                secs.push(r.latency_ns as f64 / 1e9);
            }
        }
        let mut cycles: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for ((c, _), (scen, secs)) in slots {
            let (cycle_scen, cycle_secs) = cycles.entry(c).or_default();
            *cycle_scen += scen;
            *cycle_secs += median(&secs);
        }
        cycles.values().map(|(scen, secs)| scen / secs).sum()
    };
    let metrics = BTreeMap::from([
        ("setup_s", median(setup_times)),
        ("point_p50_ms", percentile(&point, 0.50)),
        ("point_p95_ms", percentile(&point, 0.95)),
        ("point_rps", rate(&|r| r.class == Class::Point)),
        ("scen_per_s", rate(&|r| r.class != Class::Cold)),
        ("cold_p50_ms", percentile(&cold, 0.50)),
        ("cold_p90_ms", percentile(&cold, 0.90)),
        ("server_rss_mb", rss_mb),
    ]);
    let counts = [
        ("point_samples", point.len() as f64, "count"),
        ("cold_samples", cold.len() as f64, "count"),
    ];
    (metrics, counts)
}

/// Per-kind figures printed beside the end-to-end metrics: batch
/// throughput attributed to each batch kind's own request time, and
/// the error rate.
fn per_kind(records: &[Record], failed: usize) -> [Figure; 3] {
    let through = |class: Class| {
        let (scen, secs) = answered(records, class).fold((0usize, 0.0), |(n, t), r| {
            (n + r.scenarios, t + r.latency_ns as f64 / 1e9)
        });
        if secs > 0.0 {
            scen as f64 / secs
        } else {
            0.0
        }
    };
    [
        ("batch_f64_scen_per_s", through(Class::BatchF64), "1/s"),
        ("exact_scen_per_s", through(Class::Exact), "1/s"),
        ("error_rate", failed as f64 / records.len() as f64, "ratio"),
    ]
}

/// The per-layer split: socket spans from the window (reader
/// connections only), the in-process probes, and the counts. The
/// probes' spans join `tracer`.
fn per_layer(
    workload: Workload,
    seed: u64,
    pairs: &Arc<[Pair]>,
    records: &[Record],
    conns: &[ConnSummary],
    tracer: &mut Tracer,
    epoch: Instant,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let reader_span = |request: u64| {
        conn_of(request)
            .and_then(|c| conns.get(c))
            .is_some_and(|c| c.role == Role::Reader)
    };
    let socket = tracer.self_times_us(|s| reader_span(s.request));
    let probe = layers::probe(workload, pairs, seed, epoch)?;
    tracer.absorb(probe.tracer);
    let all = tracer.self_times_us(|_| true);
    let med = |times: &BTreeMap<&'static str, Vec<f64>>, name: &str| {
        times.get(name).map_or(f64::NAN, |t| median(t))
    };

    let mut out = probe.values;
    for (metric, span) in [
        ("net.encode_us", "net.encode"),
        ("net.write_us", "net.write"),
        ("net.wait_us", "net.wait"),
        ("net.decode_us", "net.decode"),
        ("client.self_us", "client.request"),
    ] {
        out.insert(metric, med(&socket, span));
    }
    for (metric, span) in [
        ("serve.request_us", "serve.request"),
        ("shared.prepare_us", "shared.prepare"),
        ("engine.eval_f64_us", "engine.eval_f64"),
        ("engine.eval_exact_us", "engine.eval_exact"),
        ("engine.cold_prepare_us", "engine.cold_prepare"),
        ("core.transform_us", "core.transform"),
        ("core.fragment_us", "core.fragment"),
        ("core.compile_dd_us", "core.compile_dd"),
        ("query.parse_us", "query.parse"),
        ("query.lifted_us", "query.lifted"),
        ("query.ground_us", "query.ground"),
    ] {
        out.insert(metric, med(&all, span));
    }
    out.insert("net.stall_us", out["net.wait_us"] - out["serve.request_us"]);
    let frame_bytes: u64 = records
        .iter()
        .filter(|r| r.traced && r.role.is_some_and(|role| in_count_prefix(role, r.index)))
        .map(|r| r.frame_bytes)
        .sum();
    out.insert("net.frame_bytes", frame_bytes as f64);
    let reader_point = |traced: bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.role == Some(Role::Reader) && r.traced == traced && r.outcome.is_ok())
            .map(ms)
            .collect()
    };
    out.insert(
        "trace.overhead_ms",
        percentile(&reader_point(true), 0.5) - percentile(&reader_point(false), 0.5),
    );
    Ok(out)
}

/// Writes the run's spans under `.bench_build/servebench/`.
fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_build").join("servebench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-spans.tsv",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, tracer.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))
}

fn metrics_json(
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            return Err(format!("metric {name} was not measured ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// The hardware and software regime a result was measured in.
fn provenance(
    args: &Args,
    setup_times: &[f64],
    records: &[Record],
    conns: &[ConnSummary],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let setup_requests = records
        .iter()
        .filter(|r| matches!(r.origin, Origin::Setup(_)))
        .count();
    let per_conn: Vec<String> = conns
        .iter()
        .map(|c| {
            format!(
                "{{\"role\": \"{}\", \"requests\": {}}}",
                c.role.name(),
                c.requests
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"server_workers\": {}, \"transport\": \"tcp\", \"git_rev\": \"{}\", \"setups\": {}, \
         \"setup_requests\": {setup_requests}, \"connections\": [{}]}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        ServerProcess::workers(),
        git_rev(),
        setup_times.len(),
        per_conn.join(", ")
    )
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}
