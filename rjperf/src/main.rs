//! `rjperf`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path rjperf/Cargo.toml -- \
//!     --workload <adhoc|serve|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets up the TPC-H lab fixture, runs one workload for the given
//! seconds, checks every answer against an exact reference, prints each
//! metric by name with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from spans the benchmark records around its calls
//! into each layer. Host times are reported at a fixed reference speed
//! (see [`speed`]). A wrong answer exits with code 1.

mod adhoc;
mod churn;
mod common;
mod fixture;
mod measure;
mod model;
mod probe;
mod reference;
mod rng;
mod serve;
mod speed;
mod trace;

use std::process::ExitCode;

use common::{Args, Outcome, POOL_WIDTH};
use measure::Report;
use speed::Host;

/// End-to-end metrics, reported by every workload with `--trace 0`, each
/// with its unit and how it depends on host speed.
const END_TO_END: [(&str, &str, Host); 10] = [
    ("setup_s", "s", Host::Time),
    ("ops_per_s", "1/s", Host::Rate),
    ("query_p50_us", "us", Host::Time),
    ("query_p99_us", "us", Host::Time),
    ("sim_p50_ms", "ms", Host::No),
    ("sim_p99_ms", "ms", Host::No),
    ("kv_reads_per_query", "reads", Host::No),
    ("net_bytes_per_query", "B", Host::No),
    ("index_bytes_per_base_byte", "ratio", Host::No),
    ("peak_rss_mb", "MB", Host::No),
];

/// Per-layer metrics, reported by every workload with `--trace 1`, each
/// with its unit and how it depends on host speed.
const PER_LAYER: [(&str, &str, Host); 54] = [
    ("rj_tpch.load_s", "s", Host::Time),
    ("rj_mapreduce.build_s", "s", Host::Time),
    ("rj_mapreduce.jobs", "count", Host::No),
    ("rj_mapreduce.shuffle_bytes", "B", Host::No),
    ("rj_mapreduce.build_sim_s", "s", Host::No),
    ("rj_store.rpcs_per_query", "count", Host::No),
    ("rj_store.node_s_per_sim_s", "ratio", Host::No),
    ("rj_store.admin_kv_reads", "reads", Host::No),
    ("rj_store.kv_reads_per_write", "reads", Host::No),
    ("rj_core.planner.plan_us_p50", "us", Host::Time),
    ("rj_core.planner.plan_us_p99", "us", Host::Time),
    ("rj_core.planner.candidate_evals", "count", Host::No),
    ("rj_core.planner.stats_collections", "count", Host::No),
    ("rj_core.planner.pick.isl", "share", Host::No),
    ("rj_core.planner.pick.bfhm", "share", Host::No),
    ("rj_core.exec.isl_us_p50", "us", Host::Time),
    ("rj_core.exec.isl_us_p99", "us", Host::Time),
    ("rj_core.exec.bfhm_us_p50", "us", Host::Time),
    ("rj_core.exec.bfhm_us_p99", "us", Host::Time),
    ("rj_core.exec.spec3_us_p50", "us", Host::Time),
    ("rj_core.exec.spec3_us_p99", "us", Host::Time),
    ("rj_core.exec.ns_per_kv_read", "ns", Host::Time),
    ("rj_core.exec.kv_reads_per_result", "reads", Host::No),
    ("rj_core.index_bytes.isl", "B", Host::No),
    ("rj_core.index_bytes.bfhm", "B", Host::No),
    ("rj_core.index_bytes.spec3", "B", Host::No),
    ("rj_core.maintenance.insert_us_p50", "us", Host::Time),
    ("rj_core.maintenance.delete_us_p50", "us", Host::Time),
    (
        "rj_core.maintenance.kv_writes_per_insert",
        "writes",
        Host::No,
    ),
    (
        "rj_core.maintenance.kv_writes_per_delete",
        "writes",
        Host::No,
    ),
    ("rj_core.maintenance.version_bumps", "count", Host::No),
    ("rj_serve.round_us_p50", "us", Host::Time),
    ("rj_serve.round_us_p99", "us", Host::Time),
    ("rj_serve.submit_us_p50", "us", Host::Time),
    ("rj_serve.next_page_us_p50", "us", Host::Time),
    ("rj_serve.sessions_per_round", "count", Host::No),
    ("rj_serve.queue_depth_p99", "count", Host::No),
    ("rj_serve.generator_lag_ms_p99", "ms", Host::No),
    ("rj_serve.served.execution", "share", Host::No),
    ("rj_serve.served.shared", "share", Host::No),
    ("rj_serve.served.prefix_cache", "share", Host::No),
    ("rj_serve.served.unserved", "share", Host::No),
    ("rj_serve.warm_starts", "count", Host::No),
    ("rj_serve.pages_served", "count", Host::No),
    ("rj_serve.requeued", "count", Host::No),
    ("rj_serve.staleness_rebuilds", "count", Host::No),
    ("rj_serve.maintenance_runs", "count", Host::No),
    ("rj_serve.stale_retries", "count", Host::No),
    ("write_p50_us", "us", Host::Time),
    ("write_p99_us", "us", Host::Time),
    ("kv_writes_per_write", "writes", Host::No),
    ("sim_max_rate_qps", "1/s", Host::No),
    ("failed_frac", "ratio", Host::No),
    ("trace.overhead_frac", "ratio", Host::No),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: rjperf --workload <adhoc|serve|churn> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse() else {
        return usage();
    };
    // Pin the process-wide work-stealing pool before anything starts it.
    std::env::set_var("RJ_POOL_THREADS", POOL_WIDTH.to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# rjperf workload={} seed={} seconds={} trace={} scale_factor={} pool_width={} nproc={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fixture::SCALE_FACTOR,
        POOL_WIDTH,
        nproc,
        measure::commit()
    );
    let mut out = match args.workload.as_str() {
        "adhoc" => adhoc::run(&args),
        "serve" => serve::run(&args),
        "churn" => churn::run(&args),
        _ => return usage(),
    };
    if args.trace {
        finish_trace(&args, &mut out);
    }
    let factor = out.speed.factor();
    out.notes.push(format!(
        "host speed: {} reference-kernel samples, median {:.1} us; host times x {factor:.4} \
         to the reference speed ({} us)",
        out.speed.samples(),
        out.speed.median_us(),
        speed::REFERENCE_US
    ));
    for line in &out.notes {
        println!("# {line}");
    }
    let metrics = if args.trace {
        collect(&out.layers, &PER_LAYER, factor)
    } else {
        collect(&out.e2e, &END_TO_END, factor)
    };
    metrics.print_lines();
    let correct = out.wrong == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("rjperf: {} wrong answer(s)", out.wrong);
        ExitCode::from(1)
    }
}

/// Fills the layers the workload bypassed from the side probe, adds the
/// whole-run figures and self times, and writes the spans out.
fn finish_trace(args: &Args, out: &mut Outcome) {
    let attempted = out.attempted.max(1) as f64;
    out.layers
        .insert("failed_frac", out.failed as f64 / attempted);
    for (name, secs) in out.tracer.self_time_s() {
        out.notes.push(format!("self time {name:<24} {secs:.4} s"));
    }
    out.notes.push(format!(
        "{} spans; recorder's own time {:.4} s",
        out.tracer.len(),
        out.tracer.self_s
    ));
    // Spans go next to the executable, inside the build directory.
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    let path = dir.join(format!("rjperf-spans-{}-{}.tsv", args.workload, args.seed));
    match out.tracer.write_tsv(&path) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => eprintln!("rjperf: could not write spans to {}: {e}", path.display()),
    }
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|(n, _, _)| *n)
        .filter(|n| !out.layers.contains_key(n))
        .collect();
    if !missing.is_empty() {
        let probed = probe::run(args.seed, &missing);
        for (name, value) in probed {
            out.layers.insert(name, value);
        }
        out.notes.push(format!(
            "layers bypassed by this workload, from the side probe: {missing:?}"
        ));
    }
}

/// The declared metrics, in order, from the workload's values, with host
/// times and rates scaled to the reference speed by `factor`.
fn collect(
    values: &std::collections::BTreeMap<&'static str, f64>,
    declared: &[(&str, &'static str, Host)],
    factor: f64,
) -> Report {
    let mut r = Report::default();
    for &(name, unit, host) in declared {
        let v = values
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("workload did not report {name}"));
        r.put(name, speed::scale(v, host, factor), unit);
    }
    r
}
