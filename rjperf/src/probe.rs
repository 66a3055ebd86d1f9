//! The side probe of traced runs.
//!
//! Every per-layer metric is reported by every workload, but each
//! workload bypasses some layers on purpose (`adhoc` never writes or
//! serves, `serve` cannot time its executors one by one, `churn` runs
//! neither the 3-way path nor the serving layer). For those layers a
//! traced run measures a short fixed probe on a fresh set-up after the
//! timed phase: the layer's unloaded cost on the same data. The probe
//! runs only with `--trace 1` and never touches end-to-end metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use rj_core::executor::Algorithm;
use rj_store::parallel::ExecutionMode;

use crate::fixture::{self, Builds};
use crate::measure::{percentile, ratio};

/// Depths the executor probe runs at.
const KS: [usize; 4] = [1, 10, 50, 100];
/// Repetitions per depth.
const REPS: usize = 3;

/// Values for the `missing` per-layer metrics.
pub fn run(seed: u64, missing: &[&'static str]) -> Vec<(&'static str, f64)> {
    let exec_layer = |n: &&str| n.starts_with("rj_core.exec") || n.starts_with("rj_core.planner");
    let mut m = BTreeMap::new();
    if missing.iter().any(exec_layer) {
        m.extend(executors());
    }
    if !missing.iter().all(exec_layer) {
        m.extend(crate::serve::probe(seed));
    }
    missing
        .iter()
        .map(|name| {
            let (k, v) = m
                .get_key_value(name)
                .unwrap_or_else(|| panic!("the probe does not measure {name}"));
            (*k, *v)
        })
        .collect()
}

/// Executor and planner timings: ISL, BFHM and the 3-way path at each
/// probe depth, and `plan_with_k` over fresh depths.
fn executors() -> BTreeMap<&'static str, f64> {
    let loaded = fixture::load();
    let c = &loaded.cluster;
    let mut builds = Builds::default();
    let serial = ExecutionMode::Serial;
    let q1 = fixture::binary_executor(c, fixture::q1(10), serial, true, &mut builds);
    let q2 = fixture::binary_executor(c, fixture::q2(10), serial, true, &mut builds);
    let spec = fixture::spec3_executor(c, &mut builds);
    let mut us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut exec_us, mut reads) = (0.0, 0u64);
    for _ in 0..REPS {
        for k in KS {
            for ex in [&q1, &q2] {
                for (tag, alg) in [("isl", Algorithm::Isl), ("bfhm", Algorithm::Bfhm)] {
                    let t = Instant::now();
                    let o = ex.execute_with_k(alg, k).expect("probe query");
                    let d = t.elapsed().as_secs_f64() * 1e6;
                    us.entry(tag).or_default().push(d);
                    exec_us += d;
                    reads += o.metrics.kv_reads;
                }
            }
            let t = Instant::now();
            let o = spec.execute_with_k(k).expect("probe 3-way query");
            let d = t.elapsed().as_secs_f64() * 1e6;
            us.entry("spec3").or_default().push(d);
            exec_us += d;
            reads += o.metrics.kv_reads;
        }
    }
    let evals0 = q2.candidate_evaluations();
    let plan_us: Vec<f64> = (1..=64)
        .map(|k| {
            let t = Instant::now();
            q2.plan_with_k(k).expect("probe plan");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let mut m = BTreeMap::new();
    for (tag, p50, p99) in crate::common::EXEC_METRICS {
        m.insert(p50, percentile(&us[tag], 0.50));
        m.insert(p99, percentile(&us[tag], 0.99));
    }
    m.insert(
        "rj_core.exec.ns_per_kv_read",
        ratio(exec_us * 1e3, reads as f64),
    );
    m.insert("rj_core.planner.plan_us_p50", percentile(&plan_us, 0.50));
    m.insert("rj_core.planner.plan_us_p99", percentile(&plan_us, 0.99));
    m.insert(
        "rj_core.planner.candidate_evals",
        (q2.candidate_evaluations() - evals0) as f64,
    );
    m
}
