//! What every workload shares: arguments, the run's outcome, set-up
//! timing, and the epoch loop.
//!
//! A workload is a fixed, seeded sequence of operations (one *epoch*).
//! The run repeats epochs until `--seconds` of measurement have passed,
//! at least once (twice when tracing, so traced and untraced epochs can
//! be compared). Simulated and count metrics come from the first epoch
//! only, so they repeat exactly for one commit and seed; host-time
//! metrics pool every untraced epoch.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::fixture::Builds;
use crate::measure::{median, percentile, ratio};
use crate::speed::Speed;
use crate::trace::Tracer;

/// Work-stealing pool width the benchmark pins (`RJ_POOL_THREADS`).
pub const POOL_WIDTH: usize = 2;
/// Set-ups timed per run, at least (`setup_s` is their median).
pub const SETUPS: usize = 9;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// Everything a workload reports.
pub struct Outcome {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs; a probe fills the
    /// layers the workload bypasses).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or expired.
    pub failed: u64,
    /// Operations whose answer differed from the reference.
    pub wrong: u64,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// The span recorder.
    pub tracer: Tracer,
    /// The reference kernel's timings (host speed over the run).
    pub speed: Speed,
}

impl Outcome {
    /// An empty outcome around a tracer.
    pub fn new(tracer: Tracer) -> Self {
        Outcome {
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            notes: Vec::new(),
            tracer,
            speed: Speed::new(),
        }
    }
}

/// Host timings of the repeated set-ups of one run.
#[derive(Default)]
pub struct SetupTimes {
    /// Whole set-up: load, index builds, registration.
    pub total_s: Vec<f64>,
    /// `loader::load_all`.
    pub load_s: Vec<f64>,
    /// `prepare_*` calls.
    pub build_s: Vec<f64>,
    /// The last set-up's builds (their counts are deterministic).
    pub last: Builds,
}

impl SetupTimes {
    /// Runs one set-up (returning what it built, the load's host seconds
    /// and the builds) and records its timings, after a host-speed sample.
    pub fn time<F>(&mut self, speed: &mut Speed, setup: impl FnOnce() -> (F, f64, Builds)) -> F {
        speed.sample();
        let t = Instant::now();
        let (fixture, load_s, builds) = setup();
        self.total_s.push(t.elapsed().as_secs_f64());
        self.load_s.push(load_s);
        self.build_s.push(builds.host_s);
        self.last = builds;
        fixture
    }

    /// Puts `setup_s` and the load/build layer metrics into `out`.
    pub fn report(&self, out: &mut Outcome) {
        out.e2e.insert("setup_s", median(&self.total_s));
        out.layers.insert("rj_tpch.load_s", median(&self.load_s));
        out.layers
            .insert("rj_mapreduce.build_s", median(&self.build_s));
        out.layers
            .insert("rj_mapreduce.jobs", self.last.jobs() as f64);
        out.layers.insert(
            "rj_mapreduce.shuffle_bytes",
            self.last.shuffle_bytes() as f64,
        );
        out.layers
            .insert("rj_mapreduce.build_sim_s", self.last.sim_s());
        out.notes.push(format!(
            "setup: {} set-ups, median {:.4} s (load {:.4} s, builds {:.4} s)",
            self.total_s.len(),
            median(&self.total_s),
            median(&self.load_s),
            median(&self.build_s)
        ));
    }
}

/// Drives the epoch loop: decides whether another epoch runs and
/// whether it is traced.
pub struct Epochs {
    start: Instant,
    seconds: f64,
    trace: bool,
    /// Epochs started so far.
    pub done: usize,
}

impl Epochs {
    /// Starts the measurement clock.
    pub fn start(args: &Args) -> Self {
        Epochs {
            start: Instant::now(),
            seconds: args.seconds,
            trace: args.trace,
            done: 0,
        }
    }

    /// Whether to run another epoch; if so, sets the tracer for it
    /// (traced runs alternate untraced and traced epochs).
    pub fn next(&mut self, tracer: &mut Tracer) -> bool {
        let min = if self.trace { 2 } else { 1 };
        if self.done >= min && self.start.elapsed().as_secs_f64() >= self.seconds {
            return false;
        }
        tracer.set_on(self.trace && self.done % 2 == 1);
        self.done += 1;
        true
    }

    /// Whether the current epoch is the first (the exact one).
    pub fn first(&self) -> bool {
        self.done == 1
    }
}

/// Host seconds per operation, split by whether the epoch was traced.
#[derive(Default)]
pub struct Overhead {
    untraced: (f64, u64),
    traced: (f64, u64),
}

impl Overhead {
    /// Adds one epoch's host seconds and operation count.
    pub fn add(&mut self, traced: bool, host_s: f64, ops: u64) {
        let slot = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        slot.0 += host_s;
        slot.1 += ops;
    }

    /// Traced host time per operation over untraced, minus one.
    pub fn fraction(&self) -> f64 {
        let per = |(s, n): (f64, u64)| s / n.max(1) as f64;
        per(self.traced) / per(self.untraced).max(1e-12) - 1.0
    }
}

/// `(exec span tag, p50 metric, p99 metric)` per executor.
pub const EXEC_METRICS: [(&str, &str, &str); 3] = [
    ("isl", "rj_core.exec.isl_us_p50", "rj_core.exec.isl_us_p99"),
    (
        "bfhm",
        "rj_core.exec.bfhm_us_p50",
        "rj_core.exec.bfhm_us_p99",
    ),
    (
        "spec3",
        "rj_core.exec.spec3_us_p50",
        "rj_core.exec.spec3_us_p99",
    ),
];

/// Planner and executor host times from the spans of the traced epochs.
/// An executor the workload never ran is left for the side probe.
pub fn exec_layers(tr: &Tracer, l: &mut BTreeMap<&'static str, f64>) {
    let plan_us = tr.durations_us("rj_core.planner", None);
    l.insert("rj_core.planner.plan_us_p50", percentile(&plan_us, 0.50));
    l.insert("rj_core.planner.plan_us_p99", percentile(&plan_us, 0.99));
    for (tag, p50, p99) in EXEC_METRICS {
        let d = tr.durations_us("rj_core.exec", Some(tag));
        if !d.is_empty() {
            l.insert(p50, percentile(&d, 0.50));
            l.insert(p99, percentile(&d, 0.99));
        }
    }
    let exec_us: f64 = tr.durations_us("rj_core.exec", None).iter().sum();
    l.insert(
        "rj_core.exec.ns_per_kv_read",
        ratio(exec_us * 1e3, tr.ledger_sum("rj_core.exec").kv_reads as f64),
    );
}

/// Operations per host second over the given per-operation latencies
/// (microseconds).
pub fn ops_per_s<'a>(latencies_us: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let (mut n, mut us) = (0usize, 0.0);
    for series in latencies_us {
        n += series.len();
        us += series.iter().sum::<f64>();
    }
    ratio(n as f64, us / 1e6)
}
