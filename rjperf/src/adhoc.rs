//! `adhoc`: a read-only, closed-loop stream of top-k queries from one
//! client, straight into the executors.
//!
//! Paper queries Q1 and Q2 run under `Algorithm::Auto`, and one query in
//! eight is the 3-way path through `SpecExecutor`; binary executors run
//! in `ExecutionMode::Parallel` on the 2-wide pool. Host time lands in
//! `rj_core.exec`, store reads and `rj_sketch` decode; the serving layer
//! and the write path are never called.

use std::collections::BTreeMap;
use std::time::Instant;

use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::multiway::SpecExecutor;
use rj_core::result::JoinTuple;
use rj_store::cluster::Cluster;
use rj_store::metrics::MetricsSnapshot;
use rj_store::parallel::ExecutionMode;

use crate::common::{
    exec_layers, ops_per_s, Args, Epochs, Outcome, Overhead, SetupTimes, POOL_WIDTH, SETUPS,
};
use crate::fixture::{self, Builds, QueryKind};
use crate::measure::{add_ledger, percentile, ratio, Samples};
use crate::reference::topk_path;
use crate::rng::Rng;
use crate::trace::Tracer;

/// Blocks of 32 queries per epoch.
const BLOCKS: usize = 32;
/// Answer depths.
const KS: [usize; 4] = [1, 10, 50, 100];

/// One block: each depth once on the 3-way path, and 14 queries each of
/// Q1 and Q2 at a fixed mix of depths (4, 5, 3 and 2 of them near 1, 10,
/// 50 and 100), shuffled. The mix is fixed, so the seed changes the
/// order and the exact depths, not the share of each query; it puts the
/// median inside one class of queries rather than on the edge of two.
fn stream(seed: u64) -> Vec<(QueryKind, usize)> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::with_capacity(BLOCKS * 32);
    for _ in 0..BLOCKS {
        let mut block: Vec<(QueryKind, usize)> =
            KS.iter().map(|&k| (QueryKind::Spec3, k)).collect();
        for q in [QueryKind::Q1, QueryKind::Q2] {
            for (k, n) in [(1, 4), (10, 5), (50, 3), (100, 2)] {
                block.extend(std::iter::repeat_n((q, k), n));
            }
        }
        for slot in &mut block {
            slot.1 = rng.near(slot.1);
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

struct Fixture {
    cluster: Cluster,
    q1: RankJoinExecutor,
    q2: RankJoinExecutor,
    spec: SpecExecutor,
}

fn setup() -> (Fixture, f64, Builds) {
    let loaded = fixture::load();
    let mut builds = Builds::default();
    let mode = ExecutionMode::Parallel {
        workers: POOL_WIDTH,
    };
    let c = &loaded.cluster;
    let q1 = fixture::binary_executor(c, fixture::q1(10), mode, true, &mut builds);
    let q2 = fixture::binary_executor(c, fixture::q2(10), mode, true, &mut builds);
    let spec = fixture::spec3_executor(c, &mut builds);
    let fx = Fixture {
        cluster: loaded.cluster,
        q1,
        q2,
        spec,
    };
    (fx, loaded.load_s, builds)
}

/// Counts over the first epoch.
#[derive(Default)]
struct Exact {
    queries: u64,
    sim_ms: Vec<f64>,
    ledger: MetricsSnapshot,
    results: u64,
    picks: BTreeMap<&'static str, u64>,
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(Tracer::new(false));
    let mut setups = SetupTimes::default();
    let mut fx = None;
    for _ in 0..SETUPS {
        drop(fx.take());
        fx = Some(setups.time(&mut out.speed, setup));
    }
    let fx = fx.expect("at least one set-up");
    setups.report(&mut out);

    // Reference answers, once per query at the deepest k (every
    // shallower answer is a prefix of the same total order).
    let queries = stream(args.seed);
    let deepest = queries.iter().map(|q| q.1).max().expect("queries");
    let refs: BTreeMap<QueryKind, Vec<JoinTuple>> = QueryKind::ALL
        .iter()
        .map(|&q| (q, topk_path(&fx.cluster, &q.spec(deepest))))
        .collect();

    let handles = [fx.q1.stats_handle(), fx.q2.stats_handle()];
    let collections = || handles.iter().map(|h| h.collections()).sum::<u64>();
    let evals = || fx.q1.candidate_evaluations() + fx.q2.candidate_evaluations();
    let (collections0, evals0) = (collections(), evals());
    // Candidate evaluations and statistics passes over the first epoch.
    let mut planning = (0, 0);
    let ledger = || fx.cluster.metrics().snapshot();

    let mut host = Samples::default();
    let mut exact = Exact::default();
    let mut overhead = Overhead::default();
    let mut epochs = Epochs::start(args);
    let mut req = 0u64;
    while epochs.next(&mut out.tracer) {
        let first = epochs.first();
        let traced = out.tracer.on();
        let mut epoch_s = 0.0;
        for &(kind, k) in &queries {
            out.speed.tick();
            req += 1;
            out.attempted += 1;
            let tr = &mut out.tracer;
            let root = tr.begin("op", req, ledger);
            let before = ledger();
            let t = Instant::now();
            let executed = match kind {
                QueryKind::Q1 | QueryKind::Q2 => {
                    let ex = if kind == QueryKind::Q1 {
                        &fx.q1
                    } else {
                        &fx.q2
                    };
                    if tr.on() {
                        let s = tr.begin("rj_core.planner", req, ledger);
                        let _ = ex.plan_with_k(k);
                        tr.end(s, "", ledger);
                    }
                    let s = tr.begin("rj_core.exec", req, ledger);
                    let r = ex.execute_with_k(Algorithm::Auto, k);
                    let tag = r
                        .as_ref()
                        .map_or("error", |o| fixture::algorithm_name(o.algorithm));
                    tr.end(s, tag, ledger);
                    r.map(|o| (o.results, tag))
                }
                QueryKind::Spec3 => {
                    let s = tr.begin("rj_core.exec", req, ledger);
                    let r = fx.spec.execute_with_k(k);
                    tr.end(s, "spec3", ledger);
                    r.map(|o| (o.results, "spec3"))
                }
            };
            let us = t.elapsed().as_secs_f64() * 1e6;
            let delta = ledger().delta_since(&before);
            tr.end(root, "", ledger);
            epoch_s += us / 1e6;
            if !traced {
                host.push("query_us", us);
            }
            let (results, tag) = match executed {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("adhoc: {} k={k} failed: {e}", kind.name());
                    continue;
                }
            };
            let want = &refs[&kind][..k.min(refs[&kind].len())];
            if results != want {
                out.wrong += 1;
                eprintln!(
                    "adhoc: wrong answer for {} k={k} ({tag}): {} results, reference {}",
                    kind.name(),
                    results.len(),
                    want.len()
                );
            }
            if first {
                exact.queries += 1;
                exact.sim_ms.push(delta.sim_seconds * 1e3);
                add_ledger(&mut exact.ledger, &delta);
                exact.results += results.len() as u64;
                if kind != QueryKind::Spec3 {
                    *exact.picks.entry(tag).or_insert(0) += 1;
                }
            }
        }
        if first {
            out.e2e.insert("peak_rss_mb", crate::measure::peak_rss_mb());
            planning = (evals() - evals0, collections() - collections0);
        }
        overhead.add(traced, epoch_s, queries.len() as u64);
    }

    let n = exact.queries.max(1) as f64;
    let base = fixture::base_bytes(&fx.cluster);
    let index_bytes = |name: String| fixture::table_bytes(&fx.cluster, &name);
    let isl = index_bytes(rj_core::isl::index_table_name(fx.q1.query()))
        + index_bytes(rj_core::isl::index_table_name(fx.q2.query()));
    let bfhm = index_bytes(rj_core::bfhm::index_table_name(fx.q1.query()))
        + index_bytes(rj_core::bfhm::index_table_name(fx.q2.query()));
    let spec3 = index_bytes(fx.spec.index_table().expect("prepared").to_owned());
    let e = &mut out.e2e;
    e.insert("ops_per_s", ops_per_s([host.get("query_us")]));
    e.insert("query_p50_us", host.pct("query_us", 0.50));
    e.insert("query_p99_us", host.pct("query_us", 0.99));
    e.insert("sim_p50_ms", percentile(&exact.sim_ms, 0.50));
    e.insert("sim_p99_ms", percentile(&exact.sim_ms, 0.99));
    e.insert("kv_reads_per_query", exact.ledger.kv_reads as f64 / n);
    e.insert("net_bytes_per_query", exact.ledger.network_bytes as f64 / n);
    e.insert(
        "index_bytes_per_base_byte",
        (isl + bfhm + spec3) as f64 / base as f64,
    );

    let binary = (exact.picks.values().sum::<u64>()).max(1) as f64;
    exec_layers(&out.tracer, &mut out.layers);
    let l = &mut out.layers;
    l.insert("rj_store.rpcs_per_query", exact.ledger.rpc_calls as f64 / n);
    l.insert(
        "rj_store.node_s_per_sim_s",
        ratio(exact.ledger.node_seconds, exact.ledger.sim_seconds),
    );
    l.insert(
        "rj_store.admin_kv_reads",
        exact.ledger.admin_kv_reads as f64,
    );
    l.insert("rj_store.kv_reads_per_write", 0.0);
    l.insert("rj_core.planner.candidate_evals", planning.0 as f64);
    l.insert("rj_core.planner.stats_collections", planning.1 as f64);
    for (alg, name) in [
        ("isl", "rj_core.planner.pick.isl"),
        ("bfhm", "rj_core.planner.pick.bfhm"),
    ] {
        l.insert(
            name,
            exact.picks.get(alg).copied().unwrap_or(0) as f64 / binary,
        );
    }
    l.insert(
        "rj_core.exec.kv_reads_per_result",
        ratio(exact.ledger.kv_reads as f64, exact.results as f64),
    );
    l.insert("rj_core.index_bytes.isl", isl as f64);
    l.insert("rj_core.index_bytes.bfhm", bfhm as f64);
    l.insert("rj_core.index_bytes.spec3", spec3 as f64);
    // One closed-loop client: the rate it sustains is its completed
    // queries per simulated second.
    l.insert(
        "sim_max_rate_qps",
        ratio(exact.queries as f64, exact.ledger.sim_seconds),
    );
    l.insert("trace.overhead_frac", overhead.fraction());
    out.notes.push(format!(
        "adhoc: {} epochs of {} queries; first epoch: {} queries, Auto picked {:?}",
        epochs.done,
        queries.len(),
        exact.queries,
        exact.picks
    ));
    out
}
