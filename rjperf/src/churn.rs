//! `churn`: maintained writes beside planned reads, closed loop, one
//! client, serial executor.
//!
//! Each step applies one leveled TPC-H refresh set through
//! `MaintainedSide`s on Orders and Lineitem with ISL, BFHM and the Q2
//! executor's `SharedTableStats` attached, then runs five Q2 `Auto`
//! queries at depths near 10, then 1, 10, 10 and 50. The refresh stream
//! is the same for every seed; the seed jitters the depths and orders the
//! last four queries. Host time lands in the §6 write path
//! (BFHM blob records, statistics deltas), store writes, and re-planning
//! after version bumps; the serving layer and the pool are never used.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rj_core::bfhm::maintenance::BfhmMaintainer;
use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::maintenance::MaintainedSide;
use rj_core::query::RankJoinQuery;
use rj_core::statsmaint::StatsMaintainer;
use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::keys;
use rj_store::metrics::MetricsSnapshot;
use rj_store::parallel::ExecutionMode;
use rj_tpch::gen::LineitemRow;
use rj_tpch::loader::rowkeys;

use crate::common::{exec_layers, ops_per_s, Args, Epochs, Outcome, Overhead, SetupTimes, SETUPS};
use crate::fixture::{self, Builds, QueryKind};
use crate::measure::{add_ledger, percentile, ratio, Samples};
use crate::model::{LeveledRefresh, Model, Write};
use crate::rng::Rng;
use crate::trace::{SpanId, Tracer};

/// Refresh steps per epoch.
const STEPS: usize = 96;
/// Query depths of one step, each jittered; the first runs first and the
/// rest in a seeded order. Three of five near 10 put the median inside
/// that class. The first query after a refresh set pays any statistics
/// recollection the writes made due, and those queries make the p99; a
/// fixed depth class for it keeps the p99 from depending on the seed.
const STEP_KS: [usize; 5] = [10, 1, 10, 10, 50];

/// The write-path wiring of one query pair: a maintained side per base
/// table, each fanning out to the pair's ISL and BFHM indices and its
/// statistics handle.
pub struct Maintained {
    /// Orders (left side of Q2).
    pub orders: MaintainedSide,
    /// Lineitem (right side of Q2).
    pub lineitems: MaintainedSide,
}

impl Maintained {
    /// Wires both sides of `ex`'s query; `bfhm` attaches the BFHM
    /// maintainers (the index must be built), and every write's
    /// statistics delta also reaches the `extra` maintainers.
    pub fn new(
        cluster: &Cluster,
        ex: &RankJoinExecutor,
        bfhm: bool,
        extra: &[Arc<dyn StatsMaintainer>],
    ) -> Self {
        let q: &RankJoinQuery = ex.query();
        let isl = rj_core::isl::index_table_name(q);
        let bfhm_table = rj_core::bfhm::index_table_name(q);
        let side = |s: &rj_core::query::JoinSide| {
            let mut m = MaintainedSide::new(cluster, s.clone())
                .with_isl(&isl)
                .with_stats(ex.stats_handle());
            for stats in extra {
                m = m.with_stats(Arc::clone(stats));
            }
            if bfhm {
                m = m.with_bfhm(
                    BfhmMaintainer::attach(cluster, &bfhm_table, &s.label)
                        .expect("attach BFHM maintainer"),
                );
            }
            m
        };
        Maintained {
            orders: side(&q.left),
            lineitems: side(&q.right),
        }
    }

    /// Applies one write. `li_extra` supplies the lineitem columns the
    /// side does not maintain itself. Returns the span tag.
    pub fn apply(
        &self,
        w: &Write,
        li_extra: impl Fn(&LineitemRow) -> Vec<Mutation>,
    ) -> rj_core::error::Result<&'static str> {
        match w {
            Write::InsertOrder(o) => self
                .orders
                .insert(
                    &rowkeys::order(o.order_key),
                    &keys::encode_u64(o.order_key),
                    o.total_score,
                    vec![],
                )
                .map(|_| "insert"),
            Write::InsertLineitem(l) => self
                .lineitems
                .insert(
                    &rowkeys::lineitem(l.order_key, l.line_number),
                    &keys::encode_u64(l.order_key),
                    l.extended_score,
                    li_extra(l),
                )
                .map(|_| "insert"),
            Write::DeleteLineitem(l) => self
                .lineitems
                .delete(&rowkeys::lineitem(l.order_key, l.line_number))
                .map(|_| "delete"),
            Write::DeleteOrder(o) => self
                .orders
                .delete(&rowkeys::order(o.order_key))
                .map(|_| "delete"),
        }
    }
}

struct Fixture {
    cluster: Cluster,
    q2: RankJoinExecutor,
    sides: Maintained,
}

fn setup() -> (Fixture, f64, Builds) {
    let loaded = fixture::load();
    let mut builds = Builds::default();
    let c = &loaded.cluster;
    let q2 = fixture::binary_executor(c, fixture::q2(10), ExecutionMode::Serial, true, &mut builds);
    let sides = Maintained::new(c, &q2, true, &[]);
    // Prime the statistics so the first step exercises the maintained
    // path rather than the first-ever collection.
    q2.plan().expect("prime plan");
    let fx = Fixture {
        cluster: loaded.cluster,
        q2,
        sides,
    };
    (fx, loaded.load_s, builds)
}

/// Counts over the first epoch.
#[derive(Default)]
struct Exact {
    queries: u64,
    writes: u64,
    inserts: u64,
    deletes: u64,
    sim_ms: Vec<f64>,
    query_ledger: MetricsSnapshot,
    insert_ledger: MetricsSnapshot,
    delete_ledger: MetricsSnapshot,
    results: u64,
    picks: BTreeMap<&'static str, u64>,
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(Tracer::new(false));
    let mut setups = SetupTimes::default();
    // Every epoch starts from a fresh set-up, so each does the same work:
    // the store keeps the history of every write, and a later step on
    // one set-up costs more than an earlier one.
    for _ in 1..SETUPS {
        drop(setups.time(&mut out.speed, setup));
    }
    let cfg = fixture::tpch_config();
    let mut host = Samples::default();
    let mut exact = Exact::default();
    let mut overhead = Overhead::default();
    let mut epochs = Epochs::start(args);
    let mut start = None;
    let mut end_of_first = None;
    let mut req = 0u64;
    while epochs.next(&mut out.tracer) {
        let first = epochs.first();
        let traced = out.tracer.on();
        let fx = setups.time(&mut out.speed, setup);
        let mut model = Model::load(&cfg);
        let mut refresh = LeveledRefresh::new(cfg);
        let mut rng = Rng::new(args.seed, 3);
        let handle = fx.q2.stats_handle();
        let ledger = || fx.cluster.metrics().snapshot();
        if first {
            start = Some((
                handle.version(),
                handle.collections(),
                fx.q2.candidate_evaluations(),
                model.live_rows(),
            ));
        }
        let (mut epoch_s, mut epoch_ops) = (0.0, 0u64);
        for _ in 0..STEPS {
            let writes = refresh.next_step();
            for w in &writes {
                out.speed.tick();
                req += 1;
                out.attempted += 1;
                let tr = &mut out.tracer;
                let root = tr.begin("op", req, ledger);
                let before = ledger();
                let t = Instant::now();
                let span: SpanId = tr.begin("rj_core.maintenance", req, ledger);
                let r = fx.sides.apply(w, |_| vec![]);
                tr.end(span, r.as_ref().unwrap_or(&"error"), ledger);
                let us = t.elapsed().as_secs_f64() * 1e6;
                let delta = ledger().delta_since(&before);
                tr.end(root, "", ledger);
                epoch_s += us / 1e6;
                epoch_ops += 1;
                if !traced {
                    host.push("write_us", us);
                }
                match r {
                    Ok(kind) => {
                        model.apply(w, false);
                        if first {
                            exact.writes += 1;
                            if kind == "insert" {
                                exact.inserts += 1;
                                add_ledger(&mut exact.insert_ledger, &delta);
                            } else {
                                exact.deletes += 1;
                                add_ledger(&mut exact.delete_ledger, &delta);
                            }
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("churn: write failed: {e}");
                    }
                }
            }
            // The reference for this data version, outside the timed calls.
            let mut ks = STEP_KS.map(|k| rng.near(k));
            rng.shuffle(&mut ks[1..]);
            let want = model.topk(QueryKind::Q2, *ks.iter().max().expect("depths"));
            for k in ks {
                out.speed.tick();
                req += 1;
                out.attempted += 1;
                let tr = &mut out.tracer;
                let root = tr.begin("op", req, ledger);
                let before = ledger();
                let t = Instant::now();
                if tr.on() {
                    let s = tr.begin("rj_core.planner", req, ledger);
                    let _ = fx.q2.plan_with_k(k);
                    tr.end(s, "", ledger);
                }
                let s = tr.begin("rj_core.exec", req, ledger);
                let r = fx.q2.execute_with_k(Algorithm::Auto, k);
                let tag = r
                    .as_ref()
                    .map_or("error", |o| fixture::algorithm_name(o.algorithm));
                tr.end(s, tag, ledger);
                let us = t.elapsed().as_secs_f64() * 1e6;
                let delta = ledger().delta_since(&before);
                tr.end(root, "", ledger);
                epoch_s += us / 1e6;
                epoch_ops += 1;
                if !traced {
                    host.push("query_us", us);
                }
                let results = match r {
                    Ok(o) => o.results,
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("churn: Q2 k={k} failed: {e}");
                        continue;
                    }
                };
                if results[..] != want[..k.min(want.len())] {
                    out.wrong += 1;
                    eprintln!("churn: wrong Q2 answer at k={k} ({tag})");
                }
                if first {
                    exact.queries += 1;
                    exact.sim_ms.push(delta.sim_seconds * 1e3);
                    add_ledger(&mut exact.query_ledger, &delta);
                    exact.results += results.len() as u64;
                    *exact.picks.entry(tag).or_insert(0) += 1;
                }
            }
        }
        if first {
            out.e2e.insert("peak_rss_mb", crate::measure::peak_rss_mb());
        }
        overhead.add(traced, epoch_s, epoch_ops);
        if first {
            end_of_first = Some(EndOfFirst {
                index: index_bytes(&fx),
                base: fixture::base_bytes(&fx.cluster),
                version: handle.version(),
                collections: handle.collections(),
                evals: fx.q2.candidate_evaluations(),
                rows: model.live_rows(),
            });
        }
    }
    let end = end_of_first.expect("one epoch ran");
    let (version0, collections0, evals0, start_rows) = start.expect("one epoch ran");
    setups.report(&mut out);

    let nq = exact.queries.max(1) as f64;
    let nw = exact.writes.max(1) as f64;
    let writes_ledger = {
        let mut w = exact.insert_ledger;
        add_ledger(&mut w, &exact.delete_ledger);
        w
    };
    let e = &mut out.e2e;
    e.insert(
        "ops_per_s",
        ops_per_s([host.get("query_us"), host.get("write_us")]),
    );
    e.insert("query_p50_us", host.pct("query_us", 0.50));
    e.insert("query_p99_us", host.pct("query_us", 0.99));
    e.insert("sim_p50_ms", percentile(&exact.sim_ms, 0.50));
    e.insert("sim_p99_ms", percentile(&exact.sim_ms, 0.99));
    e.insert(
        "kv_reads_per_query",
        exact.query_ledger.kv_reads as f64 / nq,
    );
    e.insert(
        "net_bytes_per_query",
        exact.query_ledger.network_bytes as f64 / nq,
    );
    e.insert(
        "index_bytes_per_base_byte",
        (end.index.0 + end.index.1) as f64 / end.base as f64,
    );

    exec_layers(&out.tracer, &mut out.layers);
    let tr = &out.tracer;
    let l = &mut out.layers;
    l.insert(
        "rj_store.rpcs_per_query",
        exact.query_ledger.rpc_calls as f64 / nq,
    );
    l.insert(
        "rj_store.node_s_per_sim_s",
        ratio(
            exact.query_ledger.node_seconds,
            exact.query_ledger.sim_seconds,
        ),
    );
    l.insert(
        "rj_store.admin_kv_reads",
        (exact.query_ledger.admin_kv_reads + writes_ledger.admin_kv_reads) as f64,
    );
    l.insert(
        "rj_store.kv_reads_per_write",
        writes_ledger.kv_reads as f64 / nw,
    );
    l.insert(
        "rj_core.planner.candidate_evals",
        (end.evals - evals0) as f64,
    );
    l.insert(
        "rj_core.planner.stats_collections",
        (end.collections - collections0) as f64,
    );
    for (alg, name) in [
        ("isl", "rj_core.planner.pick.isl"),
        ("bfhm", "rj_core.planner.pick.bfhm"),
    ] {
        l.insert(name, exact.picks.get(alg).copied().unwrap_or(0) as f64 / nq);
    }
    l.insert(
        "rj_core.exec.kv_reads_per_result",
        ratio(exact.query_ledger.kv_reads as f64, exact.results as f64),
    );
    l.insert("rj_core.index_bytes.isl", end.index.0 as f64);
    l.insert("rj_core.index_bytes.bfhm", end.index.1 as f64);
    let ins = tr.durations_us("rj_core.maintenance", Some("insert"));
    let del = tr.durations_us("rj_core.maintenance", Some("delete"));
    let all = tr.durations_us("rj_core.maintenance", None);
    l.insert("rj_core.maintenance.insert_us_p50", percentile(&ins, 0.50));
    l.insert("rj_core.maintenance.delete_us_p50", percentile(&del, 0.50));
    l.insert(
        "rj_core.maintenance.kv_writes_per_insert",
        ratio(exact.insert_ledger.kv_writes as f64, exact.inserts as f64),
    );
    l.insert(
        "rj_core.maintenance.kv_writes_per_delete",
        ratio(exact.delete_ledger.kv_writes as f64, exact.deletes as f64),
    );
    l.insert(
        "rj_core.maintenance.version_bumps",
        (end.version - version0) as f64,
    );
    l.insert("write_p50_us", percentile(&all, 0.50));
    l.insert("write_p99_us", percentile(&all, 0.99));
    l.insert("kv_writes_per_write", writes_ledger.kv_writes as f64 / nw);
    l.insert(
        "sim_max_rate_qps",
        ratio(
            (exact.queries + exact.writes) as f64,
            exact.query_ledger.sim_seconds + writes_ledger.sim_seconds,
        ),
    );
    l.insert("trace.overhead_frac", overhead.fraction());
    out.notes.push(format!(
        "churn: {} epochs of {STEPS} steps, each on a fresh set-up; first epoch: {} writes, {} queries, Auto picked {:?}; \
         live (orders, lineitems) {:?} at start, {:?} after the first epoch",
        epochs.done, exact.writes, exact.queries, exact.picks, start_rows, end.rows
    ));
    out
}

struct EndOfFirst {
    /// ISL and BFHM index bytes.
    index: (u64, u64),
    base: u64,
    version: u64,
    collections: u64,
    evals: u64,
    rows: (usize, usize),
}

fn index_bytes(fx: &Fixture) -> (u64, u64) {
    let q = fx.q2.query();
    (
        fixture::table_bytes(&fx.cluster, &rj_core::isl::index_table_name(q)),
        fixture::table_bytes(&fx.cluster, &rj_core::bfhm::index_table_name(q)),
    )
}
