//! `serve`: open-loop multi-tenant serving in simulated time through
//! `RankJoinService` with sharing on, with a light write stream.
//!
//! Three backends (Q1, Q2 and the 3-way path), eight Zipf-weighted
//! tenants, depths from a wide fixed set, one session in eight at
//! `Batch` priority, some sessions paged and some with deadlines.
//! Requests are due at fixed spacing for each of a few absolute offered
//! rates; every rate replays the same request list on a fresh set-up.
//! Every `WRITE_EVERY` arrivals a leveled refresh set lands through
//! `MaintainedSide`s registered on the Q2 and 3-way statistics handles,
//! which bumps their versions: caches go stale and parked pages fail
//! with `StaleContinuation` (the client then re-submits unpaged).
//!
//! The §6 write path maintains one join column per row write, so
//! lineitem writes reach Q2's index but not Q1's, and nothing maintains
//! the multiway index. At each refresh the benchmark therefore drains
//! the queue, applies the writes, and has the service rebuild Q1 and
//! the 3-way backend in a maintenance-only round before later arrivals
//! are admitted. The multiway index is dropped first:
//! `SpecExecutor::prepare` cannot rebuild over an existing table.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rj_core::result::JoinTuple;
use rj_core::statsmaint::{SharedTableStats, StatsMaintainer};
use rj_serve::{
    BackendId, PageToken, QueryPriority, RankJoinService, ServeConfig, ServeError, ServedBy,
    SessionId, SessionOutcome, SessionResult, SessionStatus, SubmitOptions, TenantId,
};
use rj_store::cell::Mutation;
use rj_store::cluster::Cluster;
use rj_store::keys;
use rj_store::metrics::MetricsSnapshot;
use rj_store::parallel::ExecutionMode;
use rj_tpch::loader::{cols, FAMILY};

use crate::churn::Maintained;
use crate::common::{Args, Epochs, Outcome, Overhead, SetupTimes, SETUPS};
use crate::fixture::{self, Builds, QueryKind};
use crate::measure::{add_ledger, median, peak_rss_mb, percentile, ratio};
use crate::model::{LeveledRefresh, Model};
use crate::rng::Rng;
use crate::speed::Speed;
use crate::trace::Tracer;

/// Offered rates, sessions per simulated second.
const RATES: [f64; 3] = [2.0, 4.0, 8.0];
/// The rate the end-to-end simulated metrics are taken at (4/s). At 2/s
/// 40% of sessions are idle-time cache hits with a sojourn of exactly 0,
/// so the median sits on the edge between them and the executions.
const NOMINAL: usize = 1;
/// Latency limit on the simulated p99 sojourn, seconds.
const LIMIT_S: f64 = 3.0;
/// Requests at the nominal rate: twenty sessions beyond the p99, so the
/// p99 does not hang on a handful of sessions.
const NOMINAL_ARRIVALS: usize = 2048;
/// Requests at the other rates (the first ones of the same list).
const ARRIVALS: usize = 256;
/// Arrivals between refresh sets.
const WRITE_EVERY: usize = 16;
/// Registered tenants.
const TENANTS: usize = 8;
/// Zipf skew across tenants.
const ZIPF_S: f64 = 1.1;
/// Depths binary sessions ask for (each jittered).
const KS: [usize; 7] = [1, 5, 10, 20, 50, 100, 200];
/// Depths 3-way sessions ask for (each jittered).
const KS_3WAY: [usize; 4] = [1, 10, 50, 100];
/// Seed of the request template shared by every benchmark seed.
const TEMPLATE_SEED: u64 = 0x5e7e_b10c;
/// Sessions dispatched per round.
const ROUND_WIDTH: usize = 4;
/// Simulated-seconds budget of a session with a deadline: generous, so
/// deadlines are checked at every batch but do not expire at these rates.
const DEADLINE_S: f64 = 10.0;

/// One request of the replayed list.
#[derive(Clone, Debug)]
struct Request {
    kind: QueryKind,
    tenant: usize,
    k: usize,
    priority: QueryPriority,
    page_size: Option<usize>,
    deadline: bool,
}

impl Request {
    fn options(&self, paged: bool) -> SubmitOptions {
        let mut o = SubmitOptions::topk(self.k).with_priority(self.priority);
        if self.deadline {
            o = o.with_deadline(DEADLINE_S);
        }
        match self.page_size {
            Some(p) if paged => o.with_page_size(p),
            _ => o,
        }
    }
}

/// The request list. Its shape is one fixed template for every seed:
/// blocks of 16 (one refresh interval), each with two 3-way sessions and
/// seven each of Q1 and Q2 over every depth of `KS`, in a shuffled
/// order; two sessions per block are `Batch`, the deep ones in four
/// fixed slots are paged, and four slots carry deadlines. The seed
/// jitters each depth and draws each session's tenant (Zipf). Which
/// sessions hit the prefix cache depends on the order of depths between
/// refreshes, so a seeded order would change the work done by ±15%
/// from seed to seed; the template keeps it the same.
fn requests(seed: u64) -> Vec<Request> {
    let mut shape = Rng::new(TEMPLATE_SEED, 2);
    let mut rng = Rng::new(seed, 2);
    let weights: Vec<f64> = (1..=TENANTS)
        .map(|i| 1.0 / (i as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut out = Vec::with_capacity(NOMINAL_ARRIVALS);
    for block in 0..NOMINAL_ARRIVALS.div_ceil(WRITE_EVERY) {
        let spec_ks = [KS_3WAY[block % 4], KS_3WAY[(block + 2) % 4]];
        let mut slots: Vec<(QueryKind, usize)> =
            spec_ks.iter().map(|&k| (QueryKind::Spec3, k)).collect();
        for kind in [QueryKind::Q1, QueryKind::Q2] {
            slots.extend(KS.iter().map(|&k| (kind, k)));
        }
        shape.shuffle(&mut slots);
        for (i, (kind, nominal)) in slots.into_iter().enumerate() {
            let mut u = rng.unit() * total;
            let tenant = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u <= 0.0
                })
                .unwrap_or(TENANTS - 1);
            let k = rng.near(nominal);
            out.push(Request {
                kind,
                tenant,
                k,
                priority: if i % 8 == 7 {
                    QueryPriority::Batch
                } else {
                    QueryPriority::Interactive
                },
                page_size: (i % 4 == 1 && nominal >= 10).then_some(k.div_ceil(3)),
                deadline: i % 4 == 2,
            });
        }
    }
    out.truncate(NOMINAL_ARRIVALS);
    out
}

struct Fixture {
    cluster: Cluster,
    service: RankJoinService,
    backends: BTreeMap<QueryKind, BackendId>,
    tenants: Vec<TenantId>,
    sides: Maintained,
    handles: [Arc<SharedTableStats>; 2],
    mw_table: String,
}

fn setup() -> (Fixture, f64, Builds) {
    let loaded = fixture::load();
    let c = &loaded.cluster;
    let mut builds = Builds::default();
    let serial = ExecutionMode::Serial;
    let q1 = fixture::binary_executor(c, fixture::q1(10), serial, false, &mut builds);
    let q2 = fixture::binary_executor(c, fixture::q2(10), serial, false, &mut builds);
    let spec = fixture::spec3_executor(c, &mut builds);
    let extra: Arc<dyn StatsMaintainer> = spec.spec_stats().expect("3-way spec has spec stats");
    let sides = Maintained::new(c, &q2, false, &[extra]);
    q1.plan().expect("prime Q1 statistics");
    q2.plan().expect("prime Q2 statistics");
    spec.plan_access(10).expect("prime 3-way statistics");
    let handles = [q1.stats_handle(), q2.stats_handle()];
    let mw_table = spec.index_table().expect("prepared").to_owned();
    let service = RankJoinService::new(ServeConfig {
        round_width: ROUND_WIDTH,
        max_queue_per_tenant: usize::MAX,
        sharing: true,
        pool_threads: None,
        coalesce_hold_rounds: 0,
    });
    let mut backends = BTreeMap::new();
    backends.insert(
        QueryKind::Q1,
        service.register_backend(q1).expect("Q1 backend"),
    );
    backends.insert(
        QueryKind::Q2,
        service.register_backend(q2).expect("Q2 backend"),
    );
    backends.insert(
        QueryKind::Spec3,
        service.register_spec_backend(spec).expect("3-way backend"),
    );
    let tenants = (0..TENANTS)
        .map(|i| {
            service
                .register_tenant(&format!("t{i}"), 1.0)
                .expect("tenant")
        })
        .collect();
    let fx = Fixture {
        cluster: loaded.cluster,
        service,
        backends,
        tenants,
        sides,
        handles,
        mw_table,
    };
    (fx, loaded.load_s, builds)
}

/// A request in flight.
struct Live {
    req: usize,
    session: SessionId,
    /// The arm's service host seconds when the original submit began.
    submitted: f64,
    /// Simulated clock at the original submit.
    submitted_at: f64,
    parked: Option<PageToken>,
}

/// What one rate's replay measured.
#[derive(Default)]
struct Arm {
    rate: f64,
    sessions: u64,
    failed: u64,
    wrong: u64,
    sojourn_s: Vec<f64>,
    lag_s: Vec<f64>,
    queue_depth: Vec<f64>,
    dispatched: Vec<f64>,
    requeued: u64,
    stale_retries: u64,
    served: BTreeMap<&'static str, u64>,
    charged: MetricsSnapshot,
    results: u64,
    insert_ledger: MetricsSnapshot,
    delete_ledger: MetricsSnapshot,
    inserts: u64,
    deletes: u64,
    drain_s: f64,
    counters: rj_serve::ServeCounters,
    admin_kv_reads: u64,
    version_bumps: u64,
    stats_collections: u64,
    index: (u64, u64),
    base: u64,
    /// Host seconds inside service and write-path calls; the benchmark's
    /// own work (answer checks, references, the speed kernel) is outside.
    host_s: f64,
    /// Host latency of each session: the `host_s` that passed from the
    /// start of its submit to its answer.
    session_us: Vec<f64>,
}

impl Arm {
    fn meets_limit(&self) -> bool {
        self.failed == 0 && percentile(&self.sojourn_s, 0.99) <= LIMIT_S && self.drain_s <= LIMIT_S
    }
}

/// Reference answers per data version: `refs[v][kind]` is the deepest
/// top-k after `v` refresh sets.
type Refs = Vec<BTreeMap<QueryKind, Vec<JoinTuple>>>;

struct Replay<'a> {
    fx: &'a Fixture,
    reqs: &'a [Request],
    rate: f64,
    refs: &'a mut Refs,
    model: Option<Model>,
    refresh: LeveledRefresh,
    tracer: &'a mut Tracer,
    speed: &'a mut Speed,
    live: Vec<Live>,
    arm: Arm,
    version: usize,
    kmax: usize,
}

impl Replay<'_> {
    fn due(&self, i: usize) -> f64 {
        i as f64 / self.rate
    }

    fn ledger(&self) -> MetricsSnapshot {
        self.fx.cluster.metrics().snapshot()
    }

    fn submit(&mut self, req: usize, paged: bool, first: Option<(f64, f64)>) {
        let r = &self.reqs[req];
        let fx = self.fx;
        let s = self
            .tracer
            .begin("rj_serve.submit", req as u64, MetricsSnapshot::default);
        let host_before = self.arm.host_s;
        let t = Instant::now();
        let id = fx
            .service
            .submit(fx.tenants[r.tenant], fx.backends[&r.kind], r.options(paged));
        self.arm.host_s += t.elapsed().as_secs_f64();
        self.tracer.end(s, "", MetricsSnapshot::default);
        match id {
            Ok(session) => {
                let (submitted, submitted_at) = first.unwrap_or((host_before, fx.service.clock()));
                self.live.push(Live {
                    req,
                    session,
                    submitted,
                    submitted_at,
                    parked: None,
                });
            }
            Err(e) => {
                self.arm.failed += 1;
                eprintln!("serve: submit refused: {e}");
            }
        }
    }

    /// Records a finished session and checks its answer against the
    /// reference of the current data version.
    fn finish(&mut self, live: &Live, result: &SessionResult) {
        let r = &self.reqs[live.req];
        self.arm
            .session_us
            .push((self.arm.host_s - live.submitted) * 1e6);
        if result.outcome != SessionOutcome::Complete {
            self.arm.failed += 1;
            eprintln!("serve: session ended {:?}", result.outcome);
            return;
        }
        self.arm.sessions += 1;
        self.arm
            .sojourn_s
            .push(result.completed_at - self.due(live.req));
        self.arm.lag_s.push(live.submitted_at - self.due(live.req));
        let by = match result.served_by {
            ServedBy::Execution => "execution",
            ServedBy::SharedExecution => "shared",
            ServedBy::PrefixCache => "prefix_cache",
            ServedBy::Unserved => "unserved",
        };
        *self.arm.served.entry(by).or_insert(0) += 1;
        add_ledger(&mut self.arm.charged, &result.charged);
        self.arm.results += result.results.len() as u64;
        let want = &self.refs[self.version][&r.kind];
        if result.results[..] != want[..r.k.min(want.len())] {
            self.arm.wrong += 1;
            eprintln!(
                "serve: wrong answer for {} k={} ({by}) after {} refreshes",
                r.kind.name(),
                r.k,
                self.version
            );
        }
    }

    /// Polls every unparked session once.
    fn collect(&mut self) {
        let fx = self.fx;
        let mut still = Vec::with_capacity(self.live.len());
        for mut live in std::mem::take(&mut self.live) {
            if live.parked.is_some() {
                still.push(live);
                continue;
            }
            match fx.service.poll(live.session) {
                Ok(SessionStatus::Done(result)) => self.finish(&live, &result),
                Ok(SessionStatus::Paged(info)) => {
                    live.parked = Some(info.token);
                    still.push(live);
                }
                Ok(_) => still.push(live),
                Err(e) => {
                    self.arm.failed += 1;
                    eprintln!("serve: poll failed: {e}");
                }
            }
        }
        self.live = still;
    }

    /// Each parked client pulls its next page.
    fn fetch_pages(&mut self) {
        let fx = self.fx;
        let mut still = Vec::with_capacity(self.live.len());
        for mut live in std::mem::take(&mut self.live) {
            let Some(token) = live.parked else {
                still.push(live);
                continue;
            };
            let s = self.tracer.begin(
                "rj_serve.next_page",
                live.req as u64,
                MetricsSnapshot::default,
            );
            let t = Instant::now();
            let status = fx.service.next_page(token);
            self.arm.host_s += t.elapsed().as_secs_f64();
            self.tracer.end(s, "", MetricsSnapshot::default);
            match status {
                Ok(SessionStatus::Done(result)) => self.finish(&live, &result),
                Ok(SessionStatus::Paged(info)) => {
                    live.parked = Some(info.token);
                    still.push(live);
                }
                Ok(_) => {
                    live.parked = None;
                    still.push(live);
                }
                Err(ServeError::StaleContinuation { .. }) => {
                    // A refresh landed between pages: the client asks
                    // again, unpaged, keeping its original due time.
                    self.arm.stale_retries += 1;
                    self.submit(live.req, false, Some((live.submitted, live.submitted_at)));
                }
                Err(e) => {
                    self.arm.failed += 1;
                    eprintln!("serve: next_page failed: {e}");
                }
            }
        }
        self.live.extend(still);
    }

    fn pending(&self) -> usize {
        self.live.iter().filter(|l| l.parked.is_none()).count()
    }

    fn round(&mut self) {
        let fx = self.fx;
        self.arm.queue_depth.push(self.pending() as f64);
        let s = self
            .tracer
            .begin("rj_serve.round", 0, MetricsSnapshot::default);
        let t = Instant::now();
        let report = fx.service.run_round();
        self.arm.host_s += t.elapsed().as_secs_f64();
        self.tracer.end(s, "", MetricsSnapshot::default);
        match report {
            Ok(r) => {
                self.arm.dispatched.push(r.dispatched as f64);
                self.arm.requeued += r.requeued as u64;
            }
            Err(e) => {
                self.arm.failed += 1;
                eprintln!("serve: round failed: {e}");
            }
        }
        self.collect();
    }

    /// Drains the queue, applies one refresh set, and rebuilds the
    /// backends the write path does not maintain.
    fn refresh(&mut self) {
        while self.pending() > 0 {
            self.round();
        }
        let fx = self.fx;
        let writes = self.refresh.next_step();
        let li_extra = |l: &rj_tpch::gen::LineitemRow| {
            vec![Mutation::put(
                FAMILY,
                cols::JK_PART,
                keys::encode_u64(l.part_key).to_vec(),
            )]
        };
        for w in &writes {
            let before = self.ledger();
            let s = self.tracer.begin("rj_core.maintenance", 0, || before);
            let t = Instant::now();
            let r = fx.sides.apply(w, li_extra);
            self.arm.host_s += t.elapsed().as_secs_f64();
            let tag = *r.as_ref().unwrap_or(&"error");
            self.tracer.end(s, tag, || fx.cluster.metrics().snapshot());
            let delta = self.ledger().delta_since(&before);
            match r {
                Ok("insert") => {
                    self.arm.inserts += 1;
                    add_ledger(&mut self.arm.insert_ledger, &delta);
                }
                Ok(_) => {
                    self.arm.deletes += 1;
                    add_ledger(&mut self.arm.delete_ledger, &delta);
                }
                Err(e) => {
                    self.arm.failed += 1;
                    eprintln!("serve: write failed: {e}");
                }
            }
            if let Some(m) = self.model.as_mut() {
                m.apply(w, true);
            }
        }
        let t = Instant::now();
        let rebuild = fx
            .service
            .schedule_rebuild(fx.backends[&QueryKind::Q1])
            .and_then(|()| {
                fx.cluster
                    .drop_table(&fx.mw_table)
                    .map_err(|e| ServeError::Core(e.into()))
            })
            .and_then(|()| fx.service.schedule_rebuild(fx.backends[&QueryKind::Spec3]));
        self.arm.host_s += t.elapsed().as_secs_f64();
        if let Err(e) = rebuild {
            self.arm.failed += 1;
            eprintln!("serve: scheduling rebuilds failed: {e}");
        }
        self.round();
        self.version += 1;
        if self.refs.len() <= self.version {
            let m = self
                .model
                .as_ref()
                .expect("the first replay keeps the model");
            let kmax = self.kmax;
            self.refs.push(
                QueryKind::ALL
                    .iter()
                    .map(|&q| (q, m.topk(q, kmax)))
                    .collect(),
            );
        }
    }

    fn run(mut self) -> Arm {
        let fx = self.fx;
        let versions = |fx: &Fixture| fx.handles.iter().map(|h| h.version()).sum::<u64>();
        let collections = |fx: &Fixture| fx.handles.iter().map(|h| h.collections()).sum::<u64>();
        let (v0, c0, l0) = (versions(fx), collections(fx), self.ledger());
        let mut next = 0usize;
        // The refresh set due before arrival `next` has not landed yet.
        let refresh_due =
            |next: usize, version: usize| next < self.reqs.len() && version < next / WRITE_EVERY;
        loop {
            // Between service calls, so outside every timed interval.
            self.speed.tick();
            self.fetch_pages();
            if refresh_due(next, self.version) {
                self.refresh();
            }
            let clock = fx.service.clock();
            while next < self.reqs.len() && self.due(next) <= clock {
                let paged = self.reqs[next].page_size.is_some();
                self.submit(next, paged, None);
                next += 1;
                if next.is_multiple_of(WRITE_EVERY) {
                    break;
                }
            }
            if self.pending() == 0 {
                if self.live.iter().any(|l| l.parked.is_some()) {
                    continue;
                }
                if next >= self.reqs.len() {
                    break;
                }
                if refresh_due(next, self.version) {
                    continue; // it lands at the top of the loop
                }
                fx.service.advance_clock_to(self.due(next));
                continue;
            }
            self.round();
        }
        let drain_s = fx.service.clock() - self.due(self.reqs.len() - 1);
        let admin = self.ledger().delta_since(&l0).admin_kv_reads;
        let arm = &mut self.arm;
        arm.rate = self.rate;
        arm.drain_s = drain_s;
        arm.counters = fx.service.counters();
        arm.admin_kv_reads = admin + fx.service.total_usage().admin_kv_reads;
        arm.version_bumps = versions(fx) - v0;
        arm.stats_collections = collections(fx) - c0;
        let isl = fixture::table_bytes(
            &fx.cluster,
            &rj_core::isl::index_table_name(&fixture::q1(1)),
        ) + fixture::table_bytes(
            &fx.cluster,
            &rj_core::isl::index_table_name(&fixture::q2(1)),
        );
        arm.index = (isl, fixture::table_bytes(&fx.cluster, &fx.mw_table));
        arm.base = fixture::base_bytes(&fx.cluster);
        self.arm
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let reqs = requests(args.seed);
    let kmax = reqs.iter().map(|r| r.k).max().expect("requests");
    let cfg = fixture::tpch_config();
    let mut setups = SetupTimes::default();
    let mut out = Outcome::new(Tracer::new(false));
    let mut refs: Refs = Vec::new();
    let mut first_arms: Vec<Arm> = Vec::new();
    let mut session_us = Vec::new();
    let (mut host_s, mut sessions) = (0.0, 0u64);
    let mut overhead = Overhead::default();
    let mut rss = 0.0;
    // Each rate's replay sets up afresh; these make up the rest.
    for _ in RATES.len()..SETUPS {
        drop(setups.time(&mut out.speed, setup));
    }
    let mut epochs = Epochs::start(args);
    while epochs.next(&mut out.tracer) {
        let traced = out.tracer.on();
        // The nominal rate replays the longest list, so it runs first and
        // its model computes the references of every data version.
        let order = std::iter::once(NOMINAL).chain((0..RATES.len()).filter(|&i| i != NOMINAL));
        for i in order {
            let reqs = if i == NOMINAL {
                &reqs[..]
            } else {
                &reqs[..ARRIVALS]
            };
            let fx = setups.time(&mut out.speed, setup);
            let model = refs.is_empty().then(|| Model::load(&cfg));
            if let Some(m) = &model {
                refs.push(
                    QueryKind::ALL
                        .iter()
                        .map(|&q| (q, m.topk(q, kmax)))
                        .collect(),
                );
            }
            let arm = Replay {
                fx: &fx,
                reqs,
                rate: RATES[i],
                refs: &mut refs,
                model,
                refresh: LeveledRefresh::new(cfg),
                tracer: &mut out.tracer,
                speed: &mut out.speed,
                live: Vec::new(),
                arm: Arm::default(),
                version: 0,
                kmax,
            }
            .run();
            out.attempted += reqs.len() as u64;
            out.failed += arm.failed;
            out.wrong += arm.wrong;
            overhead.add(traced, arm.host_s, arm.sessions);
            if !traced {
                host_s += arm.host_s;
                sessions += arm.sessions;
                // Latency at the nominal rate only: past the highest rate
                // that meets the limit, host latency is queueing.
                if i == NOMINAL {
                    session_us.extend_from_slice(&arm.session_us);
                }
            }
            if epochs.first() {
                first_arms.push(arm);
            }
        }
        if epochs.first() {
            rss = peak_rss_mb();
        }
    }
    setups.report(&mut out);
    first_arms.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let nominal = &first_arms[NOMINAL];
    let n = nominal.sessions.max(1) as f64;
    let e = &mut out.e2e;
    e.insert("peak_rss_mb", rss);
    e.insert("ops_per_s", ratio(sessions as f64, host_s));
    e.insert("query_p50_us", percentile(&session_us, 0.50));
    e.insert("query_p99_us", percentile(&session_us, 0.99));
    e.insert("sim_p50_ms", percentile(&nominal.sojourn_s, 0.50) * 1e3);
    e.insert("sim_p99_ms", percentile(&nominal.sojourn_s, 0.99) * 1e3);
    e.insert("kv_reads_per_query", nominal.charged.kv_reads as f64 / n);
    e.insert(
        "net_bytes_per_query",
        nominal.charged.network_bytes as f64 / n,
    );
    e.insert(
        "index_bytes_per_base_byte",
        (nominal.index.0 + nominal.index.1) as f64 / nominal.base as f64,
    );

    arm_layers(nominal, &out.tracer, &mut out.layers);
    let l = &mut out.layers;
    let max_rate = first_arms
        .iter()
        .filter(|a| a.meets_limit())
        .map(|a| a.rate)
        .fold(0.0, f64::max);
    l.insert("sim_max_rate_qps", max_rate);
    l.insert("trace.overhead_frac", overhead.fraction());

    for a in &first_arms {
        let shares: Vec<String> = a
            .served
            .iter()
            .map(|(by, n)| format!("{by} {:.3}", *n as f64 / a.sessions.max(1) as f64))
            .collect();
        out.notes.push(format!(
            "serve rate {:>4} /s: {} sessions, sim p50 {:.3} s p99 {:.3} s, drain {:.3} s, \
             lag p99 {:.3} s, {} stale retries, {} maintenance runs, meets {LIMIT_S} s limit: {}; {}",
            a.rate,
            a.sessions,
            percentile(&a.sojourn_s, 0.5),
            percentile(&a.sojourn_s, 0.99),
            a.drain_s,
            percentile(&a.lag_s, 0.99),
            a.stale_retries,
            a.counters.maintenance_runs,
            a.meets_limit(),
            shares.join(", ")
        ));
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.4}", percentile(&a.sojourn_s, d as f64 / 10.0)))
            .collect();
        out.notes.push(format!(
            "serve rate {:>4} /s sojourn deciles (s): {}",
            a.rate,
            deciles.join(" ")
        ));
    }
    out.notes.push(format!(
        "serve: {} epochs of {} rates ({NOMINAL_ARRIVALS} requests at the nominal rate, \
         {ARRIVALS} at the others), refresh every {WRITE_EVERY}; \
         median session host latency {:.0} us",
        epochs.done,
        RATES.len(),
        median(&session_us)
    ));
    out
}

/// The per-layer metrics one replay yields: store, planner statistics,
/// write path and serving layer (host times from `tr`'s spans).
fn arm_layers(a: &Arm, tr: &Tracer, l: &mut BTreeMap<&'static str, f64>) {
    let n = a.sessions.max(1) as f64;
    let writes = (a.inserts + a.deletes).max(1) as f64;
    let mut wl = a.insert_ledger;
    add_ledger(&mut wl, &a.delete_ledger);
    l.insert("rj_store.rpcs_per_query", a.charged.rpc_calls as f64 / n);
    l.insert(
        "rj_store.node_s_per_sim_s",
        ratio(a.charged.node_seconds, a.charged.sim_seconds),
    );
    l.insert("rj_store.admin_kv_reads", a.admin_kv_reads as f64);
    l.insert("rj_store.kv_reads_per_write", wl.kv_reads as f64 / writes);
    l.insert(
        "rj_core.planner.stats_collections",
        a.stats_collections as f64,
    );
    // Sessions execute ISL cursors on the binary backends: no planner pick.
    l.insert("rj_core.planner.pick.isl", 1.0);
    l.insert("rj_core.planner.pick.bfhm", 0.0);
    l.insert(
        "rj_core.exec.kv_reads_per_result",
        ratio(a.charged.kv_reads as f64, a.results as f64),
    );
    l.insert("rj_core.index_bytes.isl", a.index.0 as f64);
    l.insert("rj_core.index_bytes.bfhm", 0.0);
    l.insert("rj_core.index_bytes.spec3", a.index.1 as f64);
    let ins = tr.durations_us("rj_core.maintenance", Some("insert"));
    let del = tr.durations_us("rj_core.maintenance", Some("delete"));
    let all = tr.durations_us("rj_core.maintenance", None);
    l.insert("rj_core.maintenance.insert_us_p50", percentile(&ins, 0.50));
    l.insert("rj_core.maintenance.delete_us_p50", percentile(&del, 0.50));
    l.insert(
        "rj_core.maintenance.kv_writes_per_insert",
        ratio(a.insert_ledger.kv_writes as f64, a.inserts as f64),
    );
    l.insert(
        "rj_core.maintenance.kv_writes_per_delete",
        ratio(a.delete_ledger.kv_writes as f64, a.deletes as f64),
    );
    l.insert("rj_core.maintenance.version_bumps", a.version_bumps as f64);
    let rounds = tr.durations_us("rj_serve.round", None);
    l.insert("rj_serve.round_us_p50", percentile(&rounds, 0.50));
    l.insert("rj_serve.round_us_p99", percentile(&rounds, 0.99));
    l.insert(
        "rj_serve.submit_us_p50",
        percentile(&tr.durations_us("rj_serve.submit", None), 0.50),
    );
    l.insert(
        "rj_serve.next_page_us_p50",
        percentile(&tr.durations_us("rj_serve.next_page", None), 0.50),
    );
    l.insert(
        "rj_serve.sessions_per_round",
        a.dispatched.iter().sum::<f64>() / a.dispatched.len().max(1) as f64,
    );
    l.insert("rj_serve.queue_depth_p99", percentile(&a.queue_depth, 0.99));
    l.insert(
        "rj_serve.generator_lag_ms_p99",
        percentile(&a.lag_s, 0.99) * 1e3,
    );
    for by in ["execution", "shared", "prefix_cache", "unserved"] {
        let share = a.served.get(by).copied().unwrap_or(0) as f64 / n;
        l.insert(served_metric(by), share);
    }
    let c = &a.counters;
    l.insert("rj_serve.warm_starts", c.warm_starts as f64);
    l.insert("rj_serve.pages_served", c.pages_served as f64);
    l.insert("rj_serve.requeued", a.requeued as f64);
    l.insert("rj_serve.staleness_rebuilds", c.staleness_rebuilds as f64);
    l.insert("rj_serve.maintenance_runs", c.maintenance_runs as f64);
    l.insert("rj_serve.stale_retries", a.stale_retries as f64);
    l.insert("write_p50_us", percentile(&all, 0.50));
    l.insert("write_p99_us", percentile(&all, 0.99));
    l.insert("kv_writes_per_write", wl.kv_writes as f64 / writes);
}

/// Serving-layer and write-path metrics from one short traced replay on
/// a fresh set-up: the side probe for workloads that bypass these
/// layers.
pub fn probe(seed: u64) -> BTreeMap<&'static str, f64> {
    let reqs: Vec<Request> = requests(seed).into_iter().take(4 * WRITE_EVERY).collect();
    let kmax = reqs.iter().map(|r| r.k).max().expect("requests");
    let cfg = fixture::tpch_config();
    let model = Model::load(&cfg);
    let mut refs: Refs = vec![QueryKind::ALL
        .iter()
        .map(|&q| (q, model.topk(q, kmax)))
        .collect()];
    let mut tracer = Tracer::new(true);
    // The run's own kernel samples set the scale; these are discarded.
    let mut speed = Speed::new();
    let (fx, _, _) = setup();
    let arm = Replay {
        fx: &fx,
        reqs: &reqs,
        rate: RATES[NOMINAL],
        refs: &mut refs,
        model: Some(model),
        refresh: LeveledRefresh::new(cfg),
        tracer: &mut tracer,
        speed: &mut speed,
        live: Vec::new(),
        arm: Arm::default(),
        version: 0,
        kmax,
    }
    .run();
    assert_eq!(
        arm.wrong + arm.failed,
        0,
        "serve probe answers must be exact"
    );
    let mut l = BTreeMap::new();
    arm_layers(&arm, &tracer, &mut l);
    l
}

fn served_metric(by: &str) -> &'static str {
    match by {
        "execution" => "rj_serve.served.execution",
        "shared" => "rj_serve.served.shared",
        "prefix_cache" => "rj_serve.served.prefix_cache",
        _ => "rj_serve.served.unserved",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_shape_is_the_same_for_every_seed() {
        let (a, b) = (requests(1), requests(2));
        assert_eq!(a.len(), NOMINAL_ARRIVALS);
        let shape = |r: &Request| (r.kind, r.priority, r.page_size.is_some(), r.deadline);
        assert!(a.iter().zip(&b).all(|(x, y)| shape(x) == shape(y)));
        assert!(a.iter().zip(&b).any(|(x, y)| x.k != y.k));
        assert!(a.iter().zip(&b).any(|(x, y)| x.tenant != y.tenant));
        for block in a.chunks(WRITE_EVERY) {
            let count = |kind| block.iter().filter(|r| r.kind == kind).count();
            assert_eq!(
                (
                    count(QueryKind::Spec3),
                    count(QueryKind::Q1),
                    count(QueryKind::Q2)
                ),
                (2, 7, 7)
            );
        }
    }
}
