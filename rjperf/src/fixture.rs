//! The TPC-H lab fixture every workload runs on: the loaded cluster, the
//! paper's two queries (§7.1) and the 3-way path `Part ⋈ Lineitem ⋈
//! Orders`.

use std::time::Instant;

use rj_core::bfhm::BfhmConfig;
use rj_core::executor::{Algorithm, RankJoinExecutor};
use rj_core::indexutil::BuildStats;
use rj_core::isl::IslConfig;
use rj_core::multiway::SpecExecutor;
use rj_core::query::{JoinEdge, JoinSide, JoinSpec, RankJoinQuery};
use rj_core::score::ScoreFn;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;
use rj_store::parallel::ExecutionMode;
use rj_tpch::loader::{self, cols, FAMILY};
use rj_tpch::TpchConfig;

/// TPC-H scale factor of the lab fixture (≈ 12k lineitems).
pub const SCALE_FACTOR: f64 = 0.002;
/// BFHM bucket count (the paper's default).
pub const BFHM_BUCKETS: u32 = 100;
/// ISL batch size of the lab profile.
pub const ISL_BATCH: usize = 128;

/// The lab fixture's generator configuration. The data is the same for
/// every benchmark seed: the seed drives the request and write streams,
/// so runs with different seeds do the same kind of work on the same
/// tables and their host times are comparable.
pub fn tpch_config() -> TpchConfig {
    TpchConfig::new(SCALE_FACTOR)
}

fn side(table: &str, label: &str, join: &[u8]) -> JoinSide {
    JoinSide::new(table, label, (FAMILY, join), (FAMILY, cols::SCORE))
}

/// Q1: `Part ⋈ Lineitem ON PartKey ORDER BY RetailPrice * ExtendedPrice`.
pub fn q1(k: usize) -> RankJoinQuery {
    RankJoinQuery::new(
        side(loader::PART_TABLE, "P", cols::JK),
        side(loader::LINEITEM_TABLE, "L", cols::JK_PART),
        k,
        ScoreFn::Product,
    )
}

/// Q2: `Orders ⋈ Lineitem ON OrderKey ORDER BY TotalPrice + ExtendedPrice`.
pub fn q2(k: usize) -> RankJoinQuery {
    RankJoinQuery::new(
        side(loader::ORDERS_TABLE, "O", cols::JK),
        side(loader::LINEITEM_TABLE, "L2", cols::JK_ORDER),
        k,
        ScoreFn::Sum,
    )
}

/// The 3-way path `Part ⋈ Lineitem ⋈ Orders`, summing all three scores.
/// Lineitem is the interior side: it joins Part on `jk_part` and Orders
/// on `jk_order`.
pub fn spec3(k: usize) -> JoinSpec {
    let sides = vec![
        side(loader::PART_TABLE, "P3", cols::JK),
        side(loader::LINEITEM_TABLE, "L3", cols::JK_PART),
        side(loader::ORDERS_TABLE, "O3", cols::JK),
    ];
    let edges = vec![
        JoinEdge {
            a: 0,
            a_col: (FAMILY.to_owned(), cols::JK.to_vec()),
            b: 1,
            b_col: (FAMILY.to_owned(), cols::JK_PART.to_vec()),
        },
        JoinEdge {
            a: 1,
            a_col: (FAMILY.to_owned(), cols::JK_ORDER.to_vec()),
            b: 2,
            b_col: (FAMILY.to_owned(), cols::JK.to_vec()),
        },
    ];
    JoinSpec::new(sides, edges, k, ScoreFn::Sum).expect("P-L-O is a valid path")
}

/// Which of the three queries a request runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryKind {
    /// Paper query Q1 (binary).
    Q1,
    /// Paper query Q2 (binary).
    Q2,
    /// The 3-way path spec.
    Spec3,
}

impl QueryKind {
    /// Every query, in a fixed order.
    pub const ALL: [QueryKind; 3] = [QueryKind::Q1, QueryKind::Q2, QueryKind::Spec3];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Q1 => "Q1",
            QueryKind::Q2 => "Q2",
            QueryKind::Spec3 => "P-L-O",
        }
    }

    /// The query as a join spec (the form the reference takes).
    pub fn spec(self, k: usize) -> JoinSpec {
        match self {
            QueryKind::Q1 => q1(k).to_spec(),
            QueryKind::Q2 => q2(k).to_spec(),
            QueryKind::Spec3 => spec3(k),
        }
    }
}

/// Index builds of one set-up, with the host time they took.
#[derive(Clone, Debug, Default)]
pub struct Builds {
    /// Every `BuildStats` returned by a `prepare_*` call.
    pub stats: Vec<BuildStats>,
    /// Host seconds spent in the `prepare_*` calls.
    pub host_s: f64,
}

impl Builds {
    /// Times one `prepare_*` call and keeps its `BuildStats`.
    pub fn run(
        &mut self,
        f: impl FnOnce() -> rj_core::error::Result<BuildStats>,
    ) -> rj_core::error::Result<()> {
        let t = Instant::now();
        let stats = f()?;
        self.host_s += t.elapsed().as_secs_f64();
        self.stats.push(stats);
        Ok(())
    }

    /// Map-reduce jobs run.
    pub fn jobs(&self) -> u64 {
        self.stats.iter().map(|b| b.jobs.len() as u64).sum()
    }

    /// Bytes shuffled by the builds' jobs.
    pub fn shuffle_bytes(&self) -> u64 {
        self.stats
            .iter()
            .flat_map(|b| b.jobs.iter())
            .map(|c| c.shuffle_bytes)
            .sum()
    }

    /// Simulated build seconds.
    pub fn sim_s(&self) -> f64 {
        self.stats.iter().map(|b| b.build_seconds).sum()
    }
}

/// A freshly loaded lab cluster.
pub struct Loaded {
    /// The cluster.
    pub cluster: Cluster,
    /// Host seconds `loader::load_all` took.
    pub load_s: f64,
}

/// Loads the lab fixture.
pub fn load() -> Loaded {
    let cluster = Cluster::with_profile(CostModel::lab());
    let t = Instant::now();
    loader::load_all(&cluster, &tpch_config()).expect("TPC-H load");
    Loaded {
        cluster,
        load_s: t.elapsed().as_secs_f64(),
    }
}

/// A binary executor with the given indices built.
pub fn binary_executor(
    cluster: &Cluster,
    query: RankJoinQuery,
    mode: ExecutionMode,
    bfhm: bool,
    builds: &mut Builds,
) -> RankJoinExecutor {
    let mut ex = RankJoinExecutor::new(cluster, query).with_execution_mode(mode);
    ex.isl_config = IslConfig::uniform(ISL_BATCH);
    builds.run(|| ex.prepare_isl()).expect("ISL build");
    if bfhm {
        builds
            .run(|| ex.prepare_bfhm(BfhmConfig::with_buckets(BFHM_BUCKETS)))
            .expect("BFHM build");
    }
    ex
}

/// The 3-way spec executor with its multiway index built.
pub fn spec3_executor(cluster: &Cluster, builds: &mut Builds) -> SpecExecutor {
    let mut ex = SpecExecutor::new(cluster, spec3(10));
    builds.run(|| ex.prepare()).expect("multiway build");
    ex
}

/// Base-table bytes (Part + Orders + Lineitem).
pub fn base_bytes(cluster: &Cluster) -> u64 {
    [
        loader::PART_TABLE,
        loader::ORDERS_TABLE,
        loader::LINEITEM_TABLE,
    ]
    .iter()
    .map(|t| cluster.table(t).expect("base table").disk_size())
    .sum()
}

/// Disk bytes of one table (0 when it does not exist).
pub fn table_bytes(cluster: &Cluster, name: &str) -> u64 {
    cluster.table(name).map(|t| t.disk_size()).unwrap_or(0)
}

/// Names the algorithm `Auto` ran, from `QueryOutcome::algorithm`.
pub fn algorithm_name(outcome_algorithm: &str) -> &'static str {
    if outcome_algorithm == Algorithm::Bfhm.name() {
        "bfhm"
    } else if outcome_algorithm == Algorithm::Isl.name() {
        "isl"
    } else {
        "other"
    }
}
