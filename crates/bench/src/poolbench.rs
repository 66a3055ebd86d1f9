//! The `pool` experiment: host-time microbenchmarks of the execution
//! core, so substrate regressions are visible per PR.
//!
//! Two measurements, both on the real machine clock (everything else in
//! the harness is simulated time; the execution core is precisely the
//! part whose *host* cost matters here):
//!
//! * **lanes** — the same multi-region `run_lanes` round driven on the
//!   persistent work-stealing pool, reporting host rounds/sec and the
//!   simulated wall-clock the rounds charged.
//! * **flat structures** — `FlatMultiMap` vs `HashMap<Vec<u8>, Vec<u64>>`
//!   build and probe over the same key distribution, reporting host
//!   milliseconds per pass (the criterion micros in
//!   `benches/flat_structures.rs` measure the same pair with proper
//!   statistics; this is the quick per-PR smoke number).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use rj_sketch::FlatMultiMap;
use rj_store::cluster::Cluster;
use rj_store::costmodel::CostModel;
use rj_store::parallel::{run_lanes, LaneTask};
use rj_store::{keys, Mutation, Scan, WorkStealingPool};

use crate::report::Table;

/// `pool` experiment results.
#[derive(Clone, Debug)]
pub struct PoolReport {
    /// Worker threads in the process-wide pool.
    pub pool_threads: usize,
    /// Lane rounds driven per measurement.
    pub rounds: usize,
    /// Host rounds/sec on the work-stealing pool.
    pub pool_rounds_per_sec: f64,
    /// Simulated wall-clock charged by the rounds.
    pub sim_wall_pool: f64,
    /// Host ms to build the `FlatMultiMap` (two-pass, contiguous groups).
    pub flat_build_ms: f64,
    /// Host ms to build the `HashMap` reference.
    pub hash_build_ms: f64,
    /// Host ms to probe every key once through the `FlatMultiMap`.
    pub flat_probe_ms: f64,
    /// Host ms for the same probes through the `HashMap`.
    pub hash_probe_ms: f64,
}

impl PoolReport {
    /// Renders the report as experiment tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut lanes = Table::new(
            &format!(
                "Lane substrate: {} rounds of multi-region fan-out ({} pool threads)",
                self.rounds, self.pool_threads
            ),
            &["substrate", "rounds/sec (host)", "sim wall (s)"],
        );
        lanes.row(vec![
            "work-stealing pool".to_owned(),
            format!("{:.0}", self.pool_rounds_per_sec),
            format!("{:.6}", self.sim_wall_pool),
        ]);
        let mut flat = Table::new(
            "Flat structures: FlatMultiMap vs HashMap<Vec<u8>, Vec<u64>>",
            &["structure", "build (ms)", "probe (ms)"],
        );
        flat.row(vec![
            "FlatMultiMap".to_owned(),
            format!("{:.3}", self.flat_build_ms),
            format!("{:.3}", self.flat_probe_ms),
        ]);
        flat.row(vec![
            "HashMap".to_owned(),
            format!("{:.3}", self.hash_build_ms),
            format!("{:.3}", self.hash_probe_ms),
        ]);
        vec![lanes, flat]
    }

    /// Machine-readable JSON (the `BENCH_pool.json` artifact).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"pool\",\n  \"pool_threads\": {},\n  \"rounds\": {},\n  \
             \"lanes\": {{\"pool_rounds_per_sec\": {:.1}, \"sim_wall_pool\": {:.6}}},\n  \
             \"flatmap\": {{\"flat_build_ms\": {:.3}, \"hash_build_ms\": {:.3}, \
             \"flat_probe_ms\": {:.3}, \"hash_probe_ms\": {:.3}}}\n}}\n",
            self.pool_threads,
            self.rounds,
            self.pool_rounds_per_sec,
            self.sim_wall_pool,
            self.flat_build_ms,
            self.hash_build_ms,
            self.flat_probe_ms,
            self.hash_probe_ms,
        )
    }
}

/// A 4-node cluster with one 8-region table of 64 rows — the same shape
/// the `rj_store::parallel` unit tests fan out over.
fn lane_cluster() -> Cluster {
    let c = Cluster::new(4, CostModel::ec2(4));
    let splits: Vec<Vec<u8>> = (1..8u64)
        .map(|i| keys::encode_u64(i * 8).to_vec())
        .collect();
    c.create_table_with_splits("t", &["cf"], &splits)
        .expect("bench table");
    let client = c.client();
    for i in 0..64u64 {
        client
            .put(
                "t",
                &keys::encode_u64(i),
                Mutation::put("cf", b"q", i.to_string().into_bytes()),
            )
            .expect("bench row");
    }
    c
}

/// Drives `rounds` identical 8-task fan-out rounds on the pool, returning
/// `(host seconds, simulated wall seconds)`.
fn drive_lanes(cluster: &Cluster, rounds: usize) -> (f64, f64) {
    let fork = cluster.fork_metrics();
    let started = Instant::now();
    for _ in 0..rounds {
        let tasks: Vec<LaneTask<'_, usize>> = (0..8u64)
            .map(|i| {
                LaneTask::new((i % 4) as usize, move |client: &rj_store::Client| {
                    Ok(client
                        .scan(
                            "t",
                            Scan::new()
                                .start(keys::encode_u64(i * 8).to_vec())
                                .stop(keys::encode_u64((i + 1) * 8).to_vec()),
                        )?
                        .count())
                })
            })
            .collect();
        let counts = run_lanes(&fork, 4, tasks).expect("lane round");
        black_box(counts);
    }
    (
        started.elapsed().as_secs_f64(),
        fork.metrics().snapshot().sim_seconds,
    )
}

/// Deterministic key set: `groups` distinct keys, `per_group` values each.
fn flat_pairs(groups: usize, per_group: usize) -> Vec<(Vec<u8>, u64)> {
    (0..groups * per_group)
        .map(|i| {
            let g = i % groups;
            (format!("join-value-{g:06}").into_bytes(), i as u64)
        })
        .collect()
}

/// Runs the `pool` experiment: `rounds` lane rounds plus the
/// flat-structure micro pass.
pub fn run_poolbench(rounds: usize) -> PoolReport {
    let rounds = rounds.max(1);
    let cluster = lane_cluster();
    // Warm the pool (spin-up, allocator) outside the clock.
    drive_lanes(&cluster, 2);
    let (pool_host, sim_wall_pool) = drive_lanes(&cluster, rounds);

    let pairs = flat_pairs(4_000, 12);
    let t = Instant::now();
    let flat = FlatMultiMap::from_pairs(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
    let flat_build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut hash: HashMap<Vec<u8>, Vec<u64>> = HashMap::new();
    for (k, v) in &pairs {
        hash.entry(k.clone()).or_default().push(*v);
    }
    let hash_build_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut acc = 0u64;
    for (k, _) in pairs.iter().step_by(7) {
        acc = acc.wrapping_add(flat.get(k).copied().sum::<u64>());
    }
    black_box(acc);
    let flat_probe_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut acc = 0u64;
    for (k, _) in pairs.iter().step_by(7) {
        if let Some(vs) = hash.get(k) {
            acc = acc.wrapping_add(vs.iter().sum::<u64>());
        }
    }
    black_box(acc);
    let hash_probe_ms = t.elapsed().as_secs_f64() * 1e3;

    PoolReport {
        pool_threads: WorkStealingPool::global().threads(),
        rounds,
        pool_rounds_per_sec: rounds as f64 / pool_host.max(1e-9),
        sim_wall_pool,
        flat_build_ms,
        hash_build_ms,
        flat_probe_ms,
        hash_probe_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poolbench_runs_and_sim_time_is_substrate_independent() {
        let report = run_poolbench(20);
        assert!(report.pool_rounds_per_sec > 0.0);
        assert!(report.sim_wall_pool > 0.0);
        let json = report.to_json();
        for key in [
            "\"experiment\"",
            "\"pool_threads\"",
            "\"lanes\"",
            "\"flatmap\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(report.tables().len(), 2);
    }
}
