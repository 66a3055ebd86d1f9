//! Micro-benchmarks of the PR-6 execution core: `FlatMultiMap` against a
//! `HashMap<Vec<u8>, Vec<u32>>` reference on build and probe, and batch
//! submission on the work-stealing pool against per-batch scoped threads.
//!
//! The probe shape mirrors the HRJN inner loop: for each incoming tuple,
//! look up every previously-seen partner with the same join value and
//! walk the group.
//!
//! The store layer's own number is a family-projected scan of a shared
//! score-list table, read the way a descent reads one relation's list:
//! one family that nearly every row carries (dense), and one that only
//! one row in forty carries (sparse, like the 3-way index's `P3`).

use std::collections::HashMap;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use rj_sketch::FlatMultiMap;
use rj_store::{keys, Cluster, CostModel, Mutation, Scan, WorkStealingPool};

const GROUPS: usize = 4_000;
const PER_GROUP: usize = 12;

fn pairs() -> Vec<(Vec<u8>, u32)> {
    (0..GROUPS * PER_GROUP)
        .map(|i| {
            let g = i % GROUPS;
            (format!("join-value-{g:06}").into_bytes(), i as u32)
        })
        .collect()
}

/// Rows of the score-list table; every `SPARSE_EVERY`-th carries the
/// sparse family.
const LIST_ROWS: usize = 16_000;
const SPARSE_EVERY: usize = 40;

/// A score-list table like the multiway index: one row per score, one
/// cell per indexed tuple, one family per relation.
fn score_list_cluster() -> Cluster {
    let cluster = Cluster::new(2, CostModel::lab());
    cluster.create_table("lists", &["dense", "sparse"]).unwrap();
    let client = cluster.client();
    for i in 0..LIST_ROWS {
        let score = 1.0 - i as f64 / LIST_ROWS as f64;
        let family = if i.is_multiple_of(SPARSE_EVERY) {
            "sparse"
        } else {
            "dense"
        };
        let key = keys::encode_score_desc(score);
        let tuple = format!("tuple-{i:06}").into_bytes();
        client
            .put("lists", &key, Mutation::put(family, &tuple, vec![0u8; 24]))
            .unwrap();
    }
    cluster
}

/// Cells returned by a full projected scan of one family, 100 rows per
/// batch.
fn scan_family(cluster: &Cluster, family: &str) -> usize {
    let scan = Scan::new().families(&[family]).caching(100);
    cluster
        .client()
        .scan("lists", scan)
        .unwrap()
        .map(|row| row.cells.len())
        .sum()
}

fn benches(c: &mut Criterion) {
    let lists = score_list_cluster();
    c.bench_function("region_scan_sparse_projection", |bch| {
        bch.iter(|| scan_family(&lists, "sparse"))
    });
    c.bench_function("region_scan_dense_projection", |bch| {
        bch.iter(|| scan_family(&lists, "dense"))
    });

    let pairs = pairs();

    c.bench_function("flatmap_build_48k", |bch| {
        bch.iter(|| FlatMultiMap::from_pairs(pairs.iter().map(|(k, v)| (k.as_slice(), *v))).len())
    });
    c.bench_function("hashmap_build_48k", |bch| {
        bch.iter(|| {
            let mut m: HashMap<Vec<u8>, Vec<u32>> = HashMap::new();
            for (k, v) in &pairs {
                m.entry(k.clone()).or_default().push(*v);
            }
            m.len()
        })
    });

    let flat = FlatMultiMap::from_pairs(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
    let mut hash: HashMap<Vec<u8>, Vec<u32>> = HashMap::new();
    for (k, v) in &pairs {
        hash.entry(k.clone()).or_default().push(*v);
    }
    c.bench_function("flatmap_probe_48k", |bch| {
        bch.iter(|| {
            let mut acc = 0u32;
            for (k, _) in pairs.iter().step_by(7) {
                acc = acc.wrapping_add(flat.get(k).copied().sum::<u32>());
            }
            acc
        })
    });
    c.bench_function("hashmap_probe_48k", |bch| {
        bch.iter(|| {
            let mut acc = 0u32;
            for (k, _) in pairs.iter().step_by(7) {
                if let Some(vs) = hash.get(k) {
                    acc = acc.wrapping_add(vs.iter().sum::<u32>());
                }
            }
            acc
        })
    });

    // Batch of 8 tiny tasks: persistent pool vs spawn-per-batch scope.
    let pool = WorkStealingPool::global();
    c.bench_function("pool_batch_8_tasks", |bch| {
        bch.iter(|| {
            let jobs: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = (0..8u64)
                .map(|i| {
                    Box::new(move || black_box(i).wrapping_mul(0x9e37_79b9))
                        as Box<dyn FnOnce() -> u64 + Send + '_>
                })
                .collect();
            pool.run_batch(jobs).into_iter().sum::<u64>()
        })
    });
    c.bench_function("scoped_batch_8_tasks", |bch| {
        bch.iter(|| {
            let mut out = [0u64; 8];
            std::thread::scope(|scope| {
                for (i, slot) in out.iter_mut().enumerate() {
                    scope.spawn(move || {
                        *slot = black_box(i as u64).wrapping_mul(0x9e37_79b9);
                    });
                }
            });
            out.iter().sum::<u64>()
        })
    });
}

criterion_group!(flat_structures, benches);
criterion_main!(flat_structures);
