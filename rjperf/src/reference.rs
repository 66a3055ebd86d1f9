//! Exact reference answers for the benchmark's correctness check.
//!
//! `oracle::topk_spec` enumerates the full cross product of the sides,
//! which does not finish on the lab fixture. This reference hash-joins a
//! path spec instead: it walks the path from side 0 and looks up the next
//! side's rows by the edge value, so its cost is the size of the join
//! result. It reads the tables through the store's metric-free debug
//! path, like the oracle, and builds the same tuples in the same order.

use std::collections::HashMap;

use rj_core::query::JoinSpec;
use rj_core::result::{JoinTuple, TopK};
use rj_store::cluster::Cluster;

/// One side row: key, edge values in incident-edge order, score.
type SideRow = (Vec<u8>, Vec<Vec<u8>>, f64);

/// Exact top-`spec.k` of a path spec (side `i` joins side `i + 1` on
/// edge `i`). Panics on a spec of another shape: the benchmark only
/// builds paths.
pub fn topk_path(cluster: &Cluster, spec: &JoinSpec) -> Vec<JoinTuple> {
    let n = spec.n();
    for (e, edge) in spec.edges.iter().enumerate() {
        assert!(
            (edge.a == e && edge.b == e + 1) || (edge.b == e && edge.a == e + 1),
            "reference handles path specs only"
        );
    }
    let sides: Vec<Vec<SideRow>> = (0..n)
        .map(|i| {
            let table = cluster.table(&spec.sides[i].table).expect("side table");
            table
                .debug_all_rows()
                .into_iter()
                .filter_map(|row| {
                    let (values, score) = spec.extract_side(i, &row)?;
                    Some((row.key, values, score))
                })
                .collect()
        })
        .collect();
    // slot[i][e]: position of edge `e`'s value in side `i`'s value list.
    let slot = |i: usize, e: usize| -> usize {
        spec.incident_edges(i)
            .iter()
            .position(|(edge, _)| *edge == e)
            .expect("edge incident to side")
    };
    // by_edge[e]: side e+1's rows grouped by their edge-e value.
    let by_edge: Vec<HashMap<&[u8], Vec<usize>>> = (0..n - 1)
        .map(|e| {
            let s = slot(e + 1, e);
            let mut map: HashMap<&[u8], Vec<usize>> = HashMap::new();
            for (idx, row) in sides[e + 1].iter().enumerate() {
                map.entry(row.1[s].as_slice()).or_default().push(idx);
            }
            map
        })
        .collect();
    let out_slot: Vec<usize> = (0..n - 1).map(|e| slot(e, e)).collect();

    let mut top = TopK::new(spec.k);
    let mut chosen = vec![0usize; n];
    let mut stack: Vec<(usize, usize)> = (0..sides[0].len()).rev().map(|r| (0, r)).collect();
    while let Some((depth, row)) = stack.pop() {
        chosen[depth] = row;
        if depth + 1 == n {
            let scores: Vec<f64> = (0..n).map(|i| sides[i][chosen[i]].2).collect();
            top.offer(JoinTuple {
                left_key: sides[0][chosen[0]].0.clone(),
                right_key: sides[n - 1][chosen[n - 1]].0.clone(),
                join_value: sides[0][chosen[0]].1[out_slot[0]].clone(),
                left_score: scores[0],
                right_score: scores[n - 1],
                inner: (1..n - 1)
                    .map(|i| (sides[i][chosen[i]].0.clone(), scores[i]))
                    .collect(),
                score: spec.score_fn.combine_many(&scores),
            });
            continue;
        }
        let value = sides[depth][row].1[out_slot[depth]].as_slice();
        if let Some(next) = by_edge[depth].get(value) {
            stack.extend(next.iter().rev().map(|&r| (depth + 1, r)));
        }
    }
    top.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use rj_core::oracle;
    use rj_core::query::{JoinSide, RankJoinQuery};
    use rj_core::score::ScoreFn;
    use rj_store::cell::Mutation;
    use rj_store::costmodel::CostModel;

    /// Three small tables over a 5-value join alphabet, so the join has
    /// many-to-many fan-out and score ties are possible.
    fn tiny_three_way(score_fn: ScoreFn) -> (Cluster, JoinSpec) {
        let c = Cluster::new(3, CostModel::test());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Two decimals: ties between scores are common.
            ((state >> 33) % 100) as f64 / 100.0
        };
        let client = c.client();
        for (table, n) in [("ta", 14usize), ("tb", 12), ("tc", 13)] {
            c.create_table(table, &["d"]).unwrap();
            for i in 0..n {
                client
                    .mutate_row(
                        table,
                        format!("{table}_{i:03}").as_bytes(),
                        vec![
                            Mutation::put("d", b"jk", vec![b'a' + (i % 5) as u8]),
                            Mutation::put("d", b"jk2", vec![b'a' + (i % 3) as u8]),
                            Mutation::put("d", b"score", next().to_be_bytes().to_vec()),
                        ],
                    )
                    .unwrap();
            }
        }
        let sides = vec![
            JoinSide::new("ta", "A", ("d", b"jk"), ("d", b"score")),
            JoinSide::new("tb", "B", ("d", b"jk"), ("d", b"score")),
            JoinSide::new("tc", "C", ("d", b"jk2"), ("d", b"score")),
        ];
        let edges = vec![
            rj_core::query::JoinEdge {
                a: 0,
                a_col: ("d".into(), b"jk".to_vec()),
                b: 1,
                b_col: ("d".into(), b"jk".to_vec()),
            },
            // Reversed endpoints and a different column on the interior
            // side: the reference must read each edge's own slot.
            rj_core::query::JoinEdge {
                a: 2,
                a_col: ("d".into(), b"jk2".to_vec()),
                b: 1,
                b_col: ("d".into(), b"jk2".to_vec()),
            },
        ];
        (c, JoinSpec::new(sides, edges, 5, score_fn).unwrap())
    }

    #[test]
    fn three_way_reference_matches_the_oracle() {
        for score_fn in [ScoreFn::Sum, ScoreFn::Product] {
            let (c, spec) = tiny_three_way(score_fn);
            for k in [1, 5, 40, 10_000] {
                let spec = spec.with_k(k);
                assert_eq!(
                    topk_path(&c, &spec),
                    oracle::topk_spec(&c, &spec).unwrap(),
                    "{score_fn:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn binary_reference_matches_the_oracle() {
        let (c, _) = tiny_three_way(ScoreFn::Sum);
        let q = RankJoinQuery::new(
            JoinSide::new("ta", "A", ("d", b"jk"), ("d", b"score")),
            JoinSide::new("tb", "B", ("d", b"jk"), ("d", b"score")),
            7,
            ScoreFn::Sum,
        );
        assert_eq!(topk_path(&c, &q.to_spec()), oracle::topk(&c, &q).unwrap());
    }

    #[test]
    fn plo_reference_matches_the_oracle_on_tiny_tpch() {
        let c = Cluster::new(3, CostModel::test());
        let cfg = rj_tpch::TpchConfig::new(0.00005); // 16 parts, 75 orders
        rj_tpch::loader::load_all(&c, &cfg).unwrap();
        for k in [1, 10, 50] {
            let spec = fixture::spec3(k);
            assert_eq!(
                topk_path(&c, &spec),
                oracle::topk_spec(&c, &spec).unwrap(),
                "k={k}"
            );
        }
        // And the engine's own 3-way execution agrees with both.
        let mut ex = rj_core::multiway::SpecExecutor::new(&c, fixture::spec3(10));
        ex.prepare().unwrap();
        assert_eq!(
            ex.execute_with_k(10).unwrap().results,
            topk_path(&c, &fixture::spec3(10))
        );
    }
}
