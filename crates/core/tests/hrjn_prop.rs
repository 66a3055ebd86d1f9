//! Property test: the HRJN operator equals brute force on arbitrary
//! score-sorted inputs (modulo tie-sibling exchange at the k-th score),
//! for the binary join and for 3- and 4-side path and star specs.

use proptest::prelude::*;

use rj_core::hrjn::{run_hrjn, RankedTuple};
use rj_core::query::{JoinSide, JoinSpec};
use rj_core::result::{JoinTuple, TopK};
use rj_core::score::ScoreFn;

/// Tuples per side fed to an N-ary spec (bounds the brute force).
const NARY_SIDE_LEN: usize = 24;

fn spec(n: usize, star: bool, k: usize, f: ScoreFn) -> JoinSpec {
    let sides = (0..n)
        .map(|i| {
            let label = format!("S{i}");
            JoinSide::new(&label, &label, ("d", b"jk"), ("d", b"score"))
        })
        .collect();
    if star {
        JoinSpec::star(sides, k, f).unwrap()
    } else {
        JoinSpec::path(sides, k, f).unwrap()
    }
}

/// Side `i` of `spec` from raw `(join value per edge slot, score)`
/// tuples: one join value per incident edge, score-sorted.
fn make_side(spec: &JoinSpec, i: usize, raw: &[(u8, u8, u8, u32)], len: usize) -> Vec<RankedTuple> {
    let edges = spec.incident_edges(i).len();
    let mut tuples: Vec<RankedTuple> = raw
        .iter()
        .take(len)
        .enumerate()
        .map(|(t, &(j0, j1, j2, s))| RankedTuple {
            key: vec![b'a' + i as u8, t as u8],
            join_values: [j0, j1, j2][..edges].iter().map(|&j| vec![j]).collect(),
            score: f64::from(s) / 1000.0,
        })
        .collect();
    tuples.sort_by(|a, b| b.score.total_cmp(&a.score));
    tuples
}

/// Position of edge `e` in side `i`'s join values.
fn slot(spec: &JoinSpec, i: usize, e: usize) -> usize {
    spec.incident_edges(i)
        .iter()
        .position(|(x, _)| *x == e)
        .unwrap()
}

fn brute_force(spec: &JoinSpec, sides: &[Vec<RankedTuple>]) -> Vec<JoinTuple> {
    let mut top = TopK::new(spec.k);
    assign(spec, sides, &mut Vec::new(), &mut top);
    top.into_sorted_vec()
}

/// Every assignment extending `chosen` (sides `0..chosen.len()`) by one
/// tuple per remaining side. Paths and stars connect every side `i > 0`
/// to an earlier side, so each edge is checked once its later end is
/// chosen.
fn assign<'a>(
    spec: &JoinSpec,
    sides: &'a [Vec<RankedTuple>],
    chosen: &mut Vec<&'a RankedTuple>,
    top: &mut TopK,
) {
    let i = chosen.len();
    if i == spec.n() {
        let scores: Vec<f64> = chosen.iter().map(|t| t.score).collect();
        let e0 = &spec.edges[0];
        top.offer(JoinTuple {
            left_key: chosen[0].key.clone(),
            right_key: chosen[i - 1].key.clone(),
            join_value: chosen[e0.a].join_values[slot(spec, e0.a, 0)].clone(),
            left_score: scores[0],
            right_score: scores[i - 1],
            inner: chosen[1..i - 1]
                .iter()
                .map(|t| (t.key.clone(), t.score))
                .collect(),
            score: spec.score_fn.combine_many(&scores),
        });
        return;
    }
    for t in &sides[i] {
        let joins = spec.edges.iter().enumerate().all(|(e, edge)| {
            let other = match (edge.a == i, edge.b == i) {
                (true, _) => edge.b,
                (_, true) => edge.a,
                _ => return true,
            };
            other > i
                || chosen[other].join_values[slot(spec, other, e)]
                    == t.join_values[slot(spec, i, e)]
        });
        if joins {
            chosen.push(t);
            assign(spec, sides, chosen, top);
            chosen.pop();
        }
    }
}

/// Rank equivalence: identical score sequences; exact tuples above the
/// k-th score; boundary tuples must be genuine.
fn check(spec: &JoinSpec, sides: &[Vec<RankedTuple>]) -> Result<(), TestCaseError> {
    let got = run_hrjn(spec, sides);
    let want = brute_force(spec, sides);
    let all = brute_force(&spec.with_k(usize::MAX / 2), sides);
    let got_scores: Vec<f64> = got.iter().map(|t| t.score).collect();
    let want_scores: Vec<f64> = want.iter().map(|t| t.score).collect();
    prop_assert_eq!(&got_scores, &want_scores);
    let boundary = want.last().map(|t| t.score);
    for (g, w) in got.iter().zip(&want) {
        if Some(g.score) != boundary {
            prop_assert_eq!(g, w);
        } else {
            prop_assert!(all.iter().any(|t| t.score == g.score
                && t.left_key == g.left_key
                && t.inner == g.inner
                && t.right_key == g.right_key));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn hrjn_equals_brute_force(
        raw in [(); 4].map(|_| prop::collection::vec((0u8..10, 0u8..10, 0u8..10, 0u32..=1000), 0..60)),
        k in 1usize..30,
        product in any::<bool>(),
        nary in 0usize..4,
    ) {
        let f = if product { ScoreFn::Product } else { ScoreFn::Sum };
        let binary = spec(2, false, k, f);
        let sides: Vec<_> = (0..2).map(|i| make_side(&binary, i, &raw[i], usize::MAX)).collect();
        check(&binary, &sides)?;

        let (n, star) = [(3, false), (3, true), (4, false), (4, true)][nary];
        let nary = spec(n, star, k, f);
        let sides: Vec<_> = (0..n).map(|i| make_side(&nary, i, &raw[i], NARY_SIDE_LEN)).collect();
        check(&nary, &sides)?;
    }
}
