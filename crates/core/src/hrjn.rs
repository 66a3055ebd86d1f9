//! The HRJN operator (Ilyas, Aref & Elmagarmid, VLDB 2003) over any
//! [`JoinSpec`]: the paper's two-way join and its N-way generalization
//! are one accumulator.
//!
//! HRJN consumes inputs sorted by descending score (any interleaving of
//! sides), joining each newly retrieved tuple against everything seen so
//! far. It keeps per-input minimum (`s̄_i`, the score of the last pulled
//! tuple) and maximum (`ŝ_i`, the first pulled) scores, and stops when
//! the k-th buffered result is at least the **threshold**
//!
//! ```text
//! S = max_i f(ŝ_1, …, s̄_i, …, ŝ_n)
//! ```
//!
//! — the best score any future join tuple could achieve (§4.2.1). A
//! future result needs an *unseen* tuple of some non-exhausted side `i`,
//! which scores at most `s̄_i`, while every other side contributes at most
//! its maximum. Monotonicity of `f` in every argument (which all
//! [`ScoreFn`]s satisfy over the paper's `[0,1]` domain) makes each bound
//! valid; for two sides this is exactly the paper's
//! `max{f(s̄_1, ŝ_2), f(ŝ_1, s̄_2)}`.
//!
//! A new tuple from side `i` is joined by walking the spec's edge tree
//! outward from `i`: every edge constrains the neighbour side's
//! candidates to seen tuples carrying the same value on that edge, and a
//! complete assignment — one tuple per side — is a result scored by the
//! [`ScoreFn::combine_many`] fold over the sides in order.
//!
//! The ISL algorithm (§4.2) and the multiway path are this operator
//! driven by batched scans over score-ordered index lists
//! ([`crate::cursor::IslCursor`]); this module keeps the core logic
//! independent so it can be tested (and property-tested) in isolation.

use rj_sketch::FlatMultiMap;

use crate::query::JoinSpec;
use crate::result::{JoinTuple, TopK};
use crate::score::ScoreFn;

/// One input tuple: base key, one join value per edge incident to its
/// side (in [`JoinSpec::incident_edges`] order — exactly one for either
/// side of a binary join), and the individual score.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedTuple {
    /// Base-table row key.
    pub key: Vec<u8>,
    /// Join values, one per incident edge, in incident order.
    pub join_values: Vec<Vec<u8>>,
    /// Individual score.
    pub score: f64,
}

impl RankedTuple {
    /// A tuple of a side with a single incident edge (either side of a
    /// binary join, a leaf of a path or star).
    pub fn new(key: Vec<u8>, join_value: Vec<u8>, score: f64) -> Self {
        RankedTuple {
            key,
            join_values: vec![join_value],
            score,
        }
    }
}

/// Per-side seen-tuple store in flat, cache-friendly layout.
///
/// Join values are interned into one [`FlatMultiMap`] per incident edge
/// whose groups hold dense tuple ids, and the tuples themselves are
/// **columnar**: base keys back to back in one byte arena, scores in one
/// contiguous `f64` column (which is also what the observed-descent
/// histogram scans). No tuple is stored whole.
#[derive(Clone)]
pub(crate) struct SeenSide {
    /// One map per incident edge: join value on that edge → tuple ids.
    index: Vec<FlatMultiMap<u32>>,
    /// Per tuple and incident edge (row-major), the entry id of the
    /// tuple's value in that edge's map. Kept only for sides with two or
    /// more incident edges: only those sit *inside* a tree walk, where a
    /// seen tuple's value on the next edge is read back.
    value_ids: Vec<u32>,
    /// Tuple base keys, interned back to back.
    key_arena: Vec<u8>,
    /// Per-tuple `(offset, len)` span into `key_arena`.
    key_spans: Vec<(u32, u32)>,
    /// Per-tuple scores, one flat column.
    scores: Vec<f64>,
}

impl SeenSide {
    /// An empty store for a side with `edges` incident edges.
    pub(crate) fn new(edges: usize) -> Self {
        SeenSide {
            index: (0..edges).map(|_| FlatMultiMap::new()).collect(),
            value_ids: Vec::new(),
            key_arena: Vec::new(),
            key_spans: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Records one `(base key, score)` tuple under its join values, one
    /// per incident edge.
    pub(crate) fn insert<'v>(
        &mut self,
        values: impl IntoIterator<Item = &'v [u8]>,
        key: &[u8],
        score: f64,
    ) {
        // Checked narrowing: a store past 2^32 tuples or 4 GiB of key
        // bytes must panic, not silently alias spans.
        let id = u32::try_from(self.scores.len()).expect("SeenSide tuple count overflows u32");
        self.key_spans.push((
            u32::try_from(self.key_arena.len()).expect("SeenSide key arena overflows u32"),
            u32::try_from(key.len()).expect("SeenSide key length overflows u32"),
        ));
        self.key_arena.extend_from_slice(key);
        self.scores.push(score);
        let keep_ids = self.index.len() > 1;
        for (map, value) in self.index.iter_mut().zip(values) {
            let entry = map.ensure(value);
            map.push_to_entry(entry, id);
            if keep_ids {
                self.value_ids.push(entry);
            }
        }
    }

    /// Ids of the tuples seen with `value` on incident edge `slot`, in
    /// insertion order.
    fn ids<'a>(&'a self, slot: usize, value: &[u8]) -> impl Iterator<Item = u32> + 'a {
        self.index[slot].get(value).copied()
    }

    fn key(&self, id: u32) -> &[u8] {
        let (off, len) = self.key_spans[id as usize];
        &self.key_arena[off as usize..(off + len) as usize]
    }

    fn score(&self, id: u32) -> f64 {
        self.scores[id as usize]
    }

    /// Tuple `id`'s join value on incident edge `slot` (sides with two or
    /// more incident edges only — see `value_ids`).
    fn value(&self, id: u32, slot: usize) -> &[u8] {
        let entry = self.value_ids[id as usize * self.index.len() + slot];
        self.index[slot].key(entry)
    }

    /// All `(base key, score)` tuples seen with `value` on the first
    /// incident edge — the whole join of a single-edge side — in
    /// insertion order.
    pub(crate) fn matches<'a>(
        &'a self,
        value: &[u8],
    ) -> impl Iterator<Item = (&'a [u8], f64)> + 'a {
        self.ids(0, value).map(|id| (self.key(id), self.score(id)))
    }

    /// Number of tuples recorded.
    pub(crate) fn len(&self) -> usize {
        self.scores.len()
    }
}

/// One edge of a tree walk: the assignment extends from `parent` (already
/// fixed) to `child` across `edge`.
#[derive(Clone, Copy, Debug)]
struct Step {
    parent: usize,
    child: usize,
    edge: usize,
    /// Position of `edge` in the parent's / child's incident list.
    parent_slot: usize,
    child_slot: usize,
}

/// Incremental HRJN state machine over a [`JoinSpec`]. Feed tuples in
/// descending score order per side (any interleaving of sides) and poll
/// [`HrjnState::is_done`].
pub struct HrjnState {
    k: usize,
    score_fn: ScoreFn,
    results: TopK,
    seen: Vec<SeenSide>,
    /// Tuples pushed per side (kept separately so per-batch observers
    /// read it in O(1) instead of walking the seen-maps).
    consumed: Vec<usize>,
    /// (max seen, min seen) per side; `None` until the first tuple.
    bounds: Vec<Option<(f64, f64)>>,
    exhausted: Vec<bool>,
    /// Preorder walks of the edge tree, one per root side: every parent
    /// before its children, slots resolved once here instead of per push.
    walks: Vec<Vec<Step>>,
    /// Scratch assignment (one seen-tuple id per side), reused by every
    /// push.
    chosen: Vec<u32>,
}

impl HrjnState {
    /// Fresh state for `spec` at `k = spec.k` (pass a re-targeted spec for
    /// other depths; a [`crate::query::RankJoinQuery`] enters through
    /// [`crate::query::RankJoinQuery::to_spec`]).
    pub fn new(spec: &JoinSpec) -> Self {
        let n = spec.n();
        // Per-side incident-edge count so far, and the adjacency lists:
        // side → the steps leaving it, in edge order.
        let mut slots = vec![0usize; n];
        let mut adj: Vec<Vec<Step>> = vec![Vec::new(); n];
        for (edge, e) in spec.edges.iter().enumerate() {
            let (slot_a, slot_b) = (slots[e.a], slots[e.b]);
            slots[e.a] += 1;
            slots[e.b] += 1;
            adj[e.a].push(Step {
                parent: e.a,
                child: e.b,
                edge,
                parent_slot: slot_a,
                child_slot: slot_b,
            });
            adj[e.b].push(Step {
                parent: e.b,
                child: e.a,
                edge,
                parent_slot: slot_b,
                child_slot: slot_a,
            });
        }
        let walks = (0..n)
            .map(|root| {
                let mut order = Vec::with_capacity(n - 1);
                let mut visited = vec![false; n];
                visited[root] = true;
                let mut stack = vec![root];
                while let Some(side) = stack.pop() {
                    for step in &adj[side] {
                        if !visited[step.child] {
                            visited[step.child] = true;
                            order.push(*step);
                            stack.push(step.child);
                        }
                    }
                }
                order
            })
            .collect();
        HrjnState {
            k: spec.k,
            score_fn: spec.score_fn,
            results: TopK::new(spec.k),
            seen: slots.iter().map(|&edges| SeenSide::new(edges)).collect(),
            consumed: vec![0; n],
            bounds: vec![None; n],
            exhausted: vec![false; n],
            walks,
            chosen: vec![0; n],
        }
    }

    /// Feeds one tuple from side `side`. Panics in debug builds if scores
    /// go up — inputs must be score-descending — or if the tuple carries
    /// the wrong number of join values.
    pub fn push(&mut self, side: usize, tuple: &RankedTuple) {
        debug_assert_eq!(tuple.join_values.len(), self.seen[side].index.len());
        debug_assert!(
            self.bounds[side].is_none_or(|(_, min)| tuple.score <= min + 1e-12),
            "input not score-descending"
        );
        self.bounds[side] = Some(match self.bounds[side] {
            None => (tuple.score, tuple.score),
            Some((max, min)) => (max, min.min(tuple.score)),
        });

        // Every complete assignment using the new tuple: backtracking over
        // the tree walk rooted at `side`.
        let walk = Walk {
            seen: &self.seen,
            steps: &self.walks[side],
            root: side,
            new: tuple,
            score_fn: self.score_fn,
        };
        walk.extend(0, &mut self.chosen, &[], &mut self.results);

        self.seen[side].insert(
            tuple.join_values.iter().map(Vec::as_slice),
            &tuple.key,
            tuple.score,
        );
        self.consumed[side] += 1;
    }

    /// Marks a side as fully consumed.
    pub fn exhaust(&mut self, side: usize) {
        self.exhausted[side] = true;
    }

    /// The HRJN threshold: the maximum attainable score of any join tuple
    /// not yet produced. `None` while no bound exists yet (nothing pulled
    /// from some non-exhausted side).
    pub fn threshold(&self) -> Option<f64> {
        let mut t: Option<f64> = None;
        'sides: for i in 0..self.bounds.len() {
            if self.exhausted[i] {
                continue;
            }
            let Some((_, my_min)) = self.bounds[i] else {
                // Nothing pulled from an active side: unbounded.
                return None;
            };
            // f(ŝ_1, …, s̄_i, …, ŝ_n), folded in side order exactly like
            // `ScoreFn::combine_many`.
            let mut bound: Option<f64> = None;
            for (j, b) in self.bounds.iter().enumerate() {
                let arg = match b {
                    _ if j == i => my_min,
                    Some((max, _)) => *max,
                    // An exhausted empty side can never partner any
                    // future tuple — side i contributes no bound.
                    None if self.exhausted[j] => continue 'sides,
                    // An active side with nothing pulled: unbounded.
                    None => return None,
                };
                bound = Some(bound.map_or(arg, |acc| self.score_fn.combine(acc, arg)));
            }
            let bound = bound.unwrap_or(0.0);
            t = Some(t.map_or(bound, |x: f64| x.max(bound)));
        }
        t.or(Some(f64::NEG_INFINITY))
    }

    /// Termination test: k results buffered and the k-th ≥ threshold.
    pub fn is_done(&self) -> bool {
        match (self.results.kth_score(), self.threshold()) {
            (Some(kth), Some(t)) => kth >= t,
            // Every side exhausted → threshold = -inf → done even if fewer
            // than k results exist.
            (None, Some(t)) => t == f64::NEG_INFINITY,
            _ => false,
        }
    }

    /// Current result count.
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// Total tuples consumed across all sides.
    pub fn tuples_consumed(&self) -> usize {
        self.consumed.iter().sum()
    }

    /// Finishes, returning the rank-ordered results.
    pub fn into_results(self) -> Vec<JoinTuple> {
        self.results.into_sorted_vec()
    }

    /// Requested k.
    pub fn k(&self) -> usize {
        self.k
    }

    // ------------------------------------------------------------------
    // Threshold-state handoff — what an adaptive driver
    // ([`crate::adaptive`]) reads out of a part-way HRJN execution when it
    // aborts ISL and switches algorithms mid-query. Everything here is
    // derived from tuples already consumed; no handoff call touches the
    // store.
    // ------------------------------------------------------------------

    /// The k-th buffered result's score — a valid *lower bound* on the
    /// final k-th score (buffered results are genuine join tuples), or
    /// `None` while fewer than k are buffered.
    pub fn kth_score(&self) -> Option<f64> {
        self.results.kth_score()
    }

    /// Tuples consumed from side `side` so far (O(1) — observers call
    /// this after every batch).
    pub fn consumed(&self, side: usize) -> usize {
        self.consumed[side]
    }

    /// `(max seen, min seen)` scores of side `side` — the `ŝ_i`/`s̄_i`
    /// pair the HRJN threshold is built from. `None` before the first
    /// pull. The max is the side's *true* maximum (inputs are
    /// score-descending); the min is how deep the descent has reached.
    pub fn side_bounds(&self, side: usize) -> Option<(f64, f64)> {
        self.bounds[side]
    }

    /// Equi-width histogram (over `[0,1]`, `buckets` cells, out-of-range
    /// scores clamped to the edge cells) of the scores consumed from side
    /// `side` — the *observed* descent an adaptive driver compares
    /// against the planner's histogram-predicted descent, in the same
    /// bucket geometry as [`crate::planner::TableStats`].
    pub fn observed_histogram(&self, side: usize, buckets: usize) -> Vec<u64> {
        let buckets = buckets.max(1);
        let mut hist = vec![0u64; buckets];
        // One linear sweep over the side's contiguous score column.
        for score in &self.seen[side].scores {
            let b = ((score.max(0.0) * buckets as f64) as usize).min(buckets - 1);
            hist[b] += 1;
        }
        hist
    }

    /// The genuine join tuples buffered so far, rank-ordered — safe to
    /// seed another algorithm's top-k accumulator with (every one is a
    /// real join result of tuples already paid for).
    pub fn current_results(&self) -> Vec<JoinTuple> {
        self.results().cloned().collect()
    }

    /// [`HrjnState::current_results`] by reference, without cloning.
    pub(crate) fn results(&self) -> impl Iterator<Item = &JoinTuple> {
        self.results.iter()
    }
}

/// The join of one new tuple against the seen stores along the tree walk
/// rooted at its side.
struct Walk<'a> {
    seen: &'a [SeenSide],
    steps: &'a [Step],
    root: usize,
    new: &'a RankedTuple,
    score_fn: ScoreFn,
}

impl<'a> Walk<'a> {
    /// Assigns `steps[pos..]`, given the sides fixed so far in `chosen`
    /// (the root is the new tuple), offering every complete assignment to
    /// `out`. `edge0` is edge 0's join value once the walk has crossed it
    /// (a tree walk crosses every edge exactly once) — it fills the
    /// results' binary-compatible `join_value` field.
    fn extend(&self, pos: usize, chosen: &mut [u32], edge0: &'a [u8], out: &mut TopK) {
        let Some(step) = self.steps.get(pos) else {
            // Score first: a candidate the top-k would evict at once is
            // never assembled.
            let score = self
                .score_fn
                .combine_iter((0..chosen.len()).map(|i| self.score(chosen, i)));
            if out.admits(score) {
                out.offer(self.assemble(chosen, edge0, score));
            }
            return;
        };
        let seen: &'a [SeenSide] = self.seen;
        let value: &'a [u8] = if step.parent == self.root {
            &self.new.join_values[step.parent_slot]
        } else {
            seen[step.parent].value(chosen[step.parent], step.parent_slot)
        };
        let edge0 = if step.edge == 0 { value } else { edge0 };
        for id in seen[step.child].ids(step.child_slot, value) {
            chosen[step.child] = id;
            self.extend(pos + 1, chosen, edge0, out);
        }
    }

    /// Side `i`'s score in the assignment `chosen`.
    fn score(&self, chosen: &[u32], i: usize) -> f64 {
        if i == self.root {
            self.new.score
        } else {
            self.seen[i].score(chosen[i])
        }
    }

    /// Builds the result tuple of a complete assignment whose aggregate
    /// is `score`: side 0 is the result's left, the last side its right,
    /// interior sides land in `inner`.
    fn assemble(&self, chosen: &[u32], edge0: &[u8], score: f64) -> JoinTuple {
        let n = chosen.len();
        let key = |i: usize| {
            if i == self.root {
                self.new.key.as_slice()
            } else {
                self.seen[i].key(chosen[i])
            }
        };
        JoinTuple {
            left_key: key(0).to_vec(),
            right_key: key(n - 1).to_vec(),
            join_value: edge0.to_vec(),
            left_score: self.score(chosen, 0),
            right_score: self.score(chosen, n - 1),
            inner: (1..n - 1)
                .map(|i| (key(i).to_vec(), self.score(chosen, i)))
                .collect(),
            score,
        }
    }
}

/// Runs HRJN to completion over in-memory score-descending per-side
/// lists, round-robin over the sides — the reference driver used by tests
/// and the examples.
pub fn run_hrjn(spec: &JoinSpec, sides: &[Vec<RankedTuple>]) -> Vec<JoinTuple> {
    assert_eq!(sides.len(), spec.n(), "one input list per side");
    let mut state = HrjnState::new(spec);
    let mut at = vec![0usize; sides.len()];
    for (i, list) in sides.iter().enumerate() {
        if list.is_empty() {
            state.exhaust(i);
        }
    }
    while !state.is_done() {
        for (i, list) in sides.iter().enumerate() {
            if let Some(tuple) = list.get(at[i]) {
                state.push(i, tuple);
                at[i] += 1;
                if at[i] == list.len() {
                    state.exhaust(i);
                }
                if state.is_done() {
                    break;
                }
            }
        }
    }
    state.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinSide;

    fn side(label: &str) -> JoinSide {
        JoinSide::new(&label.to_lowercase(), label, ("d", b"jk"), ("d", b"score"))
    }

    fn binary(k: usize, f: ScoreFn) -> JoinSpec {
        JoinSpec::path(vec![side("L"), side("R")], k, f).unwrap()
    }

    fn t(key: &[u8], join: &[u8], score: f64) -> RankedTuple {
        RankedTuple::new(key.to_vec(), join.to_vec(), score)
    }

    fn nt(key: &[u8], values: &[&[u8]], score: f64) -> RankedTuple {
        RankedTuple {
            key: key.to_vec(),
            join_values: values.iter().map(|v| v.to_vec()).collect(),
            score,
        }
    }

    fn sorted(mut v: Vec<RankedTuple>) -> Vec<RankedTuple> {
        v.sort_by(|a, b| b.score.total_cmp(&a.score));
        v
    }

    /// The running example of Fig. 1, score-sorted per relation.
    fn running_example() -> (Vec<RankedTuple>, Vec<RankedTuple>) {
        let r1 = vec![
            t(b"r1_1", b"d", 0.82),
            t(b"r1_2", b"c", 0.93),
            t(b"r1_3", b"c", 0.67),
            t(b"r1_4", b"d", 0.82),
            t(b"r1_5", b"a", 0.73),
            t(b"r1_6", b"c", 0.79),
            t(b"r1_7", b"b", 0.82),
            t(b"r1_8", b"b", 0.70),
            t(b"r1_9", b"d", 0.68),
            t(b"r1_10", b"a", 1.00),
            t(b"r1_11", b"b", 0.64),
        ];
        let r2 = vec![
            t(b"r2_1", b"a", 0.51),
            t(b"r2_2", b"b", 0.91),
            t(b"r2_3", b"c", 0.64),
            t(b"r2_4", b"d", 0.53),
            t(b"r2_5", b"d", 0.41),
            t(b"r2_6", b"d", 0.50),
            t(b"r2_7", b"a", 0.35),
            t(b"r2_8", b"a", 0.38),
            t(b"r2_9", b"a", 0.37),
            t(b"r2_10", b"c", 0.31),
            t(b"r2_11", b"b", 0.92),
        ];
        (sorted(r1), sorted(r2))
    }

    /// Brute-force top-k over two inputs.
    fn brute_force(
        k: usize,
        f: ScoreFn,
        left: &[RankedTuple],
        right: &[RankedTuple],
    ) -> Vec<JoinTuple> {
        let mut top = crate::result::TopK::new(k);
        for l in left {
            for r in right {
                if l.join_values == r.join_values {
                    top.offer(JoinTuple {
                        left_key: l.key.clone(),
                        right_key: r.key.clone(),
                        join_value: l.join_values[0].clone(),
                        left_score: l.score,
                        right_score: r.score,
                        inner: Vec::new(),
                        score: f.combine(l.score, r.score),
                    });
                }
            }
        }
        top.into_sorted_vec()
    }

    #[test]
    fn running_example_top3_sum() {
        let (r1, r2) = running_example();
        let got = run_hrjn(&binary(3, ScoreFn::Sum), &[r1, r2]);
        // All three best results come from join value b:
        // 0.82+0.92=1.74, 0.82+0.91=1.73, 0.70+0.92=1.62.
        let scores: Vec<f64> = got.iter().map(|x| x.score).collect();
        assert_eq!(scores, vec![1.74, 1.73, 1.62]);
    }

    /// Top-k is ambiguous at the k-th score boundary when several tuples
    /// tie there; HRJN may legitimately return any tie-sibling. This
    /// comparator requires: identical score sequences, identical tuples
    /// strictly above the boundary, and every boundary tuple of `got` to
    /// be a genuine boundary tuple of the full result.
    fn assert_rank_equivalent(got: &[JoinTuple], all_sorted: &[JoinTuple], k: usize) {
        let want: Vec<&JoinTuple> = all_sorted.iter().take(k).collect();
        assert_eq!(got.len(), want.len());
        let got_scores: Vec<f64> = got.iter().map(|t| t.score).collect();
        let want_scores: Vec<f64> = want.iter().map(|t| t.score).collect();
        assert_eq!(got_scores, want_scores, "score sequences differ");
        let boundary = want.last().map(|t| t.score);
        for (g, w) in got.iter().zip(&want) {
            if Some(g.score) != boundary {
                assert_eq!(&g, w, "above-boundary tuples must match exactly");
            } else {
                // A boundary tuple must appear somewhere in the full
                // rank-ordered join result with that exact score.
                assert!(
                    all_sorted.iter().any(|t| t.score == g.score
                        && t.left_key == g.left_key
                        && t.right_key == g.right_key),
                    "boundary tuple not a real join result: {g:?}"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_on_example_all_k() {
        let (r1, r2) = running_example();
        for f in [ScoreFn::Sum, ScoreFn::Product, ScoreFn::Min, ScoreFn::Max] {
            let all = brute_force(usize::MAX / 2, f, &r1, &r2);
            for k in 1..=20 {
                let got = run_hrjn(&binary(k, f), &[r1.clone(), r2.clone()]);
                assert_rank_equivalent(&got, &all, k.min(all.len()));
            }
        }
    }

    #[test]
    fn early_termination_consumes_less_than_everything() {
        // Two relations where the top result is obvious early.
        let left: Vec<RankedTuple> = (0..100)
            .map(|i| t(format!("l{i}").as_bytes(), b"x", 1.0 - i as f64 / 100.0))
            .collect();
        let right: Vec<RankedTuple> = (0..100)
            .map(|i| t(format!("r{i}").as_bytes(), b"x", 1.0 - i as f64 / 100.0))
            .collect();
        let mut state = HrjnState::new(&binary(1, ScoreFn::Sum));
        let mut consumed = 0;
        let mut li = 0;
        let mut ri = 0;
        while !state.is_done() {
            if li <= ri {
                state.push(0, &left[li]);
                li += 1;
            } else {
                state.push(1, &right[ri]);
                ri += 1;
            }
            consumed += 1;
        }
        assert!(consumed <= 4, "top-1 should need ≈2 pulls, used {consumed}");
    }

    #[test]
    fn empty_inputs_terminate() {
        let got = run_hrjn(&binary(5, ScoreFn::Sum), &[vec![], vec![]]);
        assert!(got.is_empty());
        let one = vec![t(b"a", b"x", 0.5)];
        let got = run_hrjn(&binary(5, ScoreFn::Sum), &[one, vec![]]);
        assert!(got.is_empty());
    }

    #[test]
    fn fewer_than_k_results() {
        let left = vec![t(b"l1", b"x", 0.9)];
        let right = vec![t(b"r1", b"x", 0.8), t(b"r2", b"y", 0.7)];
        let got = run_hrjn(&binary(10, ScoreFn::Sum), &[left, right]);
        assert_eq!(got.len(), 1);
        assert!((got[0].score - 1.7).abs() < 1e-12);
    }

    #[test]
    fn threshold_is_none_before_both_sides_seen() {
        let mut s = HrjnState::new(&binary(1, ScoreFn::Sum));
        assert_eq!(s.threshold(), None);
        s.push(0, &t(b"l", b"x", 0.9));
        assert_eq!(s.threshold(), None, "right side untouched → no bound");
        s.push(1, &t(b"r", b"y", 0.8));
        assert!(s.threshold().is_some());
    }

    #[test]
    fn two_side_threshold_is_the_binary_formula() {
        // An asymmetric f pins the argument order of both bounds.
        let f = ScoreFn::WeightedSum { wl: 2.0, wr: 0.5 };
        let mut s = HrjnState::new(&binary(5, f));
        s.push(0, &t(b"l1", b"x", 0.9));
        s.push(0, &t(b"l2", b"y", 0.4));
        s.push(1, &t(b"r1", b"z", 0.8));
        s.push(1, &t(b"r2", b"w", 0.3));
        // max{f(s̄_1, ŝ_2), f(ŝ_1, s̄_2)} = max{f(0.4, 0.8), f(0.9, 0.3)}.
        let want = f.combine(0.4, 0.8).max(f.combine(0.9, 0.3));
        assert_eq!(s.threshold(), Some(want));
        s.exhaust(0);
        assert_eq!(s.threshold(), Some(f.combine(0.9, 0.3)));
    }

    #[test]
    fn duplicate_join_values_multiply() {
        let left = vec![t(b"l1", b"x", 0.9), t(b"l2", b"x", 0.8)];
        let right = vec![t(b"r1", b"x", 0.7), t(b"r2", b"x", 0.6)];
        let got = run_hrjn(&binary(10, ScoreFn::Sum), &[left, right]);
        assert_eq!(got.len(), 4, "2×2 cartesian on shared join value");
    }

    /// A deterministic pseudo-random side: `n` tuples, join values drawn
    /// from `domain` letters, scores spread over (0,1].
    fn gen_side(n: usize, domain: u8, seed: u64, edges: usize) -> Vec<RankedTuple> {
        let mut v = Vec::new();
        let mut x = seed;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = b'a' + (x >> 33) as u8 % domain;
            let score = ((x >> 11) % 1000) as f64 / 1000.0;
            v.push(nt(
                format!("k{i}").as_bytes(),
                &vec![&[j][..]; edges],
                score,
            ));
        }
        sorted(v)
    }

    /// Brute-force 3-way path oracle over in-memory lists.
    fn brute_path3(spec: &JoinSpec, s: &[Vec<RankedTuple>]) -> Vec<JoinTuple> {
        let mut top = TopK::new(spec.k);
        for a in &s[0] {
            for b in &s[1] {
                if a.join_values[0] != b.join_values[0] {
                    continue;
                }
                for c in &s[2] {
                    if b.join_values[1] != c.join_values[0] {
                        continue;
                    }
                    top.offer(JoinTuple {
                        left_key: a.key.clone(),
                        right_key: c.key.clone(),
                        join_value: a.join_values[0].clone(),
                        left_score: a.score,
                        right_score: c.score,
                        inner: vec![(b.key.clone(), b.score)],
                        score: spec.score_fn.combine_many(&[a.score, b.score, c.score]),
                    });
                }
            }
        }
        top.into_sorted_vec()
    }

    #[test]
    fn path3_matches_brute_force() {
        for f in [ScoreFn::Sum, ScoreFn::Product, ScoreFn::Min, ScoreFn::Max] {
            let spec = JoinSpec::path(vec![side("A"), side("B"), side("C")], 8, f).unwrap();
            let sides = vec![
                gen_side(20, 3, 1, 1),
                gen_side(18, 3, 2, 2),
                gen_side(22, 3, 3, 1),
            ];
            let got = run_hrjn(&spec, &sides);
            let want = brute_path3(&spec, &sides);
            let gs: Vec<f64> = got.iter().map(|t| t.score).collect();
            let ws: Vec<f64> = want.iter().map(|t| t.score).collect();
            assert_eq!(gs, ws, "{f:?}");
        }
    }

    #[test]
    fn star3_hub_joins_both_leaves() {
        // Hub H joins leaves X and Y on different attributes.
        let spec = JoinSpec::star(vec![side("H"), side("X"), side("Y")], 10, ScoreFn::Sum).unwrap();
        // Hub tuples carry one value per incident edge (2 edges).
        let hub = sorted(vec![
            nt(b"h1", &[b"a", b"p"], 0.9),
            nt(b"h2", &[b"a", b"q"], 0.7),
            nt(b"h3", &[b"b", b"p"], 0.5),
        ]);
        let x = sorted(vec![nt(b"x1", &[b"a"], 0.8), nt(b"x2", &[b"b"], 0.6)]);
        let y = sorted(vec![nt(b"y1", &[b"p"], 0.4), nt(b"y2", &[b"q"], 0.9)]);
        let got = run_hrjn(&spec, &[hub, x, y]);
        // h1⋈x1⋈y1 (0.9+0.8+0.4=2.1), h2⋈x1⋈y2 (0.7+0.8+0.9=2.4),
        // h3⋈x2⋈y1 (0.5+0.6+0.4=1.5).
        let scores: Vec<f64> = got.iter().map(|t| t.score).collect();
        assert_eq!(scores, vec![2.4, 2.1, 1.5]);
        // Hub is side 0 → result's left; inner holds side 1 (X).
        assert_eq!(got[0].left_key, b"h2".to_vec());
        assert_eq!(got[0].inner, vec![(b"x1".to_vec(), 0.8)]);
        assert_eq!(got[0].right_key, b"y2".to_vec());
    }

    #[test]
    fn early_termination_on_path() {
        // Clear winner at the top: top-1 should not consume everything.
        let mk = |prefix: &str, n: usize| -> Vec<RankedTuple> {
            sorted(
                (0..n)
                    .map(|i| {
                        nt(
                            format!("{prefix}{i}").as_bytes(),
                            &[b"x"],
                            1.0 - i as f64 / n as f64,
                        )
                    })
                    .collect(),
            )
        };
        let mid: Vec<RankedTuple> = sorted(
            (0..50)
                .map(|i| {
                    nt(
                        format!("m{i}").as_bytes(),
                        &[b"x", b"x"],
                        1.0 - i as f64 / 50.0,
                    )
                })
                .collect(),
        );
        let spec = JoinSpec::path(vec![side("A"), side("B"), side("C")], 1, ScoreFn::Sum).unwrap();
        let mut state = HrjnState::new(&spec);
        let sides = [mk("a", 50), mid, mk("c", 50)];
        let mut at = [0usize; 3];
        while !state.is_done() {
            for i in 0..3 {
                state.push(i, &sides[i][at[i]]);
                at[i] += 1;
            }
        }
        assert!(
            state.tuples_consumed() <= 9,
            "top-1 needed {} pulls",
            state.tuples_consumed()
        );
    }

    #[test]
    fn threshold_none_until_every_side_bounded() {
        let spec = JoinSpec::path(vec![side("A"), side("B"), side("C")], 2, ScoreFn::Sum).unwrap();
        let mut s = HrjnState::new(&spec);
        assert_eq!(s.threshold(), None);
        s.push(0, &nt(b"a", &[b"x"], 0.9));
        s.push(1, &nt(b"b", &[b"x", b"x"], 0.8));
        assert_eq!(s.threshold(), None, "side 2 untouched → no bound");
        s.push(2, &nt(b"c", &[b"x"], 0.7));
        assert!(s.threshold().is_some());
    }

    #[test]
    fn exhausted_empty_side_terminates() {
        let spec = JoinSpec::path(vec![side("A"), side("B"), side("C")], 2, ScoreFn::Sum).unwrap();
        let mut s = HrjnState::new(&spec);
        s.push(0, &nt(b"a", &[b"x"], 0.9));
        s.push(2, &nt(b"c", &[b"x"], 0.7));
        s.exhaust(1);
        s.exhaust(0);
        s.exhaust(2);
        assert_eq!(s.threshold(), Some(f64::NEG_INFINITY));
        assert!(s.is_done());
        assert_eq!(s.result_count(), 0);
    }
}
