//! The ISL descent over the multiway index: the N-ary rank join as a
//! [`crate::cursor::IslCursor`], batched round-robin over every
//! [`SideAccess::Descend`] side of the index, with
//! [`SideAccess::Materialize`] sides bulk-ingested up front — per-side
//! *materialize-then-join* inside one threshold-terminated operator.
//! Suspend/resume, re-targeting and the one-shot equivalence contract
//! are the binary cursor's own.

use rj_store::cluster::Cluster;

use crate::cursor::{IndexKind, IslCursor};
use crate::error::Result;
use crate::query::JoinSpec;

/// How one side of a multiway execution is consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SideAccess {
    /// Batched descending-score index descent — the side participates in
    /// the round-robin threshold race (ISL-style).
    Descend,
    /// The side's full index family is scanned and ingested before the
    /// descent starts — materialize-then-join, the right call for a small
    /// side whose exhaustion tightens the threshold immediately.
    Materialize,
}

/// Knobs of the multiway descent.
#[derive(Clone, Copy, Debug)]
pub struct MultiwayConfig {
    /// Rows fetched per batch from each descending side.
    pub batch: usize,
}

impl Default for MultiwayConfig {
    fn default() -> Self {
        MultiwayConfig { batch: 64 }
    }
}

/// Opens a cursor over a previously built multiway index
/// ([`crate::multiway::index::build`]), consuming each side per `access`
/// and pinned to `pinned_version` (`None`: unchecked resumes).
pub(crate) fn open(
    cluster: &Cluster,
    spec: &JoinSpec,
    index_table: &str,
    config: MultiwayConfig,
    access: Vec<SideAccess>,
    pinned_version: Option<u64>,
) -> Result<IslCursor> {
    IslCursor::open_spec(
        cluster,
        spec,
        index_table,
        IndexKind::Multiway,
        access.into_iter().map(|a| (config.batch, a)).collect(),
        pinned_version,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::StopPolicy;
    use crate::cursor::RankedCursor;
    use crate::multiway::index;
    use crate::oracle;
    use crate::testsupport::three_way_path_cluster;
    use rj_mapreduce::MapReduceEngine;

    fn built(k: usize) -> (Cluster, JoinSpec, String) {
        let (c, spec) = three_way_path_cluster(k);
        let engine = MapReduceEngine::new(c.clone());
        let table = index::index_table_name(&spec);
        index::build(&engine, &spec, &table).unwrap();
        (c, spec, table)
    }

    fn drain(cursor: &mut IslCursor, page: usize) -> Vec<crate::result::JoinTuple> {
        let mut out = Vec::new();
        loop {
            let batch = cursor.next_batch(page, &StopPolicy::default()).unwrap();
            out.extend(batch.results);
            if batch.done {
                return out;
            }
        }
    }

    #[test]
    fn all_descend_matches_oracle() {
        let (c, spec, table) = built(5);
        let mut cursor = open(
            &c,
            &spec,
            &table,
            MultiwayConfig::default(),
            vec![SideAccess::Descend; 3],
            None,
        )
        .unwrap();
        let got = drain(&mut cursor, 2);
        let want = oracle::topk_spec(&c, &spec).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn every_access_mix_matches_oracle() {
        use SideAccess::{Descend, Materialize};
        let want = {
            let (c, spec, _) = built(6);
            oracle::topk_spec(&c, &spec).unwrap()
        };
        for mask in 0..8u8 {
            let (c, spec, table) = built(6);
            let access: Vec<SideAccess> = (0..3)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        Materialize
                    } else {
                        Descend
                    }
                })
                .collect();
            let mut cursor =
                open(&c, &spec, &table, MultiwayConfig { batch: 3 }, access, None).unwrap();
            let got = drain(&mut cursor, 4);
            assert_eq!(got, want, "access mask {mask:03b}");
        }
    }

    #[test]
    fn pause_resume_preserves_sequence_and_charge() {
        let (c, spec, table) = built(6);
        let one_shot = {
            let before = c.metrics().snapshot();
            let mut cursor = open(
                &c,
                &spec,
                &table,
                MultiwayConfig { batch: 2 },
                vec![SideAccess::Descend; 3],
                None,
            )
            .unwrap();
            let results = drain(&mut cursor, 100);
            (results, c.metrics().snapshot().delta_since(&before))
        };

        let (c2, spec2, table2) = built(6);
        let before = c2.metrics().snapshot();
        let mut cursor: Box<dyn RankedCursor> = Box::new(
            open(
                &c2,
                &spec2,
                &table2,
                MultiwayConfig { batch: 2 },
                vec![SideAccess::Descend; 3],
                None,
            )
            .unwrap(),
        );
        let mut paged = Vec::new();
        loop {
            let batch = cursor.next_batch(1, &StopPolicy::default()).unwrap();
            paged.extend(batch.results);
            if batch.done {
                break;
            }
            let state = cursor.pause();
            assert_eq!(state.algorithm(), "MULTIWAY");
            cursor = state.resume_on(&c2).unwrap();
        }
        assert_eq!(paged, one_shot.0);
        let charged = c2.metrics().snapshot().delta_since(&before);
        assert_eq!(charged.kv_reads, one_shot.1.kv_reads);
        assert_eq!(charged.rpc_calls, one_shot.1.rpc_calls);
        assert_eq!(charged.network_bytes, one_shot.1.network_bytes);
    }

    #[test]
    fn retarget_deepens_without_rereads() {
        let (c, spec, table) = built(2);
        let mut cursor = open(
            &c,
            &spec,
            &table,
            MultiwayConfig::default(),
            vec![SideAccess::Descend; 3],
            None,
        )
        .unwrap();
        let top2 = drain(&mut cursor, 100);
        assert_eq!(
            top2.len(),
            2.min(oracle::topk_spec(&c, &spec).unwrap().len())
        );
        let state = Box::new(cursor).pause();
        assert!(state.supports_retarget());
        let mut deeper = state.resume_retargeted(&c, 6).unwrap();
        let mut got = Vec::new();
        loop {
            let batch = deeper.next_batch(10, &StopPolicy::default()).unwrap();
            got.extend(batch.results);
            if batch.done {
                break;
            }
        }
        let want = oracle::topk_spec(&c, &spec.with_k(6)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn k_zero_is_empty_and_free() {
        let (c, spec, table) = built(0);
        let before = c.metrics().snapshot();
        let mut cursor = open(
            &c,
            &spec,
            &table,
            MultiwayConfig::default(),
            vec![SideAccess::Descend; 3],
            None,
        )
        .unwrap();
        let batch = cursor.next_batch(5, &StopPolicy::default()).unwrap();
        assert!(batch.results.is_empty());
        assert!(batch.done);
        let after = c.metrics().snapshot();
        assert_eq!(before.kv_reads, after.kv_reads);
    }
}
