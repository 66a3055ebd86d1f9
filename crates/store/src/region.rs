//! Regions: contiguous row-key ranges of a table, each hosted on one node.
//!
//! A region stores its rows in a `BTreeMap`, mirroring HBase's sorted
//! key-value files: point reads are cheap, and scans stream rows in
//! ascending key order. Cells are multi-versioned with tombstone deletes,
//! newest-first, which the §6 update machinery relies on to "replay all row
//! mutations in timestamp order".

use std::collections::BTreeMap;
use std::ops::Bound;

use bytes::Bytes;

use crate::cell::{Cell, Mutation};
use crate::filter::ServerFilter;
use crate::row::RowResult;

/// One version of one column: a put or a tombstone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Version {
    /// A value written at a timestamp.
    Put(u64, Bytes),
    /// A delete tombstone at a timestamp; shadows versions at the same or
    /// earlier timestamps.
    Tombstone(u64),
}

impl Version {
    /// Sort key: newer first; at equal timestamps tombstones shadow puts.
    fn order_key(&self) -> (u64, u8) {
        match self {
            Version::Tombstone(ts) => (*ts, 1),
            Version::Put(ts, _) => (*ts, 0),
        }
    }
}

/// All versions of one column, ordered newest-first.
#[derive(Clone, Debug, Default)]
pub(crate) struct Versions(Vec<Version>);

impl Versions {
    fn insert(&mut self, v: Version) {
        let key = v.order_key();
        // Newest first ⇒ descending order_key.
        let pos = self
            .0
            .binary_search_by(|e| key.cmp(&e.order_key()))
            .unwrap_or_else(|p| p);
        self.0.insert(pos, v);
    }

    /// The latest visible value, if the column is live.
    fn visible(&self) -> Option<(u64, &Bytes)> {
        match self.0.first() {
            Some(Version::Put(ts, v)) => Some((*ts, v)),
            _ => None,
        }
    }
}

/// The bit of family `idx` in a [`RowData::present`] mask. Families from
/// index 63 on share the top bit, so a mask test can only over-approximate:
/// a shared bit makes a scan read a row it could have skipped, never skip
/// one it must read.
fn family_bit(idx: usize) -> u64 {
    1 << idx.min(63)
}

/// Row payload: per-family column maps, indexed by the table's family ids.
#[derive(Clone, Debug)]
pub(crate) struct RowData {
    /// Which families hold any column (a put or a tombstone), one
    /// [`family_bit`] each. Kept inline so a projected scan skips rows
    /// outside its projection without touching their column maps.
    /// Versions are never removed, so a bit once set stays true.
    present: u64,
    families: Vec<BTreeMap<Vec<u8>, Versions>>,
}

impl RowData {
    fn new(num_families: usize) -> Self {
        RowData {
            present: 0,
            families: vec![BTreeMap::new(); num_families],
        }
    }

    fn is_empty(&self) -> bool {
        self.families.iter().all(BTreeMap::is_empty)
    }
}

/// Byte/KV accounting for one region-server operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadCost {
    /// KV pairs materialized at the server (dollar-cost units).
    pub kvs_scanned: u64,
    /// Bytes materialized at the server (disk volume).
    pub bytes_scanned: u64,
    /// KV pairs that passed filters and will be shipped.
    pub kvs_returned: u64,
    /// Bytes that passed filters and will be shipped.
    pub bytes_returned: u64,
}

/// A batch of scan output plus its costs and resume position.
pub struct ScanBatch {
    /// Rows produced by this batch (may be empty if the filter dropped all).
    pub rows: Vec<RowResult>,
    /// Accounting for the batch.
    pub cost: ReadCost,
    /// Key to resume from (exclusive of everything already visited), or
    /// `None` when the region is exhausted.
    pub resume_key: Option<Vec<u8>>,
}

/// One shard of a table: rows in `[start, end)` hosted on `node`.
#[derive(Debug)]
pub struct Region {
    /// First key served (inclusive); empty = table start.
    pub(crate) start: Vec<u8>,
    /// Hosting node index.
    pub(crate) node: usize,
    pub(crate) rows: BTreeMap<Vec<u8>, RowData>,
    /// Live KV count (visible puts).
    pub(crate) kv_count: u64,
    /// Approximate stored bytes, including shadowed versions.
    pub(crate) byte_size: u64,
}

impl Region {
    pub(crate) fn new(start: Vec<u8>, node: usize) -> Self {
        Region {
            start,
            node,
            rows: BTreeMap::new(),
            kv_count: 0,
            byte_size: 0,
        }
    }

    /// Hosting node.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Inclusive start key.
    pub fn start_key(&self) -> &[u8] {
        &self.start
    }

    /// Number of rows stored.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Approximate bytes stored.
    pub fn byte_size(&self) -> u64 {
        self.byte_size
    }

    /// Live KV count.
    pub fn kv_count(&self) -> u64 {
        self.kv_count
    }

    /// Applies mutations to one row atomically. Returns bytes written.
    ///
    /// `family_ids` maps each mutation to its schema family index (resolved
    /// by the table before routing here).
    pub(crate) fn mutate_row(
        &mut self,
        row_key: &[u8],
        muts: &[(usize, &Mutation)],
        default_ts: u64,
        num_families: usize,
    ) -> u64 {
        let row = self
            .rows
            .entry(row_key.to_vec())
            .or_insert_with(|| RowData::new(num_families));
        let mut bytes = 0u64;
        for &(fam_idx, m) in muts {
            row.present |= family_bit(fam_idx);
            match m {
                Mutation::Put {
                    qualifier,
                    value,
                    timestamp,
                    ..
                } => {
                    let ts = timestamp.unwrap_or(default_ts);
                    let versions = row.families[fam_idx].entry(qualifier.clone()).or_default();
                    let was_visible = versions.visible().is_some();
                    versions.insert(Version::Put(ts, value.clone()));
                    let now_visible = versions.visible().is_some();
                    if !was_visible && now_visible {
                        self.kv_count += 1;
                    }
                    bytes += m.weight(row_key.len());
                }
                Mutation::Delete {
                    qualifier,
                    timestamp,
                    ..
                } => {
                    let ts = timestamp.unwrap_or(default_ts);
                    let versions = row.families[fam_idx].entry(qualifier.clone()).or_default();
                    let was_visible = versions.visible().is_some();
                    versions.insert(Version::Tombstone(ts));
                    let now_visible = versions.visible().is_some();
                    if was_visible && !now_visible {
                        self.kv_count = self.kv_count.saturating_sub(1);
                    }
                    bytes += m.weight(row_key.len());
                }
            }
        }
        if row.is_empty() {
            self.rows.remove(row_key);
        }
        self.byte_size += bytes;
        bytes
    }

    /// Materializes the visible cells of one row, restricted to the given
    /// family indices (`None` = all). The row comes back only if a cell
    /// does; the cost counts every stored column read, tombstoned or not.
    fn materialize(
        key: &[u8],
        data: &RowData,
        family_names: &[String],
        families: Option<&[usize]>,
    ) -> (Option<RowResult>, ReadCost) {
        let mut cells = Vec::new();
        let mut cost = ReadCost::default();
        let mut read_family = |fam_idx: usize| {
            for (qualifier, versions) in &data.families[fam_idx] {
                // Every stored version is touched by the read path.
                cost.kvs_scanned += 1;
                if let Some((ts, value)) = versions.visible() {
                    let cell = Cell {
                        row: key.to_vec(),
                        family: family_names[fam_idx].clone(),
                        qualifier: qualifier.clone(),
                        timestamp: ts,
                        value: value.clone(),
                    };
                    cost.bytes_scanned += cell.weight();
                    cells.push(cell);
                }
            }
        };
        match families {
            Some(ids) => ids.iter().copied().for_each(&mut read_family),
            None => (0..data.families.len()).for_each(&mut read_family),
        }
        let row = (!cells.is_empty()).then(|| RowResult {
            key: key.to_vec(),
            cells,
        });
        (row, cost)
    }

    /// Point read of one row.
    pub(crate) fn get(
        &self,
        key: &[u8],
        family_names: &[String],
        families: Option<&[usize]>,
    ) -> (Option<RowResult>, ReadCost) {
        let Some(data) = self.rows.get(key) else {
            return (None, ReadCost::default());
        };
        let (row, mut cost) = Self::materialize(key, data, family_names, families);
        if let Some(row) = &row {
            cost.kvs_returned = row.kv_count();
            cost.bytes_returned = row.weight();
        }
        (row, cost)
    }

    /// Scans up to `max_rows` rows starting at `start` (inclusive), stopping
    /// before `stop` (exclusive) and before the region end.
    ///
    /// Every visited row counts toward `max_rows` — the batch is an RPC's
    /// worth of server-side row visits — including rows skipped because
    /// no projected family holds a column; those cost no reads, exactly
    /// like materializing them would.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_batch(
        &self,
        start: &[u8],
        stop: Option<&[u8]>,
        family_names: &[String],
        families: Option<&[usize]>,
        filter: Option<&dyn ServerFilter>,
        max_rows: usize,
    ) -> ScanBatch {
        let mut rows = Vec::new();
        let mut cost = ReadCost::default();
        let mut resume_key = None;

        let upper = match stop {
            // `BTreeMap::range` panics on an inverted range.
            Some(stop) if stop <= start => {
                return ScanBatch {
                    rows,
                    cost,
                    resume_key,
                }
            }
            Some(stop) => Bound::Excluded(stop),
            None => Bound::Unbounded,
        };
        let projection = families.map_or(u64::MAX, |ids| {
            ids.iter().fold(0, |mask, &idx| mask | family_bit(idx))
        });
        let range = self.rows.range::<[u8], _>((Bound::Included(start), upper));
        for (visited, (key, data)) in range.enumerate() {
            if visited == max_rows {
                resume_key = Some(key.clone());
                break;
            }
            if data.present & projection == 0 {
                continue;
            }
            let (row, c) = Self::materialize(key, data, family_names, families);
            cost.kvs_scanned += c.kvs_scanned;
            cost.bytes_scanned += c.bytes_scanned;
            let Some(row) = row else { continue };
            if filter.is_none_or(|f| f.accept(&row)) {
                cost.kvs_returned += row.kv_count();
                cost.bytes_returned += row.weight();
                rows.push(row);
            }
        }
        ScanBatch {
            rows,
            cost,
            resume_key,
        }
    }

    /// Row keys in ascending order (rebalancing support).
    pub(crate) fn row_keys(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.rows.keys()
    }

    /// The median row key, used as an auto-split point. `None` if the
    /// region has fewer than two rows.
    pub(crate) fn split_point(&self) -> Option<Vec<u8>> {
        if self.rows.len() < 2 {
            return None;
        }
        self.rows.keys().nth(self.rows.len() / 2).cloned()
    }

    /// Splits off rows `>= split_key` into a new region hosted on `node`.
    pub(crate) fn split_off(&mut self, split_key: &[u8], node: usize) -> Region {
        let upper = self.rows.split_off(split_key);
        let mut new_region = Region::new(split_key.to_vec(), node);
        new_region.rows = upper;
        // Recompute accounting on both sides (splits are rare).
        let recount = |rows: &BTreeMap<Vec<u8>, RowData>| -> (u64, u64) {
            let mut kvs = 0u64;
            let mut bytes = 0u64;
            for (key, data) in rows {
                for fam in &data.families {
                    for (q, versions) in fam {
                        if let Some((_, v)) = versions.visible() {
                            kvs += 1;
                            bytes += (key.len() + q.len() + 8 + v.len()) as u64;
                        }
                    }
                }
            }
            (kvs, bytes)
        };
        let (kvs, bytes) = recount(&self.rows);
        self.kv_count = kvs;
        self.byte_size = bytes;
        let (kvs, bytes) = recount(&new_region.rows);
        new_region.kv_count = kvs;
        new_region.byte_size = bytes;
        new_region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fams() -> Vec<String> {
        vec!["a".to_string(), "b".to_string()]
    }

    fn put(region: &mut Region, key: &[u8], fam: usize, q: &[u8], v: &[u8], ts: u64) {
        let m = Mutation::put_at(if fam == 0 { "a" } else { "b" }, q, v.to_vec(), ts);
        region.mutate_row(key, &[(fam, &m)], 0, 2);
    }

    #[test]
    fn put_then_get() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k1", 0, b"q", b"v1", 1);
        let (row, cost) = r.get(b"k1", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap().as_ref(), b"v1");
        assert_eq!(cost.kvs_scanned, 1);
        assert_eq!(r.kv_count(), 1);
    }

    #[test]
    fn newer_put_wins() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"old", 1);
        put(&mut r, b"k", 0, b"q", b"new", 5);
        let (row, _) = r.get(b"k", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap().as_ref(), b"new");
        assert_eq!(r.kv_count(), 1, "overwrite does not grow live count");
    }

    #[test]
    fn tombstone_hides_older_and_equal() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"v", 5);
        let d = Mutation::delete_at("a", b"q", 5);
        r.mutate_row(b"k", &[(0, &d)], 0, 2);
        let (row, _) = r.get(b"k", &fams(), None);
        assert!(row.is_none(), "equal-timestamp delete shadows the put");
        assert_eq!(r.kv_count(), 0);
    }

    #[test]
    fn put_after_tombstone_resurrects() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"v1", 1);
        let d = Mutation::delete_at("a", b"q", 2);
        r.mutate_row(b"k", &[(0, &d)], 0, 2);
        put(&mut r, b"k", 0, b"q", b"v2", 3);
        let (row, _) = r.get(b"k", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap().as_ref(), b"v2");
    }

    #[test]
    fn out_of_order_timestamps_resolve_correctly() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"newest", 10);
        put(&mut r, b"k", 0, b"q", b"stale", 3);
        let (row, _) = r.get(b"k", &fams(), None);
        assert_eq!(row.unwrap().value("a", b"q").unwrap().as_ref(), b"newest");
    }

    #[test]
    fn scan_respects_bounds_and_batch() {
        let mut r = Region::new(vec![], 0);
        for i in 0..10u8 {
            put(&mut r, &[i], 0, b"q", b"v", 1);
        }
        let batch = r.scan_batch(&[2], Some(&[8]), &fams(), None, None, 3);
        let keys: Vec<u8> = batch.rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys, vec![2, 3, 4]);
        assert_eq!(batch.resume_key, Some(vec![5]));
        let batch2 = r.scan_batch(&[5], Some(&[8]), &fams(), None, None, 100);
        let keys2: Vec<u8> = batch2.rows.iter().map(|row| row.key[0]).collect();
        assert_eq!(keys2, vec![5, 6, 7]);
        assert_eq!(batch2.resume_key, None);
    }

    #[test]
    fn scan_family_projection() {
        let mut r = Region::new(vec![], 0);
        put(&mut r, b"k", 0, b"q", b"va", 1);
        put(&mut r, b"k", 1, b"q", b"vb", 1);
        let batch = r.scan_batch(b"", None, &fams(), Some(&[1]), None, 10);
        assert_eq!(batch.rows.len(), 1);
        assert_eq!(batch.rows[0].cells.len(), 1);
        assert_eq!(batch.rows[0].cells[0].family, "b");
    }

    #[test]
    fn filtered_rows_are_billed_but_not_returned() {
        struct RejectAll;
        impl ServerFilter for RejectAll {
            fn accept(&self, _row: &RowResult) -> bool {
                false
            }
        }
        let mut r = Region::new(vec![], 0);
        for i in 0..5u8 {
            put(&mut r, &[i], 0, b"q", b"v", 1);
        }
        let batch = r.scan_batch(b"", None, &fams(), None, Some(&RejectAll), 10);
        assert!(batch.rows.is_empty());
        assert_eq!(batch.cost.kvs_scanned, 5);
        assert_eq!(batch.cost.kvs_returned, 0);
        assert_eq!(batch.cost.bytes_returned, 0);
        assert!(batch.cost.bytes_scanned > 0);
    }

    #[test]
    fn split_partitions_rows() {
        let mut r = Region::new(vec![], 0);
        for i in 0..10u8 {
            put(&mut r, &[i], 0, b"q", b"v", 1);
        }
        let split = r.split_point().unwrap();
        let upper = r.split_off(&split, 1);
        assert_eq!(r.row_count() + upper.row_count(), 10);
        assert!(r.rows.keys().all(|k| k.as_slice() < split.as_slice()));
        assert!(upper.rows.keys().all(|k| k.as_slice() >= split.as_slice()));
        assert_eq!(upper.node(), 1);
        assert_eq!(r.kv_count() + upper.kv_count(), 10);
    }
}

/// `Table::scan_batch` against a naive reference: the scan loop that
/// materializes every row in the range and tests the stop key per row,
/// run over a single-region mirror of the same writes.
#[cfg(test)]
mod scan_props {
    use proptest::prelude::*;

    use super::*;
    use crate::table::Table;

    const FAMILIES: [&str; 3] = ["a", "b", "sparse"];
    /// Row keys are single bytes below this; starts and stops range one
    /// past it so scans can begin and end beyond the last row.
    const KEYS: u8 = 24;

    /// Accepts rows with an even first key byte.
    struct EvenKeys;
    impl ServerFilter for EvenKeys {
        fn accept(&self, row: &RowResult) -> bool {
            row.key[0].is_multiple_of(2)
        }
    }

    /// The materialization the projected scan replaced: reads every
    /// projected family of every row and always copies the key.
    fn naive_materialize(
        key: &[u8],
        data: &RowData,
        family_names: &[String],
        families: Option<&[usize]>,
    ) -> (RowResult, ReadCost) {
        let mut cells = Vec::new();
        let mut cost = ReadCost::default();
        let select: Box<dyn Iterator<Item = usize>> = match families {
            Some(ids) => Box::new(ids.iter().copied()),
            None => Box::new(0..data.families.len()),
        };
        for fam_idx in select {
            for (qualifier, versions) in &data.families[fam_idx] {
                cost.kvs_scanned += 1;
                if let Some((ts, value)) = versions.visible() {
                    let cell = Cell {
                        row: key.to_vec(),
                        family: family_names[fam_idx].clone(),
                        qualifier: qualifier.clone(),
                        timestamp: ts,
                        value: value.clone(),
                    };
                    cost.bytes_scanned += cell.weight();
                    cells.push(cell);
                }
            }
        }
        (
            RowResult {
                key: key.to_vec(),
                cells,
            },
            cost,
        )
    }

    /// The region scan loop the projected scan replaced.
    fn naive_region_scan(
        region: &Region,
        start: &[u8],
        stop: Option<&[u8]>,
        family_names: &[String],
        families: Option<&[usize]>,
        filter: Option<&dyn ServerFilter>,
        max_rows: usize,
    ) -> ScanBatch {
        let mut rows = Vec::new();
        let mut cost = ReadCost::default();
        let mut resume_key = None;
        let range = region
            .rows
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded));
        for (visited, (key, data)) in range.enumerate() {
            if let Some(stop) = stop {
                if key.as_slice() >= stop {
                    return ScanBatch {
                        rows,
                        cost,
                        resume_key: None,
                    };
                }
            }
            if visited == max_rows {
                resume_key = Some(key.clone());
                break;
            }
            let (row, c) = naive_materialize(key, data, family_names, families);
            cost.kvs_scanned += c.kvs_scanned;
            cost.bytes_scanned += c.bytes_scanned;
            if row.cells.is_empty() {
                continue;
            }
            if filter.is_none_or(|f| f.accept(&row)) {
                cost.kvs_returned += row.kv_count();
                cost.bytes_returned += row.weight();
                rows.push(row);
            }
        }
        ScanBatch {
            rows,
            cost,
            resume_key,
        }
    }

    /// One table scan step, answered from the mirror: the step is bounded
    /// by the end of the table region serving `start`, and resumes at the
    /// next region's start once that region is exhausted.
    fn reference_step(
        table: &Table,
        mirror: &Region,
        start: &[u8],
        stop: Option<&[u8]>,
        families: Option<&[usize]>,
        filter: Option<&dyn ServerFilter>,
        max_rows: usize,
    ) -> (Vec<RowResult>, ReadCost, Option<Vec<u8>>) {
        let infos = table.region_infos();
        let idx = infos
            .iter()
            .rposition(|r| r.start.as_slice() <= start)
            .unwrap_or(0);
        let edge = infos[idx].end.as_deref();
        let effective_stop = match (edge, stop) {
            (Some(e), Some(s)) => Some(e.min(s)),
            (e, s) => e.or(s),
        };
        let batch = naive_region_scan(
            mirror,
            start,
            effective_stop,
            table.families(),
            families,
            filter,
            max_rows,
        );
        let resume_key = batch.resume_key.or_else(|| {
            edge.filter(|e| stop.is_none_or(|s| *e < s))
                .map(<[u8]>::to_vec)
        });
        (batch.rows, batch.cost, resume_key)
    }

    /// The family a random write's selector picks: one value in forty
    /// is the sparse family, the rest alternate between the dense two.
    fn family_of(selector: u8) -> usize {
        match selector {
            0 => 2,
            s => usize::from(s % 2),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Writes are `(key, family selector, qualifier, delete?, ts)`;
        /// deletes of never-written columns leave tombstone-only columns.
        #[test]
        fn projected_scan_matches_naive_reference(
            ops in prop::collection::vec((0u8..KEYS, 0u8..40, 0u8..3, any::<bool>(), 1u64..16), 1..80),
            split_threshold in 2usize..12,
            rebalance in 0usize..4,
            filtered in any::<bool>(),
        ) {
            let table = Table::new("t", &FAMILIES, &[], 3);
            table.set_split_threshold(split_threshold);
            let mut mirror = Region::new(Vec::new(), 0);
            for &(key, selector, q, delete, ts) in &ops {
                let fam = family_of(selector);
                let m = if delete {
                    Mutation::delete_at(FAMILIES[fam], &[q], ts)
                } else {
                    Mutation::put_at(FAMILIES[fam], &[q], vec![key, q], ts)
                };
                table.mutate_row(&[key], std::slice::from_ref(&m), 0).unwrap();
                mirror.mutate_row(&[key], &[(fam, &m)], 0, FAMILIES.len());
            }
            table.rebalance(rebalance + 1);

            let filter: Option<&dyn ServerFilter> = if filtered { Some(&EvenKeys) } else { None };
            let projections: [Option<&[usize]>; 6] =
                [None, Some(&[]), Some(&[0]), Some(&[2]), Some(&[0, 2]), Some(&[0, 1, 2])];
            let mut stops: Vec<Option<Vec<u8>>> = vec![None];
            stops.extend((0..=KEYS).map(|k| Some(vec![k])));
            for start in 0..=KEYS {
                for stop in &stops {
                    for families in projections {
                        for max_rows in [1usize, 2, 5, 100] {
                            let stop = stop.as_deref();
                            let Ok(got) = table.scan_batch(&[start], stop, families, filter, max_rows);
                            let (rows, cost, resume_key) = reference_step(
                                &table, &mirror, &[start], stop, families, filter, max_rows,
                            );
                            prop_assert_eq!(&got.rows, &rows, "rows: start {} stop {:?} {:?} max {}",
                                start, stop, families, max_rows);
                            prop_assert_eq!(got.cost, cost, "cost: start {} stop {:?} {:?} max {}",
                                start, stop, families, max_rows);
                            prop_assert_eq!(&got.resume_key, &resume_key, "resume: start {} stop {:?} {:?} max {}",
                                start, stop, families, max_rows);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn inverted_range_is_an_empty_batch() {
        let table = Table::new("t", &FAMILIES, &[vec![4]], 2);
        let mut region = Region::new(Vec::new(), 0);
        for key in 0..8u8 {
            let m = Mutation::put_at("a", b"q", vec![key], 1);
            table
                .mutate_row(&[key], std::slice::from_ref(&m), 0)
                .unwrap();
            region.mutate_row(&[key], &[(0, &m)], 0, FAMILIES.len());
        }
        let names = table.families().to_vec();
        let batch = region.scan_batch(&[6], Some(&[2]), &names, None, None, 10);
        assert!(batch.rows.is_empty());
        assert_eq!(batch.cost, ReadCost::default());
        assert_eq!(batch.resume_key, None);
        let Ok(batch) = table.scan_batch(&[6], Some(&[2]), Some(&[0]), None, 10);
        assert!(batch.rows.is_empty());
        assert_eq!(batch.cost, ReadCost::default());
        assert_eq!(batch.resume_key, None);
    }
}
