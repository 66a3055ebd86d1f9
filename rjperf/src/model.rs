//! The benchmark's own model of the TPC-H base data, and the leveled
//! refresh stream that mutates it.
//!
//! The model mirrors every write the benchmark sends through the §6
//! write path, so after each refresh it answers Q1, Q2 and the 3-way
//! path exactly, in a scan of the live lineitems (≈ 1 ms at the lab
//! scale). The workloads that write (`churn`, `serve`) take their
//! reference answers from it; the benchmark's tests cross-check it
//! against the hash-join reference ([`crate::reference::topk_path`]) after
//! refreshes.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use rj_core::result::{JoinTuple, TopK};
use rj_core::score::ScoreFn;
use rj_store::keys;
use rj_tpch::gen::{self, LineitemRow, OrderRow};
use rj_tpch::loader::rowkeys;
use rj_tpch::{generate_update_set, TpchConfig};

use crate::fixture::QueryKind;

/// One user mutation of the refresh stream.
#[derive(Clone, Debug)]
pub enum Write {
    /// Insert a new order.
    InsertOrder(OrderRow),
    /// Insert a new lineitem.
    InsertLineitem(LineitemRow),
    /// Delete a live lineitem.
    DeleteLineitem(LineitemRow),
    /// Delete a live order.
    DeleteOrder(OrderRow),
}

/// The live base data.
pub struct Model {
    parts: HashMap<u64, f64>,
    orders: HashMap<u64, f64>,
    /// `(order key, line number) → (part key, score)`. The part key is
    /// `None` for a lineitem written without its `jk_part` column (it
    /// then joins Orders but not Part).
    lineitems: BTreeMap<(u64, u32), (Option<u64>, f64)>,
}

impl Model {
    /// The data `loader::load_all` loads for `cfg`.
    pub fn load(cfg: &TpchConfig) -> Self {
        let parts = gen::parts(cfg)
            .map(|p| (p.part_key, p.retail_score))
            .collect();
        let orders = gen::orders(cfg)
            .map(|o| (o.order_key, o.total_score))
            .collect();
        let lineitems = gen::lineitems(cfg)
            .map(|l| {
                (
                    (l.order_key, l.line_number),
                    (Some(l.part_key), l.extended_score),
                )
            })
            .collect();
        Model {
            parts,
            orders,
            lineitems,
        }
    }

    /// Applies one write. `with_part` says whether an inserted lineitem
    /// carries its `jk_part` column.
    pub fn apply(&mut self, write: &Write, with_part: bool) {
        match write {
            Write::InsertOrder(o) => {
                self.orders.insert(o.order_key, o.total_score);
            }
            Write::InsertLineitem(l) => {
                let part = with_part.then_some(l.part_key);
                self.lineitems
                    .insert((l.order_key, l.line_number), (part, l.extended_score));
            }
            Write::DeleteLineitem(l) => {
                self.lineitems.remove(&(l.order_key, l.line_number));
            }
            Write::DeleteOrder(o) => {
                self.orders.remove(&o.order_key);
            }
        }
    }

    /// Live rows of Orders and Lineitem.
    pub fn live_rows(&self) -> (usize, usize) {
        (self.orders.len(), self.lineitems.len())
    }

    /// The exact top-`k` of one query over the live data, in the engine's
    /// rank order.
    pub fn topk(&self, kind: QueryKind, k: usize) -> Vec<JoinTuple> {
        let mut top = TopK::new(k);
        for (&(order_key, line), &(part_key, l_score)) in &self.lineitems {
            let part = part_key.and_then(|p| self.parts.get(&p).map(|&s| (p, s)));
            let order = self.orders.get(&order_key).copied();
            let li_key = || rowkeys::lineitem(order_key, line);
            let tuple = match kind {
                QueryKind::Q1 => part.map(|(p, p_score)| JoinTuple {
                    left_key: rowkeys::part(p),
                    right_key: li_key(),
                    join_value: keys::encode_u64(p).to_vec(),
                    left_score: p_score,
                    right_score: l_score,
                    inner: Vec::new(),
                    score: ScoreFn::Product.combine(p_score, l_score),
                }),
                QueryKind::Q2 => order.map(|o_score| JoinTuple {
                    left_key: rowkeys::order(order_key),
                    right_key: li_key(),
                    join_value: keys::encode_u64(order_key).to_vec(),
                    left_score: o_score,
                    right_score: l_score,
                    inner: Vec::new(),
                    score: ScoreFn::Sum.combine(o_score, l_score),
                }),
                QueryKind::Spec3 => match (part, order) {
                    (Some((p, p_score)), Some(o_score)) => Some(JoinTuple {
                        left_key: rowkeys::part(p),
                        right_key: rowkeys::order(order_key),
                        join_value: keys::encode_u64(p).to_vec(),
                        left_score: p_score,
                        right_score: o_score,
                        inner: vec![(li_key(), l_score)],
                        score: ScoreFn::Sum.combine_many(&[p_score, l_score, o_score]),
                    }),
                    _ => None,
                },
            };
            if let Some(t) = tuple {
                top.offer(t);
            }
        }
        top.into_sorted_vec()
    }
}

/// TPC-H refresh sets made level: each step applies refresh set `i`
/// (`generate_update_set`) and then deletes the oldest orders an earlier
/// step inserted, with their lineitems, until Orders is back at its
/// loaded size. A plain refresh set inserts about four rows for each one
/// it deletes, so without this a long run would grow the tables it
/// measures. Loaded orders a wrapped-around set deletes a second time
/// are skipped.
pub struct LeveledRefresh {
    cfg: TpchConfig,
    step: u64,
    /// Orders inserted by earlier steps and still live, oldest first.
    inserted: VecDeque<OrderRow>,
    /// Loaded orders already deleted.
    deleted: HashSet<u64>,
}

impl LeveledRefresh {
    /// A stream starting at refresh set 0.
    pub fn new(cfg: TpchConfig) -> Self {
        LeveledRefresh {
            cfg,
            step: 0,
            inserted: VecDeque::new(),
            deleted: HashSet::new(),
        }
    }

    /// The writes of the next step, in apply order: order inserts,
    /// lineitem inserts, then lineitem deletes before their orders.
    pub fn next_step(&mut self) -> Vec<Write> {
        let set = generate_update_set(&self.cfg, self.step);
        self.step += 1;
        let parts = self.cfg.part_count();
        let mut writes: Vec<Write> = set
            .insert_orders
            .iter()
            .cloned()
            .map(Write::InsertOrder)
            .chain(set.insert_lineitems.into_iter().map(Write::InsertLineitem))
            .collect();
        let mut removed = 0usize;
        for o in &set.delete_orders {
            if !self.deleted.insert(o.order_key) {
                continue;
            }
            writes.extend(
                gen::lineitems_of_order(&self.cfg, o.order_key - 1, parts)
                    .into_iter()
                    .map(Write::DeleteLineitem),
            );
            writes.push(Write::DeleteOrder(o.clone()));
            removed += 1;
        }
        let added = set.insert_orders.len();
        self.inserted.extend(set.insert_orders);
        for _ in removed..added {
            let o = self
                .inserted
                .pop_front()
                .expect("a step inserts the orders it may delete");
            writes.extend(
                gen::lineitems_of_order(&self.cfg, o.order_key - 1, parts)
                    .into_iter()
                    .map(Write::DeleteLineitem),
            );
            writes.push(Write::DeleteOrder(o));
        }
        writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::topk_path;
    use rj_store::cluster::Cluster;
    use rj_store::costmodel::CostModel;

    /// Writes to the store directly (full rows), mirroring the model.
    fn store_apply(c: &Cluster, w: &Write) {
        use rj_tpch::loader::{self, lineitem_mutations, order_mutations};
        let client = c.client();
        let delete_all = |table: &str, key: Vec<u8>| {
            let row = client.get(table, &key).unwrap().expect("live row");
            let muts = row
                .cells
                .iter()
                .map(|cell| rj_store::cell::Mutation::delete(&cell.family, &cell.qualifier))
                .collect();
            client.mutate_row(table, &key, muts).unwrap();
        };
        match w {
            Write::InsertOrder(o) => client
                .mutate_row(
                    loader::ORDERS_TABLE,
                    &rowkeys::order(o.order_key),
                    order_mutations(o),
                )
                .unwrap(),
            Write::InsertLineitem(l) => client
                .mutate_row(
                    loader::LINEITEM_TABLE,
                    &rowkeys::lineitem(l.order_key, l.line_number),
                    lineitem_mutations(l),
                )
                .unwrap(),
            Write::DeleteLineitem(l) => delete_all(
                loader::LINEITEM_TABLE,
                rowkeys::lineitem(l.order_key, l.line_number),
            ),
            Write::DeleteOrder(o) => delete_all(loader::ORDERS_TABLE, rowkeys::order(o.order_key)),
        }
    }

    #[test]
    fn model_matches_the_hash_join_reference_through_refreshes() {
        let cfg = TpchConfig::new(0.0002);
        let c = Cluster::new(3, CostModel::test());
        rj_tpch::loader::load_all(&c, &cfg).unwrap();
        let mut model = Model::load(&cfg);
        let mut stream = LeveledRefresh::new(cfg);
        let loaded = model.live_rows().0;
        for step in 0..4 {
            for kind in QueryKind::ALL {
                for k in [1, 10, 100] {
                    assert_eq!(
                        model.topk(kind, k),
                        topk_path(&c, &kind.spec(k)),
                        "step {step} {} k={k}",
                        kind.name()
                    );
                }
            }
            for w in stream.next_step() {
                store_apply(&c, &w);
                model.apply(&w, true);
            }
            assert_eq!(model.live_rows().0, loaded, "Orders stays level");
        }
    }

    #[test]
    fn leveled_stream_is_deterministic_and_level_past_wraparound() {
        let cfg = TpchConfig::new(0.00005); // 75 orders: deletes wrap fast
        let mut model = Model::load(&cfg);
        let loaded = model.live_rows().0;
        let mut a = LeveledRefresh::new(cfg);
        let mut b = LeveledRefresh::new(cfg);
        for _ in 0..40 {
            let wa = a.next_step();
            let wb = b.next_step();
            assert_eq!(format!("{wa:?}"), format!("{wb:?}"));
            for w in &wa {
                model.apply(w, true);
            }
            assert_eq!(model.live_rows().0, loaded);
        }
    }
}
