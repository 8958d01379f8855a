//! TPC-C benchmark (§VI-A.1): 9 relations, partitioned by warehouse.
//!
//! "Its dataset comprises 9 relations ... By default, we allocate 24
//! warehouses per node. Specifically focusing on NewOrder transactions, the
//! benchmark emulates customers submitting orders to their local district
//! within a warehouse. We simulate scenarios where the same customer makes
//! purchases from different warehouses over time."
//!
//! Partition `w` holds warehouse `w`'s slice of every relation; composite
//! primary keys are packed into the engine's 64-bit key space with a
//! relation tag in the top byte. The simulated engine synthesizes write
//! payloads; nothing here encodes a row.

use crate::zipf::Zipf;
use lion_common::{Key, Op, PartitionId, Time, TxnRequest, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The nine TPC-C relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// WAREHOUSE (1 row per partition).
    Warehouse = 1,
    /// DISTRICT (10 per warehouse).
    District = 2,
    /// CUSTOMER (per district).
    Customer = 3,
    /// HISTORY (append-only).
    History = 4,
    /// NEW-ORDER (insert per NewOrder).
    NewOrder = 5,
    /// ORDER (insert per NewOrder).
    Order = 6,
    /// ORDER-LINE (5–15 inserts per NewOrder).
    OrderLine = 7,
    /// ITEM (read-only catalogue, conceptually replicated).
    Item = 8,
    /// STOCK (per item per warehouse).
    Stock = 9,
}

impl Relation {
    fn from_tag(tag: u8) -> Option<Relation> {
        Some(match tag {
            1 => Relation::Warehouse,
            2 => Relation::District,
            3 => Relation::Customer,
            4 => Relation::History,
            5 => Relation::NewOrder,
            6 => Relation::Order,
            7 => Relation::OrderLine,
            8 => Relation::Item,
            9 => Relation::Stock,
            _ => return None,
        })
    }
}

/// Packs `(relation, a, b, c)` into a 64-bit key:
/// `[tag:8][a:16][b:24][c:16]`. Component ranges are asserted.
pub fn encode_key(rel: Relation, a: u64, b: u64, c: u64) -> Key {
    assert!(a < (1 << 16), "component a out of range");
    assert!(b < (1 << 24), "component b out of range");
    assert!(c < (1 << 16), "component c out of range");
    ((rel as u64) << 56) | (a << 40) | (b << 16) | c
}

/// Reverses [`encode_key`].
pub fn decode_key(key: Key) -> Option<(Relation, u64, u64, u64)> {
    let rel = Relation::from_tag((key >> 56) as u8)?;
    let a = (key >> 40) & 0xFFFF;
    let b = (key >> 16) & 0xFF_FFFF;
    let c = key & 0xFFFF;
    Some((rel, a, b, c))
}

// ---------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------

/// Districts per warehouse (TPC-C: 10).
const DISTRICTS: u32 = 10;

/// Customers per district (scaled from TPC-C's 3000).
const CUSTOMERS_PER_DISTRICT: u32 = 120;

/// Catalogue items (scaled from TPC-C's 100k).
const ITEMS: u32 = 1_000;

/// Item-popularity skew θ.
const ITEM_THETA: f64 = 0.3;

/// TPC-C configuration (scaled-down defaults; paper: 24 warehouses/node).
#[derive(Debug, Clone, PartialEq)]
pub struct TpccConfig {
    /// Executor nodes.
    pub nodes: u32,
    /// Warehouses per node (= partitions per node).
    pub warehouses_per_node: u32,
    /// Fraction of transactions touching a remote warehouse (the paper's
    /// cross-partition ratio for TPC-C).
    pub remote_ratio: f64,
    /// Fraction of Payment transactions (0 = pure NewOrder, as §VI-A.1).
    pub payment_ratio: f64,
    /// Warehouse-level skew factor (targets node-0 warehouses).
    pub skew_factor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TpccConfig {
    /// Scaled defaults for a cluster shape.
    pub fn for_cluster(nodes: u32, warehouses_per_node: u32) -> Self {
        TpccConfig {
            nodes,
            warehouses_per_node,
            remote_ratio: 0.0,
            payment_ratio: 0.0,
            skew_factor: 0.0,
            seed: 0x79CC,
        }
    }

    /// Total warehouses (= partitions).
    pub fn n_warehouses(&self) -> u32 {
        self.nodes * self.warehouses_per_node
    }

    /// Sets the remote (cross-partition) ratio and skew.
    pub fn with_mix(mut self, remote_ratio: f64, skew_factor: f64) -> Self {
        self.remote_ratio = remote_ratio;
        self.skew_factor = skew_factor;
        self
    }

    /// Adds a Payment share to the mix.
    pub fn with_payment_ratio(mut self, ratio: f64) -> Self {
        self.payment_ratio = ratio;
        self
    }
}

/// The TPC-C transaction generator (NewOrder + optional Payment).
pub struct TpccWorkload {
    cfg: TpccConfig,
    rng: SmallRng,
    item_dist: Zipf,
    /// Per-(warehouse, district) next order id (the D_NEXT_O_ID counters).
    next_o_id: Vec<u32>,
    /// Per-warehouse history counter (HISTORY has no primary key in TPC-C).
    next_h_id: Vec<u32>,
}

impl TpccWorkload {
    /// Builds the generator.
    pub fn new(cfg: TpccConfig) -> Self {
        assert!(cfg.n_warehouses() >= 2);
        let item_dist = Zipf::new(ITEMS as u64, ITEM_THETA);
        let slots = (cfg.n_warehouses() * DISTRICTS) as usize;
        TpccWorkload {
            rng: SmallRng::seed_from_u64(cfg.seed),
            item_dist,
            next_o_id: vec![1; slots],
            next_h_id: vec![1; cfg.n_warehouses() as usize],
            cfg,
        }
    }

    /// Configuration accessor.
    pub fn config(&self) -> &TpccConfig {
        &self.cfg
    }

    fn pick_warehouse(&mut self) -> u32 {
        let n = self.cfg.n_warehouses();
        if self.rng.gen::<f64>() < self.cfg.skew_factor {
            let slot = self.rng.gen_range(0..self.cfg.warehouses_per_node);
            slot * self.cfg.nodes // home node 0 under round-robin
        } else {
            self.rng.gen_range(0..n)
        }
    }

    /// Deterministic remote partner (a warehouse on another node), so the
    /// "same customer purchases from different warehouses" pattern is stable
    /// and learnable. XOR-adjacent pairing keeps the co-access graph a set
    /// of disjoint warehouse pairs, with the two warehouses of a pair on
    /// different home nodes under round-robin placement.
    fn partner_warehouse(&self, w: u32) -> u32 {
        let n = self.cfg.n_warehouses();
        let q = w ^ 1;
        if q >= n {
            return w;
        }
        q
    }

    fn new_order(&mut self) -> TxnRequest {
        let w = self.pick_warehouse();
        let d = self.rng.gen_range(0..DISTRICTS) as u64;
        let c = self.rng.gen_range(0..CUSTOMERS_PER_DISTRICT) as u64;
        let home = PartitionId(w);
        let remote = self.rng.gen::<f64>() < self.cfg.remote_ratio;
        let supply_w = if remote { self.partner_warehouse(w) } else { w };

        let slot = (w * DISTRICTS + d as u32) as usize;
        let o_id = self.next_o_id[slot] as u64 & 0xFF_FFFF;
        self.next_o_id[slot] = self.next_o_id[slot].wrapping_add(1);

        let ol_cnt = self.rng.gen_range(5..=15u64);
        let mut ops = Vec::with_capacity(6 + 4 * ol_cnt as usize);
        // SELECT w_tax FROM warehouse; SELECT+UPDATE district (next_o_id).
        ops.push(Op::read(home, encode_key(Relation::Warehouse, 0, 0, 0)));
        ops.push(Op::read(home, encode_key(Relation::District, d, 0, 0)));
        ops.push(Op::write(home, encode_key(Relation::District, d, 0, 0)));
        ops.push(Op::read(home, encode_key(Relation::Customer, d, c, 0)));

        for ol in 0..ol_cnt {
            let item = self.item_dist.sample_scrambled(&mut self.rng) & 0xFF_FFFF;
            // ITEM is a replicated read-only catalogue: read locally.
            ops.push(Op::read(home, encode_key(Relation::Item, 0, item, 0)));
            // 10% of lines of a remote transaction hit the remote stock
            // (at least one guaranteed), matching TPC-C's remote item rule.
            let line_remote = remote && (ol == 0 || self.rng.gen::<f64>() < 0.1);
            let sw = if line_remote { supply_w } else { w };
            let spart = PartitionId(sw);
            ops.push(Op::read(spart, encode_key(Relation::Stock, 0, item, 0)));
            ops.push(Op::write(spart, encode_key(Relation::Stock, 0, item, 0)));
            // INSERT order-line.
            ops.push(Op::write(
                home,
                encode_key(Relation::OrderLine, d, o_id, ol),
            ));
        }
        // INSERT order + new-order rows.
        ops.push(Op::write(home, encode_key(Relation::Order, d, o_id, 0)));
        ops.push(Op::write(home, encode_key(Relation::NewOrder, d, o_id, 0)));
        TxnRequest::new(ops)
    }

    fn payment(&mut self) -> TxnRequest {
        let w = self.pick_warehouse();
        let d = self.rng.gen_range(0..DISTRICTS) as u64;
        let c = self.rng.gen_range(0..CUSTOMERS_PER_DISTRICT) as u64;
        let home = PartitionId(w);
        // 15% of payments are for a customer of a remote warehouse.
        let remote = self.rng.gen::<f64>() < self.cfg.remote_ratio * 0.15;
        let cw = if remote { self.partner_warehouse(w) } else { w };
        let cpart = PartitionId(cw);

        let h = self.next_h_id[w as usize] as u64 & 0xFF_FFFF;
        self.next_h_id[w as usize] = self.next_h_id[w as usize].wrapping_add(1);

        let mut ops = Vec::with_capacity(8);
        ops.push(Op::read(home, encode_key(Relation::Warehouse, 0, 0, 0)));
        ops.push(Op::write(home, encode_key(Relation::Warehouse, 0, 0, 0)));
        ops.push(Op::read(home, encode_key(Relation::District, d, 0, 0)));
        ops.push(Op::write(home, encode_key(Relation::District, d, 0, 0)));
        ops.push(Op::read(cpart, encode_key(Relation::Customer, d, c, 0)));
        ops.push(Op::write(cpart, encode_key(Relation::Customer, d, c, 0)));
        ops.push(Op::write(home, encode_key(Relation::History, d, h, 0)));
        TxnRequest::new(ops)
    }
}

impl Workload for TpccWorkload {
    fn next_txn(&mut self, _now: Time) -> TxnRequest {
        if self.rng.gen::<f64>() < self.cfg.payment_ratio {
            self.payment()
        } else {
            self.new_order()
        }
    }

    fn name(&self) -> &str {
        "tpcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TpccConfig {
        TpccConfig::for_cluster(4, 6)
    }

    #[test]
    fn key_encoding_roundtrip() {
        for (rel, a, b, c) in [
            (Relation::Warehouse, 0u64, 0u64, 0u64),
            (Relation::District, 9, 0, 0),
            (Relation::Customer, 9, 2999, 0),
            (Relation::OrderLine, 3, 123_456, 14),
            (Relation::Stock, 0, 99_999, 0),
        ] {
            let k = encode_key(rel, a, b, c);
            assert_eq!(decode_key(k), Some((rel, a, b, c)));
        }
        assert_eq!(decode_key(0), None, "tag 0 is invalid");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn key_component_overflow_panics() {
        let _ = encode_key(Relation::Customer, 1 << 17, 0, 0);
    }

    #[test]
    fn local_new_orders_are_single_partition() {
        let mut w = TpccWorkload::new(cfg());
        for _ in 0..100 {
            let t = w.next_txn(0);
            assert!(t.is_single_partition(), "remote_ratio 0 ⇒ single warehouse");
            // NewOrder shape: ≥ 4 header ops + 4 per line × ≥5 lines + 2.
            assert!(t.ops.len() >= 4 + 5 * 4 + 2, "got {} ops", t.ops.len());
        }
    }

    #[test]
    fn remote_new_orders_touch_partner_warehouse() {
        let mut w = TpccWorkload::new(cfg().with_mix(1.0, 0.0));
        let mut multi = 0;
        for _ in 0..100 {
            let t = w.next_txn(0);
            let parts = t.partitions();
            if parts.len() == 2 {
                multi += 1;
                let (a, b) = (parts[0].0, parts[1].0);
                let (home, partner) = if w.partner_warehouse(a) == b {
                    (a, b)
                } else {
                    (b, a)
                };
                assert_eq!(w.partner_warehouse(home), partner);
                assert_ne!(home % 4, partner % 4, "partner on another node");
            }
        }
        assert!(
            multi >= 95,
            "nearly all remote orders span two warehouses: {multi}"
        );
    }

    #[test]
    fn district_counter_generates_distinct_orders() {
        let mut w = TpccWorkload::new(cfg());
        let mut order_keys = std::collections::HashSet::new();
        for _ in 0..50 {
            let t = w.next_txn(0);
            for op in &t.ops {
                if let Some((Relation::Order, ..)) = decode_key(op.key) {
                    assert!(
                        order_keys.insert((op.partition, op.key)),
                        "order keys must never repeat"
                    );
                }
            }
        }
    }

    #[test]
    fn payment_mix_produces_both_types() {
        let mut w = TpccWorkload::new(cfg().with_payment_ratio(0.5));
        let mut payments = 0;
        let mut neworders = 0;
        for _ in 0..200 {
            let t = w.next_txn(0);
            let has_history = t
                .ops
                .iter()
                .any(|o| matches!(decode_key(o.key), Some((Relation::History, ..))));
            if has_history {
                payments += 1;
            } else {
                neworders += 1;
            }
        }
        assert!(
            payments > 50 && neworders > 50,
            "payments={payments} neworders={neworders}"
        );
    }

    #[test]
    fn skew_concentrates_on_node_zero_warehouses() {
        let mut w = TpccWorkload::new(cfg().with_mix(0.0, 0.8));
        let mut hot = 0;
        for _ in 0..1000 {
            let t = w.next_txn(0);
            if t.partitions()[0].0.is_multiple_of(4) {
                hot += 1;
            }
        }
        assert!(hot > 750, "hot-node share {hot}/1000");
    }
}
