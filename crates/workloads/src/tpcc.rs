//! TPC-C benchmark (§VI-A.1): 9 relations, partitioned by warehouse.
//!
//! "Its dataset comprises 9 relations ... By default, we allocate 24
//! warehouses per node. Specifically focusing on NewOrder transactions, the
//! benchmark emulates customers submitting orders to their local district
//! within a warehouse. We simulate scenarios where the same customer makes
//! purchases from different warehouses over time."
//!
//! Partition `w` holds warehouse `w`'s slice of every relation. The five
//! relations loaded before the run (WAREHOUSE, DISTRICT, CUSTOMER, ITEM,
//! STOCK) have a fixed size per warehouse, so each of their rows has a row
//! number in one fixed layout, [`loaded_key`]:
//!
//! | relation | rows | key |
//! |---|---|---|
//! | WAREHOUSE | 1 | `0` |
//! | DISTRICT | 10 | `1 + d` |
//! | CUSTOMER | 10 × 120 | `11 + d·120 + c` |
//! | ITEM | 1,000 | `1,211 + i` |
//! | STOCK | 1,000 | `2,211 + i` |
//!
//! A partition populates the key range `0..keys_per_partition` as directly
//! indexed rows, so when that range covers [`LOADED_ROWS`] every loaded row
//! is one of them: reading or writing it is an array access, and a written
//! loaded row replaces its populated row rather than adding a second one.
//! The relations a transaction inserts into (ORDER, NEW-ORDER, ORDER-LINE,
//! HISTORY) grow without bound, so their rows are appended: each partition
//! counts the rows generated for it, and its `n`th inserted row has key
//! [`INSERTED_BASE`]` + n`, past every populated row. A table keeps such a
//! key at its own place, so an insert hashes nothing. The simulated engine
//! synthesizes write payloads; nothing here encodes a row.

use crate::zipf::Zipf;
use lion_common::{Key, Op, PartitionId, Time, TxnRequest, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The nine TPC-C relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// WAREHOUSE (1 row per partition).
    Warehouse,
    /// DISTRICT (10 per warehouse).
    District,
    /// CUSTOMER (per district).
    Customer,
    /// HISTORY (append-only).
    History,
    /// NEW-ORDER (insert per NewOrder).
    NewOrder,
    /// ORDER (insert per NewOrder).
    Order,
    /// ORDER-LINE (5–15 inserts per NewOrder).
    OrderLine,
    /// ITEM (read-only catalogue, conceptually replicated).
    Item,
    /// STOCK (per item per warehouse).
    Stock,
}

/// Districts per warehouse (TPC-C: 10).
const DISTRICTS: u32 = 10;

/// Customers per district (scaled from TPC-C's 3000).
const CUSTOMERS_PER_DISTRICT: u32 = 120;

/// Catalogue items (scaled from TPC-C's 100k).
const ITEMS: u32 = 1_000;

/// First key of each loaded relation (the module docs' layout).
const DISTRICT_BASE: u64 = 1;
const CUSTOMER_BASE: u64 = DISTRICT_BASE + DISTRICTS as u64;
const ITEM_BASE: u64 = CUSTOMER_BASE + (DISTRICTS * CUSTOMERS_PER_DISTRICT) as u64;
const STOCK_BASE: u64 = ITEM_BASE + ITEMS as u64;

/// Rows one warehouse's loaded relations hold: every [`loaded_key`] is
/// below this.
pub const LOADED_ROWS: u64 = 3_211;

/// The key of a partition's first inserted row; its `n`th is
/// `INSERTED_BASE + n`. Above every `keys_per_partition` in use, so an
/// insert never lands on a populated row (which would make it an update).
pub const INSERTED_BASE: Key = 1 << 20;

/// The row number of a loaded relation's row: WAREHOUSE `(0, 0)`, DISTRICT
/// `(d, 0)`, CUSTOMER `(d, c)`, ITEM and STOCK `(0, i)` (the module docs'
/// layout). Component ranges are asserted; the inserted relations' rows are
/// appended past [`INSERTED_BASE`] instead.
pub fn loaded_key(rel: Relation, a: u64, b: u64) -> Key {
    let (d, c, i) = (
        DISTRICTS as u64,
        CUSTOMERS_PER_DISTRICT as u64,
        ITEMS as u64,
    );
    let (key, ok) = match rel {
        Relation::Warehouse => (0, a == 0 && b == 0),
        Relation::District => (DISTRICT_BASE + a, a < d && b == 0),
        Relation::Customer => (CUSTOMER_BASE + a * c + b, a < d && b < c),
        Relation::Item => (ITEM_BASE + b, a == 0 && b < i),
        Relation::Stock => (STOCK_BASE + b, a == 0 && b < i),
        _ => panic!("{rel:?} is inserted, not loaded"),
    };
    assert!(ok, "component out of range for {rel:?}");
    key
}

/// Reverses [`loaded_key`]; `None` for a key past [`LOADED_ROWS`], which
/// names no loaded row (an inserted row's key names no relation).
pub fn decode_key(key: Key) -> Option<(Relation, u64, u64)> {
    let c = CUSTOMERS_PER_DISTRICT as u64;
    Some(match key {
        0 => (Relation::Warehouse, 0, 0),
        k if k < CUSTOMER_BASE => (Relation::District, k - DISTRICT_BASE, 0),
        k if k < ITEM_BASE => {
            let n = k - CUSTOMER_BASE;
            (Relation::Customer, n / c, n % c)
        }
        k if k < STOCK_BASE => (Relation::Item, 0, k - ITEM_BASE),
        k if k < LOADED_ROWS => (Relation::Stock, 0, k - STOCK_BASE),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------

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
    /// Rows generated so far for each warehouse's inserted relations.
    inserted: Vec<u64>,
}

impl TpccWorkload {
    /// Builds the generator.
    pub fn new(cfg: TpccConfig) -> Self {
        assert!(cfg.n_warehouses() >= 2);
        TpccWorkload {
            rng: SmallRng::seed_from_u64(cfg.seed),
            item_dist: Zipf::new(ITEMS as u64, ITEM_THETA),
            inserted: vec![0; cfg.n_warehouses() as usize],
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

    /// The key of the next row warehouse `w` inserts.
    fn insert_key(&mut self, w: u32) -> Key {
        let n = &mut self.inserted[w as usize];
        *n += 1;
        INSERTED_BASE + *n - 1
    }

    fn new_order(&mut self) -> TxnRequest {
        let w = self.pick_warehouse();
        let d = self.rng.gen_range(0..DISTRICTS) as u64;
        let c = self.rng.gen_range(0..CUSTOMERS_PER_DISTRICT) as u64;
        let home = PartitionId(w);
        let remote = self.rng.gen::<f64>() < self.cfg.remote_ratio;
        let supply_w = if remote { self.partner_warehouse(w) } else { w };

        let ol_cnt = self.rng.gen_range(5..=15u64);
        let mut ops = Vec::with_capacity(6 + 4 * ol_cnt as usize);
        // SELECT w_tax FROM warehouse; SELECT+UPDATE district (D_NEXT_O_ID).
        ops.push(Op::read(home, loaded_key(Relation::Warehouse, 0, 0)));
        ops.push(Op::read(home, loaded_key(Relation::District, d, 0)));
        ops.push(Op::write(home, loaded_key(Relation::District, d, 0)));
        ops.push(Op::read(home, loaded_key(Relation::Customer, d, c)));

        for ol in 0..ol_cnt {
            let item = self.item_dist.sample_scrambled(&mut self.rng);
            // ITEM is a replicated read-only catalogue: read locally.
            ops.push(Op::read(home, loaded_key(Relation::Item, 0, item)));
            // 10% of lines of a remote transaction hit the remote stock
            // (at least one guaranteed), matching TPC-C's remote item rule.
            let line_remote = remote && (ol == 0 || self.rng.gen::<f64>() < 0.1);
            let sw = if line_remote { supply_w } else { w };
            let spart = PartitionId(sw);
            ops.push(Op::read(spart, loaded_key(Relation::Stock, 0, item)));
            ops.push(Op::write(spart, loaded_key(Relation::Stock, 0, item)));
            // INSERT order-line.
            ops.push(Op::write(home, self.insert_key(w)));
        }
        // INSERT order + new-order rows.
        ops.push(Op::write(home, self.insert_key(w)));
        ops.push(Op::write(home, self.insert_key(w)));
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

        let mut ops = Vec::with_capacity(8);
        ops.push(Op::read(home, loaded_key(Relation::Warehouse, 0, 0)));
        ops.push(Op::write(home, loaded_key(Relation::Warehouse, 0, 0)));
        ops.push(Op::read(home, loaded_key(Relation::District, d, 0)));
        ops.push(Op::write(home, loaded_key(Relation::District, d, 0)));
        ops.push(Op::read(cpart, loaded_key(Relation::Customer, d, c)));
        ops.push(Op::write(cpart, loaded_key(Relation::Customer, d, c)));
        // INSERT history.
        ops.push(Op::write(home, self.insert_key(w)));
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
    use lion_common::OpKind;

    fn cfg() -> TpccConfig {
        TpccConfig::for_cluster(4, 6)
    }

    const LOADED: [Relation; 5] = [
        Relation::Warehouse,
        Relation::District,
        Relation::Customer,
        Relation::Item,
        Relation::Stock,
    ];

    #[test]
    fn loaded_keys_roundtrip() {
        for (rel, a, b) in [
            (Relation::Warehouse, 0u64, 0u64),
            (Relation::District, 9, 0),
            (Relation::Customer, 9, 119),
            (Relation::Item, 0, 0),
            (Relation::Stock, 0, 999),
        ] {
            let k = loaded_key(rel, a, b);
            assert!(k < LOADED_ROWS);
            assert_eq!(decode_key(k), Some((rel, a, b)));
        }
        assert_eq!(loaded_key(Relation::Stock, 0, 999), LOADED_ROWS - 1);
        assert_eq!(decode_key(LOADED_ROWS), None);
        assert_eq!(
            decode_key(INSERTED_BASE),
            None,
            "an inserted key is no loaded row"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn loaded_component_overflow_panics() {
        let _ = loaded_key(Relation::Customer, 0, CUSTOMERS_PER_DISTRICT as u64);
    }

    #[test]
    fn the_loaded_layout_gives_every_row_its_own_key_below_loaded_rows() {
        let (d, c, i) = (
            DISTRICTS as u64,
            CUSTOMERS_PER_DISTRICT as u64,
            ITEMS as u64,
        );
        let mut rows = vec![(Relation::Warehouse, 0, 0)];
        rows.extend((0..d).map(|d| (Relation::District, d, 0)));
        rows.extend((0..d).flat_map(|d| (0..c).map(move |c| (Relation::Customer, d, c))));
        rows.extend((0..i).map(|i| (Relation::Item, 0, i)));
        rows.extend((0..i).map(|i| (Relation::Stock, 0, i)));
        let mut seen = vec![false; LOADED_ROWS as usize];
        for &(rel, a, b) in &rows {
            let k = loaded_key(rel, a, b);
            assert!(k < LOADED_ROWS, "{rel:?} ({a}, {b}) -> {k}");
            assert!(!std::mem::replace(&mut seen[k as usize], true), "{k} twice");
        }
        assert!(seen.iter().all(|&s| s), "the layout has no holes");
    }

    #[test]
    fn each_partition_appends_consecutive_keys_from_inserted_base() {
        let mut w = TpccWorkload::new(cfg().with_mix(0.5, 0.0).with_payment_ratio(0.5));
        let mut next = vec![INSERTED_BASE; cfg().n_warehouses() as usize];
        for _ in 0..500 {
            for op in w.next_txn(0).ops {
                if let Some((rel, ..)) = decode_key(op.key) {
                    assert!(LOADED.contains(&rel), "{rel:?} at {:#x}", op.key);
                    continue;
                }
                assert_eq!(op.kind, OpKind::Write, "inserted rows are only written");
                let expect = &mut next[op.partition.idx()];
                assert_eq!(op.key, *expect, "{}: unique and consecutive", op.partition);
                *expect += 1;
            }
        }
        let inserts: u64 = next.iter().map(|n| n - INSERTED_BASE).sum();
        assert!(inserts > 500, "orders, lines and history rows: {inserts}");
        assert_eq!(w.inserted.iter().sum::<u64>(), inserts);
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
    fn payment_mix_produces_both_types() {
        let mut w = TpccWorkload::new(cfg().with_payment_ratio(0.5));
        let mut payments = 0;
        let mut neworders = 0;
        for _ in 0..200 {
            let t = w.next_txn(0);
            // A Payment updates its warehouse; a NewOrder only reads it.
            let warehouse = loaded_key(Relation::Warehouse, 0, 0);
            let pays = t
                .ops
                .iter()
                .any(|o| o.kind == OpKind::Write && o.key == warehouse);
            if pays {
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
