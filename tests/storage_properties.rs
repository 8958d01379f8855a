//! Property tests on the OCC storage layer: randomized interleavings of
//! lock/validate/install/abort must preserve version monotonicity and lock
//! hygiene, replication must converge to the primary state, and a `Table`
//! must behave exactly like a plain ordered map of `(version, lock, value)`.

use lion::common::{Key, PartitionId, TxnId};
use lion::storage::{Bytes, OpOutcome, ReplicaStore, Table};
use lion::workloads::tpcc::{encode_key, Relation};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Step {
    Read { key: u64, txn: u64 },
    WriteCommit { key: u64, txn: u64 },
    WriteAbort { key: u64, txn: u64 },
}

fn arb_step(keys: u64) -> impl Strategy<Value = Step> {
    (0..keys, 1u64..50, 0u8..3).prop_map(|(key, txn, kind)| match kind {
        0 => Step::Read { key, txn },
        1 => Step::WriteCommit { key, txn },
        _ => Step::WriteAbort { key, txn },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Versions never decrease; aborted writes leave no locks behind;
    /// committed writes bump versions exactly once.
    #[test]
    fn occ_versions_monotonic(steps in proptest::collection::vec(arb_step(8), 1..200)) {
        let mut table = Table::populated(8, 16);
        let mut versions = [1u64; 8];
        for step in steps {
            match step {
                Step::Read { key, txn } => {
                    if let lion::storage::OpOutcome::Ok { version } =
                        table.occ_read(key, TxnId(txn))
                    {
                        prop_assert!(version >= versions[key as usize]);
                    }
                }
                Step::WriteCommit { key, txn } => {
                    if table.occ_lock(key, TxnId(txn)).is_ok() {
                        let v = table.occ_install(key, TxnId(txn), Table::synth_value(key, txn, 16));
                        prop_assert_eq!(v, versions[key as usize] + 1);
                        versions[key as usize] = v;
                    }
                }
                Step::WriteAbort { key, txn } => {
                    if table.occ_lock(key, TxnId(txn)).is_ok() {
                        table.occ_unlock(key, TxnId(txn));
                        let after = table.occ_read(key, TxnId(9999));
                        prop_assert!(after.is_ok(), "abort must release the lock");
                    }
                }
            }
        }
    }

    /// Shipping the log in arbitrary chunk sizes always converges the
    /// secondary to the primary's exact state.
    #[test]
    fn replication_converges(
        writes in proptest::collection::vec((0u64..16, 1u64..40), 1..100),
        chunk in 1usize..10,
    ) {
        let part = PartitionId(0);
        let mut primary = ReplicaStore::new_primary(part, 16, 16);
        let mut secondary = ReplicaStore::new_secondary(part, 16, 16);
        for (key, txn) in &writes {
            if primary.table.occ_lock(*key, TxnId(*txn)).is_ok() {
                let value = Table::synth_value(*key, *txn, 16);
                let v = primary.table.occ_install(*key, TxnId(*txn), value);
                primary.log.append(part, *key, v, value);
            }
        }
        let entries = primary.log.take_pending();
        for batch in entries.chunks(chunk) {
            secondary.apply_entries(batch);
        }
        prop_assert_eq!(secondary.lag_behind(primary.log.head_lsn()), 0);
        for key in 0..16u64 {
            let p = primary.table.get(key).unwrap();
            let s = secondary.table.get(key).unwrap();
            prop_assert_eq!(p.version, s.version);
            prop_assert_eq!(&p.value, &s.value);
        }
    }
}

/// Keys the model test draws from: a dense prefix `0..DENSE` (populated),
/// two keys just past it, and TPC-C-shaped bit-packed keys, all of which
/// the table keeps in its sparse arena until a round trip re-lays it out.
const DENSE: u64 = 6;

fn model_keys() -> Vec<Key> {
    let mut keys: Vec<Key> = (0..DENSE + 2).collect();
    keys.extend([
        encode_key(Relation::Warehouse, 3, 0, 0),
        encode_key(Relation::District, 3, 4, 0),
        encode_key(Relation::Customer, 3, 4, 1_234),
        encode_key(Relation::NewOrder, 3, 4, 3_001),
        encode_key(Relation::OrderLine, 3, 40_012, 7),
        encode_key(Relation::OrderLine, 3, 40_012, 8),
    ]);
    keys
}

/// Which `Table` call an [`Op`] makes.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Read,
    Lock,
    Install,
    Unlock,
    /// Lock then unlock: an aborted insert when the key is absent.
    AbortedInsert,
    /// `occ_validate_read` against the observed version `n`.
    Validate,
    /// `apply_replicated` at version `n`.
    Replicate,
    Upsert,
    /// `snapshot` → `from_snapshot`.
    RoundTrip,
}

/// One `Table` call; `key` indexes [`model_keys`].
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    key: usize,
    txn: TxnId,
    value: Bytes,
    n: u64,
}

fn arb_op(keys: usize) -> impl Strategy<Value = Op> {
    (0u8..24, 0..keys, 1u64..4, 0u64..u64::MAX, 0u32..24).prop_map(
        |(pick, key, txn, stamp, len)| Op {
            kind: match pick {
                0..=3 => Kind::Read,
                4..=7 => Kind::Lock,
                8..=11 => Kind::Install,
                12..=14 => Kind::Unlock,
                15..=17 => Kind::AbortedInsert,
                18..=19 => Kind::Validate,
                20..=21 => Kind::Replicate,
                22 => Kind::Upsert,
                _ => Kind::RoundTrip,
            },
            key,
            txn: TxnId(txn),
            value: Bytes::synth(stamp, len),
            n: stamp % 5,
        },
    )
}

/// The oracle: every row as `(version, lock holder, value)`, key-ordered.
type Model = BTreeMap<Key, (u64, Option<TxnId>, Bytes)>;

/// The row `key` after the table materialises an insert placeholder.
fn model_row(m: &mut Model, key: Key) -> &mut (u64, Option<TxnId>, Bytes) {
    m.entry(key).or_insert((0, None, Bytes::synth(0, 0)))
}

fn model_read(m: &Model, key: Key, txn: TxnId) -> OpOutcome {
    match m.get(&key) {
        Some(&(_, Some(holder), _)) if holder != txn => OpOutcome::Locked { holder },
        Some(&(version, _, _)) => OpOutcome::Ok { version },
        None => OpOutcome::Ok { version: 0 },
    }
}

/// Applies `op` to both the table and the model; returns the table's
/// outcome and the model's for the calls that answer one.
fn step(t: &mut Table, m: &mut Model, keys: &[Key], op: Op) -> Option<(OpOutcome, OpOutcome)> {
    let Op {
        key, txn, value, n, ..
    } = op;
    let k = keys[key];
    match op.kind {
        Kind::Read => Some((t.occ_read(k, txn), model_read(m, k, txn))),
        Kind::Lock => {
            let row = model_row(m, k);
            let want = match row.1 {
                Some(holder) if holder != txn => OpOutcome::Locked { holder },
                _ => {
                    row.1 = Some(txn);
                    OpOutcome::Ok { version: row.0 }
                }
            };
            Some((t.occ_lock(k, txn), want))
        }
        Kind::Install => {
            if matches!(m.get(&k), Some((_, Some(h), _)) if *h != txn) {
                return None; // installing over a foreign lock is a caller bug
            }
            let row = model_row(m, k);
            *row = (row.0 + 1, None, value);
            let want = OpOutcome::Ok { version: row.0 };
            let got = OpOutcome::Ok {
                version: t.occ_install(k, txn, value),
            };
            Some((got, want))
        }
        Kind::Unlock => {
            model_unlock(m, k, txn);
            t.occ_unlock(k, txn);
            None
        }
        Kind::AbortedInsert => {
            let lock = step(
                t,
                m,
                keys,
                Op {
                    kind: Kind::Lock,
                    ..op
                },
            );
            step(
                t,
                m,
                keys,
                Op {
                    kind: Kind::Unlock,
                    ..op
                },
            );
            lock
        }
        Kind::Validate => {
            let want = match model_read(m, k, txn) {
                OpOutcome::Ok { version } if version != n => OpOutcome::VersionMismatch {
                    expected: n,
                    found: version,
                },
                other => other,
            };
            Some((t.occ_validate_read(k, n, txn), want))
        }
        Kind::Replicate => {
            let row = model_row(m, k);
            if n >= row.0 {
                (row.0, row.2) = (n, value);
            }
            t.apply_replicated(k, n, value);
            None
        }
        Kind::Upsert => {
            m.insert(k, (1, None, value));
            t.upsert(k, value);
            None
        }
        Kind::RoundTrip => {
            // A snapshot carries versions and values, not prepare-locks.
            m.values_mut().for_each(|row| row.1 = None);
            *t = Table::from_snapshot(t.snapshot());
            None
        }
    }
}

fn model_unlock(m: &mut Model, key: Key, txn: TxnId) {
    if let Some(row) = m.get_mut(&key) {
        if row.1 == Some(txn) {
            row.1 = None;
            if row.0 == 0 {
                m.remove(&key); // the insert placeholder never became visible
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model check: after every step of a random interleaving, `get`,
    /// `len`, `bytes` and `snapshot` agree with the ordered-map oracle, and
    /// every OCC call answers what the oracle answers. Covers both layouts
    /// (a round trip of a gapped table moves the dense prefix into the
    /// arena) and the reuse of slots freed by aborted inserts.
    #[test]
    fn a_table_behaves_like_an_ordered_map(
        ops in proptest::collection::vec(arb_op(model_keys().len()), 1..300),
    ) {
        let keys = model_keys();
        let mut t = Table::populated(DENSE, 16);
        let mut m: Model = (0..DENSE)
            .map(|k| (k, (1, None, Table::synth_value(k, 1, 16))))
            .collect();
        for op in &ops {
            if let Some((got, want)) = step(&mut t, &mut m, &keys, *op) {
                prop_assert_eq!(got, want, "{:?}: {:?} != {:?}", op, got, want);
            }
            for &k in &keys {
                let got = t.get(k).map(|r| (r.version, r.lock(), r.value));
                let want = m.get(&k).copied();
                prop_assert_eq!(got, want, "key {:#x} after {:?}: {:?} != {:?}", k, op, got, want);
            }
            prop_assert_eq!(t.len(), m.len(), "len after {:?}: {} != {}", op, t.len(), m.len());
            let bytes: u64 = m.values().map(|r| r.2.len() as u64).sum();
            prop_assert_eq!(t.bytes(), bytes, "bytes after {:?}: {} != {}", op, t.bytes(), bytes);
            let snap: Vec<_> = m.iter().map(|(&k, &(v, _, b))| (k, v, b)).collect();
            prop_assert_eq!(t.snapshot(), snap);
        }
    }
}
