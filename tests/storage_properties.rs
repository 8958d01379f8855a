//! Property tests on the OCC storage layer: randomized interleavings of
//! lock/validate/install/abort must preserve version monotonicity and lock
//! hygiene, replication must converge to the primary state, a `Table` must
//! behave exactly like a plain ordered map of `(version, lock, value)`, and
//! so must every replica of a partition that shares one key index, whether
//! rows are addressed by key or by cell.

use lion::common::{Key, PartitionId, TxnId};
use lion::storage::{Bytes, Cell, OpOutcome, ReplicaStore, Table};
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
/// the table keeps in its sparse arena.
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
    /// The table is replaced by its own [`Table::replica`] copy.
    Copy,
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
                _ => Kind::Copy,
            },
            key,
            txn: TxnId(txn),
            value: Bytes::synth(stamp, len),
            n: stamp % 5,
        },
    )
}

/// How [`step`] addresses a row: by key, or by the cell its key resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Addr {
    Key,
    Cell,
}

/// One table call on `k`, made by key or at the cell `k` resolves to.
fn call<R>(
    t: &mut Table,
    addr: Addr,
    k: Key,
    by_key: impl FnOnce(&mut Table, Key) -> R,
    by_cell: impl FnOnce(&mut Table, Cell) -> R,
) -> R {
    match addr {
        Addr::Key => by_key(t, k),
        Addr::Cell => {
            let cell = t.cell_or_assign(k);
            by_cell(t, cell)
        }
    }
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
fn step(
    t: &mut Table,
    addr: Addr,
    m: &mut Model,
    keys: &[Key],
    op: Op,
) -> Option<(OpOutcome, OpOutcome)> {
    let Op {
        key, txn, value, n, ..
    } = op;
    let k = keys[key];
    match op.kind {
        Kind::Read => {
            let got = call(
                t,
                addr,
                k,
                |t, k| t.occ_read(k, txn),
                |t, c| t.occ_read_cell(c, txn),
            );
            Some((got, model_read(m, k, txn)))
        }
        Kind::Lock => {
            let row = model_row(m, k);
            let want = match row.1 {
                Some(holder) if holder != txn => OpOutcome::Locked { holder },
                _ => {
                    row.1 = Some(txn);
                    OpOutcome::Ok { version: row.0 }
                }
            };
            let got = call(
                t,
                addr,
                k,
                |t, k| t.occ_lock(k, txn),
                |t, c| t.occ_lock_cell(c, txn),
            );
            Some((got, want))
        }
        Kind::Install => {
            if matches!(m.get(&k), Some((_, Some(h), _)) if *h != txn) {
                return None; // installing over a foreign lock is a caller bug
            }
            let row = model_row(m, k);
            *row = (row.0 + 1, None, value);
            let want = OpOutcome::Ok { version: row.0 };
            let got = OpOutcome::Ok {
                version: call(
                    t,
                    addr,
                    k,
                    |t, k| t.occ_install(k, txn, value),
                    |t, c| t.occ_install_cell(c, txn, value),
                ),
            };
            Some((got, want))
        }
        Kind::Unlock => {
            model_unlock(m, k, txn);
            call(
                t,
                addr,
                k,
                |t, k| t.occ_unlock(k, txn),
                |t, c| t.occ_unlock_cell(c, txn),
            );
            None
        }
        Kind::AbortedInsert => {
            let lock = step(
                t,
                addr,
                m,
                keys,
                Op {
                    kind: Kind::Lock,
                    ..op
                },
            );
            step(
                t,
                addr,
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
            let got = call(
                t,
                addr,
                k,
                |t, k| t.occ_validate_read(k, n, txn),
                |t, c| t.occ_validate_read_cell(c, n, txn),
            );
            Some((got, want))
        }
        Kind::Replicate => {
            model_apply(m, k, n, value);
            call(
                t,
                addr,
                k,
                |t, k| t.apply_replicated(k, n, value),
                |t, c| t.apply_replicated_cell(c, n, value),
            );
            None
        }
        Kind::Upsert => {
            m.insert(k, (1, None, value));
            t.upsert(k, value);
            None
        }
        Kind::Copy => {
            *m = model_copy(m);
            *t = t.replica();
            None
        }
    }
}

/// A replica copy carries versions and values, not prepare-locks.
fn model_copy(m: &Model) -> Model {
    m.iter().map(|(&k, &(v, _, b))| (k, (v, None, b))).collect()
}

/// `apply_replicated`: ordered, never regressing.
fn model_apply(m: &mut Model, key: Key, version: u64, value: Bytes) {
    let row = model_row(m, key);
    if version >= row.0 {
        (row.0, row.2) = (version, value);
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

/// `get` on every key, `len` and `bytes` agree with the oracle.
fn check(
    t: &Table,
    m: &Model,
    keys: &[Key],
    after: &dyn std::fmt::Debug,
) -> Result<(), proptest::TestCaseError> {
    for &k in keys {
        let got = t.get(k).map(|r| (r.version, r.lock(), r.value));
        let want = m.get(&k).copied();
        prop_assert_eq!(
            got,
            want,
            "key {:#x} after {:?}: {:?} != {:?}",
            k,
            after,
            got,
            want
        );
    }
    prop_assert_eq!(
        t.len(),
        m.len(),
        "len after {:?}: {} != {}",
        after,
        t.len(),
        m.len()
    );
    let bytes: u64 = m.values().map(|r| r.2.len() as u64).sum();
    prop_assert_eq!(
        t.bytes(),
        bytes,
        "bytes after {:?}: {} != {}",
        after,
        t.bytes(),
        bytes
    );
    Ok(())
}

/// The oracle of a table populated with `0..DENSE`.
fn populated_model() -> Model {
    (0..DENSE)
        .map(|k| (k, (1, None, Table::synth_value(k, 1, 16))))
        .collect()
}

/// One step of the shared-index model test.
#[derive(Debug, Clone, Copy)]
enum ReplicaStep {
    /// A transaction's call on the primary; an install is logged.
    Primary(Op),
    /// Ships the next `n` logged entries past replica `r`'s frontier to it.
    Ship { r: usize, n: usize },
    /// Copies the primary into a new replica (replica add), replacing
    /// replica `r` once there are two.
    Copy { r: usize },
}

fn arb_replica_step(keys: usize) -> impl Strategy<Value = ReplicaStep> {
    (0u8..9, arb_op(keys), 0usize..2, 1usize..6).prop_map(|(pick, mut op, r, n)| match pick {
        0..=5 => {
            // A transaction's calls only: replicated applies, upserts and
            // copies reach a replica through the log and `from_snapshot`.
            op.kind = match op.n {
                0 => Kind::Read,
                1 => Kind::Lock,
                2 => Kind::Install,
                3 => Kind::Unlock,
                _ => Kind::AbortedInsert,
            };
            ReplicaStep::Primary(op)
        }
        6..=7 => ReplicaStep::Ship { r, n },
        _ => ReplicaStep::Copy { r },
    })
}

/// Runs `steps` over one partition's replicas, addressing the primary's
/// rows and the log entries it ships by `addr`, and checks every replica
/// against its own oracle after each step.
fn run_replicas(steps: &[ReplicaStep], addr: Addr) -> Result<(), proptest::TestCaseError> {
    let keys = model_keys();
    let part = PartitionId(0);
    let mut primary = ReplicaStore::new_primary(part, DENSE, 16);
    let mut pm = populated_model();
    let mut secondary = ReplicaStore::new_secondary(part, DENSE, 16);
    secondary.table.share_index(&primary.table);
    let mut replicas = vec![(secondary, populated_model())];
    for s in steps {
        match *s {
            ReplicaStep::Primary(op) => {
                let out = step(&mut primary.table, addr, &mut pm, &keys, op);
                if let Some((got, want)) = out {
                    prop_assert_eq!(got, want, "{:?}: {:?} != {:?}", op, got, want);
                }
                if let (Kind::Install, Some((OpOutcome::Ok { version }, _))) = (op.kind, out) {
                    let k = keys[op.key];
                    let cell = primary.table.cell(k).filter(|_| addr == Addr::Cell);
                    primary.log.append_cell(part, k, cell, version, op.value);
                }
            }
            ReplicaStep::Ship { r, n } => {
                if let Some((store, m)) = replicas.get_mut(r) {
                    let log = primary.log.pending();
                    let from = store.applied_lsn as usize;
                    let batch = &log[from..(from + n).min(log.len())];
                    for e in batch {
                        model_apply(m, e.key, e.version, e.value);
                    }
                    store.apply_entries(batch);
                }
            }
            ReplicaStep::Copy { r } => {
                let copy = (ReplicaStore::from_snapshot(part, &primary), model_copy(&pm));
                if replicas.len() < 2 {
                    replicas.push(copy);
                } else {
                    replicas[r] = copy;
                }
            }
        }
        check(&primary.table, &pm, &keys, s)?;
        for (store, m) in &replicas {
            check(&store.table, m, &keys, s)?;
            for &k in &keys {
                prop_assert_eq!(
                    store.table.cell(k),
                    primary.table.cell(k),
                    "cell of {:#x}",
                    k
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model check of one partition's replicas over its one key index: a
    /// populated primary, a populated secondary given the primary's index,
    /// and replica copies taken at random steps. Transactions lock, install,
    /// unlock and abort inserts on the primary; installs are logged and
    /// shipped to each replica in random chunks. After every step each
    /// replica agrees with its own oracle — `get`, `len` and `bytes` — so no
    /// replica sees another's rows, placeholders or
    /// locks, and no two keys ever share a slot.
    #[test]
    fn replicas_sharing_an_index_each_behave_like_their_own_map(
        steps in proptest::collection::vec(arb_replica_step(model_keys().len()), 1..300),
    ) {
        run_replicas(&steps, Addr::Key)?;
    }

    /// The same model check with every primary call made at the cell its
    /// key resolves to, and every install logged and applied at that cell:
    /// each replica still agrees with its oracle through the key-addressed
    /// `get`, and every key has one cell on all of them.
    #[test]
    fn a_cell_addresses_the_same_row_on_every_replica(
        steps in proptest::collection::vec(arb_replica_step(model_keys().len()), 1..300),
    ) {
        run_replicas(&steps, Addr::Cell)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model check: after every step of a random interleaving, `get` on
    /// every key, `len` and `bytes` agree with the ordered-map oracle, and
    /// every OCC call answers what the oracle answers. Covers the dense
    /// range, the sparse arena, the slots aborted inserts keep for their
    /// retries, and replica copies taken with prepare-locks held.
    #[test]
    fn a_table_behaves_like_an_ordered_map(
        ops in proptest::collection::vec(arb_op(model_keys().len()), 1..300),
    ) {
        let keys = model_keys();
        let mut t = Table::populated(DENSE, 16);
        let mut m = populated_model();
        for op in &ops {
            if let Some((got, want)) = step(&mut t, Addr::Key, &mut m, &keys, *op) {
                prop_assert_eq!(got, want, "{:?}: {:?} != {:?}", op, got, want);
            }
            check(&t, &m, &keys, op)?;
        }
    }
}
