//! Property tests on the OCC storage layer: randomized interleavings of
//! lock/validate/install/abort must preserve version monotonicity and lock
//! hygiene, and replication must converge to the primary state.

use lion::common::{PartitionId, TxnId};
use lion::storage::{ReplicaStore, Table};
use proptest::prelude::*;

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
