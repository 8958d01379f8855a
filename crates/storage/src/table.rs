//! A single partition replica's key→row table with OCC operations.

use crate::row::{Bytes, Row};
use lion_common::{fast_map_with_capacity, FastMap, Key, TxnId};

/// Result of an OCC step against one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The step succeeded; for reads, carries the observed version.
    Ok { version: u64 },
    /// The row is prepare-locked by another transaction.
    Locked { holder: TxnId },
    /// A read-set version no longer matches (write committed in between).
    VersionMismatch { expected: u64, found: u64 },
    /// The key does not exist (reads of missing rows observe version 0 and
    /// succeed; this outcome is only used by internal assertions).
    Missing,
}

impl OpOutcome {
    /// True for `Ok`.
    pub fn is_ok(&self) -> bool {
        matches!(self, OpOutcome::Ok { .. })
    }
}

/// Key→row map for one partition replica.
///
/// # Dense fast path
///
/// A freshly populated partition holds the contiguous key range `0..keys`
/// (how YCSB tables are laid out), so those rows live in a directly indexed
/// vector: every OCC step on them is an array access, no hashing. Keys at
/// or beyond the dense range (TPC-C's bit-packed composite keys, dynamic
/// inserts) live in the sparse map. The split is invisible through the
/// API — `(key, row)` behavior is identical on both paths — and the two
/// never overlap: a key belongs to the dense vector iff `key < dense.len()`.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Direct-indexed rows for the contiguous populated range; `None` means
    /// the row is absent (never materialised, or an aborted insert).
    dense: Vec<Option<Row>>,
    /// Number of `Some` entries in `dense`.
    dense_rows: usize,
    /// Rows whose key falls outside the dense range.
    sparse: FastMap<Key, Row>,
    /// Payload bytes currently stored (maintained incrementally).
    bytes: u64,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Creates a table pre-populated with `keys` rows of `value_size` bytes,
    /// each initialised to a key-derived pattern (so that migrated/replicated
    /// copies can be content-checked in tests).
    pub fn populated(keys: u64, value_size: u32) -> Self {
        let mut t = Table {
            dense: Vec::with_capacity(keys as usize),
            dense_rows: keys as usize,
            sparse: FastMap::default(),
            bytes: 0,
        };
        for k in 0..keys {
            let v = Self::synth_value(k, 1, value_size);
            t.bytes += v.len() as u64;
            t.dense.push(Some(Row::new(v)));
        }
        t
    }

    /// Deterministic synthetic payload for (key, version): the 8-byte
    /// key/version stamp repeated little-endian.
    pub fn synth_value(key: Key, version: u64, value_size: u32) -> Bytes {
        let stamp = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(version);
        Bytes::synth(stamp, value_size)
    }

    /// A fresh insert placeholder: not yet visible (version 0).
    fn placeholder() -> Row {
        let mut r = Row::new(Bytes::synth(0, 0));
        r.version = 0;
        r
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.dense_rows + self.sparse.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes stored.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Dense-range test done in u64 width *before* any `as usize` cast: on
    /// a 32-bit target a bit-packed key like `(42 << 32) | 7` must not
    /// truncate and alias dense row 7.
    #[inline]
    fn in_dense(dense: &[Option<Row>], key: Key) -> bool {
        key < dense.len() as u64
    }

    /// Looks up a row.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&Row> {
        if Self::in_dense(&self.dense, key) {
            self.dense[key as usize].as_ref()
        } else {
            self.sparse.get(&key)
        }
    }

    /// Row for `key`, materialising an insert placeholder when absent.
    /// Free-function shape (disjoint field borrows) so callers can keep
    /// updating `bytes` while the row borrow lives.
    #[inline]
    fn row_or_placeholder<'a>(
        dense: &'a mut [Option<Row>],
        dense_rows: &mut usize,
        sparse: &'a mut FastMap<Key, Row>,
        key: Key,
    ) -> &'a mut Row {
        if Self::in_dense(dense, key) {
            let slot = &mut dense[key as usize];
            if slot.is_none() {
                *slot = Some(Self::placeholder());
                *dense_rows += 1;
            }
            slot.as_mut().expect("just ensured")
        } else {
            sparse.entry(key).or_insert_with(Self::placeholder)
        }
    }

    /// Inserts or replaces a row wholesale (population, migration apply).
    pub fn upsert(&mut self, key: Key, value: Bytes) {
        let add = value.len() as u64;
        if Self::in_dense(&self.dense, key) {
            let slot = &mut self.dense[key as usize];
            match slot.replace(Row::new(value)) {
                Some(old) => self.bytes = self.bytes - old.value.len() as u64 + add,
                None => {
                    self.bytes += add;
                    self.dense_rows += 1;
                }
            }
            return;
        }
        match self.sparse.insert(key, Row::new(value)) {
            Some(old) => self.bytes = self.bytes - old.value.len() as u64 + add,
            None => self.bytes += add,
        }
    }

    /// OCC read: returns the current version (0 for missing rows, which is
    /// how inserts validate: the version must still be 0 at commit). A row
    /// prepare-locked by another transaction cannot be read consistently.
    #[inline]
    pub fn occ_read(&self, key: Key, txn: TxnId) -> OpOutcome {
        match self.get(key) {
            None => OpOutcome::Ok { version: 0 },
            Some(row) => match row.lock {
                Some(holder) if holder != txn => OpOutcome::Locked { holder },
                _ => OpOutcome::Ok {
                    version: row.version,
                },
            },
        }
    }

    /// OCC prepare-lock for a write key. Missing rows (inserts) are locked by
    /// materialising an empty version-0 row.
    pub fn occ_lock(&mut self, key: Key, txn: TxnId) -> OpOutcome {
        let row =
            Self::row_or_placeholder(&mut self.dense, &mut self.dense_rows, &mut self.sparse, key);
        if !row.lockable_by(txn) {
            return OpOutcome::Locked {
                holder: row.lock.expect("unlockable row must be locked"),
            };
        }
        row.lock = Some(txn);
        OpOutcome::Ok {
            version: row.version,
        }
    }

    /// OCC read-set validation: the observed version must still be current
    /// and the row must not be prepare-locked by another transaction.
    #[inline]
    pub fn occ_validate_read(&self, key: Key, observed: u64, txn: TxnId) -> OpOutcome {
        match self.get(key) {
            None => {
                if observed == 0 {
                    OpOutcome::Ok { version: 0 }
                } else {
                    OpOutcome::VersionMismatch {
                        expected: observed,
                        found: 0,
                    }
                }
            }
            Some(row) => {
                if let Some(holder) = row.lock {
                    if holder != txn {
                        return OpOutcome::Locked { holder };
                    }
                }
                if row.version != observed {
                    OpOutcome::VersionMismatch {
                        expected: observed,
                        found: row.version,
                    }
                } else {
                    OpOutcome::Ok {
                        version: row.version,
                    }
                }
            }
        }
    }

    /// Installs a write: stores the new payload, bumps the version, releases
    /// the lock. Returns the new version.
    pub fn occ_install(&mut self, key: Key, txn: TxnId, value: Bytes) -> u64 {
        let add = value.len() as u64;
        let row =
            Self::row_or_placeholder(&mut self.dense, &mut self.dense_rows, &mut self.sparse, key);
        debug_assert!(
            row.lock.is_none() || row.lock == Some(txn),
            "installing over a foreign lock"
        );
        self.bytes = self.bytes - row.value.len() as u64 + add;
        row.value = value;
        row.version += 1;
        row.lock = None;
        row.version
    }

    /// Releases a prepare-lock without installing (abort path). Placeholder
    /// rows created for inserts are removed again.
    pub fn occ_unlock(&mut self, key: Key, txn: TxnId) {
        if Self::in_dense(&self.dense, key) {
            let slot = &mut self.dense[key as usize];
            if let Some(row) = slot.as_mut() {
                if row.lock == Some(txn) {
                    row.lock = None;
                    if row.version == 0 {
                        *slot = None; // insert placeholder never became visible
                        self.dense_rows -= 1;
                    }
                }
            }
            return;
        }
        let remove = match self.sparse.get_mut(&key) {
            Some(row) if row.lock == Some(txn) => {
                row.lock = None;
                row.version == 0
            }
            _ => false,
        };
        if remove {
            self.sparse.remove(&key);
        }
    }

    /// Applies a replicated write (no locking: replication is ordered).
    pub fn apply_replicated(&mut self, key: Key, version: u64, value: Bytes) {
        let add = value.len() as u64;
        let row =
            Self::row_or_placeholder(&mut self.dense, &mut self.dense_rows, &mut self.sparse, key);
        // Idempotent, ordered apply: never regress.
        if version >= row.version {
            self.bytes = self.bytes - row.value.len() as u64 + add;
            row.value = value;
            row.version = version;
        }
    }

    /// Snapshot of all rows for migration / replica bootstrap.
    pub fn snapshot(&self) -> Vec<(Key, u64, Bytes)> {
        // Dense keys come out ascending; sparse keys are all >= dense.len()
        // by construction, so appending the sorted sparse tail keeps the
        // whole snapshot key-ordered.
        let mut out: Vec<_> = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(k, slot)| slot.as_ref().map(|r| (k as Key, r.version, r.value)))
            .collect();
        let head = out.len();
        out.extend(self.sparse.iter().map(|(&k, r)| (k, r.version, r.value)));
        out[head..].sort_unstable_by_key(|(k, _, _)| *k);
        out
    }

    /// Rebuilds a table from a snapshot. A snapshot covering the contiguous
    /// range `0..n` (the common case: a fully populated partition copy)
    /// rebuilds the dense fast path; anything else lands in the sparse map.
    pub fn from_snapshot(snap: Vec<(Key, u64, Bytes)>) -> Self {
        let contiguous = !snap.is_empty()
            && snap[0].0 == 0
            && snap.last().expect("non-empty").0 == snap.len() as Key - 1;
        if contiguous {
            let mut t = Table {
                dense: Vec::with_capacity(snap.len()),
                dense_rows: snap.len(),
                sparse: FastMap::default(),
                bytes: 0,
            };
            for (_, version, value) in snap {
                t.bytes += value.len() as u64;
                let mut row = Row::new(value);
                row.version = version;
                t.dense.push(Some(row));
            }
            return t;
        }
        let mut t = Table {
            dense: Vec::new(),
            dense_rows: 0,
            sparse: fast_map_with_capacity(snap.len()),
            bytes: 0,
        };
        for (k, version, value) in snap {
            t.bytes += value.len() as u64;
            let mut row = Row::new(value);
            row.version = version;
            t.sparse.insert(k, row);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    #[test]
    fn read_missing_row_sees_version_zero() {
        let t = Table::new();
        assert_eq!(t.occ_read(7, T1), OpOutcome::Ok { version: 0 });
    }

    #[test]
    fn install_bumps_version_and_unlocks() {
        let mut t = Table::new();
        assert!(t.occ_lock(1, T1).is_ok());
        let v = t.occ_install(1, T1, Bytes::synth(0x0909_0909, 4));
        assert_eq!(v, 1);
        assert!(t.get(1).unwrap().lock.is_none());
        assert_eq!(t.occ_read(1, T2), OpOutcome::Ok { version: 1 });
    }

    #[test]
    fn foreign_lock_blocks_reads_and_locks() {
        let mut t = Table::populated(4, 8);
        assert!(t.occ_lock(0, T1).is_ok());
        assert_eq!(t.occ_read(0, T2), OpOutcome::Locked { holder: T1 });
        assert_eq!(t.occ_lock(0, T2), OpOutcome::Locked { holder: T1 });
        // but the holder itself can re-enter
        assert!(t.occ_lock(0, T1).is_ok());
        assert!(t.occ_read(0, T1).is_ok());
    }

    #[test]
    fn validation_detects_concurrent_commit() {
        let mut t = Table::populated(2, 8);
        let OpOutcome::Ok { version } = t.occ_read(0, T1) else {
            panic!()
        };
        // T2 commits a write to key 0 in between.
        assert!(t.occ_lock(0, T2).is_ok());
        t.occ_install(0, T2, Bytes::synth(0x0101_0101_0101_0101, 8));
        assert_eq!(
            t.occ_validate_read(0, version, T1),
            OpOutcome::VersionMismatch {
                expected: version,
                found: version + 1
            }
        );
    }

    #[test]
    fn abort_removes_insert_placeholder() {
        let mut t = Table::new();
        assert!(t.occ_lock(5, T1).is_ok());
        t.occ_unlock(5, T1);
        assert!(t.get(5).is_none());
        // but aborting a lock on an existing row keeps the row
        t.upsert(6, Bytes::synth(0x0101, 2));
        assert!(t.occ_lock(6, T1).is_ok());
        t.occ_unlock(6, T1);
        assert_eq!(t.get(6).unwrap().version, 1);
    }

    #[test]
    fn abort_removes_dense_insert_placeholder() {
        // An existing dense row survives an aborted lock untouched…
        let mut t = Table::populated(4, 8);
        assert!(t.occ_lock(2, T1).is_ok());
        t.occ_unlock(2, T1);
        assert_eq!(t.len(), 4, "existing dense row survives an aborted lock");
        assert_eq!(t.get(2).unwrap().version, 1);
        // …but a version-0 placeholder inside the dense range is removed.
        // A contiguous snapshot can legitimately carry one (a replica copy
        // taken while an insert was prepare-locked), which rebuilds dense.
        let mut snap = Table::populated(3, 8).snapshot();
        snap.push((3, 0, Bytes::synth(0, 0))); // v0 placeholder at the tail
        let mut copy = Table::from_snapshot(snap);
        assert_eq!(copy.len(), 4);
        assert!(copy.occ_lock(3, T1).is_ok(), "v0 row is lockable");
        copy.occ_unlock(3, T1);
        assert!(copy.get(3).is_none(), "aborted dense placeholder removed");
        assert_eq!(copy.len(), 3, "dense_rows stays in sync with the slots");
        // relocking re-materialises the placeholder through the dense path
        assert!(copy.occ_lock(3, T2).is_ok());
        assert_eq!(copy.len(), 4);
        copy.occ_install(3, T2, Bytes::synth(0x0101_0101_0101_0101, 8));
        assert_eq!(copy.get(3).unwrap().version, 1);
    }

    #[test]
    fn insert_validates_against_version_zero() {
        let mut t = Table::new();
        // reader saw "missing" (version 0); insert commits; reader must fail
        assert!(t.occ_lock(3, T2).is_ok());
        t.occ_install(3, T2, Bytes::synth(0, 1));
        assert!(matches!(
            t.occ_validate_read(3, 0, T1),
            OpOutcome::VersionMismatch {
                expected: 0,
                found: 1
            }
        ));
    }

    #[test]
    fn replicated_apply_is_idempotent_and_ordered() {
        let mut t = Table::new();
        t.apply_replicated(1, 3, Bytes::synth(0x0303_0303, 4));
        t.apply_replicated(1, 2, Bytes::synth(0x0202_0202, 4)); // stale: ignored
        assert_eq!(t.get(1).unwrap().version, 3);
        assert_eq!(t.get(1).unwrap().value.to_vec(), [3u8; 4]);
        t.apply_replicated(1, 3, Bytes::synth(0x0303_0303, 4)); // duplicate: fine
        assert_eq!(t.get(1).unwrap().version, 3);
    }

    #[test]
    fn snapshot_roundtrip_preserves_contents() {
        let mut t = Table::populated(16, 32);
        t.occ_lock(3, T1);
        t.occ_install(3, T1, Bytes::synth(0x0707_0707_0707_0707, 32));
        let copy = Table::from_snapshot(t.snapshot());
        assert_eq!(copy.len(), t.len());
        assert_eq!(copy.bytes(), t.bytes());
        for k in 0..16 {
            assert_eq!(copy.get(k).unwrap().version, t.get(k).unwrap().version);
            assert_eq!(copy.get(k).unwrap().value, t.get(k).unwrap().value);
        }
    }

    #[test]
    fn mixed_dense_and_sparse_keys_coexist() {
        // TPC-C-style bit-packed keys land in the sparse map beside the
        // dense range; snapshots stay key-ordered across the boundary.
        let mut t = Table::populated(8, 8);
        let packed = (42u64 << 32) | 7;
        t.upsert(packed, Bytes::synth(0x0505_0505_0505_0505, 8));
        assert_eq!(t.len(), 9);
        assert!(t.occ_lock(packed, T1).is_ok());
        t.occ_install(packed, T1, Bytes::synth(0x0606_0606_0606_0606, 8));
        assert_eq!(t.get(packed).unwrap().version, 2);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 9);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "key-ordered");
        let copy = Table::from_snapshot(snap);
        assert_eq!(copy.len(), 9);
        assert_eq!(copy.get(packed).unwrap().version, 2);
        // aborting a sparse insert placeholder removes it again
        let other = (99u64 << 32) | 1;
        assert!(t.occ_lock(other, T2).is_ok());
        t.occ_unlock(other, T2);
        assert!(t.get(other).is_none());
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn bytes_tracking_follows_updates() {
        let mut t = Table::new();
        t.upsert(1, Bytes::synth(0, 10));
        assert_eq!(t.bytes(), 10);
        t.upsert(1, Bytes::synth(0, 4));
        assert_eq!(t.bytes(), 4);
        t.occ_lock(1, T1);
        t.occ_install(1, T1, Bytes::synth(0, 20));
        assert_eq!(t.bytes(), 20);
    }

    #[test]
    fn synth_value_is_deterministic() {
        assert_eq!(Table::synth_value(5, 1, 16), Table::synth_value(5, 1, 16));
        assert_ne!(Table::synth_value(5, 1, 16), Table::synth_value(5, 2, 16));
        // the pattern is the 8-byte stamp repeated little-endian
        let v = Table::synth_value(3, 2, 20).to_vec();
        assert_eq!(v[..8], v[8..16]);
        assert_eq!(v[..4], v[16..20]);
    }

    #[test]
    fn synth_value_bytes_match_the_stamp_formula() {
        // Byte i is `(stamp >> ((i % 8) * 8)) as u8` with
        // stamp = 3 · 0x9E37_79B9_7F4A_7C15 + 2 (mod 2^64).
        let want = [
            0x41, 0x74, 0xDF, 0x7D, 0x2C, 0x6D, 0xA6, 0xDA, 0x41, 0x74, 0xDF, 0x7D, 0x2C, 0x6D,
            0xA6, 0xDA, 0x41, 0x74, 0xDF, 0x7D,
        ];
        assert_eq!(Table::synth_value(3, 2, 20).to_vec(), want);
    }
}
