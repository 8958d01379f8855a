//! A single partition replica's key→row table with OCC operations.
//!
//! Rows are 32-byte slots (`Option<Row>`) held in two places: a directly
//! indexed vector for the contiguous populated range, and the replica's own
//! arena for every other key (the rows transactions insert), addressed
//! through a key→slot index that all replicas of the partition share.
//!
//! A row's **cell** numbers its slot across both: a dense key is its own
//! cell, a sparse key's cell is `dense.len() + slot`. Every replica of a
//! partition has the same dense length and the one index (checked by
//! [`Table::shares_cells_with`]), and index entries are never removed, so a
//! cell names the same row on every replica for the partition's lifetime.
//! A caller resolves a key once ([`Table::cell_or_assign`]) and addresses
//! the row by its cell from then on; each key-addressed method is a key
//! lookup in front of its cell-addressed body (reads, validation and
//! unlocks look up without assigning a slot).

use crate::row::{Bytes, Row};
use lion_common::{FastMap, Key, TxnId};
use std::cell::RefCell;
use std::num::NonZeroU32;
use std::rc::Rc;

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

/// A row's place in every replica of its partition (see the module docs).
/// Only a [`Table`] of the partition makes one. Stored plus one, so
/// `Option<Cell>` is four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell(NonZeroU32);

impl Cell {
    #[inline]
    fn new(i: usize) -> Cell {
        let n = u32::try_from(i + 1).ok().and_then(NonZeroU32::new);
        Cell(n.expect("a partition outgrew u32 cells"))
    }

    #[inline]
    fn idx(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// Key→row map for one partition replica.
///
/// # Dense rows, the sparse arena and the shared index
///
/// A freshly populated partition holds the contiguous key range `0..keys`
/// (YCSB's rows, and TPC-C's loaded relations), so those rows live in a
/// directly indexed vector: every OCC step on them is an array access, no
/// hashing. Keys at or beyond the dense range (inserted rows) live in the
/// sparse arena, reached through a key→slot index. The arena is a list of
/// [`Table::CHUNK`]-row chunks, slot `s` at `s / CHUNK`, `s % CHUNK`, so it
/// grows by one chunk and an insert never copies the rows before it. The
/// split is invisible through the API — `(key, row)` behavior is identical
/// on both paths — and the two never overlap: a key belongs to the dense
/// vector iff `key < dense.len()`.
///
/// # One index per partition
///
/// The key→slot index belongs to the partition, not to the replica. A clone
/// of a `Table` is another replica of the same partition (so is
/// [`Table::replica`], and a table handed another's index by
/// [`Table::share_index`]): it keeps its own rows, `len` and `bytes`, in its
/// own arena, at the slots the one index assigns. A key's slot is fixed for
/// the partition's lifetime: the first replica to resolve a sparse key gives
/// it the next slot, and an aborted insert empties its slot but keeps the
/// entry, so the retry reuses the slot and no two keys ever share a cell. The
/// sharing saves host memory only; it is not a modelled resource and has no
/// simulated cost.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Direct-indexed rows for the contiguous populated range; `None` means
    /// the row is absent.
    dense: Vec<Option<Row>>,
    /// This replica's sparse rows at their index slots, in chunks of
    /// [`Table::CHUNK`]; `None` where it holds no row for the slot's key
    /// (never applied, or an aborted insert).
    sparse: Vec<Box<Chunk>>,
    /// Key → slot in every replica's `sparse`, shared by all replicas of the
    /// partition. Entries are never removed.
    index: Rc<RefCell<FastMap<Key, u32>>>,
    /// Number of `Some` slots in `dense` and `sparse`.
    rows: usize,
    /// Payload bytes currently stored (maintained incrementally).
    bytes: u64,
}

/// [`Table::CHUNK`] consecutive slots of a sparse arena.
type Chunk = [Option<Row>; Table::CHUNK];

impl Table {
    /// Slots per chunk of the sparse arena.
    pub const CHUNK: usize = 1_024;

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
            rows: keys as usize,
            ..Table::default()
        };
        for k in 0..keys {
            let v = Self::synth_value(k, 1, value_size);
            t.bytes += v.len() as u64;
            t.dense.push(Some(Row::new(v)));
        }
        t
    }

    /// Makes this table, populated like `other` but holding no sparse row
    /// yet, another replica of `other`'s partition: from now on its sparse
    /// rows sit at the slots of `other`'s index.
    pub fn share_index(&mut self, other: &Table) {
        debug_assert!(self.sparse.is_empty(), "adopting an index under rows");
        debug_assert_eq!(self.dense.len(), other.dense.len(), "dense ranges differ");
        self.index = Rc::clone(&other.index);
    }

    /// True when a cell names the same row here and in `other`: both have
    /// the same dense length and one key index. Holds for every pair of
    /// replicas of a partition.
    pub fn shares_cells_with(&self, other: &Table) -> bool {
        Rc::ptr_eq(&self.index, &other.index) && self.dense.len() == other.dense.len()
    }

    /// A new replica of this partition copied from this one (replica add):
    /// the same rows, `len` and `bytes` over the same index, with every
    /// prepare-lock cleared, so an in-flight insert's placeholder arrives as
    /// an unlocked version-0 row.
    pub fn replica(&self) -> Table {
        let mut copy = self.clone();
        let sparse = copy.sparse.iter_mut().flat_map(|chunk| chunk.iter_mut());
        copy.dense
            .iter_mut()
            .chain(sparse)
            .flatten()
            .for_each(|row| row.unlock());
        copy
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
        self.rows
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

    /// The cell of `key`, if the partition has given it one (a dense key
    /// always has one).
    #[inline]
    pub fn cell(&self, key: Key) -> Option<Cell> {
        if Self::in_dense(&self.dense, key) {
            return Some(Cell::new(key as usize));
        }
        let slot = *self.index.borrow().get(&key)?;
        Some(Cell::new(self.dense.len() + slot as usize))
    }

    /// The cell of `key`; a sparse key new to the partition takes the
    /// shared index's next slot, for every replica at once.
    #[inline]
    pub fn cell_or_assign(&self, key: Key) -> Cell {
        if Self::in_dense(&self.dense, key) {
            return Cell::new(key as usize);
        }
        let mut index = self.index.borrow_mut();
        let next = u32::try_from(index.len()).expect("sparse arena outgrew u32 slots");
        Cell::new(self.dense.len() + *index.entry(key).or_insert(next) as usize)
    }

    /// Looks up a row.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&Row> {
        self.row(self.cell(key)?)
    }

    /// The row at `cell`, if this replica holds one.
    #[inline]
    fn row(&self, cell: Cell) -> Option<&Row> {
        let i = cell.idx();
        match self.dense.get(i) {
            Some(row) => row.as_ref(),
            None => {
                let s = i - self.dense.len();
                self.sparse.get(s / Self::CHUNK)?[s % Self::CHUNK].as_ref()
            }
        }
    }

    /// Row at `cell`, materialising an insert placeholder when absent (and
    /// growing the sparse arena by whole chunks to reach it).
    #[inline]
    fn row_or_placeholder(&mut self, cell: Cell) -> &mut Row {
        let i = cell.idx();
        let slot = match i.checked_sub(self.dense.len()) {
            None => &mut self.dense[i],
            Some(s) => {
                let c = s / Self::CHUNK;
                if c >= self.sparse.len() {
                    self.grow_sparse(c);
                }
                &mut self.sparse[c][s % Self::CHUNK]
            }
        };
        if slot.is_none() {
            self.rows += 1;
        }
        slot.get_or_insert_with(Self::placeholder)
    }

    /// Adds empty chunks until chunk `c` exists. Out of line and built on
    /// the heap: a 32 KB chunk array in `row_or_placeholder`'s frame would
    /// make every caller probe its stack.
    #[cold]
    #[inline(never)]
    fn grow_sparse(&mut self, c: usize) {
        while self.sparse.len() <= c {
            let chunk = vec![None; Self::CHUNK].into_boxed_slice();
            self.sparse
                .push(chunk.try_into().expect("a chunk is CHUNK slots"));
        }
    }

    /// Inserts or replaces a row wholesale (population, migration apply).
    pub fn upsert(&mut self, key: Key, value: Bytes) {
        let add = value.len() as u64;
        let row = self.row_or_placeholder(self.cell_or_assign(key));
        let old = row.value.len() as u64;
        *row = Row::new(value);
        self.bytes = self.bytes - old + add;
    }

    /// [`Table::occ_read_cell`] by key.
    #[inline]
    pub fn occ_read(&self, key: Key, txn: TxnId) -> OpOutcome {
        Self::read(self.get(key), txn)
    }

    /// OCC read: returns the current version (0 for missing rows, which is
    /// how inserts validate: the version must still be 0 at commit). A row
    /// prepare-locked by another transaction cannot be read consistently.
    #[inline]
    pub fn occ_read_cell(&self, cell: Cell, txn: TxnId) -> OpOutcome {
        Self::read(self.row(cell), txn)
    }

    #[inline]
    fn read(row: Option<&Row>, txn: TxnId) -> OpOutcome {
        match row {
            None => OpOutcome::Ok { version: 0 },
            Some(row) => match row.lock() {
                Some(holder) if holder != txn => OpOutcome::Locked { holder },
                _ => OpOutcome::Ok {
                    version: row.version,
                },
            },
        }
    }

    /// [`Table::occ_lock_cell`] by key.
    pub fn occ_lock(&mut self, key: Key, txn: TxnId) -> OpOutcome {
        self.occ_lock_cell(self.cell_or_assign(key), txn)
    }

    /// OCC prepare-lock for a write. Missing rows (inserts) are locked by
    /// materialising an empty version-0 row.
    #[inline]
    pub fn occ_lock_cell(&mut self, cell: Cell, txn: TxnId) -> OpOutcome {
        let row = self.row_or_placeholder(cell);
        if let Some(holder) = row.lock().filter(|&h| h != txn) {
            return OpOutcome::Locked { holder };
        }
        row.lock_for(txn);
        OpOutcome::Ok {
            version: row.version,
        }
    }

    /// [`Table::occ_validate_read_cell`] by key.
    #[inline]
    pub fn occ_validate_read(&self, key: Key, observed: u64, txn: TxnId) -> OpOutcome {
        Self::validate_read(self.get(key), observed, txn)
    }

    /// OCC read-set validation: the observed version must still be current
    /// and the row must not be prepare-locked by another transaction.
    #[inline]
    pub fn occ_validate_read_cell(&self, cell: Cell, observed: u64, txn: TxnId) -> OpOutcome {
        Self::validate_read(self.row(cell), observed, txn)
    }

    #[inline]
    fn validate_read(row: Option<&Row>, observed: u64, txn: TxnId) -> OpOutcome {
        match row {
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
                if let Some(holder) = row.lock() {
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

    /// [`Table::occ_install_cell`] by key.
    pub fn occ_install(&mut self, key: Key, txn: TxnId, value: Bytes) -> u64 {
        self.occ_install_cell(self.cell_or_assign(key), txn, value)
    }

    /// Installs a write: stores the new payload, bumps the version, releases
    /// the lock. Returns the new version.
    #[inline]
    pub fn occ_install_cell(&mut self, cell: Cell, txn: TxnId, value: Bytes) -> u64 {
        let add = value.len() as u64;
        let row = self.row_or_placeholder(cell);
        debug_assert!(row.lockable_by(txn), "installing over a foreign lock");
        let old = row.value.len() as u64;
        row.value = value;
        row.version += 1;
        row.unlock();
        let version = row.version;
        self.bytes = self.bytes - old + add;
        version
    }

    /// [`Table::occ_unlock_cell`] by key.
    pub fn occ_unlock(&mut self, key: Key, txn: TxnId) {
        if let Some(cell) = self.cell(key) {
            self.occ_unlock_cell(cell, txn);
        }
    }

    /// Releases a prepare-lock without installing (abort path). A placeholder
    /// created for an insert is emptied again; a sparse key keeps its slot.
    #[inline]
    pub fn occ_unlock_cell(&mut self, cell: Cell, txn: TxnId) {
        let i = cell.idx();
        let slot = match i.checked_sub(self.dense.len()) {
            None => &mut self.dense[i],
            Some(s) => match self.sparse.get_mut(s / Self::CHUNK) {
                Some(chunk) => &mut chunk[s % Self::CHUNK],
                None => return,
            },
        };
        if let Some(row) = slot.as_mut().filter(|r| r.lock() == Some(txn)) {
            row.unlock();
            if row.version == 0 {
                self.bytes -= row.value.len() as u64;
                *slot = None; // insert placeholder never became visible
                self.rows -= 1;
            }
        }
    }

    /// [`Table::apply_replicated_cell`] by key.
    pub fn apply_replicated(&mut self, key: Key, version: u64, value: Bytes) {
        self.apply_replicated_cell(self.cell_or_assign(key), version, value)
    }

    /// Applies a replicated write (no locking: replication is ordered).
    #[inline]
    pub fn apply_replicated_cell(&mut self, cell: Cell, version: u64, value: Bytes) {
        let add = value.len() as u64;
        let row = self.row_or_placeholder(cell);
        // Idempotent, ordered apply: never regress.
        if version >= row.version {
            let old = row.value.len() as u64;
            row.value = value;
            row.version = version;
            self.bytes = self.bytes - old + add;
        }
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
        assert!(t.get(1).unwrap().lock().is_none());
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
    fn a_replica_copy_clears_locks_and_keeps_in_flight_placeholders() {
        // An existing dense row survives an aborted lock untouched.
        let mut t = Table::populated(4, 8);
        assert!(t.occ_lock(2, T1).is_ok());
        t.occ_unlock(2, T1);
        assert_eq!(t.len(), 4, "existing dense row survives an aborted lock");
        assert_eq!(t.get(2).unwrap().version, 1);
        // A copy taken while a write and an insert are prepare-locked
        // carries both rows unlocked; the insert as a version-0 row.
        let ins = 1u64 << 40;
        assert!(t.occ_lock(2, T1).is_ok());
        assert!(t.occ_lock(ins, T1).is_ok());
        let mut copy = t.replica();
        assert_eq!((copy.len(), copy.bytes()), (5, 32));
        assert_eq!(copy.get(2).unwrap().lock(), None);
        let row = copy.get(ins).unwrap();
        assert_eq!((row.version, row.lock()), (0, None));
        // The primary's abort empties its own cell only.
        t.occ_unlock(ins, T1);
        assert!(t.get(ins).is_none());
        assert_eq!(t.len(), 4);
        copy.occ_unlock(ins, T1); // T1 holds nothing on the copy
        assert_eq!((copy.len(), copy.get(ins).unwrap().version), (5, 0));
        assert!(copy.occ_lock(ins, T2).is_ok(), "v0 row is lockable");
        assert_eq!(copy.occ_install(ins, T2, Bytes::synth(0x0101, 8)), 1);
    }

    #[test]
    fn an_aborted_insert_keeps_its_slot_for_the_retry() {
        let mut t = Table::new();
        let [a, b, c] = [1, 2, 3].map(|i| (1u64 << 40) | i);
        t.upsert(a, Bytes::synth(0x0101, 2));
        assert!(t.occ_lock(b, T1).is_ok());
        t.occ_unlock(b, T1);
        assert!(t.get(b).is_none());
        let slots = |t: &Table| t.index.borrow().len();
        assert_eq!(
            (t.len(), slots(&t), t.cell(b).map(Cell::idx)),
            (1, 2, Some(1))
        );
        // the retry re-inserts at the same slot, without a new one
        assert!(t.occ_lock(b, T2).is_ok());
        assert_eq!((slots(&t), t.cell(b).map(Cell::idx)), (2, Some(1)));
        assert_eq!(t.get(b).unwrap().lock(), Some(T2));
        assert_eq!(t.occ_install(b, T2, Bytes::synth(0x0202, 2)), 1);
        // a different key takes a fresh slot
        assert!(t.occ_lock(c, T1).is_ok());
        assert_eq!((slots(&t), t.cell(c).map(Cell::idx)), (3, Some(2)));
        assert_eq!(t.occ_install(c, T1, Bytes::synth(0x0303, 2)), 1);
        assert_eq!(t.get(a).unwrap().value, Bytes::synth(0x0101, 2));
        assert_eq!((t.len(), t.bytes()), (3, 6));
    }

    #[test]
    fn the_sparse_arena_grows_by_whole_chunks() {
        let mut t = Table::populated(2, 8);
        let key = |i: u64| (1u64 << 40) | i;
        for i in 0..Table::CHUNK as u64 {
            t.upsert(key(i), Bytes::synth(i, 8));
        }
        assert_eq!(t.sparse.len(), 1, "{} slots fill one chunk", Table::CHUNK);
        // the next slot opens a second chunk; a lock on it spans both
        assert!(t.occ_lock(key(Table::CHUNK as u64), T1).is_ok());
        assert!(t.occ_lock(key(0), T1).is_ok());
        assert_eq!(t.sparse.len(), 2);
        let last = t.cell(key(Table::CHUNK as u64)).map(Cell::idx);
        assert_eq!(last, Some(2 + Table::CHUNK));
        let copy = t.replica();
        assert_eq!((copy.len(), copy.bytes()), (t.len(), t.bytes()));
        assert_eq!(copy.get(key(0)).unwrap().lock(), None);
        assert_eq!(copy.get(key(Table::CHUNK as u64)).unwrap().version, 0);
        // the primary's abort empties the slot past the first chunk
        t.occ_unlock(key(Table::CHUNK as u64), T1);
        assert!(t.get(key(Table::CHUNK as u64)).is_none());
        assert_eq!(
            t.get(key(Table::CHUNK as u64 - 1)).unwrap().value,
            Bytes::synth(1023, 8)
        );
        assert_eq!(t.len(), 2 + Table::CHUNK);
    }

    #[test]
    fn replicas_share_the_index_but_not_the_rows() {
        let mut primary = Table::populated(4, 8);
        let mut secondary = Table::populated(4, 8);
        secondary.share_index(&primary);
        let [a, b] = [1, 2].map(|i| (7u64 << 32) | i);
        for key in [a, b] {
            assert!(primary.occ_lock(key, T1).is_ok());
            primary.occ_install(key, T1, Bytes::synth(key, 8));
        }
        // the secondary applies `b` first, at the slot the primary gave it
        secondary.apply_replicated(b, 1, Bytes::synth(b, 8));
        assert!(secondary.get(a).is_none());
        assert_eq!(secondary.get(b), primary.get(b));
        assert_eq!((secondary.len(), secondary.bytes()), (5, 40));
        assert_eq!((primary.len(), primary.bytes()), (6, 48));
        // a copy shares the index too, and nothing else
        let copy = secondary.replica();
        assert!(copy.shares_cells_with(&primary));
        assert_eq!(primary.index.borrow().len(), 2);
        assert!(copy.get(a).is_none());
        // a sparse cell is offset past the dense range, the same everywhere
        assert_eq!(primary.cell(b).map(Cell::idx), Some(4 + 1));
        assert_eq!(copy.cell(b), primary.cell(b));
        assert_eq!(copy.row(primary.cell(a).unwrap()), None);
        assert!(!Table::populated(4, 8).shares_cells_with(&primary));
        let mut wide = Table::populated(5, 8);
        wide.index = Rc::clone(&primary.index);
        assert!(!wide.shares_cells_with(&primary), "dense ranges differ");
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
    fn a_replica_copy_preserves_contents() {
        let mut t = Table::populated(16, 32);
        t.occ_lock(3, T1);
        t.occ_install(3, T1, Bytes::synth(0x0707_0707_0707_0707, 32));
        let copy = t.replica();
        assert_eq!(copy.len(), t.len());
        assert_eq!(copy.bytes(), t.bytes());
        for k in 0..16 {
            assert_eq!(copy.get(k).unwrap().version, t.get(k).unwrap().version);
            assert_eq!(copy.get(k).unwrap().value, t.get(k).unwrap().value);
        }
    }

    #[test]
    fn mixed_dense_and_sparse_keys_coexist() {
        // TPC-C-style bit-packed keys land in the sparse arena beside the
        // dense range, without aliasing the dense row their low bits name.
        let mut t = Table::populated(8, 8);
        let packed = (42u64 << 32) | 7;
        t.upsert(packed, Bytes::synth(0x0505_0505_0505_0505, 8));
        assert_eq!(t.len(), 9);
        assert!(t.occ_lock(packed, T1).is_ok());
        t.occ_install(packed, T1, Bytes::synth(0x0606_0606_0606_0606, 8));
        assert_eq!(t.get(packed).unwrap().version, 2);
        assert_eq!(t.get(7).unwrap().version, 1);
        let copy = t.replica();
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
