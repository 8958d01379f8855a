//! A single partition replica's key→row table with OCC operations.
//!
//! Rows are 16-byte slots (`Option<Row>`) held in two places: a directly
//! indexed vector for the contiguous populated range, and the replica's own
//! arena for every key past it (the rows transactions insert), key `k` at
//! arena position `k − dense.len()`. A prepare-locked row carries a bit;
//! its holder is in the table's lock list, one `(key, holder)` entry per
//! locked row, read only when the bit is set.
//!
//! Every operation addresses a row by its key, the same on every replica of
//! the partition: nothing maps keys to places. A key past `u32::MAX − 1`
//! panics.

use crate::row::{Bytes, Row};
use lion_common::{Key, TxnId};

/// Result of an OCC step against one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The step succeeded; for reads, carries the observed version (0 for a
    /// missing row).
    Ok { version: u64 },
    /// The row is prepare-locked by another transaction.
    Locked { holder: TxnId },
    /// A read-set version no longer matches (write committed in between).
    VersionMismatch { expected: u64, found: u64 },
}

impl OpOutcome {
    /// True for `Ok`.
    pub fn is_ok(&self) -> bool {
        matches!(self, OpOutcome::Ok { .. })
    }
}

/// Key→row map for one partition replica.
///
/// # Dense rows and the arena
///
/// A freshly populated partition holds the contiguous key range `0..keys`
/// (YCSB's rows, and TPC-C's loaded relations), so those rows live in a
/// directly indexed vector: every OCC step on them is an array access. A key
/// at or past the dense range (an inserted row) lives in the arena at
/// position `key − dense.len()`. The arena is a directory of
/// [`Table::CHUNK`]-row chunks, position `s` at `s / CHUNK`, `s % CHUNK`,
/// and a chunk is allocated when a write first touches it, so the keys a
/// partition never uses cost one directory entry per chunk and an insert
/// never copies the rows before it. The split is invisible through the API
/// — `(key, row)` behavior is identical on both paths — and the two never
/// overlap: a key belongs to the dense vector iff `key < dense.len()`.
///
/// # Prepare-locks
///
/// A locked row has its lock bit set, and its holder is the one entry for
/// its key in the lock list. Locks are held only between a prepare and its
/// decision, so the list is short, and an unlocked row never reads it.
///
/// A clone of a `Table` is another replica of the same partition (so is
/// [`Table::replica`]): it keeps its own rows, `len`, `bytes` and locks, at
/// the same keys.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Direct-indexed rows for the contiguous populated range; `None` means
    /// the row is absent.
    dense: Vec<Option<Row>>,
    /// This replica's rows past the dense range, in chunks of
    /// [`Table::CHUNK`]; `None` where no write touched the chunk, or, inside
    /// one, where it holds no row for the key (never applied, or an aborted
    /// insert).
    arena: Vec<Option<Box<Chunk>>>,
    /// Number of `Some` slots in `dense` and `arena`.
    rows: usize,
    /// Payload bytes currently stored (maintained incrementally).
    bytes: u64,
    /// The holder of every locked row, one entry per row whose lock bit is
    /// set, in no order.
    locks: Vec<(Key, TxnId)>,
}

/// [`Table::CHUNK`] consecutive slots of the arena.
type Chunk = [Option<Row>; Table::CHUNK];

impl Table {
    /// Slots per chunk of the arena.
    pub const CHUNK: usize = 1_024;

    /// The largest key a table holds. The bound is safety code: a stray key
    /// past it would grow the arena directory without bound.
    const KEY_LIMIT: Key = u32::MAX as Key - 1;

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

    /// Keys `0..dense_len()` are the populated range, held as a directly
    /// indexed vector. Equal on every replica of a partition.
    pub fn dense_len(&self) -> usize {
        self.dense.len()
    }

    /// A new replica of this partition copied from this one (replica add):
    /// the same rows, `len` and `bytes`, with every prepare-lock cleared, so
    /// an in-flight insert's placeholder arrives as an unlocked version-0
    /// row.
    pub fn replica(&self) -> Table {
        let mut copy = Table {
            dense: self.dense.clone(),
            arena: self.arena.clone(),
            rows: self.rows,
            bytes: self.bytes,
            locks: Vec::new(),
        };
        for &(key, _) in &self.locks {
            // A locked row is present, so this materialises nothing.
            copy.row_or_placeholder(key).set_locked(false);
        }
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
        r.set(0, r.value());
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

    /// The slot index of `key`, checked against the key limit.
    #[inline]
    fn index(key: Key) -> usize {
        if key > Self::KEY_LIMIT {
            Self::past_limit(key);
        }
        key as usize
    }

    #[cold]
    #[inline(never)]
    fn past_limit(key: Key) -> ! {
        panic!("key {key} is past the key limit {}", Self::KEY_LIMIT)
    }

    /// Looks up a row.
    #[inline]
    pub fn get(&self, key: Key) -> Option<&Row> {
        let i = Self::index(key);
        match self.dense.get(i) {
            Some(row) => row.as_ref(),
            None => {
                let s = i - self.dense.len();
                self.arena.get(s / Self::CHUNK)?.as_deref()?[s % Self::CHUNK].as_ref()
            }
        }
    }

    /// Row at `key`, materialising an insert placeholder when absent (and
    /// allocating the arena chunk that holds it).
    #[inline]
    fn row_or_placeholder(&mut self, key: Key) -> &mut Row {
        let i = Self::index(key);
        let slot = match i.checked_sub(self.dense.len()) {
            None => &mut self.dense[i],
            Some(s) => {
                let c = s / Self::CHUNK;
                if !matches!(self.arena.get(c), Some(Some(_))) {
                    self.open_chunk(c);
                }
                let chunk = self.arena[c].as_deref_mut().expect("chunk c is open");
                &mut chunk[s % Self::CHUNK]
            }
        };
        if slot.is_none() {
            self.rows += 1;
        }
        slot.get_or_insert_with(Self::placeholder)
    }

    /// Allocates arena chunk `c`, extending the directory to reach it. Out
    /// of line and built on the heap: a 24 KB chunk array in
    /// `row_or_placeholder`'s frame would make every caller probe its stack.
    #[cold]
    #[inline(never)]
    fn open_chunk(&mut self, c: usize) {
        if self.arena.len() <= c {
            self.arena.resize_with(c + 1, || None);
        }
        let chunk = vec![None; Self::CHUNK].into_boxed_slice();
        self.arena[c] = Some(chunk.try_into().expect("a chunk is CHUNK slots"));
    }

    /// Transaction holding `key`'s prepare-lock, if any.
    pub fn lock_holder(&self, key: Key) -> Option<TxnId> {
        self.get(key)
            .filter(|row| row.is_locked())
            .map(|_| self.holder(key))
    }

    /// Every held prepare-lock as `(key, holder)`, in no order.
    pub fn held_locks(&self) -> impl Iterator<Item = (Key, TxnId)> + '_ {
        self.locks.iter().copied()
    }

    /// Position of locked `key`'s entry in the lock list.
    #[inline]
    fn lock_entry(&self, key: Key) -> usize {
        self.locks
            .iter()
            .position(|&(k, _)| k == key)
            .expect("a locked row has a lock-list entry")
    }

    /// Holder of locked `key`.
    #[inline]
    fn holder(&self, key: Key) -> TxnId {
        self.locks[self.lock_entry(key)].1
    }

    /// OCC read: returns the current version (0 for missing rows, which is
    /// how inserts validate: the version must still be 0 at commit). A row
    /// prepare-locked by another transaction cannot be read consistently.
    #[inline]
    pub fn occ_read(&self, key: Key, txn: TxnId) -> OpOutcome {
        match self.get(key) {
            None => OpOutcome::Ok { version: 0 },
            Some(row) => {
                if row.is_locked() {
                    let holder = self.holder(key);
                    if holder != txn {
                        return OpOutcome::Locked { holder };
                    }
                }
                OpOutcome::Ok {
                    version: row.version(),
                }
            }
        }
    }

    /// OCC prepare-lock for a write. Missing rows (inserts) are locked by
    /// materialising an empty version-0 row.
    #[inline]
    pub fn occ_lock(&mut self, key: Key, txn: TxnId) -> OpOutcome {
        let row = self.row_or_placeholder(key);
        let version = row.version();
        if row.is_locked() {
            return match self.holder(key) {
                holder if holder == txn => OpOutcome::Ok { version },
                holder => OpOutcome::Locked { holder },
            };
        }
        row.set_locked(true);
        self.locks.push((key, txn));
        OpOutcome::Ok { version }
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
                if row.is_locked() {
                    let holder = self.holder(key);
                    if holder != txn {
                        return OpOutcome::Locked { holder };
                    }
                }
                let version = row.version();
                if version != observed {
                    OpOutcome::VersionMismatch {
                        expected: observed,
                        found: version,
                    }
                } else {
                    OpOutcome::Ok { version }
                }
            }
        }
    }

    /// Installs a write: stores the new payload, bumps the version, releases
    /// the lock. Returns the new version.
    #[inline]
    pub fn occ_install(&mut self, key: Key, txn: TxnId, value: Bytes) -> u64 {
        let add = value.len() as u64;
        let row = self.row_or_placeholder(key);
        let old = row.value().len() as u64;
        let version = row.version() + 1;
        row.set(version, value);
        let locked = row.is_locked();
        row.set_locked(false);
        self.bytes = self.bytes - old + add;
        if locked {
            let at = self.lock_entry(key);
            debug_assert_eq!(self.locks[at].1, txn, "installing over a foreign lock");
            self.locks.swap_remove(at);
        }
        version
    }

    /// Releases a prepare-lock without installing (abort path). A placeholder
    /// created for an insert is emptied again.
    #[inline]
    pub fn occ_unlock(&mut self, key: Key, txn: TxnId) {
        let i = Self::index(key);
        let slot = match i.checked_sub(self.dense.len()) {
            None => &mut self.dense[i],
            Some(s) => match self.arena.get_mut(s / Self::CHUNK) {
                Some(Some(chunk)) => &mut chunk[s % Self::CHUNK],
                _ => return,
            },
        };
        let Some(row) = slot.as_mut().filter(|r| r.is_locked()) else {
            return;
        };
        let Some(at) = self.locks.iter().position(|&e| e == (key, txn)) else {
            return; // another transaction's lock
        };
        self.locks.swap_remove(at);
        row.set_locked(false);
        if row.version() == 0 {
            self.bytes -= row.value().len() as u64;
            *slot = None; // insert placeholder never became visible
            self.rows -= 1;
        }
    }

    /// Applies a replicated write (no locking: replication is ordered).
    #[inline]
    pub fn apply_replicated(&mut self, key: Key, version: u64, value: Bytes) {
        let add = value.len() as u64;
        let row = self.row_or_placeholder(key);
        // Idempotent, ordered apply: never regress.
        if version >= row.version() {
            let old = row.value().len() as u64;
            row.set(version, value);
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
        assert_eq!(t.lock_holder(1), None);
        assert_eq!(t.held_locks().count(), 0);
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
        t.apply_replicated(6, 1, Bytes::synth(0x0101, 2));
        assert!(t.occ_lock(6, T1).is_ok());
        t.occ_unlock(6, T1);
        assert_eq!(t.get(6).unwrap().version(), 1);
    }

    /// A key past every dense range in these tests: TPC-C's first inserted
    /// row.
    const INS: Key = 1 << 20;

    /// The lock list, key-ordered.
    fn locks(t: &Table) -> Vec<(Key, TxnId)> {
        let mut held: Vec<_> = t.held_locks().collect();
        held.sort();
        held
    }

    #[test]
    fn a_lock_is_a_bit_and_one_list_entry_per_row() {
        let mut t = Table::populated(4, 8);
        // Any engine id holds a lock: slot 0 at generation 0 and the
        // highest generation of the highest slot.
        let [lo, hi] = [TxnId(0), TxnId::compose(u32::MAX, u32::MAX)];
        assert!(t.occ_lock(1, lo).is_ok());
        assert!(t.occ_lock(INS, hi).is_ok());
        assert!(t.occ_lock(1, lo).is_ok(), "re-entrant");
        assert_eq!(locks(&t), [(1, lo), (INS, hi)], "one entry per row");
        assert_eq!((t.lock_holder(1), t.lock_holder(INS)), (Some(lo), Some(hi)));
        assert_eq!((t.lock_holder(0), t.lock_holder(INS + 1)), (None, None));
        assert_eq!(t.occ_lock(INS, T1), OpOutcome::Locked { holder: hi });
        assert_eq!(
            t.occ_validate_read(1, 1, T1),
            OpOutcome::Locked { holder: lo }
        );
        // A foreign unlock releases nothing; the holder's does.
        t.occ_unlock(1, T1);
        assert_eq!(t.lock_holder(1), Some(lo));
        t.occ_unlock(1, lo);
        assert_eq!(locks(&t), [(INS, hi)]);
        assert_eq!(t.get(1).unwrap().value(), Table::synth_value(1, 1, 8));
        // An install releases its own entry and keeps the others.
        assert!(t.occ_lock(2, T2).is_ok());
        assert_eq!(t.occ_install(INS, hi, Bytes::synth(3, 8)), 1);
        assert_eq!(locks(&t), [(2, T2)]);
        assert_eq!(t.occ_read(INS, T1), OpOutcome::Ok { version: 1 });
    }

    #[test]
    fn a_replica_copy_clears_locks_and_keeps_in_flight_placeholders() {
        // An existing dense row survives an aborted lock untouched.
        let mut t = Table::populated(4, 8);
        assert!(t.occ_lock(2, T1).is_ok());
        t.occ_unlock(2, T1);
        assert_eq!(t.len(), 4, "existing dense row survives an aborted lock");
        assert_eq!(t.get(2).unwrap().version(), 1);
        // A copy taken while a write and an insert are prepare-locked
        // carries both rows unlocked; the insert as a version-0 row.
        assert!(t.occ_lock(2, T1).is_ok());
        assert!(t.occ_lock(INS, T1).is_ok());
        let mut copy = t.replica();
        assert_eq!((copy.len(), copy.bytes()), (5, 32));
        assert_eq!(copy.lock_holder(2), None);
        assert_eq!(copy.get(INS).unwrap().version(), 0);
        assert_eq!(copy.lock_holder(INS), None);
        assert_eq!(copy.held_locks().count(), 0);
        // The primary's abort empties its own row only.
        t.occ_unlock(INS, T1);
        assert!(t.get(INS).is_none());
        assert_eq!(t.len(), 4);
        copy.occ_unlock(INS, T1); // T1 holds nothing on the copy
        assert_eq!((copy.len(), copy.get(INS).unwrap().version()), (5, 0));
        assert!(copy.occ_lock(INS, T2).is_ok(), "v0 row is lockable");
        assert_eq!(copy.occ_install(INS, T2, Bytes::synth(0x0101, 8)), 1);
    }

    #[test]
    fn an_aborted_insert_empties_its_row_for_the_retry() {
        let mut t = Table::new();
        let [a, b, c] = [0, 1, 2].map(|i| INS + i);
        t.apply_replicated(a, 1, Bytes::synth(0x0101, 2));
        assert!(t.occ_lock(b, T1).is_ok());
        t.occ_unlock(b, T1);
        assert!(t.get(b).is_none());
        assert_eq!(t.len(), 1);
        // the retry re-inserts the same row
        assert!(t.occ_lock(b, T2).is_ok());
        assert_eq!(t.lock_holder(b), Some(T2));
        assert_eq!(t.occ_install(b, T2, Bytes::synth(0x0202, 2)), 1);
        assert!(t.occ_lock(c, T1).is_ok());
        assert_eq!(t.occ_install(c, T1, Bytes::synth(0x0303, 2)), 1);
        assert_eq!(t.get(a).unwrap().value(), Bytes::synth(0x0101, 2));
        assert_eq!((t.len(), t.bytes()), (3, 6));
    }

    /// The arena's directory: `Some` where a chunk is allocated.
    fn chunks(t: &Table) -> Vec<bool> {
        t.arena.iter().map(Option::is_some).collect()
    }

    #[test]
    fn the_arena_allocates_a_chunk_when_a_write_first_touches_it() {
        let mut t = Table::populated(2, 8);
        let chunk = Table::CHUNK as u64;
        // keys just past the dense range fill the first chunk
        for k in 2..2 + chunk {
            t.apply_replicated(k, 1, Bytes::synth(k, 8));
        }
        assert_eq!(chunks(&t), [true], "{chunk} keys fill one chunk");
        // a key three chunks further opens its own chunk, leaving holes
        let far = 2 + 3 * chunk;
        assert!(t.occ_lock(far, T1).is_ok());
        assert!(t.occ_lock(2, T1).is_ok());
        assert_eq!(chunks(&t), [true, false, false, true]);
        let copy = t.replica();
        assert_eq!((copy.len(), copy.bytes()), (t.len(), t.bytes()));
        assert_eq!(chunks(&copy), chunks(&t), "the copy keeps the holes");
        assert_eq!(copy.lock_holder(2), None);
        assert_eq!(copy.get(far).unwrap().version(), 0);
        // the primary's abort empties the row past the holes
        t.occ_unlock(far, T1);
        assert!(t.get(far).is_none());
        assert_eq!(
            t.get(chunk + 1).unwrap().value(),
            Bytes::synth(chunk + 1, 8)
        );
        assert_eq!(t.len(), 2 + Table::CHUNK);
    }

    #[test]
    fn a_read_in_a_hole_sees_version_zero_and_an_unlock_there_is_a_no_op() {
        let mut t = Table::populated(4, 8);
        t.apply_replicated(INS, 1, Bytes::synth(1, 8));
        let chunk = Table::CHUNK as u64;
        // one key in a hole of the directory, one past its end
        for key in [4 + chunk, INS + 5 * chunk] {
            assert_eq!(t.occ_read(key, T1), OpOutcome::Ok { version: 0 });
            assert_eq!(
                t.occ_validate_read(key, 0, T1),
                OpOutcome::Ok { version: 0 }
            );
            assert!(t.get(key).is_none());
            let before = chunks(&t);
            t.occ_unlock(key, T1);
            assert_eq!(chunks(&t), before, "an unlock allocates nothing");
            assert_eq!((t.len(), t.bytes()), (5, 40));
        }
    }

    #[test]
    fn a_replica_copy_of_a_table_with_holes_has_the_same_rows() {
        let mut t = Table::populated(4, 8);
        let keys = [INS, INS + 1, INS + 7 * Table::CHUNK as u64];
        for (i, &key) in keys.iter().enumerate() {
            assert!(t.occ_lock(key, T1).is_ok());
            t.occ_install(key, T1, Bytes::synth(i as u64, 8));
        }
        assert!(t.occ_lock(INS + 2, T2).is_ok()); // an insert in flight
        let copy = t.replica();
        assert_eq!(chunks(&copy), chunks(&t));
        assert_eq!(chunks(&t).iter().filter(|&&c| c).count(), 2);
        for key in (0..4).chain(keys) {
            assert_eq!(copy.get(key), t.get(key), "key {key}");
        }
        assert_eq!(copy.get(INS + 2).unwrap().version(), 0);
        assert_eq!(copy.lock_holder(INS + 2), None);
        assert!(copy.get(INS + Table::CHUNK as u64).is_none(), "a hole");
        assert_eq!((copy.len(), copy.bytes()), (8, 56));
    }

    #[test]
    #[should_panic(expected = "past the key limit 4294967294")]
    fn a_key_past_the_key_limit_panics() {
        assert_eq!(
            Table::new().occ_read(Table::KEY_LIMIT, T1),
            OpOutcome::Ok { version: 0 }
        );
        Table::new().occ_lock(Table::KEY_LIMIT + 1, T1);
    }

    /// Every key-addressed call panics one past the key limit, before it
    /// allocates anything, naming the limit; a read at the limit sees
    /// version 0.
    #[test]
    fn every_key_addressed_call_panics_past_the_key_limit() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let at = Table::KEY_LIMIT;
        let t = Table::populated(2, 8);
        assert_eq!(t.occ_read(at, T1), OpOutcome::Ok { version: 0 });
        assert_eq!(t.occ_validate_read(at, 0, T1), OpOutcome::Ok { version: 0 });
        assert!(t.get(at).is_none());
        const PAST: Key = Table::KEY_LIMIT + 1;
        type Call = fn(&mut Table);
        let calls: [(&str, Call); 8] = [
            ("get", |t| {
                t.get(PAST);
            }),
            ("occ_read", |t| {
                t.occ_read(PAST, T1);
            }),
            ("occ_validate_read", |t| {
                t.occ_validate_read(PAST, 0, T1);
            }),
            ("occ_lock", |t| {
                t.occ_lock(PAST, T1);
            }),
            ("occ_install", |t| {
                t.occ_install(PAST, T1, Bytes::synth(1, 8));
            }),
            ("occ_unlock", |t| t.occ_unlock(PAST, T1)),
            ("apply_replicated", |t| {
                t.apply_replicated(PAST, 1, Bytes::synth(1, 8))
            }),
            ("lock_holder", |t| {
                t.lock_holder(PAST);
            }),
        ];
        for (name, call) in calls {
            let mut copy = t.clone();
            let err = catch_unwind(AssertUnwindSafe(|| call(&mut copy)))
                .expect_err(name)
                .downcast::<String>()
                .expect("a formatted panic message");
            assert!(
                err.ends_with("past the key limit 4294967294"),
                "{name}: {err}"
            );
            assert_eq!(
                (copy.len(), copy.bytes(), chunks(&copy)),
                (2, 16, vec![]),
                "{name} changed the table"
            );
        }
    }

    #[test]
    fn replicas_keep_their_own_rows_at_the_same_keys() {
        let mut primary = Table::populated(4, 8);
        let mut secondary = Table::populated(4, 8);
        let [a, b] = [INS, INS + 1];
        for key in [a, b] {
            assert!(primary.occ_lock(key, T1).is_ok());
            primary.occ_install(key, T1, Bytes::synth(key, 8));
        }
        // the secondary applies `b` first
        secondary.apply_replicated(b, 1, Bytes::synth(b, 8));
        assert!(secondary.get(a).is_none());
        assert_eq!(secondary.get(b), primary.get(b));
        assert_eq!((secondary.len(), secondary.bytes()), (5, 40));
        assert_eq!((primary.len(), primary.bytes()), (6, 48));
        // a copy shares nothing
        let copy = secondary.replica();
        assert_eq!(copy.dense_len(), primary.dense_len());
        assert!(copy.get(a).is_none());
        assert_eq!(copy.get(b), primary.get(b));
    }

    /// A version narrows to 32 bits without wrapping: the install past the
    /// limit panics naming it, and so does a replicated apply past it.
    #[test]
    fn a_version_past_the_version_limit_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let limit = u32::MAX as u64 - 1;
        let mut t = Table::new();
        t.apply_replicated(1, limit, Bytes::synth(1, 8));
        assert_eq!(t.occ_read(1, T1), OpOutcome::Ok { version: limit });
        type Call = fn(&mut Table);
        let calls: [(&str, Call); 2] = [
            ("occ_install", |t| {
                t.occ_install(1, T1, Bytes::synth(2, 8));
            }),
            ("apply_replicated", |t| {
                t.apply_replicated(1, u32::MAX as u64, Bytes::synth(2, 8))
            }),
        ];
        for (name, call) in calls {
            let err = catch_unwind(AssertUnwindSafe(|| call(&mut t)))
                .expect_err(name)
                .downcast::<String>()
                .expect("a formatted panic message");
            assert!(
                err.ends_with("past the version limit 4294967294"),
                "{name}: {err}"
            );
        }
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
        assert_eq!(t.get(1).unwrap().version(), 3);
        assert_eq!(t.get(1).unwrap().value().to_vec(), [3u8; 4]);
        t.apply_replicated(1, 3, Bytes::synth(0x0303_0303, 4)); // duplicate: fine
        assert_eq!(t.get(1).unwrap().version(), 3);
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
            assert_eq!(copy.get(k).unwrap().version(), t.get(k).unwrap().version());
            assert_eq!(copy.get(k).unwrap().value(), t.get(k).unwrap().value());
        }
    }

    #[test]
    fn arena_keys_coexist_with_dense_rows() {
        let mut t = Table::populated(8, 8);
        t.apply_replicated(INS + 7, 1, Bytes::synth(0x0505_0505_0505_0505, 8));
        assert_eq!(t.len(), 9);
        assert!(t.occ_lock(INS + 7, T1).is_ok());
        t.occ_install(INS + 7, T1, Bytes::synth(0x0606_0606_0606_0606, 8));
        assert_eq!(t.get(INS + 7).unwrap().version(), 2);
        assert_eq!(t.get(7).unwrap().version(), 1);
        let copy = t.replica();
        assert_eq!(copy.len(), 9);
        assert_eq!(copy.get(INS + 7).unwrap().version(), 2);
        // aborting an arena insert placeholder removes it again
        assert!(t.occ_lock(INS + 1, T2).is_ok());
        t.occ_unlock(INS + 1, T2);
        assert!(t.get(INS + 1).is_none());
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn bytes_tracking_follows_updates() {
        let mut t = Table::new();
        t.apply_replicated(1, 1, Bytes::synth(0, 10));
        assert_eq!(t.bytes(), 10);
        t.apply_replicated(1, 2, Bytes::synth(0, 4));
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
        // Byte i is the low byte of `stamp >> ((i % 8) * 8)` with
        // stamp = 3 · 0x9E37_79B9_7F4A_7C15 + 2 (mod 2^64).
        let want = [
            0x41, 0x74, 0xDF, 0x7D, 0x2C, 0x6D, 0xA6, 0xDA, 0x41, 0x74, 0xDF, 0x7D, 0x2C, 0x6D,
            0xA6, 0xDA, 0x41, 0x74, 0xDF, 0x7D,
        ];
        assert_eq!(Table::synth_value(3, 2, 20).to_vec(), want);
    }
}
