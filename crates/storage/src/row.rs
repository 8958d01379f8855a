//! Versioned, lockable rows: 32 bytes each, and 32 as `Option<Row>` too.

use lion_common::TxnId;
use std::fmt;

/// Immutable row payload: `len` bytes of an 8-byte stamp repeated
/// little-endian.
///
/// That is the only shape of value the engine stores
/// ([`Table::synth_value`](crate::Table::synth_value)), so the payload *is*
/// its stamp: a 16-byte `Copy` value. Installing, logging, shipping,
/// applying and snapshotting a write each copy 16 bytes and allocate
/// nothing. The stamp is masked to the bytes `len` covers, so the derived
/// `Eq` is byte equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bytes {
    stamp: u64,
    len: u32,
    /// Fills what would be padding. Its 255 invalid values are the niche
    /// that makes `Option<Row>` no larger than `Row`.
    niche: Niche,
}

/// A byte with a single valid value (see [`Bytes::niche`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Niche {
    Zero = 0,
}

impl Bytes {
    /// `len` bytes of `stamp` repeated little-endian.
    pub fn synth(stamp: u64, len: u32) -> Self {
        let seen = !u64::MAX.checked_shl(len.min(8) * 8).unwrap_or(0);
        Bytes {
            stamp: stamp & seen,
            len,
            niche: Niche::Zero,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload's bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        let stamp = self.stamp.to_le_bytes();
        (0..self.len()).map(|i| stamp[i % 8]).collect()
    }
}

/// Lock word of a row no transaction holds.
const FREE: u64 = u64::MAX;

/// One stored row: payload bytes plus the OCC metadata words.
///
/// `version` increases monotonically with every installed write; the lock
/// word holds the transaction currently preparing a write to this row
/// (between 2PC prepare-validation and commit/abort), which blocks
/// conflicting validations exactly as the paper's OCC baseline (§VI-A.2)
/// does. The word is the holder's raw id, or a free sentinel no engine id
/// reaches (slot and generation both `u32::MAX`), so it costs 8 bytes where
/// `Option<TxnId>` cost 16.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Monotonic row version, bumped on every install.
    pub version: u64,
    /// Raw id of the prepare-lock holder, or [`FREE`].
    lock: u64,
    /// Row payload.
    pub value: Bytes,
}

impl Row {
    /// Creates a fresh, unlocked row at version 1.
    pub fn new(value: Bytes) -> Self {
        Row {
            version: 1,
            lock: FREE,
            value,
        }
    }

    /// Transaction holding the prepare-lock, if any.
    #[inline]
    pub fn lock(&self) -> Option<TxnId> {
        (self.lock != FREE).then_some(TxnId(self.lock))
    }

    /// Hands the prepare-lock to `txn`.
    #[inline]
    pub(crate) fn lock_for(&mut self, txn: TxnId) {
        debug_assert_ne!(txn.0, FREE, "the free sentinel is not a holder");
        self.lock = txn.0;
    }

    /// Releases the prepare-lock.
    #[inline]
    pub(crate) fn unlock(&mut self) {
        self.lock = FREE;
    }

    /// True when `txn` may lock this row: the row is unlocked or `txn`
    /// already holds the lock (re-entrant within one transaction).
    #[inline]
    pub fn lockable_by(&self, txn: TxnId) -> bool {
        self.lock == FREE || self.lock == txn.0
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Row")
            .field("version", &self.version)
            .field("lock", &self.lock())
            .field("value", &self.value)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rows_start_unlocked_at_v1() {
        let r = Row::new(Bytes::synth(0x03_02_01, 3));
        assert_eq!(r.version, 1);
        assert!(r.lock().is_none());
        assert_eq!(r.value.to_vec(), [1, 2, 3]);
    }

    #[test]
    fn reentrant_lock_check() {
        let mut r = Row::new(Bytes::synth(0, 4));
        assert!(r.lockable_by(TxnId(1)));
        r.lock_for(TxnId(1));
        assert_eq!(r.lock(), Some(TxnId(1)));
        assert!(r.lockable_by(TxnId(1)));
        assert!(!r.lockable_by(TxnId(2)));
        r.unlock();
        assert!(r.lock().is_none());
        assert!(r.lockable_by(TxnId(2)));
    }

    #[test]
    fn the_lock_word_holds_any_engine_id() {
        // Slot 0 at generation 0 is `TxnId(0)`; the highest generation of
        // the highest slot but one is the largest id short of the sentinel.
        for id in [TxnId(0), TxnId::compose(u32::MAX - 1, u32::MAX)] {
            let mut r = Row::new(Bytes::synth(0, 1));
            r.lock_for(id);
            assert_eq!(r.lock(), Some(id));
            assert!(!r.lockable_by(TxnId(7)));
        }
    }

    #[test]
    fn equality_sees_only_the_bytes_len_covers() {
        let x = 0x00AB_CDEF;
        assert_eq!(Bytes::synth(x, 3), Bytes::synth(x | 0xFF00_0000, 3));
        assert_ne!(Bytes::synth(x, 4), Bytes::synth(x | 0xFF00_0000, 4));
        assert_eq!(Bytes::synth(u64::MAX, 0), Bytes::synth(0, 0));
        assert_eq!(Bytes::synth(u64::MAX, 9).to_vec(), [0xFF; 9]);
    }

    #[test]
    fn a_payload_is_sixteen_bytes_not_a_heap_handle() {
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
    }

    #[test]
    fn a_row_is_thirty_two_bytes_present_or_absent() {
        assert_eq!(std::mem::size_of::<Row>(), 32);
        assert_eq!(std::mem::size_of::<Option<Row>>(), 32);
    }
}
