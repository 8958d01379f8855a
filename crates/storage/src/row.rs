//! Versioned, lockable rows: 24 bytes each, and 24 as `Option<Row>` too.

use lion_common::TxnId;
use std::fmt;
use std::num::NonZeroU32;

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
}

impl Bytes {
    /// `len` bytes of `stamp` repeated little-endian.
    pub fn synth(stamp: u64, len: u32) -> Self {
        let seen = !u64::MAX.checked_shl(len.min(8) * 8).unwrap_or(0);
        Bytes {
            stamp: stamp & seen,
            len,
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
/// The version increases monotonically with every installed write; the lock
/// word holds the transaction currently preparing a write to this row
/// (between 2PC prepare-validation and commit/abort), which blocks
/// conflicting validations exactly as the paper's OCC baseline (§VI-A.2)
/// does. The word is the holder's raw id, or a free sentinel no engine id
/// reaches (slot and generation both `u32::MAX`), so it costs 8 bytes where
/// `Option<TxnId>` cost 16. The version is stored plus one in 32 bits: its
/// zero is the niche that makes `Option<Row>` no larger than `Row`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The payload's stamp (see [`Bytes`]).
    stamp: u64,
    /// Raw id of the prepare-lock holder, or [`FREE`].
    lock: u64,
    /// The payload's length in bytes.
    len: u32,
    /// Monotonic row version plus one, bumped on every install.
    version: NonZeroU32,
}

impl Row {
    /// Creates a fresh, unlocked row at version 1.
    pub fn new(value: Bytes) -> Self {
        Row {
            stamp: value.stamp,
            lock: FREE,
            len: value.len,
            version: NonZeroU32::MIN.saturating_add(1),
        }
    }

    /// Monotonic row version.
    pub fn version(&self) -> u64 {
        u64::from(self.version.get() - 1)
    }

    /// Row payload.
    pub fn value(&self) -> Bytes {
        Bytes {
            stamp: self.stamp,
            len: self.len,
        }
    }

    /// Stores `value` at `version`, the one place a version narrows: past
    /// `u32::MAX − 1` it panics rather than wrap.
    pub(crate) fn set(&mut self, version: u64, value: Bytes) {
        self.version = u32::try_from(version)
            .ok()
            .and_then(|v| NonZeroU32::MIN.checked_add(v))
            .expect("a row's version is past the version limit 4294967294");
        self.stamp = value.stamp;
        self.len = value.len;
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
            .field("version", &self.version())
            .field("lock", &self.lock())
            .field("value", &self.value())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rows_start_unlocked_at_v1() {
        let r = Row::new(Bytes::synth(0x03_02_01, 3));
        assert_eq!(r.version(), 1);
        assert!(r.lock().is_none());
        assert_eq!(r.value().to_vec(), [1, 2, 3]);
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
    fn a_row_is_twenty_four_bytes_present_or_absent() {
        assert_eq!(std::mem::size_of::<Row>(), 24);
        assert_eq!(std::mem::size_of::<Option<Row>>(), 24);
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
    }

    #[test]
    fn a_row_holds_every_version_up_to_the_limit_and_any_length() {
        let big = Bytes::synth(0xAB, 100_000);
        let mut r = Row::new(big);
        assert_eq!((r.value(), r.value().len()), (big, 100_000));
        for v in [0, 1, u64::from(u32::MAX >> 1), u64::from(u32::MAX - 1)] {
            r.set(v, big);
            assert_eq!((r.version(), r.value()), (v, big));
        }
    }
}
