//! Versioned, lockable rows.

use lion_common::TxnId;

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

/// One stored row: payload bytes plus the OCC metadata word.
///
/// `version` increases monotonically with every installed write; `lock`
/// holds the transaction currently preparing a write to this row (between
/// 2PC prepare-validation and commit/abort), which blocks conflicting
/// validations exactly as the paper's OCC baseline (§VI-A.2) does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Monotonic row version, bumped on every install.
    pub version: u64,
    /// Transaction holding the prepare-lock, if any.
    pub lock: Option<TxnId>,
    /// Row payload.
    pub value: Bytes,
}

impl Row {
    /// Creates a fresh row at version 1.
    pub fn new(value: Bytes) -> Self {
        Row {
            version: 1,
            lock: None,
            value,
        }
    }

    /// True when `txn` may lock this row: the row is unlocked or `txn`
    /// already holds the lock (re-entrant within one transaction).
    pub fn lockable_by(&self, txn: TxnId) -> bool {
        self.lock.is_none() || self.lock == Some(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rows_start_unlocked_at_v1() {
        let r = Row::new(Bytes::synth(0x03_02_01, 3));
        assert_eq!(r.version, 1);
        assert!(r.lock.is_none());
        assert_eq!(r.value.to_vec(), [1, 2, 3]);
    }

    #[test]
    fn reentrant_lock_check() {
        let mut r = Row::new(Bytes::synth(0, 4));
        assert!(r.lockable_by(TxnId(1)));
        r.lock = Some(TxnId(1));
        assert!(r.lockable_by(TxnId(1)));
        assert!(!r.lockable_by(TxnId(2)));
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
}
