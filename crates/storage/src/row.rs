//! Versioned rows: 16 bytes each, and 16 as `Option<Row>` too; a
//! prepare-lock is one bit of the row.

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

/// One stored row: payload bytes plus the OCC metadata, 16 bytes.
///
/// The version increases monotonically with every installed write. While a
/// transaction holds the row's prepare-lock (between 2PC prepare-validation
/// and commit/abort), the top bit of the length is set, and the holder is
/// listed by the row's [`Table`](crate::Table). The lock blocks conflicting
/// validations exactly as the paper's OCC baseline (§VI-A.2) does. The bit
/// limits a length to 31 bits. The version is stored plus one in 32 bits:
/// its zero is the niche that makes `Option<Row>` no larger than `Row`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The payload's stamp (see [`Bytes`]).
    stamp: u64,
    /// The payload's length in bytes, with [`Row::LOCKED`] set while a
    /// transaction holds the prepare-lock.
    len: u32,
    /// Monotonic row version plus one, bumped on every install.
    version: NonZeroU32,
}

impl Row {
    /// The length bit that marks a prepare-locked row.
    const LOCKED: u32 = 1 << 31;

    /// Creates a fresh, unlocked row at version 1.
    pub fn new(value: Bytes) -> Self {
        let mut row = Row {
            stamp: 0,
            len: 0,
            version: NonZeroU32::MIN,
        };
        row.set(1, value);
        row
    }

    /// Monotonic row version.
    pub fn version(&self) -> u64 {
        u64::from(self.version.get() - 1)
    }

    /// Row payload.
    pub fn value(&self) -> Bytes {
        Bytes {
            stamp: self.stamp,
            len: self.len & !Self::LOCKED,
        }
    }

    /// Stores `value` at `version`, keeping the lock bit: the one place a
    /// version and a length narrow. Past `u32::MAX − 1` a version panics
    /// rather than wrap, and so does a length past `2³¹ − 1` rather than
    /// reach the lock bit.
    pub(crate) fn set(&mut self, version: u64, value: Bytes) {
        let stored = u32::try_from(version)
            .ok()
            .and_then(|v| NonZeroU32::MIN.checked_add(v))
            .expect("a row's version is past the version limit 4294967294");
        let len = Some(value.len)
            .filter(|len| len & Self::LOCKED == 0)
            .expect("a row's payload is past the length limit 2147483647");
        self.version = stored;
        self.stamp = value.stamp;
        self.len = len | (self.len & Self::LOCKED);
    }

    /// True while a transaction holds the prepare-lock.
    #[inline]
    pub(crate) fn is_locked(&self) -> bool {
        self.len & Self::LOCKED != 0
    }

    /// Sets or clears the lock bit.
    #[inline]
    pub(crate) fn set_locked(&mut self, locked: bool) {
        self.len = self.len & !Self::LOCKED | if locked { Self::LOCKED } else { 0 };
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Row")
            .field("version", &self.version())
            .field("locked", &self.is_locked())
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
        assert!(!r.is_locked());
        assert_eq!(r.value().to_vec(), [1, 2, 3]);
    }

    #[test]
    fn the_lock_bit_hides_from_the_payload_and_survives_a_set() {
        let mut r = Row::new(Bytes::synth(0x0102, 4));
        r.set_locked(true);
        assert!(r.is_locked());
        assert_eq!(r.value(), Bytes::synth(0x0102, 4));
        r.set(7, Bytes::synth(0x0304, 9));
        assert!(r.is_locked(), "an ordered apply keeps the bit");
        assert_eq!((r.version(), r.value()), (7, Bytes::synth(0x0304, 9)));
        r.set_locked(false);
        assert!(!r.is_locked());
        assert_eq!(r.value(), Bytes::synth(0x0304, 9));
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
    fn a_row_is_sixteen_bytes_present_or_absent() {
        assert_eq!(std::mem::size_of::<Row>(), 16);
        assert_eq!(std::mem::size_of::<Option<Row>>(), 16);
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

    /// A length narrows to 31 bits without reaching the lock bit: the
    /// limit itself is stored, one past it panics naming it, through
    /// `new` and `set` alike.
    #[test]
    fn a_payload_past_the_length_limit_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let limit = Row::LOCKED - 1;
        let mut r = Row::new(Bytes::synth(1, limit));
        assert_eq!((r.value().len(), r.is_locked()), (2_147_483_647, false));
        type Call = fn(&mut Row);
        let calls: [(&str, Call); 2] = [
            ("new", |r| *r = Row::new(Bytes::synth(2, Row::LOCKED))),
            ("set", |r| r.set(2, Bytes::synth(2, u32::MAX))),
        ];
        for (name, call) in calls {
            let err = catch_unwind(AssertUnwindSafe(|| call(&mut r)))
                .expect_err(name)
                .downcast::<String>()
                .expect("a formatted panic message");
            assert!(
                err.ends_with("past the length limit 2147483647"),
                "{name}: {err}"
            );
        }
        let kept = (r.version(), r.value());
        assert_eq!(
            kept,
            (1, Bytes::synth(1, limit)),
            "a refused set stores nothing"
        );
    }
}
