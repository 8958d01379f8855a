//! Continuation-tag packing shared by the protocol state machines.
//!
//! A wake tag carries `(kind, index)`. It needs no attempt number: the
//! engine delivers a wake only to the attempt that scheduled it.

/// Packs a continuation tag.
#[inline]
pub fn tag(kind: u8, idx: u16) -> u32 {
    ((kind as u32) << 24) | idx as u32
}

/// Unpacks `(kind, idx)`.
#[inline]
pub fn untag(t: u32) -> (u8, u16) {
    ((t >> 24) as u8, (t & 0xFFFF) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for (k, i) in [(1u8, 0u16), (7, 65535), (3, 42)] {
            assert_eq!(untag(tag(k, i)), (k, i));
        }
    }
}
