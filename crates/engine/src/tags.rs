//! Continuation-tag packing shared by the protocol state machines.
//!
//! A wake tag carries `(kind, attempt, index)`. The attempt byte guards
//! against stale wakes: when a transaction aborts and retries, wakes from
//! the aborted attempt still drain from the event queue and must be ignored.

/// Packs a continuation tag.
#[inline]
pub fn tag(kind: u8, attempt: u32, idx: u16) -> u32 {
    ((kind as u32) << 24) | ((attempt & 0xFF) << 16) | idx as u32
}

/// Unpacks `(kind, attempt_byte, idx)`.
#[inline]
pub fn untag(t: u32) -> (u8, u32, u16) {
    ((t >> 24) as u8, (t >> 16) & 0xFF, (t & 0xFFFF) as u16)
}

/// True when the tag's attempt byte matches the context's current attempt.
#[inline]
pub fn fresh(tag_attempt: u32, ctx_attempts: u32) -> bool {
    tag_attempt == (ctx_attempts & 0xFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for (k, a, i) in [(1u8, 1u32, 0u16), (7, 255, 65535), (3, 256, 42)] {
            let t = tag(k, a, i);
            let (k2, a2, i2) = untag(t);
            assert_eq!(k2, k);
            assert_eq!(a2, a & 0xFF);
            assert_eq!(i2, i);
        }
    }

    #[test]
    fn staleness_detection() {
        let t = tag(1, 1, 0);
        let (_, a, _) = untag(t);
        assert!(fresh(a, 1));
        assert!(!fresh(a, 2), "wake from attempt 1 is stale in attempt 2");
        // attempt counter wraps at 256: accept the collision (1-in-256 on
        // long retry chains, harmless: the state machine re-validates).
        assert!(fresh(a, 257));
    }
}
