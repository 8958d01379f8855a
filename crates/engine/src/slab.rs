//! Generation-tagged slab arena for in-flight transaction contexts.
//!
//! Every protocol step resolves its [`TxnId`] to a [`TxnCtx`]; with a hash
//! map that is a hash + probe on the hottest path in the engine. The slab
//! replaces it with a plain vector index: the id's low 32 bits address a
//! slot, its high 32 bits carry the slot's *generation*. Completing a
//! transaction retires the generation and recycles the slot through a LIFO
//! free list, so the arena stays as small as the peak in-flight population
//! instead of growing with the total transaction count.
//!
//! Generations are what make recycling safe under fault injection: a crash
//! aborts transactions whose wake-ups and adaptor completions are still in
//! the future-event list. When such a stale event finally pops, its id's
//! generation no longer matches the slot and the lookup misses — exactly
//! like the old map's `contains_key` on a removed key — instead of touching
//! whatever newer transaction now occupies the slot.
//!
//! A wake carries no id, only its slot and the slot's *attempt serial*,
//! which [`TxnSlab::next_attempt`] and [`TxnSlab::remove`] bump: a wake is
//! current iff its serial still matches, and the slot then names the
//! transaction. A committed context's buffers come back through
//! [`TxnSlab::recycle`], and the next insert builds its context in them.
//!
//! All bookkeeping is index arithmetic over `Vec`s: allocation order, and
//! therefore every minted id, is a pure function of the simulation history.

use crate::txn::{TxnBufs, TxnCtx};
use lion_common::TxnId;

/// Slab arena mapping [`TxnId`]s to live [`TxnCtx`]s. See the module docs.
#[derive(Debug, Default)]
pub struct TxnSlab {
    slots: Vec<Option<TxnCtx>>,
    /// Current generation per slot; an id is live iff its generation
    /// matches and the slot is occupied.
    gens: Vec<u32>,
    /// Current attempt serial per slot; a wake stamped with another serial
    /// is stale.
    serials: Vec<u32>,
    /// Recycled slots, reused LIFO (deterministic and cache-friendly).
    free: Vec<u32>,
    /// Cleared buffers of committed contexts, reused LIFO by inserts.
    spare: Vec<TxnBufs>,
    live: usize,
}

impl TxnSlab {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TxnSlab::default()
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no transaction is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Allocates a slot, mints its id, and stores the context `make` builds
    /// from that id in a recycled context's buffers, if any.
    pub fn insert_with(&mut self, make: impl FnOnce(TxnId, TxnBufs) -> TxnCtx) -> TxnId {
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.serials.push(0);
                self.slots.len() - 1
            }
        };
        let id = TxnId::compose(slot as u32, self.gens[slot]);
        debug_assert!(self.slots[slot].is_none(), "allocated an occupied slot");
        let bufs = self.spare.pop().unwrap_or_default();
        self.slots[slot] = Some(make(id, bufs));
        self.live += 1;
        id
    }

    /// The context for `id`, if that exact generation is still live.
    #[inline]
    pub fn get(&self, id: TxnId) -> Option<&TxnCtx> {
        let slot = id.slot();
        if *self.gens.get(slot)? != id.generation() {
            return None;
        }
        self.slots[slot].as_ref()
    }

    /// Mutable context for `id`, if that exact generation is still live.
    #[inline]
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut TxnCtx> {
        let slot = id.slot();
        if *self.gens.get(slot)? != id.generation() {
            return None;
        }
        self.slots[slot].as_mut()
    }

    /// True when `id` is live.
    #[inline]
    pub fn contains(&self, id: TxnId) -> bool {
        self.get(id).is_some()
    }

    /// `(slot, serial)` of `id`'s current attempt: the stamp of a wake
    /// meant for that attempt alone. `None` when `id` is dead.
    #[inline]
    pub fn stamp(&self, id: TxnId) -> Option<(u32, u32)> {
        self.get(id)?;
        Some((id.slot() as u32, self.serials[id.slot()]))
    }

    /// The transaction a wake stamped `(slot, serial)` is for, while the
    /// attempt that stamped it is still current.
    #[inline]
    pub fn wake_target(&self, slot: u32, serial: u32) -> Option<TxnId> {
        let s = slot as usize;
        if self.serials[s] != serial || self.slots[s].is_none() {
            return None;
        }
        Some(TxnId::compose(slot, self.gens[s]))
    }

    /// Ends `id`'s current attempt: its wakes go stale and its context is
    /// reset for the next one (see [`TxnCtx::reset_for_retry`]).
    pub fn next_attempt(&mut self, id: TxnId) -> &mut TxnCtx {
        let slot = id.slot();
        self.serials[slot] = self.serials[slot].wrapping_add(1);
        let ctx = self.get_mut(id).expect("live transaction");
        ctx.reset_for_retry();
        ctx
    }

    /// Removes `id`, retiring its generation and recycling the slot.
    /// Returns `None` for ids that are already dead (stale generation or
    /// double completion) — the caller decides whether that is a bug.
    pub fn remove(&mut self, id: TxnId) -> Option<TxnCtx> {
        let slot = id.slot();
        if *self.gens.get(slot)? != id.generation() {
            return None;
        }
        let ctx = self.slots[slot].take()?;
        // Bump eagerly so every outstanding copy of this id, and every wake
        // it stamped, is dead from this instant on; the next occupant mints
        // under the new generation and serial.
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.serials[slot] = self.serials[slot].wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        Some(ctx)
    }

    /// Keeps a removed context's buffers, cleared, for a later insert.
    pub fn recycle(&mut self, ctx: TxnCtx) {
        self.spare.push(ctx.into_buffers());
    }

    /// Iterates the live contexts in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &TxnCtx> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::{ClientId, Op, PartitionId, TxnRequest};

    fn ctx(id: TxnId, bufs: TxnBufs) -> TxnCtx {
        TxnCtx::with_buffers(
            bufs,
            id,
            ClientId(0),
            TxnRequest::new(vec![Op::read(PartitionId(0), 1)]),
            0,
        )
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = TxnSlab::new();
        let a = slab.insert_with(ctx);
        let b = slab.insert_with(ctx);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a).unwrap().id, a);
        assert_eq!(slab.get_mut(b).unwrap().id, b);
        assert_eq!(slab.remove(a).unwrap().id, a);
        assert!(slab.get(a).is_none());
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slot_reuse_never_resurrects_a_completed_transaction() {
        let mut slab = TxnSlab::new();
        let first = slab.insert_with(ctx);
        slab.remove(first).expect("live");
        // The recycled slot is handed out under a new generation...
        let second = slab.insert_with(ctx);
        assert_eq!(second.slot(), first.slot(), "LIFO slot recycling");
        assert_ne!(second, first, "...so the stale id never aliases it");
        // ...and every operation through the stale id misses.
        assert!(!slab.contains(first));
        assert!(slab.get(first).is_none());
        assert!(slab.get_mut(first).is_none());
        assert!(slab.remove(first).is_none(), "stale remove is a no-op");
        assert!(slab.contains(second), "the new occupant is untouched");
    }

    #[test]
    fn allocation_is_deterministic() {
        // Same insert/remove script ⇒ same ids, independent of any global
        // state — the property the same-seed digest test leans on.
        let script = |slab: &mut TxnSlab| -> Vec<TxnId> {
            let a = slab.insert_with(ctx);
            let b = slab.insert_with(ctx);
            slab.remove(a);
            let c = slab.insert_with(ctx);
            let d = slab.insert_with(ctx);
            slab.remove(b);
            vec![a, b, c, d, slab.insert_with(ctx)]
        };
        let mut s1 = TxnSlab::new();
        let mut s2 = TxnSlab::new();
        assert_eq!(script(&mut s1), script(&mut s2));
    }

    #[test]
    fn a_wake_stamped_before_an_abort_is_stale() {
        let mut slab = TxnSlab::new();
        let id = slab.insert_with(ctx);
        let (slot, serial) = slab.stamp(id).expect("live");
        assert_eq!(slab.wake_target(slot, serial), Some(id));
        assert_eq!(slab.next_attempt(id).attempts, 2);
        assert_eq!(slab.wake_target(slot, serial), None, "stale wake");
        let (slot, fresh) = slab.stamp(id).expect("still live");
        assert_eq!(
            slab.wake_target(slot, fresh),
            Some(id),
            "new attempt's wake"
        );
    }

    #[test]
    fn a_previous_occupants_wake_never_reaches_the_next() {
        let mut slab = TxnSlab::new();
        let first = slab.insert_with(ctx);
        let (slot, serial) = slab.stamp(first).expect("live");
        slab.remove(first).expect("live");
        assert_eq!(slab.wake_target(slot, serial), None, "vacant slot");
        let second = slab.insert_with(ctx);
        assert_eq!(second.slot(), slot as usize, "LIFO slot recycling");
        assert_eq!(slab.wake_target(slot, serial), None, "new occupant");
        assert_eq!(slab.stamp(first), None, "a dead id stamps nothing");
        let (_, fresh) = slab.stamp(second).expect("live");
        assert_eq!(slab.wake_target(slot, fresh), Some(second));
    }

    #[test]
    fn recycle_returns_the_buffers_cleared() {
        let mut slab = TxnSlab::new();
        let first = slab.insert_with(|id, bufs| {
            let req = TxnRequest::new(
                (0..8)
                    .map(|k| Op::write(PartitionId(k % 3), k.into()))
                    .collect(),
            );
            TxnCtx::with_buffers(bufs, id, ClientId(0), req, 0)
        });
        slab.get_mut(first)
            .expect("live")
            .participants
            .push(lion_common::NodeId(1));
        let done = slab.remove(first).expect("live");
        let (parts, participants) = (done.parts.as_ptr(), done.participants.as_ptr());
        slab.recycle(done);
        let second = slab.insert_with(ctx);
        let ctx = slab.get_mut(second).expect("live");
        assert_eq!(ctx.parts, [PartitionId(0)], "rebuilt for the new request");
        assert_eq!(ctx.parts.as_ptr(), parts, "in the recycled buffer");
        assert!(ctx.participants.is_empty(), "cleared");
        assert!(ctx.participants.capacity() > 0);
        assert_eq!(ctx.participants.as_ptr(), participants);
        assert_eq!((ctx.n_groups(), ctx.group_reads_writes(0)), (1, (1, 0)));
        assert!(ctx.read_set.is_empty() && ctx.write_set.capacity() >= 8);
    }

    #[test]
    fn iter_walks_live_contexts_in_slot_order() {
        let mut slab = TxnSlab::new();
        let ids: Vec<TxnId> = (0..4).map(|_| slab.insert_with(ctx)).collect();
        slab.remove(ids[1]);
        let seen: Vec<TxnId> = slab.iter().map(|c| c.id).collect();
        assert_eq!(seen, vec![ids[0], ids[2], ids[3]]);
    }
}
