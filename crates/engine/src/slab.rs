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
//! transaction. A slot keeps its context for the life of the arena:
//! [`TxnSlab::remove`] only marks it retired, and the next
//! [`TxnSlab::insert`] into that slot re-begins the same context in its own
//! buffers (`TxnCtx::begin`): a commit moves no context and frees no buffer.
//!
//! All bookkeeping is index arithmetic over `Vec`s: allocation order, and
//! therefore every minted id, is a pure function of the simulation history.

use crate::txn::TxnCtx;
use lion_common::{ClientId, Time, TxnId, TxnRequest};

/// Slab arena mapping [`TxnId`]s to live [`TxnCtx`]s. See the module docs.
#[derive(Debug, Default)]
pub struct TxnSlab {
    /// Every slot's context, live or retired.
    slots: Vec<TxnCtx>,
    /// Whether each slot holds a live transaction.
    occupied: Vec<bool>,
    /// Current generation per slot; an id is live iff its generation
    /// matches and the slot is occupied.
    gens: Vec<u32>,
    /// Current attempt serial per slot; a wake stamped with another serial
    /// is stale.
    serials: Vec<u32>,
    /// Recycled slots, reused LIFO (deterministic and cache-friendly).
    free: Vec<u32>,
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

    /// Allocates a slot, mints its id and begins the transaction's context
    /// there: a retired slot's context is re-begun in its own buffers.
    pub fn insert(&mut self, client: ClientId, req: TxnRequest, now: Time) -> TxnId {
        let id = match self.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                let id = TxnId::compose(slot, self.gens[s]);
                debug_assert!(!self.occupied[s], "allocated an occupied slot");
                self.slots[s].begin(id, client, req, now);
                self.occupied[s] = true;
                id
            }
            None => {
                let id = TxnId::compose(self.slots.len() as u32, 0);
                self.slots.push(TxnCtx::new(id, client, req, now));
                self.occupied.push(true);
                self.gens.push(0);
                self.serials.push(0);
                id
            }
        };
        self.live += 1;
        id
    }

    /// The context for `id`, if that exact generation is still live.
    #[inline]
    pub fn get(&self, id: TxnId) -> Option<&TxnCtx> {
        let slot = self.live_slot(id)?;
        Some(&self.slots[slot])
    }

    /// Mutable context for `id`, if that exact generation is still live.
    #[inline]
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut TxnCtx> {
        let slot = self.live_slot(id)?;
        Some(&mut self.slots[slot])
    }

    /// `id`'s slot, if that exact generation is still live.
    #[inline]
    fn live_slot(&self, id: TxnId) -> Option<usize> {
        let slot = id.slot();
        (*self.gens.get(slot)? == id.generation() && self.occupied[slot]).then_some(slot)
    }

    /// True when `id` is live.
    #[inline]
    pub fn contains(&self, id: TxnId) -> bool {
        self.live_slot(id).is_some()
    }

    /// `(slot, serial)` of `id`'s current attempt: the stamp of a wake
    /// meant for that attempt alone. `None` when `id` is dead.
    #[inline]
    pub fn stamp(&self, id: TxnId) -> Option<(u32, u32)> {
        let slot = self.live_slot(id)?;
        Some((slot as u32, self.serials[slot]))
    }

    /// The transaction a wake stamped `(slot, serial)` is for, while the
    /// attempt that stamped it is still current.
    #[inline]
    pub fn wake_target(&self, slot: u32, serial: u32) -> Option<TxnId> {
        let s = slot as usize;
        if self.serials[s] != serial || !self.occupied[s] {
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

    /// Retires `id`: its generation, and the slot's serial, move on and the
    /// slot goes on the free list with its context in place. Returns
    /// `false` for ids that are already dead (stale generation or double
    /// completion) — the caller decides whether that is a bug.
    pub fn remove(&mut self, id: TxnId) -> bool {
        let Some(slot) = self.live_slot(id) else {
            return false;
        };
        // Bump eagerly so every outstanding copy of this id, and every wake
        // it stamped, is dead from this instant on; the next occupant mints
        // under the new generation and serial.
        self.occupied[slot] = false;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.serials[slot] = self.serials[slot].wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        true
    }

    /// Iterates the live contexts in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &TxnCtx> {
        self.slots
            .iter()
            .zip(&self.occupied)
            .filter_map(|(ctx, &live)| live.then_some(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::{NodeId, Op, PartitionId};
    use lion_obs::CommitClass;

    fn req() -> TxnRequest {
        TxnRequest::new(vec![Op::read(PartitionId(0), 1)])
    }

    fn insert(slab: &mut TxnSlab) -> TxnId {
        slab.insert(ClientId(0), req(), 0)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = TxnSlab::new();
        let a = insert(&mut slab);
        let b = insert(&mut slab);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a).unwrap().id, a);
        assert_eq!(slab.get_mut(b).unwrap().id, b);
        assert!(slab.remove(a));
        assert!(slab.get(a).is_none());
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slot_reuse_never_resurrects_a_completed_transaction() {
        let mut slab = TxnSlab::new();
        let first = insert(&mut slab);
        assert!(slab.remove(first));
        // The retired slot keeps its context, but no id reaches it: not the
        // stale one, nor one under the slot's next generation.
        let next = TxnId::compose(first.slot() as u32, slab.gens[first.slot()]);
        for id in [first, next] {
            assert!(!slab.contains(id) && slab.get(id).is_none());
            assert!(slab.get_mut(id).is_none() && slab.stamp(id).is_none());
        }
        // The recycled slot is handed out under a new generation...
        let second = insert(&mut slab);
        assert_eq!(second.slot(), first.slot(), "LIFO slot recycling");
        assert_ne!(second, first, "...so the stale id never aliases it");
        // ...and every operation through the stale id misses.
        assert!(!slab.contains(first));
        assert!(slab.get(first).is_none());
        assert!(slab.get_mut(first).is_none());
        assert!(!slab.remove(first), "stale remove is a no-op");
        assert!(slab.contains(second), "the new occupant is untouched");
    }

    #[test]
    fn allocation_is_deterministic() {
        // Same insert/remove script ⇒ same ids, independent of any global
        // state — the property the same-seed digest test leans on.
        let script = |slab: &mut TxnSlab| -> Vec<TxnId> {
            let a = insert(slab);
            let b = insert(slab);
            slab.remove(a);
            let c = insert(slab);
            let d = insert(slab);
            slab.remove(b);
            vec![a, b, c, d, insert(slab)]
        };
        let mut s1 = TxnSlab::new();
        let mut s2 = TxnSlab::new();
        assert_eq!(script(&mut s1), script(&mut s2));
    }

    #[test]
    fn a_wake_stamped_before_an_abort_is_stale() {
        let mut slab = TxnSlab::new();
        let id = insert(&mut slab);
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
        let first = insert(&mut slab);
        let (slot, serial) = slab.stamp(first).expect("live");
        assert!(slab.remove(first));
        assert_eq!(slab.wake_target(slot, serial), None, "vacant slot");
        assert_eq!(
            slab.wake_target(slot, slab.serials[slot as usize]),
            None,
            "a retired slot is no wake's target under any serial"
        );
        let second = insert(&mut slab);
        assert_eq!(second.slot(), slot as usize, "LIFO slot recycling");
        assert_eq!(slab.wake_target(slot, serial), None, "new occupant");
        assert_eq!(slab.stamp(first), None, "a dead id stamps nothing");
        let (_, fresh) = slab.stamp(second).expect("live");
        assert_eq!(slab.wake_target(slot, fresh), Some(second));
    }

    #[test]
    fn a_slots_next_context_reuses_that_slots_own_buffers() {
        let mut slab = TxnSlab::new();
        let wide = TxnRequest::new(
            (0..8)
                .map(|k| Op::write(PartitionId(k % 3), k.into()))
                .collect(),
        );
        let first = slab.insert(ClientId(0), wide, 0);
        let other = insert(&mut slab);
        let ctx = slab.get_mut(first).expect("live");
        ctx.participants.push(NodeId(1));
        let (parts, participants) = (ctx.parts.as_ptr(), ctx.participants.as_ptr());
        let write_set = ctx.write_set.as_ptr();
        let other_parts = slab.get(other).expect("live").parts.as_ptr();
        assert!(slab.remove(other) && slab.remove(first));
        // LIFO: `first`'s slot comes back first, with its own buffers.
        let second = insert(&mut slab);
        assert_eq!(second.slot(), first.slot());
        let ctx = slab.get(second).expect("live");
        assert_eq!(ctx.parts, [PartitionId(0)], "rebuilt for the new request");
        assert_eq!(ctx.parts.as_ptr(), parts, "in the slot's own buffer");
        assert!(ctx.participants.is_empty(), "cleared");
        assert_eq!(ctx.participants.as_ptr(), participants);
        assert_eq!(ctx.write_set.as_ptr(), write_set);
        assert_eq!((ctx.n_groups(), ctx.group_reads_writes(0)), (1, (1, 0)));
        assert!(ctx.read_set.is_empty() && ctx.write_set.capacity() >= 8);
        let third = insert(&mut slab);
        assert_eq!(third.slot(), other.slot());
        assert_eq!(slab.get(third).expect("live").parts.as_ptr(), other_parts);
    }

    #[test]
    fn a_reused_slot_begins_like_a_fresh_context() {
        let mut slab = TxnSlab::new();
        let wide = TxnRequest::new(vec![
            Op::read(PartitionId(2), 7),
            Op::write(PartitionId(1), 9),
        ]);
        let first = slab.insert(ClientId(3), wide, 50);
        // The first occupant aborted once, parked, went distributed and held
        // prepare-locks: every field that outlives an attempt is dirty.
        let ctx = slab.next_attempt(first);
        ctx.parked = true;
        ctx.seq = 41;
        ctx.home = NodeId(2);
        ctx.participants.extend([NodeId(1), NodeId(3)]);
        ctx.class = CommitClass::Distributed;
        ctx.holds_locks = true;
        ctx.pending = 2;
        ctx.failed = true;
        ctx.step = 4;
        ctx.phase_us = [1, 2, 3, 4, 5];
        let ctx = slab.get_mut(first).expect("live");
        let walk = ctx.group_walk(0);
        walk.read_set.push(crate::txn::ReadEntry {
            part: PartitionId(2),
            key: 7,
            version: 3,
        });
        walk.write_set.push(crate::txn::WriteEntry {
            part: PartitionId(1),
            key: 9,
        });
        assert!(slab.remove(first));
        let second = slab.insert(ClientId(1), req(), 90);
        assert_eq!(second.slot(), first.slot());
        let fresh = TxnCtx::new(second, ClientId(1), req(), 90);
        assert_eq!(
            format!("{:?}", slab.get(second).expect("live")),
            format!("{fresh:?}")
        );
    }

    #[test]
    fn iter_walks_live_contexts_in_slot_order() {
        let mut slab = TxnSlab::new();
        let ids: Vec<TxnId> = (0..4).map(|_| insert(&mut slab)).collect();
        slab.remove(ids[1]);
        let seen: Vec<TxnId> = slab.iter().map(|c| c.id).collect();
        assert_eq!(seen, vec![ids[0], ids[2], ids[3]], "skips the retired slot");
        let again = insert(&mut slab);
        let seen: Vec<TxnId> = slab.iter().map(|c| c.id).collect();
        assert_eq!(seen, vec![ids[0], again, ids[2], ids[3]]);
    }
}
