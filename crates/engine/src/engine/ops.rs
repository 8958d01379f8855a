//! Everything a protocol may call that changes state: timing primitives,
//! fan-out joins, OCC data operations, commit and abort. Together with
//! `adaptor.rs` this is the method list of the `EngineOps` trait to come.

use super::{Engine, Ev};
use crate::cpu;
use crate::txn::{OpWalk, ReadEntry, TxnCtx, WriteEntry};
use lion_cluster::Cluster;
use lion_common::{NodeId, OpKind, PartitionId, Phase, Time, TxnId, MSG_OVERHEAD_BYTES};
use lion_durability::PendingAck;
use lion_obs::{ByteClass, MetricEvent};
use lion_storage::{OpOutcome, Table};

/// Why a data operation could not run right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFail {
    /// The partition is blocked by an in-flight remaster/migration.
    Blocked,
    /// The node no longer hosts the primary (placement moved underneath).
    NotPrimary,
    /// The row is prepare-locked by a conflicting transaction.
    Locked,
    /// An active split-brain window cuts the transaction's home side off
    /// from this partition's serving primary. The transaction parks until
    /// reachability returns (a split promotion or the heal).
    Unreachable,
}

/// Where an aborted attempt waits for its next one.
#[derive(Debug, Clone, Copy)]
pub(super) enum Requeue {
    /// Where the engine's mode says: an `Ev::Retry` after the configured
    /// back-off in standard mode, the next batch in batch mode.
    Retry,
    /// The heal-waiter list, drained — filtered by reachability — at every
    /// split promotion and fully at heal.
    Heal,
}

impl Engine {
    /// Emits one observability event: run sink first (its fold order is
    /// the digest contract), then the dimensioned sink and any extras,
    /// all gated by the configured [`lion_obs::ObsMode`]. Every metric the engine
    /// records flows through here — protocols and baselines included.
    #[inline]
    pub fn emit(&mut self, ev: MetricEvent) {
        self.obs.emit(&mut self.metrics, ev);
    }

    /// Emits `bytes` of `class` traffic at the current time, attributed to
    /// no particular node.
    pub(super) fn emit_bytes(&mut self, class: ByteClass, bytes: u64) {
        let at = self.now();
        self.emit(MetricEvent::Bytes {
            at,
            class,
            bytes,
            node: None,
        });
    }

    /// True when no active split cuts `txn`'s home side off from the
    /// serving primary of any partition it accesses. Protocols check this
    /// at submission (and on retry re-entry) and park unreachable
    /// transactions via [`Engine::park_until_heal`] instead of spinning
    /// retries against the cut.
    pub fn txn_reachable(&self, txn: TxnId) -> bool {
        !self.cluster.split_active() || Self::reachable(&self.cluster, self.txn(txn))
    }

    /// Parks `txn` until reachability returns: the attempt fault-aborts
    /// (its scheduled wakes go stale, exactly like a crash abort) and the
    /// transaction joins the heal-waiter list, which drains — filtered by
    /// reachability — at every split promotion and fully at heal. The
    /// issuing client blocks with it: no goodput is faked while the
    /// partition the client needs sits across the cut.
    pub fn park_until_heal(&mut self, txn: TxnId) {
        self.abort_attempt(txn, true, Requeue::Heal);
    }

    // ----------------------------------------------------------------
    // Timing primitives
    // ----------------------------------------------------------------

    /// Occupies one of `node`'s workers for `dur` µs, waking `(txn, tag)` on
    /// completion. Queue wait is booked as `Scheduling`; service as `phase`.
    pub fn cpu(&mut self, node: NodeId, phase: Phase, dur: Time, txn: TxnId, tag: u32) {
        let now = self.now();
        let grant = self.cluster.workers[node.idx()].acquire(now, dur);
        let wait = grant.queue_wait(now);
        let ctx = self.txn_mut(txn);
        ctx.phase_us[Phase::Scheduling.idx()] += wait;
        ctx.phase_us[phase.idx()] += dur;
        let wake = self.wake_ev(txn, tag);
        self.queue.schedule_at(grant.end, wake);
    }

    /// One-way message of `bytes` payload; wakes `(txn, tag)` on delivery.
    pub fn net(&mut self, bytes: u32, phase: Phase, txn: TxnId, tag: u32) {
        let d = self.cluster.net_delay(bytes);
        self.net_fire_and_forget(bytes);
        self.sleep(d, phase, txn, tag);
    }

    /// Accounting-only one-way message (no wake), e.g. 2PC commit decisions
    /// whose acks the coordinator does not wait for.
    pub fn net_fire_and_forget(&mut self, bytes: u32) {
        let framed = (bytes + MSG_OVERHEAD_BYTES) as u64;
        self.emit_bytes(ByteClass::Message, framed);
    }

    /// Request/response round from `from` to a remote node including remote
    /// CPU: request latency + worker queueing + service + response latency,
    /// as a single scheduled wake (the worker slot is reserved at request
    /// arrival). The origin node is charged message-handling CPU for the
    /// send and the response — the coordination work that makes distributed
    /// transactions expensive on their coordinator.
    // The argument list *is* the wire protocol of one request/response round
    // (endpoints, payload sizes, remote service time, phase, continuation);
    // bundling them into a struct would only rename the problem.
    #[allow(clippy::too_many_arguments)]
    pub fn remote_round(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes_req: u32,
        bytes_resp: u32,
        remote_cpu: Time,
        phase: Phase,
        txn: TxnId,
        tag: u32,
    ) {
        let now = self.now();
        let handling = 2 * cpu::MSG_HANDLE_US;
        let _ = self.cluster.workers[from.idx()].acquire(now, handling);
        // Zone-aware pricing: a round that crosses a rack boundary pays the
        // aggregation-layer surcharge both ways (zero on single-zone runs).
        let d1 = self.cluster.net_delay_between(from, to, bytes_req);
        let grant = self.cluster.workers[to.idx()].acquire(now + d1, remote_cpu);
        let d2 = self.cluster.net_delay_between(to, from, bytes_resp);
        self.emit(MetricEvent::Bytes {
            at: now,
            class: ByteClass::Message,
            bytes: (bytes_req + bytes_resp + 2 * MSG_OVERHEAD_BYTES) as u64,
            node: Some(from),
        });
        let ctx = self.txn_mut(txn);
        ctx.phase_us[Phase::Scheduling.idx()] += grant.queue_wait(now + d1);
        ctx.phase_us[phase.idx()] += d1 + remote_cpu + d2;
        let wake = self.wake_ev(txn, tag);
        self.queue.schedule_at(grant.end + d2, wake);
    }

    /// Pure wait (remaster hand-off, migration blackout, barrier).
    pub fn sleep(&mut self, dur: Time, phase: Phase, txn: TxnId, tag: u32) {
        self.txn_mut(txn).phase_us[phase.idx()] += dur;
        let wake = self.wake_ev(txn, tag);
        self.queue.schedule(dur, wake);
    }

    /// Wake `(txn, tag)` at an absolute virtual time (batch protocols that
    /// compute completion times arithmetically).
    pub fn wake_at(&mut self, at: Time, txn: TxnId, tag: u32) {
        let wake = self.wake_ev(txn, tag);
        self.queue.schedule_at(at, wake);
    }

    /// The event waking `(txn, tag)`, stamped for `txn`'s current attempt.
    fn wake_ev(&self, txn: TxnId, tag: u32) -> Ev {
        let (slot, serial) = self.txns.stamp(txn).expect("live transaction");
        Ev::Wake { slot, serial, tag }
    }

    /// Books `us` of `phase` time on `txn` without scheduling anything
    /// (batch protocols account phases while computing times arithmetically).
    pub fn charge_phase(&mut self, txn: TxnId, phase: Phase, us: Time) {
        self.txn_mut(txn).phase_us[phase.idx()] += us;
    }

    /// Acquires a worker at `node` without scheduling a wake; returns the
    /// service interval. Batch protocols compose these grants into
    /// per-transaction completion times.
    pub fn cpu_grant(&mut self, node: NodeId, at: Time, dur: Time) -> (Time, Time) {
        let grant = self.cluster.workers[node.idx()].acquire(at, dur);
        (grant.start, grant.end)
    }

    // ----------------------------------------------------------------
    // Fan-out joins
    // ----------------------------------------------------------------

    /// Starts a fan-out of `n` branches on `txn`.
    pub fn join_begin(&mut self, txn: TxnId, n: u32) {
        let ctx = self.txn_mut(txn);
        ctx.pending = n;
        ctx.failed = false;
    }

    /// Records one branch arrival. Returns `None` while branches remain,
    /// `Some(all_ok)` when the last branch lands.
    pub fn join_arrive(&mut self, txn: TxnId, ok: bool) -> Option<bool> {
        let ctx = self.txn_mut(txn);
        debug_assert!(ctx.pending > 0, "join_arrive without join_begin");
        ctx.pending -= 1;
        ctx.failed |= !ok;
        if ctx.pending == 0 {
            Some(!ctx.failed)
        } else {
            None
        }
    }

    // ----------------------------------------------------------------
    // Data operations (instantaneous state transitions; timing is the
    // protocol's job via the primitives above)
    // ----------------------------------------------------------------

    /// Executes partition group `gi` of `txn` at `node`, which must
    /// currently hold the group's primary: in declaration order, reads
    /// record versions and writes are buffered, stopping at the first
    /// failure, with the availability check, the store lookup and the access
    /// bookkeeping done once for the group.
    pub fn exec_group_at(&mut self, node: NodeId, txn: TxnId, gi: usize) -> Result<(), OpFail> {
        let now = self.now();
        let Engine { txns, cluster, .. } = self;
        let walk = txns.get_mut(txn).expect("live transaction").group_walk(gi);
        exec_ops(cluster, now, node, txn, walk)
    }

    /// CPU demand for executing `n_reads` + `n_writes` operations.
    pub fn op_cpu(&self, n_reads: usize, n_writes: usize) -> Time {
        cpu::READ_US * n_reads as u64 + cpu::WRITE_US * n_writes as u64
    }

    /// OCC validation at `node`, for the partitions whose primary it holds:
    /// validates the read set, then prepare-locks the write set. `false`
    /// leaves the tables as it found them — a stale read returns before
    /// anything was locked, a foreign lock releases what this call took.
    ///
    /// A concurrent engine must lock before it validates, or a writer could
    /// install between the two. Here an event is one atomic instant and
    /// nothing else runs inside this call, so the order is free: either way
    /// the call succeeds iff every read is current and no row of either set
    /// is foreign-locked, and holds exactly the write set's locks iff it
    /// succeeds. Validating first means the common loser — a lost version
    /// race — probes a row or two and mutates nothing.
    ///
    /// Only this function takes locks; only [`Engine::commit`], a failure
    /// here and an abort (`release_all`) drop them.
    pub fn validate_at(&mut self, node: NodeId, txn: TxnId) -> bool {
        let Engine { txns, cluster, .. } = self;
        let ctx = txns.get_mut(txn).expect("live transaction");
        // Walk the sets in place (disjoint borrows: the context against the
        // stores) instead of cloning them into scratch `Vec`s.
        for r in &ctx.read_set {
            if !cluster.placement.is_primary(r.part, node) {
                continue;
            }
            let store = cluster.store(node, r.part).expect("primary store");
            if !store.table.occ_validate_read(r.key, r.version, txn).is_ok() {
                return false;
            }
        }
        let mut locked = false;
        for w in &ctx.write_set {
            if !cluster.placement.is_primary(w.part, node) {
                continue;
            }
            let store = cluster.store_mut(node, w.part).expect("primary store");
            if store.table.occ_lock(w.key, txn).is_ok() {
                locked = true;
                continue;
            }
            // `occ_unlock` releases only what `txn` holds, so the entries
            // from the one that failed to lock onward are left alone.
            for u in &ctx.write_set {
                if cluster.placement.is_primary(u.part, node) {
                    let store = cluster.store_mut(node, u.part).expect("primary store");
                    store.table.occ_unlock(u.key, txn);
                }
            }
            return false;
        }
        ctx.holds_locks |= locked;
        true
    }

    /// Installs `txn`'s writes at their partitions' primaries: stores
    /// synthesized payloads, bumps versions, appends to the replication log.
    /// A transaction that executed follows a successful
    /// [`Engine::validate_at`] at every primary it wrote.
    ///
    /// No placement check: a hand-off that lands aborts every attempt that
    /// executed on its partition, so a written partition is still where the
    /// transaction locked it.
    fn install(&mut self, txn: TxnId) {
        let value_size = self.cfg.sim.value_size;
        // Commit == ack without epoch group commit: an entry is
        // client-visible the moment it installs, replicated or not (the
        // hole the crash audit counts).
        let acked_at_install = !self.epochs.enabled();
        // Split borrow: the context is read in place (no write-set clone)
        // while the stores are mutated.
        let Engine { txns, cluster, .. } = self;
        let ctx = txns.get(txn).expect("live transaction");
        // Every row before the first install: installing releases the lock,
        // and a transaction may write a key twice.
        debug_assert!(
            !ctx.holds_locks
                || ctx.write_set.iter().all(|w| {
                    let primary = cluster.placement.primary_of(w.part);
                    let table = &cluster.store(primary, w.part).expect("primary store").table;
                    table.get(w.key).and_then(|row| row.lock()) == Some(txn)
                }),
            "{txn} installs a row it does not hold locked at its primary"
        );
        let attempt = ctx.attempts as u64;
        for w in &ctx.write_set {
            let primary = cluster.placement.primary_of(w.part);
            let stamp = txn.0.wrapping_mul(31).wrapping_add(attempt);
            let value = Table::synth_value(w.key, stamp, value_size);
            let store = cluster.store_mut(primary, w.part).expect("primary store");
            let version = store.table.occ_install(w.key, txn, value);
            let lsn = store.log.append(w.part, w.key, version, value);
            if acked_at_install {
                store.log.mark_acked(lsn);
            }
        }
    }

    /// Records the write set of `txn` from its declared ops without
    /// executing reads (deterministic protocols declare sets up front). The
    /// batch kit calls it in the event that commits `txn`, so a declared
    /// attempt holds no set between events.
    pub fn load_declared_sets(&mut self, txn: TxnId) {
        let ctx = self.txns.get_mut(txn).expect("live transaction");
        debug_assert!(
            ctx.read_set.is_empty() && ctx.write_set.is_empty(),
            "{txn} loads declared sets over executed ones"
        );
        // Disjoint field borrows: read the declared ops, append to the
        // write set — no `req.ops` clone.
        let TxnCtx { req, write_set, .. } = ctx;
        for op in req.ops.iter().filter(|op| op.kind == OpKind::Write) {
            write_set.push(WriteEntry {
                part: op.partition,
                key: op.key,
            });
        }
    }

    /// Releases any prepare-locks `txn` may hold anywhere (abort path).
    fn release_all(&mut self, txn: TxnId) {
        let Engine { txns, cluster, .. } = self;
        let ctx = txns.get(txn).expect("live transaction");
        for w in &ctx.write_set {
            unlock_everywhere(cluster, w, txn);
        }
    }

    /// Synchronous prepare-log replication at a participant (§II-A: "each
    /// participant ... replicates its prepare log to the corresponding
    /// secondary replicas"). Books the max secondary round trip as
    /// `Replication` time and wakes `(txn, tag)`.
    pub fn replicate_prepare(&mut self, node: NodeId, txn: TxnId, tag: u32) {
        let now = self.now();
        let overhead = MSG_OVERHEAD_BYTES as u64;
        let value_size = self.cfg.sim.value_size;
        let Engine {
            txns,
            cluster,
            metrics,
            obs,
            ..
        } = self;
        let ctx = txns.get(txn).expect("live transaction");
        let mut max_rtt = 0;
        // The written partitions primaried here, each once, in id order.
        let mut last: Option<PartitionId> = None;
        while let Some(part) = ctx
            .write_set
            .iter()
            .map(|w| w.part)
            .filter(|&p| last < Some(p) && cluster.placement.is_primary(p, node))
            .min()
        {
            last = Some(part);
            let writes_here = ctx.write_set.iter().filter(|w| w.part == part).count() as u32;
            let bytes = writes_here * (value_size + 32);
            let secondaries = cluster.placement.secondaries_of(part);
            if secondaries.is_empty() {
                continue;
            }
            // The prepare must reach *every* secondary: the slowest replica
            // round trip gates the vote — a cross-zone secondary (rack-safe
            // placement) stretches it by the zone surcharge both ways.
            for &sec in secondaries {
                let rtt = cluster.net_delay_between(node, sec, bytes)
                    + cluster.net_delay_between(sec, node, 0);
                max_rtt = max_rtt.max(rtt);
            }
            obs.emit(
                metrics,
                MetricEvent::Bytes {
                    at: now,
                    class: ByteClass::Message,
                    bytes: secondaries.len() as u64 * (bytes as u64 + 2 * overhead),
                    node: Some(node),
                },
            );
        }
        // Zero with no secondaries / read-only at this participant: the
        // wake still fires, now.
        self.sleep(max_rtt, Phase::Replication, txn, tag);
    }

    // ----------------------------------------------------------------
    // Completion
    // ----------------------------------------------------------------

    /// Commits `txn`: installs its writes, records commit metrics and frees
    /// the context, all in this one instant, so no attempt is ever both
    /// installed and abortable. Every successful attempt ends here. The
    /// *client-visible ack* depends on the durability mode: ack-at-commit
    /// releases it here (and re-arms the issuing client in standard mode);
    /// epoch group commit parks it in the open epoch until the epoch's
    /// replication is durable. Batch protocols always advance their batch
    /// barrier here — their pacing is the batch loop, not the ack.
    pub fn commit(&mut self, txn: TxnId) {
        self.install(txn);
        let now = self.now();
        let ctx = self.txns.remove(txn).expect("live transaction");
        // Quorum fence: during an active split a commit whose writes touch a
        // partition served from the non-quorum side can never replicate its
        // writes to a majority of the replica set — its ack must not be
        // allowed to turn durable. Ack-at-commit mode releases it anyway
        // (the optimistic-minority-ack arm; the heal audit counts the leak),
        // epoch mode parks it fenced until the heal coordinator retries it.
        let fenced = self.cluster.split_active()
            && ctx
                .write_set
                .iter()
                .any(|w| self.cluster.quorum_side_of(w.part) != self.cluster.side_of(ctx.home));
        self.emit(MetricEvent::Commit {
            at: now,
            latency_us: now.saturating_sub(ctx.start),
            class: ctx.class,
            node: ctx.home,
            phase_us: ctx.phase_us,
        });
        if fenced {
            self.emit(MetricEvent::MinorityCommit { at: now });
        }
        if self.batch_mode {
            self.batch_done_one();
        }
        let ack = PendingAck {
            txn,
            client: ctx.client,
            seq: ctx.seq,
            start: ctx.start,
            committed_at: now,
        };
        self.txns.recycle(ctx);
        self.ack_or_park(ack, fenced);
    }

    /// Ends the current attempt of `txn`, which failed, and requeues it by
    /// the engine's mode: a retry after the configured back-off in standard
    /// mode, the next batch (Aria-style carry-over) in batch mode.
    pub fn abort(&mut self, txn: TxnId) {
        self.abort_attempt(txn, false, Requeue::Retry);
    }

    /// Ends `txn`'s current attempt — records the abort, releases the
    /// prepare-locks it took, if any, resets the context (its scheduled
    /// wakes go stale: the engine delivers none to a later attempt) — and
    /// parks it at `to` until its next one. In batch mode the attempt
    /// leaves the armed batch either way.
    pub(super) fn abort_attempt(&mut self, txn: TxnId, fault: bool, to: Requeue) {
        let now = self.now();
        self.emit(MetricEvent::Abort {
            at: now,
            fault,
            node: self.txn(txn).home,
        });
        if self.txn(txn).holds_locks {
            self.release_all(txn);
        }
        self.txns.next_attempt(txn).parked = true;
        match to {
            Requeue::Retry => self.requeue(txn),
            // The issuing client blocks with it: no goodput is faked while
            // the partition it needs sits across the cut.
            Requeue::Heal => self.heal_waiters.push(txn),
        }
        if self.batch_mode {
            self.batch_done_one();
        }
    }

    /// Queues parked `txn` for its next attempt by the engine's mode: an
    /// `Ev::Retry` after the back-off, or the deferred list the next batch
    /// starts with.
    pub(super) fn requeue(&mut self, txn: TxnId) {
        if self.batch_mode {
            self.deferred.push(txn);
        } else {
            let backoff = self.cfg.sim.retry_backoff_us;
            self.queue.schedule(backoff, Ev::Retry(txn));
        }
    }
}

/// Releases `txn`'s prepare-lock on `w` at every replica holder, so racing
/// placement changes cannot leak it.
fn unlock_everywhere(cluster: &mut Cluster, w: &WriteEntry, txn: TxnId) {
    let primary = cluster.placement.primary_of(w.part);
    for i in 0..cluster.placement.replica_count(w.part) {
        let node = match i {
            0 => primary,
            _ => cluster.placement.secondaries_of(w.part)[i - 1],
        };
        if let Some(store) = cluster.store_mut(node, w.part) {
            store.table.occ_unlock(w.key, txn);
        }
    }
}

/// Runs `walk.ops`, all of one partition, at `node` for `txn`: the guard
/// every data operation passes (partition not blocked, `node` still its
/// primary, no cut between `node` and the coordinator), then each op against
/// the primary's table until one fails. Nothing the guard reads changes
/// inside an instant, so checking it once covers every op of the walk; the
/// accesses attempted — a read that met a lock included — are booked
/// together.
fn exec_ops(
    cluster: &mut Cluster,
    now: Time,
    node: NodeId,
    txn: TxnId,
    walk: OpWalk<'_>,
) -> Result<(), OpFail> {
    let part = walk.ops[0].partition;
    if cluster.available_at(part) > now {
        return Err(OpFail::Blocked);
    }
    if !cluster.placement.is_primary(part, node) {
        return Err(OpFail::NotPrimary);
    }
    if cluster.split_active() && !cluster.same_side(walk.home, node) {
        // Honest split-brain: the serving primary is on the far side of
        // the cut from this transaction's coordinator.
        return Err(OpFail::Unreachable);
    }
    let table = &cluster.store(node, part).expect("primary store").table;
    let mut attempted = 0;
    let mut result = Ok(());
    for op in walk.ops {
        attempted += 1;
        let key = op.key;
        match op.kind {
            OpKind::Read => match table.occ_read(key, txn) {
                OpOutcome::Ok { version } => walk.read_set.push(ReadEntry { part, key, version }),
                _ => {
                    result = Err(OpFail::Locked);
                    break;
                }
            },
            OpKind::Write => walk.write_set.push(WriteEntry { part, key }),
        }
    }
    cluster.freq.record_accesses(part, node, now, attempted);
    result
}
