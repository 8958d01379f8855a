//! Everything a protocol may call that changes state: timing primitives,
//! fan-out joins, OCC data operations, commit and abort. Together with
//! `adaptor.rs` this is the method list of the `EngineOps` trait to come.

use super::{Engine, Ev};
use crate::cpu;
use crate::txn::{CellOp, OpWalk, ReadEntry, TxnClass, TxnCtx, WriteEntry};
use lion_cluster::Cluster;
use lion_common::{NodeId, OpKind, PartitionId, Phase, Time, TxnId, MSG_OVERHEAD_BYTES};
use lion_durability::PendingAck;
use lion_obs::{ByteClass, CommitClass, MetricEvent};
use lion_storage::{OpOutcome, Table};

/// Why a data operation could not run right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFail {
    /// The partition is blocked by an in-flight remaster/migration; retry
    /// after the given time.
    Blocked {
        /// Earliest time the partition is available again.
        until: Time,
    },
    /// The node no longer hosts the primary (placement moved underneath).
    NotPrimary {
        /// Current primary holder.
        primary: NodeId,
    },
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
    /// An `Ev::Retry` after the configured back-off.
    Backoff,
    /// The next batch (batch mode): joins the deferred list and counts
    /// toward the current batch's barrier.
    NextBatch,
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
    /// Only this function takes locks; only install, a failure here and
    /// [`Engine::release_all`] drop them.
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
            if !store
                .table
                .occ_validate_read_cell(r.cell, r.version, txn)
                .is_ok()
            {
                return false;
            }
        }
        let mut locked = false;
        for w in &ctx.write_set {
            if !cluster.placement.is_primary(w.part, node) {
                continue;
            }
            let store = cluster.store_mut(node, w.part).expect("primary store");
            if store.table.occ_lock_cell(w.cell, txn).is_ok() {
                locked = true;
                continue;
            }
            // `occ_unlock_cell` releases only what `txn` holds, so the entries
            // from the one that failed to lock onward are left alone.
            for u in &ctx.write_set {
                if cluster.placement.is_primary(u.part, node) {
                    let store = cluster.store_mut(node, u.part).expect("primary store");
                    store.table.occ_unlock_cell(u.cell, txn);
                }
            }
            return false;
        }
        ctx.holds_locks |= locked;
        true
    }

    /// Installs `txn`'s writes at `node` (partitions whose primary is
    /// local): stores synthesized payloads, bumps versions, appends to the
    /// replication log. Must follow a successful [`Engine::validate_at`].
    ///
    /// A partition whose primary moved away between prepare-validation and
    /// the commit decision (a remaster raced the 2PC window) can no longer
    /// install here; its prepare-locks are released on every replica holder
    /// instead — leaving them would poison the rows forever once the
    /// partition remasters back.
    pub fn install_at(&mut self, node: NodeId, txn: TxnId) {
        self.install(txn, Some(node));
    }

    /// Installs `txn`'s writes directly at their current primaries without
    /// prepare-locks. Used by protocols whose write phase is conflict-free by
    /// construction (Star's serial single-master phase, deterministic
    /// protocols whose lock schedule already serialized the writers).
    pub fn install_unchecked(&mut self, txn: TxnId) {
        self.install(txn, None);
    }

    /// Installs `txn`'s writes at their primaries — every one of them, or
    /// with `only_at` just those primaried there.
    fn install(&mut self, txn: TxnId, only_at: Option<NodeId>) {
        let value_size = self.cfg.sim.value_size;
        // Commit == ack without epoch group commit: an entry is
        // client-visible the moment it installs, replicated or not (the
        // hole the crash audit counts).
        let acked_at_install = !self.epochs.enabled();
        // Split borrow: the context is read in place (no write-set clone)
        // while the stores are mutated.
        let Engine { txns, cluster, .. } = self;
        let ctx = txns.get(txn).expect("live transaction");
        let attempt = ctx.attempts as u64;
        for w in &ctx.write_set {
            let primary = cluster.placement.primary_of(w.part);
            if let Some(node) = only_at.filter(|&node| node != primary) {
                if cluster.store(node, w.part).is_some() {
                    unlock_everywhere(cluster, w, txn);
                }
                continue;
            }
            let stamp = txn.0.wrapping_mul(31).wrapping_add(attempt);
            let value = Table::synth_value(w.key, stamp, value_size);
            let store = cluster.store_mut(primary, w.part).expect("primary store");
            let version = store.table.occ_install_cell(w.cell, txn, value);
            let lsn = store
                .log
                .append_cell(w.part, w.key, Some(w.cell), version, value);
            if acked_at_install {
                store.log.mark_acked(lsn);
            }
        }
    }

    /// Records the write set of `txn` from its declared ops without
    /// executing reads (deterministic protocols declare sets up front),
    /// each row's cell resolved at its partition's primary.
    pub fn load_declared_sets(&mut self, txn: TxnId) {
        // Disjoint field borrows within one context: read the declared ops,
        // append to the write set — no `req.ops` clone.
        let Engine { txns, cluster, .. } = self;
        let TxnCtx { req, write_set, .. } = txns.get_mut(txn).expect("live transaction");
        for op in req.ops.iter().filter(|op| op.kind == OpKind::Write) {
            let primary = cluster.placement.primary_of(op.partition);
            let store = cluster.store(primary, op.partition).expect("primary store");
            write_set.push(WriteEntry {
                part: op.partition,
                cell: store.table.cell_or_assign(op.key),
                key: op.key,
            });
        }
    }

    /// Releases any prepare-locks `txn` may hold anywhere (abort path).
    pub fn release_all(&mut self, txn: TxnId) {
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

    /// Commits `txn`: records commit metrics and frees the context. The
    /// *client-visible ack* depends on the durability mode: ack-at-commit
    /// releases it here (and re-arms the issuing client in standard mode);
    /// epoch group commit parks it in the open epoch until the epoch's
    /// replication is durable. Batch protocols always advance their batch
    /// barrier here — their pacing is the batch loop, not the ack.
    pub fn commit(&mut self, txn: TxnId) {
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
            class: match ctx.class {
                TxnClass::SingleNode => CommitClass::SingleNode,
                TxnClass::Remastered => CommitClass::Remastered,
                TxnClass::Distributed => CommitClass::Distributed,
            },
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

    /// Aborts the current attempt and schedules a retry after the configured
    /// back-off (standard mode).
    pub fn abort_retry(&mut self, txn: TxnId) {
        self.abort_attempt(txn, false, Requeue::Backoff);
    }

    /// Aborts the current attempt and defers the transaction to the next
    /// batch (Aria-style carry-over; batch mode only).
    pub fn abort_defer(&mut self, txn: TxnId) {
        debug_assert!(self.batch_mode, "defer is a batch-mode operation");
        self.abort_attempt(txn, false, Requeue::NextBatch);
    }

    /// Ends `txn`'s current attempt — records the abort, releases the
    /// prepare-locks it took, if any, resets the context (its scheduled
    /// wakes go stale: the engine delivers none to a later attempt) — and
    /// parks it at `to` until its next one.
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
            Requeue::Backoff => {
                let backoff = self.cfg.sim.retry_backoff_us;
                self.queue.schedule(backoff, Ev::Retry(txn));
            }
            Requeue::NextBatch => {
                self.deferred.push(txn);
                self.batch_done_one();
            }
            Requeue::Heal => {
                // The issuing client blocks with it: no goodput is faked
                // while the partition it needs sits across the cut.
                self.heal_waiters.push(txn);
                if self.batch_mode {
                    self.batch_done_one();
                }
            }
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
            store.table.occ_unlock_cell(w.cell, txn);
        }
    }
}

/// Runs `walk.ops`, all of one partition, at `node` for `txn`: the guard
/// every data operation passes (partition not blocked, `node` still its
/// primary, no cut between `node` and the coordinator), then each op against
/// the primary's table until one fails, at its cell — resolved here on the
/// op's first attempt and kept for the rest. Nothing the guard reads changes
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
    let part = walk.ops[0].op.partition;
    let until = cluster.available_at(part);
    if until > now {
        return Err(OpFail::Blocked { until });
    }
    if !cluster.placement.is_primary(part, node) {
        return Err(OpFail::NotPrimary {
            primary: cluster.placement.primary_of(part),
        });
    }
    if cluster.split_active() && !cluster.same_side(walk.home, node) {
        // Honest split-brain: the serving primary is on the far side of
        // the cut from this transaction's coordinator.
        return Err(OpFail::Unreachable);
    }
    let table = &cluster.store(node, part).expect("primary store").table;
    let mut attempted = 0;
    let mut result = Ok(());
    // A read-modify-write declares the key twice in a row: one lookup.
    let mut last = None;
    for CellOp { op, cell } in walk.ops {
        attempted += 1;
        let key = op.key;
        let cell = *cell.get_or_insert_with(|| match last {
            Some((k, c)) if k == key => c,
            _ => table.cell_or_assign(key),
        });
        last = Some((key, cell));
        match op.kind {
            OpKind::Read => match table.occ_read_cell(cell, txn) {
                OpOutcome::Ok { version } => walk.read_set.push(ReadEntry {
                    part,
                    cell,
                    key,
                    version,
                }),
                _ => {
                    result = Err(OpFail::Locked);
                    break;
                }
            },
            OpKind::Write => walk.write_set.push(WriteEntry { part, cell, key }),
        }
    }
    cluster.freq.record_accesses(part, node, now, attempted);
    result
}
