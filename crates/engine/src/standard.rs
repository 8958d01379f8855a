//! The standard-execution machine: route → execute partition groups →
//! local commit or 2PC (the flow of Fig. 1). It is the [`Protocol`] of every
//! [`StandardPolicy`], which decides only where a transaction runs and what
//! happens to a partition group whose primary is elsewhere. Lion, 2PC, Leap
//! and Clay are policies; protocols with a different execution model (Star's
//! phase switching, the deterministic batch schemes) implement [`Protocol`]
//! themselves.

use crate::cpu;
use crate::engine::{Engine, OpFail};
use crate::protocol::{Protocol, TickKind};
use crate::tags::{tag, untag};
use lion_common::{NodeId, PartitionId, Phase, Time, TxnId};
use lion_faults::FaultNotice;
use lion_obs::CommitClass;

/// What to do with a partition group whose primary is not at the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteAction {
    /// Execute remotely and commit with 2PC (the classic path).
    TwoPc,
    /// The policy is bringing the primary to the executor (Lion's remaster,
    /// Leap's migration): wait this long, then look at the group again.
    Wait(Time),
}

/// Routing + remote-partition policy of a standard-execution protocol.
pub trait StandardPolicy {
    /// Legend name.
    fn name(&self) -> &'static str;
    /// True when the engine should arm whole batches instead of running
    /// closed-loop clients (§IV-D). A batch is submitted transaction by
    /// transaction; a failed vote or failed local validation defers the
    /// transaction to the next batch instead of retrying after a back-off.
    fn batch(&self) -> bool {
        false
    }
    /// Chooses the executor/coordinator node. May start adaptor work the
    /// transaction will need once it gets there.
    fn route(&mut self, eng: &mut Engine, txn: TxnId) -> NodeId;
    /// Decides the remote-partition mechanism for `part`.
    fn remote_action(&mut self, eng: &mut Engine, txn: TxnId, part: PartitionId) -> RemoteAction;
    /// Periodic hook (Lion's planner, Clay's load monitor).
    fn on_tick(&mut self, _eng: &mut Engine, _kind: TickKind) {}
    /// Topology-change hook (crash / recovery / failover completion).
    fn on_fault(&mut self, _eng: &mut Engine, _notice: &FaultNotice) {}
}

/// Continuation kinds.
const K_ROUTED: u8 = 1;
/// Local group CPU done (idx 0) or remote group response (idx 1).
const K_GROUP: u8 = 2;
/// Slept on a blocked partition; retry the current group.
const K_BLOCKED: u8 = 3;
/// Prepare branch response (idx = participant index, 0xFFFF = coordinator).
const K_PREP: u8 = 4;
/// Prepare-log replication finished at a participant branch.
const K_PREP_REPL: u8 = 5;
/// Local single-node commit CPU done.
const K_LOC_COMMIT: u8 = 6;
/// Distributed commit slice done: install and commit.
const K_COMMIT: u8 = 7;

const COORD_IDX: u16 = 0xFFFF;

/// Routes `txn` and sends it to its executor.
fn submit<P: StandardPolicy>(policy: &mut P, eng: &mut Engine, txn: TxnId) {
    let home = policy.route(eng, txn);
    eng.txn_mut(txn).home = home;
    eng.txn_mut(txn).step = 0;
    let bytes = 32 + 8 * eng.txn(txn).req.ops.len() as u32;
    let t = tag(K_ROUTED, 0);
    eng.net(bytes, Phase::Scheduling, txn, t);
}

/// Ends the attempt after a failed vote or failed local validation.
fn abort(eng: &mut Engine, txn: TxnId, batch: bool) {
    if batch {
        eng.abort_defer(txn);
    } else {
        eng.abort_retry(txn);
    }
}

/// Executes the ops of group `gi` at `node`, the group's primary. Returns
/// false when the attempt ended (lock conflict) or the group must be looked
/// at again shortly (placement or blocking raced).
fn exec_group(eng: &mut Engine, txn: TxnId, gi: usize, node: NodeId) -> bool {
    match eng.exec_group_at(node, txn, gi) {
        Ok(()) => true,
        Err(OpFail::Locked) => {
            eng.abort_retry(txn);
            false
        }
        Err(_) => {
            let t = tag(K_BLOCKED, 0);
            eng.sleep(10, Phase::Other, txn, t);
            false
        }
    }
}

/// Advances to the current partition group (`ctx.step`) or to the commit
/// phase when all groups are done.
fn process_group<P: StandardPolicy>(policy: &mut P, eng: &mut Engine, txn: TxnId) {
    // Honest split-brain: a transaction whose home side is cut off from
    // some partition it needs parks until reachability returns instead of
    // spinning retries against the cut.
    if !eng.txn_reachable(txn) {
        return eng.park_until_heal(txn);
    }
    let gi = eng.txn(txn).step as usize;
    if gi >= eng.txn(txn).n_groups() {
        return begin_commit(eng, txn);
    }
    let part = eng.txn(txn).group_part(gi);
    let now = eng.now();

    // A partition mid-remaster/migration blocks operations (§III).
    let avail = eng.cluster.available_at(part);
    if avail > now {
        let t = tag(K_BLOCKED, 0);
        return eng.sleep(avail - now + 1, Phase::Other, txn, t);
    }

    let home = eng.txn(txn).home;
    let primary = eng.cluster.placement.primary_of(part);
    if primary == home {
        // Local group: execute now, then occupy a worker for the cost.
        if !exec_group(eng, txn, gi, home) {
            return;
        }
        let (reads, writes) = eng.txn(txn).group_reads_writes(gi);
        let mut cost = eng.op_cpu(reads, writes);
        if gi == 0 {
            cost += cpu::TXN_OVERHEAD_US;
        }
        let t = tag(K_GROUP, 0);
        return eng.cpu(home, Phase::Execution, cost, txn, t);
    }
    match policy.remote_action(eng, txn, part) {
        RemoteAction::TwoPc => {
            eng.txn_mut(txn).class = CommitClass::Distributed;
            if !eng.txn(txn).participants.contains(&primary) {
                eng.txn_mut(txn).participants.push(primary);
            }
            let (reads, writes) = eng.txn(txn).group_reads_writes(gi);
            let req = 24 * (reads + writes) as u32;
            let resp = 16 + (reads as u32) * eng.config().sim.value_size;
            let work = eng.op_cpu(reads, writes) + cpu::MSG_HANDLE_US;
            let t = tag(K_GROUP, 1);
            eng.remote_round(home, primary, req, resp, work, Phase::Execution, txn, t);
        }
        RemoteAction::Wait(wait) => {
            let t = tag(K_BLOCKED, 0);
            eng.sleep(wait, Phase::Other, txn, t);
        }
    }
}

fn finish_group<P: StandardPolicy>(policy: &mut P, eng: &mut Engine, txn: TxnId, remote: bool) {
    if remote {
        // The response returned: execute the ops against the (current)
        // remote primary. Placement may have moved — retry if so.
        let gi = eng.txn(txn).step as usize;
        let primary = eng
            .cluster
            .placement
            .primary_of(eng.txn(txn).group_part(gi));
        if !exec_group(eng, txn, gi, primary) {
            return;
        }
    }
    eng.txn_mut(txn).step += 1;
    process_group(policy, eng, txn);
}

fn begin_commit(eng: &mut Engine, txn: TxnId) {
    let home = eng.txn(txn).home;
    if eng.txn(txn).participants.is_empty() {
        // Single-node: validate + install in one commit slice; "the
        // transaction can be directly committed, omitting the prepare
        // phase" (§III case 1).
        let t = tag(K_LOC_COMMIT, 0);
        let cost = cpu::VALIDATE_US + cpu::INSTALL_US;
        eng.cpu(home, Phase::Commit, cost, txn, t);
    } else {
        // 2PC prepare: coordinator + every participant votes, each
        // replicating its prepare log to its secondaries (§II-A).
        let n = eng.txn(txn).participants.len() as u32 + 1;
        eng.join_begin(txn, n);
        let t = tag(K_PREP, COORD_IDX);
        eng.cpu(home, Phase::Commit, cpu::VALIDATE_US, txn, t);
        for i in 0..eng.txn(txn).participants.len() {
            let p = eng.txn(txn).participants[i];
            let t = tag(K_PREP, i as u16);
            eng.remote_round(home, p, 48, 16, cpu::VALIDATE_US, Phase::Commit, txn, t);
        }
    }
}

fn prepare_branch(eng: &mut Engine, txn: TxnId, idx: u16, batch: bool) {
    let node = if idx == COORD_IDX {
        eng.txn(txn).home
    } else {
        eng.txn(txn).participants[idx as usize]
    };
    if eng.validate_at(node, txn) {
        // Vote yes: persist the prepare record on the secondaries.
        let t = tag(K_PREP_REPL, idx);
        eng.replicate_prepare(node, txn, t);
    } else {
        branch_done(eng, txn, false, batch);
    }
}

fn branch_done(eng: &mut Engine, txn: TxnId, ok: bool, batch: bool) {
    match eng.join_arrive(txn, ok) {
        None => {}
        Some(true) => {
            // Commit decisions travel one-way (participant acks are not
            // awaited, matching the ≥5-message flow); the writes install
            // with the commit, at the end of the coordinator's slice.
            for _ in 0..eng.txn(txn).participants.len() {
                eng.net_fire_and_forget(32);
            }
            let home = eng.txn(txn).home;
            let t = tag(K_COMMIT, 0);
            eng.cpu(home, Phase::Commit, cpu::INSTALL_US, txn, t);
        }
        Some(false) => {
            // One-way aborts to participants; locks release in the abort.
            let n = eng.txn(txn).participants.len() as u32;
            for _ in 0..n {
                eng.net_fire_and_forget(16);
            }
            abort(eng, txn, batch);
        }
    }
}

impl<P: StandardPolicy> Protocol for P {
    fn name(&self) -> &'static str {
        StandardPolicy::name(self)
    }

    fn batch_mode(&self) -> bool {
        self.batch()
    }

    fn on_submit(&mut self, eng: &mut Engine, txn: TxnId) {
        submit(self, eng, txn);
    }

    fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
        for &txn in batch {
            submit(self, eng, txn);
        }
    }

    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tagv: u32) {
        let (kind, idx) = untag(tagv);
        match kind {
            K_ROUTED | K_BLOCKED => process_group(self, eng, txn),
            K_GROUP => finish_group(self, eng, txn, idx == 1),
            K_PREP => prepare_branch(eng, txn, idx, self.batch()),
            K_PREP_REPL => branch_done(eng, txn, true, self.batch()),
            K_LOC_COMMIT => {
                let home = eng.txn(txn).home;
                if eng.validate_at(home, txn) {
                    eng.commit(txn);
                } else {
                    abort(eng, txn, self.batch());
                }
            }
            K_COMMIT => eng.commit(txn),
            _ => unreachable!("unknown continuation kind {kind}"),
        }
    }

    fn on_tick(&mut self, eng: &mut Engine, kind: TickKind) {
        StandardPolicy::on_tick(self, eng, kind);
    }

    fn on_fault(&mut self, eng: &mut Engine, notice: &FaultNotice) {
        StandardPolicy::on_fault(self, eng, notice);
    }
}
