//! The discrete-event transaction engine: one [`Engine`], one job per file
//! (ARCHITECTURE.md § Engine modules). This file is the state, the read
//! accessors, the event loop and client/batch arming. Every `pub fn` of
//! `Engine` lives here, in `ops.rs` or in `adaptor.rs`; `faults.rs`,
//! `split.rs` and `epoch.rs` are reachable only from the loop. Nothing
//! scheduled is ever cancelled: a stale event is dropped when it fires, by a
//! rule that sits beside its handler.

mod adaptor;
mod epoch;
mod faults;
mod ops;
mod split;
#[cfg(test)]
mod tests;

pub use ops::OpFail;

use crate::protocol::{Protocol, TickKind};
use crate::report::RunReport;
use crate::slab::TxnSlab;
use crate::txn::TxnCtx;
use lion_cluster::Cluster;
use lion_common::{
    ClientId, NodeId, PartitionId, SimConfig, Time, TxnId, TxnRecord, TxnRequest, Workload,
};
use lion_durability::{DurabilityConfig, EpochManager};
use lion_faults::FaultPlan;
use lion_obs::run::Metrics;
use lion_obs::{ObsHub, ObsMode};
use lion_sim::CalendarQueue;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Engine-level configuration on top of the cluster's [`SimConfig`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Cluster + protocol timing knobs.
    pub sim: SimConfig,
    /// Planner tick interval (workload analysis + rearrangement, §III).
    pub plan_interval_us: Time,
    /// Monitoring tick interval (load sampling).
    pub monitor_interval_us: Time,
    /// Retained routed-transaction records between planner drains.
    pub history_cap: usize,
    /// Deterministic fault script executed on the virtual clock (empty by
    /// default: no failures).
    pub faults: FaultPlan,
    /// Epoch group-commit configuration: `epoch_commit_us = 0` (the
    /// default) acks at protocol commit, exactly the legacy behavior.
    pub durability: DurabilityConfig,
    /// How much of the observability pipeline runs ([`ObsMode::Full`] by
    /// default; [`ObsMode::Null`] is the overhead yardstick of
    /// `lion-bench obsgate`).
    pub obs_mode: ObsMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sim: SimConfig::default(),
            plan_interval_us: 2_000_000,
            monitor_interval_us: 1_000_000,
            history_cap: 60_000,
            faults: FaultPlan::none(),
            durability: DurabilityConfig::default(),
            obs_mode: ObsMode::default(),
        }
    }
}

impl From<SimConfig> for EngineConfig {
    fn from(sim: SimConfig) -> Self {
        EngineConfig {
            sim,
            ..Default::default()
        }
    }
}

/// Engine events.
enum Ev {
    ClientNext(ClientId),
    /// A protocol continuation, for the attempt that stamped `(slot,
    /// serial)` (see [`TxnSlab`]).
    Wake {
        slot: u32,
        serial: u32,
        tag: u32,
    },
    Retry(TxnId),
    /// The one epoch clock: a replication flush that, under epoch group
    /// commit, is also the seal of the open epoch.
    Epoch,
    Plan,
    Monitor,
    /// The background replica copy `begin_add_replica` stamped `stamp`
    /// lands; optionally chains a remaster onto the fresh replica.
    ReplicaCopied {
        part: PartitionId,
        node: NodeId,
        stamp: u64,
        then_remaster: bool,
    },
    /// The hand-off `part` had in flight when this was scheduled — remaster,
    /// migration or failover promotion — completes.
    TransferDone {
        part: PartitionId,
        gen: u64,
    },
    BatchArm,
    /// A scripted fault event (index into the engine's `FaultPlan`).
    Fault(usize),
    /// A sealed epoch's replication round-trip landed: release its acks.
    EpochDurable(u64),
    /// Re-extend the block on a partition stalled on a dead primary.
    StallCheck(PartitionId),
    /// The quorum side of an active split finished detecting + promoting a
    /// partition whose serving primary is cut off on the minority side.
    SplitPromote {
        part: PartitionId,
        target: NodeId,
        seq: u64,
    },
}

// Every FEL entry carries one: keep the `Wake` stamp inside 12 bytes.
const _: () = assert!(std::mem::size_of::<Ev>() == 16);

/// The simulation engine: cluster + event queue + transaction contexts.
pub struct Engine {
    /// The simulated cluster (placement, stores, workers, adaptor state).
    pub cluster: Cluster,
    /// The run sink: the aggregate metrics every report is built from.
    /// Kept as a public field so tests and examples read counters directly;
    /// the engine itself only writes it through [`Engine::emit`].
    pub metrics: Metrics,
    /// The observability hub: dimensioned rollups + caller-attached sinks,
    /// fed the same events as [`Engine::metrics`].
    pub obs: ObsHub,
    /// Deterministic RNG for protocol-side choices.
    pub rng: SmallRng,
    cfg: EngineConfig,
    queue: CalendarQueue<Ev>,
    txns: TxnSlab,
    workload: Box<dyn Workload>,
    history: Vec<TxnRecord>,
    batch_mode: bool,
    batch_outstanding: usize,
    deferred: Vec<TxnId>,
    window_busy: Vec<Time>,
    submitted: u64,
    events: u64,
    /// Epoch group-commit ack manager (inert when `epoch_commit_us = 0`).
    epochs: EpochManager,
    /// Reusable batch-assembly buffer (no per-tick allocation).
    batch_buf: Vec<TxnId>,
    /// Monotonic split-window counter: stamps `Ev::SplitPromote` events so
    /// promotions scheduled in one window are stale in the next.
    split_seq: u64,
    /// Virtual time the active split window opened (failover bookkeeping).
    split_began_at: Time,
    /// Transactions parked because the split cut their home side off from a
    /// partition they access; drained (filtered by reachability) at each
    /// split promotion and fully at heal.
    heal_waiters: Vec<TxnId>,
    /// Partitions whose unavailability window opened at split begin pending
    /// a quorum-side promotion; any still open at heal close there.
    split_unavail_open: Vec<PartitionId>,
    /// Replica re-adds a heal owes but could not start because the
    /// partition's primary was down; re-issued when its promotion lands or
    /// the primary restarts.
    owed_rejoins: Vec<(PartitionId, NodeId)>,
}

impl Engine {
    /// Builds an engine over a fresh cluster and the given workload.
    pub fn new(cfg: impl Into<EngineConfig>, workload: Box<dyn Workload>) -> Self {
        let cfg: EngineConfig = cfg.into();
        let cluster = Cluster::new(cfg.sim.clone());
        let nodes = cfg.sim.nodes;
        let epochs = EpochManager::new(cfg.durability);
        // Seed the calendar queue's bucket geometry from this run's
        // event-horizon profile: the delays below are what the hot path
        // actually schedules (network hops, retry back-off, the epoch
        // clock, planner/monitor timers). The shortest of them sizes the
        // buckets; the long timers ride the overflow rung.
        let profile = [
            cfg.sim.net.one_way_us,
            cfg.sim.net.delay(cfg.sim.value_size),
            cfg.sim.retry_backoff_us,
            cfg.sim.stall_poll_us,
            epochs.period(cfg.sim.epoch_us),
            cfg.plan_interval_us,
            cfg.monitor_interval_us,
        ];
        Engine {
            rng: SmallRng::seed_from_u64(cfg.sim.seed),
            cluster,
            metrics: Metrics::new(),
            obs: ObsHub::new(cfg.obs_mode),
            cfg,
            queue: CalendarQueue::with_profile(&profile),
            txns: TxnSlab::new(),
            workload,
            history: Vec::new(),
            batch_mode: false,
            batch_outstanding: 0,
            deferred: Vec::new(),
            window_busy: vec![0; nodes],
            submitted: 0,
            events: 0,
            epochs,
            batch_buf: Vec::new(),
            split_seq: 0,
            split_began_at: 0,
            heal_waiters: Vec::new(),
            split_unavail_open: Vec::new(),
            owed_rejoins: Vec::new(),
        }
    }

    /// The epoch group-commit manager (fence, parked and fenced counts).
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.epochs
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Immutable transaction context.
    pub fn txn(&self, id: TxnId) -> &TxnCtx {
        self.txns.get(id).expect("live transaction")
    }

    /// Mutable transaction context.
    pub fn txn_mut(&mut self, id: TxnId) -> &mut TxnCtx {
        self.txns.get_mut(id).expect("live transaction")
    }

    /// True when the context is still live (not committed, and the id's
    /// slab generation has not been retired).
    pub fn is_live(&self, id: TxnId) -> bool {
        self.txns.contains(id)
    }

    /// Submission sequence number of the oldest in-flight attempt other
    /// than `except` that executed on `part` ([`TxnCtx::executed_on`]): the
    /// attempt a hand-off of `part` landing now would abort first.
    pub fn oldest_executing_on(&self, part: PartitionId, except: TxnId) -> Option<u64> {
        self.txns
            .iter()
            .filter(|ctx| ctx.id != except && ctx.executed_on(part))
            .map(|ctx| ctx.seq)
            .min()
    }

    /// The executor node that "owns" a client (Leap executes transactions at
    /// the node they arrive on). Clients of a dead node reconnect to the
    /// next live node in id order.
    pub fn origin_node(&self, client: ClientId) -> NodeId {
        let n = self.cfg.sim.nodes;
        let start = client.idx() % n;
        for i in 0..n {
            let node = NodeId(((start + i) % n) as u16);
            if self.cluster.is_up(node) {
                return node;
            }
        }
        NodeId(start as u16)
    }

    /// Total submitted transactions.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Total events popped from the future-event list so far. One event is
    /// the engine's unit of hot-path work: the denominator of the benchmark
    /// of record's `engine.host_ns_per_event`.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Busy µs per node accumulated during the last monitoring window.
    pub fn node_window_busy(&self) -> &[Time] {
        &self.window_busy
    }

    /// Drains the routed-transaction records accumulated since the last call
    /// (the planner's analysis batch B).
    pub fn drain_history(&mut self) -> Vec<TxnRecord> {
        std::mem::take(&mut self.history)
    }

    /// Runs the protocol until the virtual clock reaches `horizon`, then
    /// summarizes the run.
    pub fn run(&mut self, proto: &mut dyn Protocol, horizon: Time) -> RunReport {
        self.batch_mode = proto.batch_mode();
        self.queue
            .schedule(self.epochs.period(self.cfg.sim.epoch_us), Ev::Epoch);
        self.queue.schedule(self.cfg.plan_interval_us, Ev::Plan);
        self.queue
            .schedule(self.cfg.monitor_interval_us, Ev::Monitor);
        // Full validation: structure (ids, pairing, someone always alive)
        // plus the liveness check — a plan whose combined node + zone
        // crashes would orphan a partition to the end of the run is
        // rejected here instead of silently stalling. What comes back is
        // the lowered schedule: per scripted event, the steps to execute.
        let mut fault_steps = self
            .cfg
            .faults
            .validate_against(&self.cluster.placement, &self.cluster.zone_of)
            .expect("invalid fault plan");
        for (i, ev) in self.cfg.faults.events().iter().enumerate() {
            self.queue.schedule_at(ev.at, Ev::Fault(i));
        }
        if self.batch_mode {
            self.queue.schedule(0, Ev::BatchArm);
        } else {
            for c in 0..self.cfg.sim.total_clients() {
                // Slight stagger avoids a same-instant thundering herd.
                self.queue
                    .schedule((c % 97) as Time, Ev::ClientNext(ClientId(c as u32)));
            }
        }

        while let Some(at) = self.queue.peek_time() {
            if at >= horizon {
                break;
            }
            let (_, ev) = self.queue.pop().expect("peeked");
            self.events += 1;
            // One call per event. Whether the event is still current is the
            // handler's question, answered at fire time.
            match ev {
                Ev::ClientNext(client) => self.client_next(proto, client),
                Ev::Wake { slot, serial, tag } => self.wake(proto, slot, serial, tag),
                Ev::Retry(txn) => self.retry(proto, txn),
                Ev::Epoch => self.epoch_tick(),
                Ev::Plan => self.plan_tick(proto),
                Ev::Monitor => self.monitor_tick(proto),
                Ev::ReplicaCopied {
                    part,
                    node,
                    stamp,
                    then_remaster,
                } => self.replica_copied(part, node, stamp, then_remaster),
                Ev::TransferDone { part, gen } => self.transfer_done(proto, part, gen),
                Ev::BatchArm => self.arm_batch(proto),
                Ev::Fault(i) => self.apply_fault(proto, std::mem::take(&mut fault_steps[i])),
                Ev::EpochDurable(id) => self.epoch_durable(id),
                Ev::StallCheck(part) => self.stall_check(part),
                Ev::SplitPromote { part, target, seq } => {
                    self.split_promote_event(proto, part, target, seq)
                }
            }
        }
        RunReport::build(proto.name(), self, horizon)
    }

    /// A closed-loop client issues its next transaction.
    fn client_next(&mut self, proto: &mut dyn Protocol, client: ClientId) {
        let now = self.now();
        let req = self.workload.next_txn(now);
        let id = self.inject_txn(client, req);
        proto.on_submit(self, id);
    }

    /// A protocol continuation fires. Stale — dropped — once the attempt
    /// that scheduled it aborted or the transaction committed (either bumps
    /// the slot's serial): the protocol sees only its current attempt's
    /// wakes.
    fn wake(&mut self, proto: &mut dyn Protocol, slot: u32, serial: u32, tag: u32) {
        if let Some(txn) = self.txns.wake_target(slot, serial) {
            proto.on_wake(self, txn, tag);
        }
    }

    /// A backed-off transaction re-enters the protocol (same liveness rule).
    fn retry(&mut self, proto: &mut dyn Protocol, txn: TxnId) {
        if self.is_live(txn) {
            self.txn_mut(txn).parked = false;
            proto.on_submit(self, txn);
        }
    }

    fn plan_tick(&mut self, proto: &mut dyn Protocol) {
        proto.on_tick(self, TickKind::Planner);
        self.cluster.freq.roll_window();
        self.queue.schedule(self.cfg.plan_interval_us, Ev::Plan);
    }

    fn monitor_tick(&mut self, proto: &mut dyn Protocol) {
        for (n, w) in self.window_busy.iter_mut().enumerate() {
            *w = self.cluster.workers[n].take_window_busy();
        }
        proto.on_tick(self, TickKind::Monitor);
        self.queue
            .schedule(self.cfg.monitor_interval_us, Ev::Monitor);
    }

    /// Submits one transaction with a caller-built request: the admission
    /// body behind every client submission (tests call it directly to bypass
    /// the workload).
    pub fn inject_txn(&mut self, client: ClientId, req: TxnRequest) -> TxnId {
        let now = self.now();
        // Also the submission sequence number: arrival order, which slab
        // slot reuse decouples from `TxnId`.
        let seq = self.submitted;
        self.submitted += 1;
        let id = self.txns.insert(client, req, now);
        let ctx = self.txns.get_mut(id).expect("live transaction");
        ctx.seq = seq;
        if self.history.len() < self.cfg.history_cap {
            let parts = ctx.parts.clone();
            self.history.push(TxnRecord { at: now, parts });
        }
        id
    }

    /// Assembles the next batch — the deferred carry-over first, then fresh
    /// transactions from the open stream — and hands it to the protocol.
    fn arm_batch(&mut self, proto: &mut dyn Protocol) {
        let now = self.now();
        let mut batch = std::mem::take(&mut self.batch_buf);
        batch.clear();
        batch.reserve(self.cfg.sim.batch_size);
        batch.append(&mut self.deferred);
        for &t in &batch {
            self.txns.get_mut(t).expect("deferred txn is live").parked = false;
        }
        while batch.len() < self.cfg.sim.batch_size {
            // Batch distributors pull from the open stream (§IV-D buffers
            // until the batch size or time window is reached).
            let client = ClientId((batch.len() % self.cfg.sim.total_clients()) as u32);
            let req = self.workload.next_txn(now);
            batch.push(self.inject_txn(client, req));
        }
        self.batch_outstanding = batch.len();
        proto.on_batch(self, &batch);
        self.batch_buf = batch; // recycle the allocation
    }

    /// One transaction of the armed batch finished (committed, deferred or
    /// parked); the last one arms the next batch.
    fn batch_done_one(&mut self) {
        debug_assert!(self.batch_outstanding > 0);
        self.batch_outstanding -= 1;
        if self.batch_outstanding == 0 {
            self.queue.schedule(1, Ev::BatchArm);
        }
    }
}
