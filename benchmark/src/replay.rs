//! Layer replays: after a traced run, each layer is driven directly,
//! outside the engine, with the inputs that run produced — the regenerated
//! request stream, the recorded metric events, the run's configuration — and
//! timed with one clock pair around many calls. A replay gives a layer's own
//! cost per operation; multiplied by the run's operation count it estimates
//! the layer's share of the run's host time.

use crate::spec::{splitmix, Scenario, PLAN_INTERVAL_US};
use crate::trace::fold_request;
use lion::cluster::Cluster;
use lion::common::TxnRecord;
use lion::engine::{EpochManager, PendingAck};
use lion::obs::{Metrics, ObsHub};
use lion::planner::{generate_clumps, rearrange, HeatGraph};
use lion::prelude::*;
use lion::sim::CalendarQueue;
use lion::storage::{Bytes, OpOutcome, ReplicaStore, Table};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Requests the storage replay drives (the stream's first this-many).
const STORAGE_TXNS: usize = 200_000;
/// Transactions whose OCC phases run back to back between clock reads.
const STORAGE_CHUNK: usize = 256;
/// Epochs and acks per epoch the durability replay drives.
const EPOCHS: u64 = 2_000;
const ACKS_PER_EPOCH: u64 = 256;
/// `plan_failover` calls the faults replay times.
const FAILOVER_PLANS: usize = 20_000;
/// Arrival-rate samples the predictor replay cuts the horizon into.
const RATE_SAMPLES: u64 = 60;

fn ns_per(elapsed_ns: u128, n: u64) -> f64 {
    elapsed_ns as f64 / n.max(1) as f64
}

/// Shape of the regenerated request stream.
#[derive(Debug, Default, Clone)]
pub struct StreamStats {
    /// Requests regenerated.
    pub txns: u64,
    /// Operations across them.
    pub ops: u64,
    /// Write operations across them.
    pub writes: u64,
    /// Distinct partitions per request, summed.
    pub parts: u64,
    /// [`fold_request`] over the stream; equals the run's when the replays
    /// consumed exactly what the run saw.
    pub fingerprint: u64,
}

/// `lion-storage` costs.
#[derive(Debug, Default, Clone)]
pub struct StorageTimes {
    /// `occ_read`, ns per read op.
    pub read_ns_per_op: f64,
    /// `occ_lock` + `occ_install` (or `occ_unlock` on an aborted attempt), ns
    /// per write op.
    pub lock_install_ns_per_write: f64,
    /// `occ_validate_read`, ns per read op.
    pub validate_ns_per_read: f64,
    /// `ReplicationLog::append`, ns per installed write.
    pub log_append_ns_per_write: f64,
}

/// `lion-planner` costs and decisions, means over planning rounds.
#[derive(Debug, Default, Clone)]
pub struct PlannerTimes {
    /// `HeatGraph::add_txn`, ns per transaction.
    pub heatgraph_build_ns_per_txn: f64,
    /// `generate_clumps`, µs per round.
    pub generate_clumps_us: f64,
    /// `rearrange` (Algorithm 1), µs per round.
    pub rearrange_us: f64,
    /// Clumps per round.
    pub clumps_per_round: f64,
    /// Plan entries (remaster / add-replica actions) per round.
    pub plan_actions_per_round: f64,
}

/// `lion-predictor` costs and accuracy.
#[derive(Debug, Default, Clone)]
pub struct PredictorTimes {
    /// `WorkloadPredictor::observe`, ns per transaction.
    pub observe_ns_per_txn: f64,
    /// `WorkloadPredictor::predict`, µs per call (training included).
    pub predict_us_per_call: f64,
    /// `Lstm::fit` on the first three quarters of the arrival-rate series, ms.
    pub lstm_fit_ms: f64,
    /// MSE of that model on the held-out last quarter.
    pub forecast_mse: f64,
}

/// What the replays over the regenerated request stream measured.
#[derive(Debug, Default, Clone)]
pub struct StreamReplays {
    /// Stream shape and fingerprint.
    pub stream: StreamStats,
    /// Storage layer.
    pub storage: StorageTimes,
    /// Planner layer.
    pub planner: PlannerTimes,
    /// Predictor layer.
    pub predictor: PredictorTimes,
}

/// One planning window's worth of routed-transaction records.
struct Window {
    records: Vec<TxnRecord>,
    ends_at: Time,
}

/// Streams the regenerated requests once, feeding the stream statistics, the
/// storage replay's prefix, the per-window planner and predictor rounds and
/// the arrival-rate series, so memory stays bounded by one planning window.
/// `abort_rate` is the traced run's (aborted attempts ÷ all attempts).
pub fn stream_replays(scn: &Scenario, nows: &[Time], abort_rate: f64) -> StreamReplays {
    let mut out = StreamReplays::default();
    let mut generator = scn.workload();
    let sim = scn.sim();

    let mut storage_prefix: Vec<TxnRequest> = Vec::with_capacity(STORAGE_TXNS.min(nows.len()));
    let mut planner = PlannerReplay::new(&sim);
    let mut predictor = PredictorReplay::new(scn);
    let mut window = Window {
        records: Vec::new(),
        ends_at: PLAN_INTERVAL_US,
    };
    // Retention mirrors the engine: the earliest `history_cap` records of a
    // planning window survive until the planner drains them.
    let history_cap = EngineConfig::default().history_cap;

    let rate_interval = (scn.horizon() / RATE_SAMPLES).max(1);
    let mut rate_series = vec![0.0f64; RATE_SAMPLES as usize];
    let mut rate_part = None;

    for &now in nows {
        let req = generator.next_txn(now);
        out.stream.fingerprint = fold_request(out.stream.fingerprint, &req);
        let parts = req.partitions();
        out.stream.txns += 1;
        out.stream.ops += req.ops.len() as u64;
        out.stream.writes += req.write_count() as u64;
        out.stream.parts += parts.len() as u64;

        let watched = *rate_part.get_or_insert(parts[0]);
        if parts.contains(&watched) {
            let sample = ((now / rate_interval) as usize).min(rate_series.len() - 1);
            rate_series[sample] += 1.0;
        }

        while now >= window.ends_at {
            planner.round(&window.records);
            predictor.round(&window);
            window.records.clear();
            window.ends_at += PLAN_INTERVAL_US;
        }
        if window.records.len() < history_cap {
            window.records.push(TxnRecord { at: now, parts });
        }
        if storage_prefix.len() < STORAGE_TXNS {
            storage_prefix.push(req);
        }
    }
    planner.round(&window.records);
    predictor.round(&window);

    out.planner = planner.finish();
    out.predictor = predictor.finish(&rate_series, splitmix(scn.seed ^ 0x157));
    out.storage = storage_replay(&sim, &storage_prefix, abort_rate);
    out
}

/// Algorithm 1 replayed over each planning window, against a placement that
/// applies every plan instantly.
struct PlannerReplay {
    cfg: PlannerConfig,
    placement: Placement,
    rounds: u64,
    graph_txns: u64,
    graph_ns: u128,
    clumps_ns: u128,
    rearrange_ns: u128,
    clumps: u64,
    actions: u64,
}

impl PlannerReplay {
    fn new(sim: &SimConfig) -> Self {
        PlannerReplay {
            cfg: PlannerConfig::default(),
            placement: Cluster::new(sim.clone()).placement,
            rounds: 0,
            graph_txns: 0,
            graph_ns: 0,
            clumps_ns: 0,
            rearrange_ns: 0,
            clumps: 0,
            actions: 0,
        }
    }

    fn round(&mut self, records: &[TxnRecord]) {
        if records.is_empty() {
            return;
        }
        // The planner analyses the newest `history_cap` of what it drained.
        let recent = &records[records.len().saturating_sub(self.cfg.history_cap)..];
        let mut graph = HeatGraph::new(self.placement.n_partitions());
        let t = Instant::now();
        for rec in recent {
            graph.add_txn(&rec.parts, 1.0, &self.placement, self.cfg.cross_edge_boost);
        }
        self.graph_ns += t.elapsed().as_nanos();
        self.graph_txns += recent.len() as u64;

        let t = Instant::now();
        let clumps = generate_clumps(&graph, self.cfg.alpha, self.cfg.max_clump_size);
        self.clumps_ns += t.elapsed().as_nanos();
        self.clumps += clumps.len() as u64;

        let freq = graph.normalized_weights();
        let t = Instant::now();
        let plan = rearrange(clumps, &self.placement, &freq, &self.cfg, true);
        self.rearrange_ns += t.elapsed().as_nanos();
        self.actions += plan.entries.len() as u64;
        plan.apply_to(&mut self.placement);
        self.rounds += 1;
    }

    fn finish(self) -> PlannerTimes {
        let rounds = self.rounds.max(1) as f64;
        PlannerTimes {
            heatgraph_build_ns_per_txn: ns_per(self.graph_ns, self.graph_txns),
            generate_clumps_us: self.clumps_ns as f64 / 1e3 / rounds,
            rearrange_us: self.rearrange_ns as f64 / 1e3 / rounds,
            clumps_per_round: self.clumps as f64 / rounds,
            plan_actions_per_round: self.actions as f64 / rounds,
        }
    }
}

/// The predictor fed window by window, sampling arrival rates
/// [`RATE_SAMPLES`] times per horizon so that even a 6 s run spans several
/// LSTM training windows (the protocol's own 5 s sampling never trains
/// inside these horizons).
struct PredictorReplay {
    predictor: WorkloadPredictor,
    observed: u64,
    observe_ns: u128,
    predicts: u64,
    predict_ns: u128,
}

impl PredictorReplay {
    fn new(scn: &Scenario) -> Self {
        let cfg = PredictorConfig {
            sample_interval_us: (scn.horizon() / RATE_SAMPLES).max(1),
            ..lion::core::LionConfig::lion().predictor
        };
        PredictorReplay {
            predictor: WorkloadPredictor::new(cfg),
            observed: 0,
            observe_ns: 0,
            predicts: 0,
            predict_ns: 0,
        }
    }

    fn round(&mut self, window: &Window) {
        let t = Instant::now();
        self.predictor.observe(&window.records);
        self.observe_ns += t.elapsed().as_nanos();
        self.observed += window.records.len() as u64;

        let t = Instant::now();
        black_box(self.predictor.predict(window.ends_at));
        self.predict_ns += t.elapsed().as_nanos();
        self.predicts += 1;
    }

    fn finish(self, rate_series: &[f64], seed: u64) -> PredictorTimes {
        let cfg = *self.predictor.config();
        let scale = rate_series.iter().cloned().fold(1.0f64, f64::max);
        let series: Vec<f64> = rate_series.iter().map(|v| v / scale).collect();
        let split = series.len() * 3 / 4;
        let mut net = Lstm::new(cfg.hidden, cfg.layers, seed);
        let t = Instant::now();
        net.fit(&series[..split], cfg.window, cfg.train_epochs, cfg.lr);
        let lstm_fit_ms = t.elapsed().as_secs_f64() * 1e3;
        PredictorTimes {
            observe_ns_per_txn: ns_per(self.observe_ns, self.observed),
            predict_us_per_call: ns_per(self.predict_ns, self.predicts) / 1e3,
            lstm_fit_ms,
            forecast_mse: net.mse(&series[split - cfg.window..], cfg.window),
        }
    }
}

/// The request prefix driven through the OCC steps on fresh primary stores,
/// phase by phase over [`STORAGE_CHUNK`]-transaction chunks: read every read
/// op, lock every write op, validate every read, then install and append to
/// the log. Aborted attempts (read, lock, validate, unlock) run before a
/// request's committing one at the traced run's own rate: `abort_rate` of all
/// attempts, so `abort_rate / (1 - abort_rate)` per request.
fn storage_replay(sim: &SimConfig, reqs: &[TxnRequest], abort_rate: f64) -> StorageTimes {
    let mut stores: Vec<ReplicaStore> = (0..sim.n_partitions())
        .map(|p| {
            ReplicaStore::new_primary(
                PartitionId(p as u32),
                sim.keys_per_partition,
                sim.value_size,
            )
        })
        .collect();
    let aborts_per_request = abort_rate / (1.0 - abort_rate.min(0.99));
    let mut aborts_due = 0.0f64;
    let mut next_txn = 0u64;
    let (mut read_ns, mut lock_ns, mut validate_ns, mut install_ns, mut log_ns) =
        (0u128, 0, 0, 0, 0);
    let (mut n_reads, mut n_writes, mut n_logged) = (0u64, 0u64, 0u64);
    // One entry per attempt of the chunk: (request, attempt id, commits?).
    let mut attempts: Vec<(&TxnRequest, TxnId, bool)> = Vec::new();
    let mut observed: Vec<(TxnId, Op, u64)> = Vec::new();
    let mut locked: Vec<(TxnId, Op, bool)> = Vec::new();
    let mut installed: Vec<(Op, u64, Bytes)> = Vec::new();

    for chunk in reqs.chunks(STORAGE_CHUNK) {
        attempts.clear();
        observed.clear();
        locked.clear();
        for req in chunk {
            aborts_due += aborts_per_request;
            while aborts_due >= 1.0 {
                aborts_due -= 1.0;
                next_txn += 1;
                attempts.push((req, TxnId(next_txn), false));
            }
            next_txn += 1;
            attempts.push((req, TxnId(next_txn), true));
        }

        let t = Instant::now();
        for &(req, txn, _) in &attempts {
            for op in req.ops.iter().filter(|o| o.kind == OpKind::Read) {
                if let OpOutcome::Ok { version } =
                    stores[op.partition.idx()].table.occ_read(op.key, txn)
                {
                    observed.push((txn, *op, version));
                }
                n_reads += 1;
            }
        }
        read_ns += t.elapsed().as_nanos();

        let t = Instant::now();
        for &(req, txn, commits) in &attempts {
            for op in req.ops.iter().filter(|o| o.kind == OpKind::Write) {
                if stores[op.partition.idx()]
                    .table
                    .occ_lock(op.key, txn)
                    .is_ok()
                {
                    locked.push((txn, *op, commits));
                }
                n_writes += 1;
            }
        }
        lock_ns += t.elapsed().as_nanos();

        let t = Instant::now();
        for &(txn, op, version) in &observed {
            black_box(
                stores[op.partition.idx()]
                    .table
                    .occ_validate_read(op.key, version, txn),
            );
        }
        validate_ns += t.elapsed().as_nanos();

        let t = Instant::now();
        for &(txn, op, commits) in &locked {
            let table = &mut stores[op.partition.idx()].table;
            if commits {
                let value = Table::synth_value(op.key, txn.0, sim.value_size);
                let version = table.occ_install(op.key, txn, value.clone());
                installed.push((op, version, value));
            } else {
                table.occ_unlock(op.key, txn);
            }
        }
        install_ns += t.elapsed().as_nanos();

        let t = Instant::now();
        for (op, version, value) in installed.drain(..) {
            stores[op.partition.idx()]
                .log
                .append(op.partition, op.key, version, value);
            n_logged += 1;
        }
        log_ns += t.elapsed().as_nanos();
        for s in &mut stores {
            black_box(s.log.take_pending());
        }
    }
    StorageTimes {
        read_ns_per_op: ns_per(read_ns, n_reads),
        lock_install_ns_per_write: ns_per(lock_ns + install_ns, n_writes),
        validate_ns_per_read: ns_per(validate_ns, n_reads),
        log_append_ns_per_write: ns_per(log_ns, n_logged),
    }
}

/// `CalendarQueue` driven by the events the traced run popped (`pops`, in
/// pop order: chain and virtual time). Each chain's next event is scheduled,
/// at the virtual time the run popped it, when the chain's previous one is
/// popped — which is when the engine scheduled it: a protocol callback
/// schedules its transaction's next wake, a commit re-arms the client. The
/// pending population, the delays and their clustering are therefore the
/// run's own; the queue is sized with the engine's own horizon profile.
/// Returns ns per `schedule`+`pop` pair (0 without pops).
pub fn fel_replay(scn: &Scenario, pops: &[(u32, Time)]) -> f64 {
    if pops.is_empty() {
        return 0.0;
    }
    let cfg = scn.engine_config();
    let sim = &cfg.sim;
    let profile = [
        sim.net.one_way_us,
        sim.net.delay(sim.value_size),
        sim.retry_backoff_us,
        sim.stall_poll_us,
        sim.epoch_us,
        cfg.durability.epoch_commit_us,
        cfg.plan_interval_us,
        cfg.monitor_interval_us,
    ];
    // successor[k]: when pop k's chain is popped next.
    let mut next_on_chain: HashMap<u32, Time> = HashMap::new();
    let mut successor: Vec<Option<Time>> = vec![None; pops.len()];
    for (k, &(chain, at)) in pops.iter().enumerate().rev() {
        successor[k] = next_on_chain.insert(chain, at);
    }
    let mut fel: CalendarQueue<u64> = CalendarQueue::with_profile(&profile);
    // Every chain's first event is pending when the run starts.
    let mut firsts: Vec<Time> = next_on_chain.into_values().collect();
    firsts.sort_unstable();
    for at in firsts {
        fel.schedule_at(at, 0);
    }
    let mut strays = 0u64;
    let mut drive = |fel: &mut CalendarQueue<u64>, from: usize, to: usize| {
        for k in from..to {
            let (at, _) = fel.pop().expect("one pending event per live chain");
            strays += (at != pops[k].1) as u64;
            if let Some(next) = successor[k] {
                fel.schedule_at(next, k as u64);
            }
        }
    };
    // Untimed eleventh: lets the wheel settle on its bucket geometry.
    let warm = pops.len() / 11;
    drive(&mut fel, 0, warm);
    let t = Instant::now();
    drive(&mut fel, warm, pops.len());
    let ns = ns_per(t.elapsed().as_nanos(), (pops.len() - warm) as u64);
    assert_eq!(strays, 0, "the replay pops the run's event times in order");
    ns
}

/// The run's recorded events through a fresh hub (run sink + rollups): ns
/// per `ObsHub::emit`.
pub fn emit_replay(events: Vec<MetricEvent>) -> f64 {
    let n = events.len() as u64;
    let mut hub = ObsHub::new(ObsMode::Full);
    let mut run = Metrics::new();
    let t = Instant::now();
    for ev in events {
        hub.emit(&mut run, ev);
    }
    let ns = ns_per(t.elapsed().as_nanos(), n);
    black_box(run.commits);
    ns
}

/// Epoch group commit's bookkeeping: park a batch of acks, seal with one
/// frontier per partition, release when durable: ns per ack.
pub fn durability_replay(scn: &Scenario) -> f64 {
    let n_parts = scn.sim().n_partitions() as u32;
    let mut mgr = EpochManager::new(DurabilityConfig::epoch(2_000));
    let mut released = 0u64;
    let t = Instant::now();
    for epoch in 0..EPOCHS {
        for i in 0..ACKS_PER_EPOCH {
            let seq = epoch * ACKS_PER_EPOCH + i;
            mgr.park(PendingAck {
                txn: TxnId(seq),
                client: ClientId((i % 96) as u32),
                seq,
                start: epoch * 2_000,
                committed_at: epoch * 2_000 + i,
            });
        }
        let frontiers = (0..n_parts).map(|p| (PartitionId(p), epoch + 1)).collect();
        let id = mgr.seal(frontiers).expect("non-empty epoch seals");
        released += mgr
            .take_durable(id, (epoch + 1) * 2_000)
            .expect("sealed epoch")
            .acks
            .len() as u64;
    }
    let ns = ns_per(t.elapsed().as_nanos(), EPOCHS * ACKS_PER_EPOCH);
    assert_eq!(
        released,
        EPOCHS * ACKS_PER_EPOCH,
        "every parked ack is released"
    );
    ns
}

/// Promotion planning for node 1's partitions on the run's topology, with
/// unshipped log entries on the dead primaries so candidate lag is priced:
/// ns per `plan_failover` call.
pub fn failover_replay(scn: &Scenario) -> f64 {
    let sim = scn.sim();
    let dead = NodeId(1);
    let mut cluster = Cluster::new(sim.clone());
    for part in cluster.placement.primary_partitions_on(dead) {
        let store = cluster.primary_store_mut(part);
        for k in 0..8u64 {
            store.table.occ_lock(k, TxnId(k));
            let value = Table::synth_value(k, 2, sim.value_size);
            let version = store.table.occ_install(k, TxnId(k), value.clone());
            store.log.append(part, k, version, value);
        }
    }
    cluster.crash_node(dead, 0);
    let mut planned = 0usize;
    let t = Instant::now();
    for _ in 0..FAILOVER_PLANS {
        planned += black_box(lion::faults::plan_failover(&cluster, dead)).len();
    }
    let ns = ns_per(t.elapsed().as_nanos(), FAILOVER_PLANS as u64);
    assert_eq!(
        planned,
        FAILOVER_PLANS * sim.partitions_per_node,
        "one decision per orphaned partition"
    );
    ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn tiny(name: &str) -> Scenario {
        Scenario {
            spec: crate::spec::by_name(name).unwrap(),
            seed: 3,
            scale_div: 50,
        }
    }

    #[test]
    fn stream_replay_regenerates_the_generators_stream() {
        for spec in WORKLOADS {
            let scn = tiny(spec.name);
            // A run would call `next_txn` with non-decreasing virtual times.
            let nows: Vec<Time> = (0..3_000u64).map(|i| i * scn.horizon() / 3_000).collect();
            let mut generator = scn.workload();
            let (mut fp, mut ops) = (0u64, 0u64);
            for &now in &nows {
                let req = generator.next_txn(now);
                fp = fold_request(fp, &req);
                ops += req.ops.len() as u64;
            }
            let replays = stream_replays(&scn, &nows, 0.25);
            assert_eq!(replays.stream.txns, nows.len() as u64, "{}", spec.name);
            assert_eq!(replays.stream.ops, ops, "{}", spec.name);
            assert_eq!(replays.stream.fingerprint, fp, "{}", spec.name);
            assert!(replays.storage.read_ns_per_op > 0.0);
            assert!(replays.planner.heatgraph_build_ns_per_txn > 0.0);
        }
    }

    #[test]
    fn fel_replay_pops_the_recorded_times() {
        let scn = tiny("ycsb_lion");
        assert_eq!(fel_replay(&scn, &[]), 0.0);
        // Three chains, ties across chains, one chain that ends early; the
        // replay asserts that it pops exactly these times in this order.
        let pops: Vec<(u32, Time)> = (0..3_000u64)
            .map(|k| ((k % 3) as u32, k / 2 * 7))
            .chain([(0, 20_000), (u32::MAX, 500_000), (0, 500_000)])
            .collect();
        assert!(fel_replay(&scn, &pops) > 0.0);
    }

    #[test]
    fn standalone_replays_run() {
        let scn = tiny("ycsb_crash_2pc_epoch");
        assert!(durability_replay(&scn) > 0.0);
        assert!(failover_replay(&scn) > 0.0);
    }
}
