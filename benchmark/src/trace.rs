//! The traced pass's observers: decorators around the `Protocol` and
//! `Workload` trait objects and a counting `MetricSink`, all in the
//! benchmark's own files. They time and count at the engine's public
//! boundaries; spans inside the program are a later issue.
//!
//! Every call is counted and its host time accumulated. Full spans (name,
//! start, end, parent, transaction id) are kept only for a deterministic
//! 1-in-1024 sample of `TxnId`s (and of generator calls), in memory, and
//! written out after the run.

use crate::spec::splitmix;
use lion::engine::{CommitClass, TickKind};
use lion::prelude::*;
use std::cell::RefCell;
use std::io::Write as _;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The sink keeps this many leading events for the `lion-obs` replay.
pub const RECORDED_EVENTS_CAP: usize = 1_000_000;
/// The protocol decorator keeps this many leading event pops for the
/// `lion-sim` replay.
pub const RECORDED_POPS_CAP: usize = 2_200_000;
/// Width of the sink's commit-class windows (virtual µs).
pub const CLASS_WINDOW_US: Time = 100_000;

/// True for the 1-in-1024 ids whose calls are kept as full spans.
fn sampled(id: u64) -> bool {
    splitmix(id) & 1023 == 0
}

/// Folds one request into the stream fingerprint the replays must reproduce.
pub fn fold_request(fp: u64, req: &TxnRequest) -> u64 {
    req.ops
        .iter()
        .fold(fp.rotate_left(7) ^ req.ops.len() as u64, |h, op| {
            splitmix(
                h ^ op.key
                    ^ ((op.partition.0 as u64) << 48)
                    ^ ((op.kind == OpKind::Write) as u64) << 63,
            )
        })
}

/// One kept span. Ids are assigned at write-out; every span's parent is the
/// root `engine.run` span, because the engine calls the protocol and the
/// generator only from its own loop, never from inside one another.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Host ns since the tracer was created.
    pub start_ns: u64,
    /// Host ns since the tracer was created.
    pub end_ns: u64,
    /// The transaction (protocol spans) or call index (generator spans).
    pub txn: Option<u64>,
    /// Virtual time of the call.
    pub sim_us: Time,
}

/// The protocol callbacks, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `on_submit`.
    Submit,
    /// `on_wake`.
    Wake,
    /// `on_batch`.
    Batch,
    /// `on_tick(Planner)`.
    TickPlanner,
    /// `on_tick(Monitor)`.
    TickMonitor,
    /// `on_fault`.
    Fault,
}

/// Counts and host time per protocol callback.
#[derive(Debug, Default, Clone)]
pub struct ProtoStats {
    /// Calls per [`Callback`].
    pub calls: [u64; 6],
    /// Host ns per [`Callback`], including the engine ops, OCC and cluster
    /// calls the protocol makes beneath it.
    pub busy_ns: [u64; 6],
    /// Transactions handed over by `on_batch`.
    pub batch_txns: u64,
    /// The first [`RECORDED_POPS_CAP`] events the engine popped for the
    /// protocol, in pop order: (chain, virtual time). A chain is what
    /// schedules its own next event: a transaction-arena slot (a slot's next
    /// occupant is the client's next transaction), or one of the `*_CHAIN`
    /// timers.
    pub pops: Vec<(u32, Time)>,
}

/// Chain ids of the events that are not a transaction's (see [`ProtoStats::pops`]).
const BATCH_CHAIN: u32 = u32::MAX;
const PLANNER_CHAIN: u32 = u32::MAX - 1;
const MONITOR_CHAIN: u32 = u32::MAX - 2;

impl ProtoStats {
    /// Host ns across all callbacks.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Events the engine popped for the protocol: every callback but
    /// `on_fault`, which runs inside another event's handling.
    pub fn pops_seen(&self) -> u64 {
        self.calls.iter().sum::<u64>() - self.calls[Callback::Fault as usize]
    }
}

/// What the generator decorator saw.
#[derive(Debug, Default)]
pub struct GenStats {
    /// `next_txn` calls.
    pub calls: u64,
    /// Host ns inside the wrapped `next_txn`.
    pub busy_ns: u64,
    /// The `now` argument of every call: with a fresh generator of the same
    /// scenario this regenerates the exact request stream the run saw.
    pub nows: Vec<Time>,
    /// [`fold_request`] over the stream.
    pub fingerprint: u64,
    /// Sampled calls.
    pub spans: Vec<Span>,
}

/// What the counting sink saw.
#[derive(Default)]
pub struct SinkState {
    /// Events emitted into the hub.
    pub events: u64,
    /// The first [`RECORDED_EVENTS_CAP`] of them.
    pub recorded: Vec<MetricEvent>,
    /// Commits seen.
    pub commits: u64,
    /// Per [`CLASS_WINDOW_US`] window: (single-node or remastered, all) commits.
    pub class_windows: Vec<(u32, u32)>,
}

struct CountingSink(Rc<RefCell<SinkState>>);

impl MetricSink for CountingSink {
    fn on_event(&mut self, ev: &MetricEvent) {
        let mut s = self.0.borrow_mut();
        s.events += 1;
        if s.recorded.len() < RECORDED_EVENTS_CAP {
            s.recorded.push(ev.clone());
        }
        if let MetricEvent::Commit { at, class, .. } = ev {
            s.commits += 1;
            let w = (*at / CLASS_WINDOW_US) as usize;
            if s.class_windows.len() <= w {
                s.class_windows.resize(w + 1, (0, 0));
            }
            s.class_windows[w].0 += (*class != CommitClass::Distributed) as u32;
            s.class_windows[w].1 += 1;
        }
    }
}

/// Everything one traced run collects.
pub struct Tracer {
    origin: Instant,
    /// Protocol callback counters.
    pub proto: ProtoStats,
    /// Generator counters (shared with the decorator inside the engine).
    pub gen: Arc<Mutex<GenStats>>,
    /// Sink counters (shared with the sink inside the hub).
    pub sink: Rc<RefCell<SinkState>>,
    /// Sampled protocol spans, then the root span once the run ends.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            proto: ProtoStats::default(),
            gen: Arc::default(),
            sink: Rc::default(),
            spans: Vec::new(),
        }
    }

    /// The counting sink to push into `eng.obs.extras`.
    pub fn sink(&self) -> Box<dyn MetricSink> {
        Box::new(CountingSink(self.sink.clone()))
    }

    /// Spans kept (protocol, generator and root).
    pub fn spans_sampled(&self) -> usize {
        self.spans.len() + self.gen.lock().expect("single-threaded").spans.len()
    }

    /// Writes every kept span as one JSON object per line, root first.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let gen = self.gen.lock().expect("single-threaded");
        let root = self.spans.iter().rev().take(1);
        let rest = self.spans.iter().take(self.spans.len().saturating_sub(1));
        for (id, s) in root.chain(rest).chain(gen.spans.iter()).enumerate() {
            let parent = if id == 0 {
                "null".to_string()
            } else {
                "0".to_string()
            };
            let txn = s.txn.map_or("null".to_string(), |t| t.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"txn\":{txn},\"start_ns\":{},\"end_ns\":{},\"sim_us\":{}}}",
                s.name, s.start_ns, s.end_ns, s.sim_us
            )?;
        }
        out.flush()
    }
}

/// Times and counts every `Protocol` callback of the wrapped protocol.
pub struct TracedProtocol<'a> {
    inner: Box<dyn Protocol>,
    tracer: &'a mut Tracer,
    run_start: Instant,
}

impl<'a> TracedProtocol<'a> {
    /// Wraps `inner`; `run_start` is taken just before `Engine::run`.
    pub fn new(inner: Box<dyn Protocol>, tracer: &'a mut Tracer, run_start: Instant) -> Self {
        TracedProtocol {
            inner,
            tracer,
            run_start,
        }
    }

    /// Closes the root span once `Engine::run` has returned.
    pub fn finish(self, run: Duration) {
        let start_ns = (self.run_start - self.tracer.origin).as_nanos() as u64;
        self.tracer.spans.push(Span {
            name: "engine.run",
            start_ns,
            end_ns: start_ns + run.as_nanos() as u64,
            txn: None,
            sim_us: 0,
        });
    }

    /// Notes the event the engine just popped; call before the callback runs.
    fn popped(&mut self, chain: u32, now: Time) {
        let pops = &mut self.tracer.proto.pops;
        if pops.len() < RECORDED_POPS_CAP {
            pops.push((chain, now));
        }
    }

    fn record(
        &mut self,
        cb: Callback,
        name: &'static str,
        t0: Instant,
        keep: Option<(Option<u64>, Time)>,
    ) {
        let t1 = Instant::now();
        self.tracer.proto.calls[cb as usize] += 1;
        self.tracer.proto.busy_ns[cb as usize] += (t1 - t0).as_nanos() as u64;
        if let Some((txn, sim_us)) = keep {
            self.tracer.spans.push(Span {
                name,
                start_ns: (t0 - self.tracer.origin).as_nanos() as u64,
                end_ns: (t1 - self.tracer.origin).as_nanos() as u64,
                txn,
                sim_us,
            });
        }
    }
}

impl Protocol for TracedProtocol<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn batch_mode(&self) -> bool {
        self.inner.batch_mode()
    }

    fn on_submit(&mut self, eng: &mut Engine, txn: TxnId) {
        self.popped(txn.slot() as u32, eng.now());
        let keep = sampled(txn.0).then(|| (Some(txn.0), eng.now()));
        let t0 = Instant::now();
        self.inner.on_submit(eng, txn);
        self.record(Callback::Submit, "protocol.on_submit", t0, keep);
    }

    fn on_wake(&mut self, eng: &mut Engine, txn: TxnId, tag: u32) {
        self.popped(txn.slot() as u32, eng.now());
        let keep = sampled(txn.0).then(|| (Some(txn.0), eng.now()));
        let t0 = Instant::now();
        self.inner.on_wake(eng, txn, tag);
        self.record(Callback::Wake, "protocol.on_wake", t0, keep);
    }

    fn on_tick(&mut self, eng: &mut Engine, kind: TickKind) {
        let chain = match kind {
            TickKind::Planner => PLANNER_CHAIN,
            TickKind::Monitor => MONITOR_CHAIN,
        };
        self.popped(chain, eng.now());
        let keep = Some((None, eng.now()));
        let t0 = Instant::now();
        self.inner.on_tick(eng, kind);
        match kind {
            TickKind::Planner => {
                self.record(Callback::TickPlanner, "protocol.on_tick.planner", t0, keep)
            }
            TickKind::Monitor => {
                self.record(Callback::TickMonitor, "protocol.on_tick.monitor", t0, keep)
            }
        }
    }

    fn on_batch(&mut self, eng: &mut Engine, batch: &[TxnId]) {
        let keep = batch
            .first()
            .filter(|t| sampled(t.0))
            .map(|t| (Some(t.0), eng.now()));
        self.popped(BATCH_CHAIN, eng.now());
        self.tracer.proto.batch_txns += batch.len() as u64;
        let t0 = Instant::now();
        self.inner.on_batch(eng, batch);
        self.record(Callback::Batch, "protocol.on_batch", t0, keep);
    }

    fn on_fault(&mut self, eng: &mut Engine, notice: &FaultNotice) {
        let keep = Some((None, eng.now()));
        let t0 = Instant::now();
        self.inner.on_fault(eng, notice);
        self.record(Callback::Fault, "protocol.on_fault", t0, keep);
    }
}

/// Times and counts every `next_txn` of the wrapped generator and records
/// what the replays need to regenerate the stream.
pub struct TracedWorkload {
    inner: Box<dyn Workload>,
    origin: Instant,
    stats: Arc<Mutex<GenStats>>,
}

impl TracedWorkload {
    /// Wraps `inner`, reporting into `tracer`.
    pub fn new(inner: Box<dyn Workload>, tracer: &Tracer) -> Self {
        TracedWorkload {
            inner,
            origin: tracer.origin,
            stats: tracer.gen.clone(),
        }
    }
}

impl Workload for TracedWorkload {
    fn next_txn(&mut self, now: Time) -> TxnRequest {
        let t0 = Instant::now();
        let req = self.inner.next_txn(now);
        let t1 = Instant::now();
        let mut s = self.stats.lock().expect("single-threaded");
        if sampled(s.calls) {
            let call = s.calls;
            s.spans.push(Span {
                name: "workloads.next_txn",
                start_ns: (t0 - self.origin).as_nanos() as u64,
                end_ns: (t1 - self.origin).as_nanos() as u64,
                txn: Some(call),
                sim_us: now,
            });
        }
        s.calls += 1;
        s.busy_ns += (t1 - t0).as_nanos() as u64;
        s.nows.push(now);
        s.fingerprint = fold_request(s.fingerprint, &req);
        req
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
