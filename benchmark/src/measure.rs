//! One simulated run, timed from outside, and the untraced pass built from
//! repeats of it: the end-to-end metrics and the correctness gate.

use crate::spec::Scenario;
use crate::trace::{TracedProtocol, TracedWorkload, Tracer};
use lion::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Host time between two reference-kernel runs inside `Engine::run` (see
/// [`SliceClock`]): short against the seconds over which the box changes
/// speed, long enough that the kernel costs the run about 1 % of its wall
/// time and evicts the simulator's working set only 60 times a second.
const SLICE_NS: u64 = 16_000_000;
/// The clock is read once per this many generated transactions.
const SLICE_CHECK_TXNS: u64 = 16;

/// Set-ups timed before the first run, on top of one per repeat.
const EXTRA_SETUPS: usize = 24;

/// Host time the reference kernel is *defined* to take: normalised times are
/// what the work would cost with the box in the state in which the kernel
/// takes exactly this long (between its fast state, about 150 µs, and the
/// median over the measurement passes, 170 to 220 µs).
pub const REFERENCE_KERNEL_US: f64 = 170.0;

/// A fixed piece of work in the benchmark's own code, timed right next to the
/// work being measured: dependent multiply/load/store steps, 30 000 over a
/// 256 KiB table (with one data-dependent branch) and 12 000 over a 4 MiB one.
///
/// The box this was built on changes speed under the benchmark: for seconds
/// to minutes at a time it runs the simulator up to 1.6x slower. Six
/// back-to-back invocations of one binary (three 5 s runs each) differed by
/// 19 % in their *minimum* whole-run time, and over two sets of ten passes per
/// workload the raw time per commit had an inter-quartile spread of 11-46 % of
/// its median, so neither a minimum nor a median over repeats holds still.
/// Whatever slows the simulator slows this kernel in the same instant — a
/// compute-only kernel is *not* slowed and a pointer chase is slowed more, so
/// the state is the memory hierarchy's; of the mixes tried these two table
/// sizes tracked the simulator best — so dividing a slice's time by the
/// kernel's, measured back to back, cancels most of the state: the same
/// passes' normalised time per commit had a spread of 2.2-9.7 %. Not all of
/// it: there are episodes, minutes long, in which the simulator is 10-15 %
/// slower than the kernel says. A change to the repository cannot touch the
/// kernel.
struct ReferenceKernel {
    small: Vec<u64>,
    large: Vec<u64>,
    x: u64,
    acc: u64,
}

/// Bytes of the kernel's tables, all resident: taken off `peak_rss_mb`.
const KERNEL_TABLE_BYTES: usize = ((1 << 15) + (1 << 19)) * std::mem::size_of::<u64>();

/// Runs the process's one reference kernel; returns its host ns.
pub fn reference_kernel_ns() -> u64 {
    static KERNEL: OnceLock<Mutex<ReferenceKernel>> = OnceLock::new();
    KERNEL
        .get_or_init(|| Mutex::new(ReferenceKernel::new()))
        .lock()
        .expect("the kernel cannot panic")
        .run_ns()
}

impl ReferenceKernel {
    /// A kernel with warm tables.
    fn new() -> Self {
        let mut k = ReferenceKernel {
            small: vec![1; 1 << 15],
            large: vec![1; 1 << 19],
            x: 1,
            acc: 0,
        };
        k.run_ns();
        k
    }

    /// Runs the kernel once; returns its host ns.
    #[inline(never)]
    fn run_ns(&mut self) -> u64 {
        let t = Instant::now();
        let (mut x, mut acc) = (self.x, self.acc);
        let mut step = |table: &mut [u64], branch: bool| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 40) as usize & (table.len() - 1);
            acc = acc.wrapping_add(table[i]);
            table[i] = acc ^ x;
            if branch && acc & 7 == 3 {
                acc = acc.rotate_left(3);
            }
        };
        for _ in 0..30_000 {
            step(&mut self.small, true);
        }
        for _ in 0..12_000 {
            step(&mut self.large, false);
        }
        (self.x, self.acc) = (x, std::hint::black_box(acc));
        t.elapsed().as_nanos() as u64
    }
}

/// Host time of a piece of work and of the reference kernel run right after it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host ns of the work.
    pub work_ns: u64,
    /// Host ns of the reference kernel.
    pub kernel_ns: u64,
}

impl Timed {
    /// Times the kernel right after `work_ns` of work.
    fn after(work_ns: u64) -> Self {
        Timed {
            work_ns,
            kernel_ns: reference_kernel_ns(),
        }
    }

    /// The work's host µs, normalised to [`REFERENCE_KERNEL_US`].
    pub fn normalised_us(&self) -> f64 {
        self.work_ns as f64 / self.kernel_ns as f64 * REFERENCE_KERNEL_US
    }
}

/// One stretch of `Engine::run` between two kernel runs.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Its host time and the kernel's right after it.
    pub time: Timed,
    /// Transactions generated in it.
    pub txns: u64,
}

/// The slices of one `Engine::run`: together they cover its whole wall time
/// (net of the kernel's own), so their sum counts all of the run's work —
/// planner ticks, failover replay and table growth included.
struct Slices {
    /// End of the previous slice's kernel run.
    last: Instant,
    /// Transactions generated when it ended, and by now.
    txns_at_last: u64,
    txns: u64,
    done: Vec<Slice>,
}

impl Slices {
    fn close(&mut self) {
        let time = Timed::after(self.last.elapsed().as_nanos() as u64);
        self.done.push(Slice {
            time,
            txns: self.txns - self.txns_at_last,
        });
        self.txns_at_last = self.txns;
        self.last = Instant::now();
    }
}

/// Cuts `Engine::run` into slices of about [`SLICE_NS`] of host time from the
/// one place the engine calls back into benchmark code in every run, traced
/// or not: the request generator.
struct SliceClock {
    inner: Box<dyn Workload>,
    calls: u64,
    slices: Arc<Mutex<Slices>>,
}

impl Workload for SliceClock {
    fn next_txn(&mut self, now: Time) -> TxnRequest {
        self.calls += 1;
        if self.calls.is_multiple_of(SLICE_CHECK_TXNS) {
            let mut s = self.slices.lock().expect("single-threaded");
            s.txns = self.calls;
            if s.last.elapsed().as_nanos() as u64 >= SLICE_NS {
                s.close();
            }
        }
        self.inner.next_txn(now)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Exact client-visible ack latencies, one counter per virtual µs, so the
/// reported quantiles are interpolated within 1 µs bins instead of snapping
/// to the run sink's 3 %-wide histogram buckets.
pub struct AckLatencies {
    counts: Vec<u32>,
    total: u64,
}

impl AckLatencies {
    /// Latencies at or beyond this many µs share the last bin.
    const CAP_US: usize = 1 << 20;

    fn new() -> Self {
        AckLatencies {
            counts: vec![0; Self::CAP_US],
            total: 0,
        }
    }

    /// Acks seen.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Grouped-data quantile: the bin `[v, v+1)` holding rank `q·n`, plus the
    /// rank's position inside that bin.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c as u64) as f64 >= rank {
                return v as f64 + (rank - below as f64) / c as f64;
            }
            below += c as u64;
        }
        0.0
    }
}

struct AckSink(Rc<RefCell<AckLatencies>>);

impl MetricSink for AckSink {
    fn on_event(&mut self, ev: &MetricEvent) {
        if let MetricEvent::Ack { latency_us, .. } = ev {
            let mut a = self.0.borrow_mut();
            let bin = (*latency_us as usize).min(AckLatencies::CAP_US - 1);
            a.counts[bin] += 1;
            a.total += 1;
        }
    }
}

/// A finished run: the engine in its end state plus everything timed around it.
pub struct Finished {
    /// The engine after `run` (end placement, stores, run sink).
    pub eng: Engine,
    /// The run's report.
    pub report: RunReport,
    /// Building workload, engine and protocol.
    pub setup: Timed,
    /// Host seconds inside `Engine::run`, net of the reference kernel's.
    pub wall_s: f64,
    /// The run's slices, first to last.
    pub slices: Vec<Slice>,
    /// Exact ack latencies.
    pub acks: Rc<RefCell<AckLatencies>>,
}

/// Builds and runs one scenario; with a tracer, the protocol and workload
/// decorators and the counting sink are attached (pure observers: the digest
/// must not move).
pub fn run_once(scn: &Scenario, mut tracer: Option<&mut Tracer>) -> Finished {
    let t0 = Instant::now();
    let slices = Arc::new(Mutex::new(Slices {
        last: t0,
        txns_at_last: 0,
        txns: 0,
        done: Vec::new(),
    }));
    let mut workload = scn.workload();
    if let Some(tr) = tracer.as_deref_mut() {
        workload = Box::new(TracedWorkload::new(workload, tr));
    }
    // Outermost, so that the kernel's time lands in no decorator's span.
    let workload = Box::new(SliceClock {
        inner: workload,
        calls: 0,
        slices: slices.clone(),
    });
    let mut eng = Engine::new(scn.engine_config(), workload);
    let acks = Rc::new(RefCell::new(AckLatencies::new()));
    eng.obs.extras.push(Box::new(AckSink(acks.clone())));
    if let Some(tr) = tracer.as_deref_mut() {
        eng.obs.extras.push(tr.sink());
    }
    let mut proto = scn.protocol();
    let setup = Timed::after(t0.elapsed().as_nanos() as u64);

    let t1 = Instant::now();
    slices.lock().expect("single-threaded").last = t1;
    let report = match tracer {
        Some(tr) => {
            let mut traced = TracedProtocol::new(proto, tr, t1);
            let report = eng.run(&mut traced, scn.horizon());
            traced.finish(t1.elapsed());
            report
        }
        None => eng.run(proto.as_mut(), scn.horizon()),
    };
    // The last slice: from the last kernel run to the end of `Engine::run`.
    let slices = {
        let mut s = slices.lock().expect("single-threaded");
        s.close();
        std::mem::take(&mut s.done)
    };
    let kernel_s = slices.iter().map(|s| s.time.kernel_ns).sum::<u64>() as f64 / 1e9;
    let wall_s = t1.elapsed().as_secs_f64() - kernel_s;
    Finished {
        eng,
        report,
        setup,
        wall_s,
        slices,
        acks,
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Normalised host µs of all the slices' work: each slice's time is divided
/// by the kernel time measured right after it, then all are summed, so the
/// box's state cancels slice by slice and no work is left out.
pub fn normalised_us(slices: &[Slice]) -> f64 {
    slices.iter().map(|s| s.time.normalised_us()).sum()
}

/// Normalised host µs per transaction, one value per slice that generated any.
pub fn us_per_txn(slices: &[Slice]) -> Vec<f64> {
    slices
        .iter()
        .filter(|s| s.txns > 0)
        .map(|s| s.time.normalised_us() / s.txns as f64)
        .collect()
}

/// What must hold of every run, traced or not. Returns the violations.
pub fn violations(scn: &Scenario, run: &Finished) -> Vec<String> {
    let r = &run.report;
    let mut bad = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{}: {what}", scn.spec.name));
        }
    };
    require(r.commits > 0, "no transaction committed".into());
    require(
        r.acked_then_lost == 0,
        format!("acked_then_lost = {}", r.acked_then_lost),
    );
    require(
        run.acks.borrow().total() == r.acked,
        "ack sink and run sink disagree".into(),
    );
    if let Err(e) = run.eng.cluster.check_invariants() {
        require(false, format!("cluster invariant broken: {e}"));
    }
    if scn.crash().is_some() {
        // Node 1 starts with one primary per partition slot; 2PC never moves
        // them before the crash, so every one of them fails over.
        let expect = crate::spec::PARTS_PER_NODE as u64;
        require(r.crashes == 1, format!("crashes = {}", r.crashes));
        require(
            r.failovers == expect,
            format!("failovers = {} (want {expect})", r.failovers),
        );
        let open = run
            .eng
            .metrics
            .unavailability
            .iter()
            .filter(|w| w.until.is_none())
            .count();
        require(
            open == 0,
            format!("{open} unavailability windows still open at the horizon"),
        );
    }
    bad
}

/// `VmHWM` of this process in MiB, net of the reference kernel's tables
/// (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| {
            kb / 1024.0 - KERNEL_TABLE_BYTES as f64 / (1 << 20) as f64
        })
}

/// The untraced pass: repeats of one scenario until `seconds` of host time
/// have been measured.
pub struct Pass {
    /// The first repeat's report (every repeat's digest equals its digest,
    /// or the pass is incorrect).
    pub report: RunReport,
    /// Ack quantiles (p50, p99) of the first repeat.
    pub ack_p50_us: f64,
    /// See `ack_p50_us`.
    pub ack_p99_us: f64,
    /// Commits and acked-then-lost writes, summed over the repeats.
    pub commits: u64,
    /// See `commits`.
    pub acked_then_lost: u64,
    /// Host seconds inside `Engine::run`, one per repeat.
    pub walls_s: Vec<f64>,
    /// Slices of all repeats, pooled.
    pub slices: Vec<Slice>,
    /// Set-ups: [`EXTRA_SETUPS`] up front plus one per repeat.
    pub setups: Vec<Timed>,
    /// `VmHWM` after the first repeat, which is what a process that ran the
    /// workload once would show; later repeats only add allocator slack.
    pub peak_rss_mb: f64,
    /// Correctness violations (empty = correct).
    pub violations: Vec<String>,
}

/// Runs the untraced pass. At least two repeats run when `min_repeats` is 2,
/// so digest equality across repeats is always checked at full scale.
pub fn untraced_pass(scn: &Scenario, seconds: f64, min_repeats: usize) -> Pass {
    let mut setups: Vec<Timed> = (0..EXTRA_SETUPS)
        .map(|_| {
            let t = Instant::now();
            let eng = Engine::new(scn.engine_config(), scn.workload());
            let proto = scn.protocol();
            let timed = Timed::after(t.elapsed().as_nanos() as u64);
            drop((eng, proto));
            timed
        })
        .collect();

    let started = Instant::now();
    let first = run_once(scn, None);
    let peak_rss_mb = peak_rss_mb();
    let mut violations = violations(scn, &first);
    let digest = first.report.digest();
    let (ack_p50_us, ack_p99_us) = {
        let a = first.acks.borrow();
        (a.quantile(0.50), a.quantile(0.99))
    };
    setups.push(first.setup);
    let mut commits = first.report.commits;
    let mut acked_then_lost = first.report.acked_then_lost;
    let mut walls_s = vec![first.wall_s];
    let mut slices = first.slices;
    let report = first.report;
    drop(first.eng);

    // Another repeat starts only while half of it still fits, so the pass
    // measures `seconds` give or take half a run.
    while walls_s.len() < min_repeats
        || started.elapsed().as_secs_f64() + walls_s[walls_s.len() - 1] / 2.0 <= seconds
    {
        let run = run_once(scn, None);
        if run.report.digest() != digest {
            violations.push(format!(
                "{}: repeat {} digest {:#018x} != first {digest:#018x}",
                scn.spec.name,
                walls_s.len() + 1,
                run.report.digest()
            ));
        }
        setups.push(run.setup);
        commits += run.report.commits;
        acked_then_lost += run.report.acked_then_lost;
        walls_s.push(run.wall_s);
        slices.extend(run.slices);
    }
    Pass {
        report,
        ack_p50_us,
        ack_p99_us,
        commits,
        acked_then_lost,
        walls_s,
        slices,
        setups,
        peak_rss_mb,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    /// The headline host metric must count all of `Engine::run`: the slices
    /// tile its wall time, tail included.
    #[test]
    fn slices_tile_the_whole_run() {
        let scn = Scenario {
            spec: crate::spec::by_name("ycsb_lion").unwrap(),
            seed: 3,
            scale_div: 25,
        };
        let run = run_once(&scn, None);
        assert!(run.slices.len() >= 2, "several slices even in a 0.2 s run");
        let work_s = run.slices.iter().map(|s| s.time.work_ns).sum::<u64>() as f64 / 1e9;
        assert!(
            (work_s - run.wall_s).abs() < 0.002 + 0.01 * run.wall_s,
            "slices cover {work_s} s of a {} s run",
            run.wall_s
        );
        let txns: u64 = run.slices.iter().map(|s| s.txns).sum();
        let submitted = run.eng.submitted();
        assert!(txns <= submitted && txns + SLICE_CHECK_TXNS > submitted);
        assert!(normalised_us(&run.slices) > 0.0);
    }

    #[test]
    fn ack_quantile_is_grouped_median() {
        let mut a = AckLatencies::new();
        // 10 acks at 100 µs, 30 at 200 µs: the median rank 20 is a third of
        // the way through the 200 µs bin.
        a.counts[100] = 10;
        a.counts[200] = 30;
        a.total = 40;
        assert!((a.quantile(0.5) - (200.0 + 10.0 / 30.0)).abs() < 1e-9);
        assert!(a.quantile(0.1) > 100.0 && a.quantile(0.1) < 101.0);
    }
}
