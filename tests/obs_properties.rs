//! Property tests for the observability pipeline (PR 6).
//!
//! Three things have to hold for the streaming-metrics design to be sound:
//!
//! 1. `Histogram::merge` must be equivalent to recording every sample into
//!    one histogram — the zone rollups and the run's latency histogram are
//!    built by merging the per-node cells of `DimensionedSink`, and a merge
//!    that drifted from the ground truth would silently corrupt the
//!    dimensional percentiles and the digest's latency. Those merges must
//!    equal the direct per-zone and global folds, field for field, on any
//!    event stream and contiguous zone map.
//! 2. `RingSeries` decimation must conserve total mass, keep deterministic
//!    power-of-two bucket boundaries, and agree bucket-for-bucket with the
//!    unbounded `TimeSeries` oracle folded to the same width.
//! 3. Sink memory must be constant in run horizon: a run long enough to
//!    overflow the 1024-bucket goodput budget ends with a decimated series
//!    whose footprint is bounded and whose mass still equals `commits`.

use lion::common::{NodeId, SimConfig, Time, ZoneId, SECOND};
use lion::engine::{Engine, EngineConfig, ObsMode, RunReport};
use lion::obs::{ByteClass, CommitClass, MetricEvent, Metrics, ObsHub};
use lion::prelude::Lion;
use lion::sim::{Histogram, RingSeries, TimeSeries, RING_DEFAULT_BUCKETS};
use lion::workloads::{YcsbConfig, YcsbWorkload};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// 1. Histogram::merge ≡ record-everything-into-one
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn histogram_merge_equals_single_histogram(
        // Several shards of samples spanning the interesting bucket regimes:
        // exact small values, linear sub-buckets, and geometric tails.
        shards in proptest::collection::vec(
            proptest::collection::vec(0u64..1u64 << 34, 0..40),
            1..6,
        ),
        q in 0.0f64..=1.0,
    ) {
        let mut merged = Histogram::new();
        let mut single = Histogram::new();
        for shard in &shards {
            let mut h = Histogram::new();
            for &v in shard {
                h.record(v);
                single.record(v);
            }
            merged.merge(&h);
        }
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.max(), single.max());
        prop_assert_eq!(merged.min(), single.min());
        prop_assert_eq!(merged.mean().to_bits(), single.mean().to_bits());
        // Same counts in the same buckets ⇒ identical percentile answers,
        // at every quantile, not just the headline ones.
        prop_assert_eq!(merged.quantile(q), single.quantile(q));
        for q in [0.1, 0.5, 0.95, 0.99] {
            prop_assert_eq!(merged.quantile(q), single.quantile(q));
        }
    }
}

// ---------------------------------------------------------------------
// 1. (cont.) Node cells merged ≡ the direct per-zone and global folds
// ---------------------------------------------------------------------

/// The reference fold: every commit, abort and byte fact recorded straight
/// into its zone's accumulator and (latency) into one global histogram —
/// the layout the per-node cells and their merges replaced.
#[derive(Default)]
struct DirectFold {
    /// Per zone: commits, aborts, bytes, latency.
    zones: Vec<(u64, u64, u64, Histogram)>,
    global: Histogram,
}

impl DirectFold {
    fn zone(&mut self, z: ZoneId) -> &mut (u64, u64, u64, Histogram) {
        if z.idx() >= self.zones.len() {
            self.zones.resize_with(z.idx() + 1, Default::default);
        }
        &mut self.zones[z.idx()]
    }

    fn fold(&mut self, ev: &MetricEvent, zone_of: &[ZoneId]) {
        match *ev {
            MetricEvent::Commit {
                latency_us, node, ..
            } => {
                let z = self.zone(zone_of[node.idx()]);
                z.0 += 1;
                z.3.record(latency_us);
                self.global.record(latency_us);
            }
            MetricEvent::Abort { node, .. } => self.zone(zone_of[node.idx()]).1 += 1,
            MetricEvent::Bytes {
                bytes,
                node: Some(n),
                ..
            } => self.zone(zone_of[n.idx()]).2 += bytes,
            _ => {}
        }
    }
}

/// One random event: `(kind, node, value)` with kind 0 = commit, 1 = abort,
/// 2 = bytes from `node`, 3 = bytes from no node.
fn oracle_event(at: Time, (kind, node, v): (u8, u16, u64)) -> MetricEvent {
    let node = NodeId(node);
    match kind {
        0 => MetricEvent::Commit {
            at,
            latency_us: v,
            class: [
                CommitClass::SingleNode,
                CommitClass::Remastered,
                CommitClass::Distributed,
            ][v as usize % 3],
            node,
            phase_us: [v, 0, 0, 0, 0],
        },
        1 => MetricEvent::Abort {
            at,
            fault: v % 2 == 0,
            node,
        },
        _ => MetricEvent::Bytes {
            at,
            class: ByteClass::Message,
            bytes: v,
            node: (kind == 2).then_some(node),
        },
    }
}

proptest! {
    #[test]
    fn node_cells_merge_to_the_direct_zone_and_global_folds(
        n_nodes in 1usize..=8,
        // Node i > 0 opens a new zone when its flag is set: a random
        // contiguous block layout, like `SimConfig::node_zones`.
        zone_starts in proptest::collection::vec(0u8..2, 8..9),
        events in proptest::collection::vec((0u8..4, 0u16..8, 0u64..1u64 << 30), 0..300),
        duration_us in 0u64..10_000_000,
    ) {
        let mut zone_of = Vec::with_capacity(n_nodes);
        let mut z = 0u16;
        for &start in &zone_starts[..n_nodes] {
            if start == 1 && !zone_of.is_empty() {
                z += 1;
            }
            zone_of.push(ZoneId(z));
        }
        let mut hub = ObsHub::new(ObsMode::Full);
        let mut run = Metrics::new();
        let mut direct = DirectFold::default();
        for (i, &(kind, node, v)) in events.iter().enumerate() {
            let ev = oracle_event(i as Time, (kind, node % n_nodes as u16, v));
            direct.fold(&ev, &zone_of);
            hub.emit(&mut run, ev);
        }

        // Zone rows: every field, floats by bits.
        let zones = hub.dims.zone_rollups(duration_us, &zone_of);
        prop_assert_eq!(zones.len(), direct.zones.len());
        let secs = duration_us.max(1) as f64 / 1e6;
        for (i, (row, (commits, aborts, bytes, lat))) in zones.iter().zip(&direct.zones).enumerate() {
            prop_assert_eq!(&row.label, &format!("Z{i}"));
            prop_assert_eq!(row.commits, *commits);
            prop_assert_eq!(row.aborts, *aborts);
            prop_assert_eq!(row.bytes, *bytes);
            prop_assert_eq!(row.goodput_tps.to_bits(), (*commits as f64 / secs).to_bits());
            prop_assert_eq!(row.mean_latency_us.to_bits(), lat.mean().to_bits());
            prop_assert_eq!(row.p50_us, lat.quantile(0.50));
            prop_assert_eq!(row.p95_us, lat.quantile(0.95));
        }

        // The run histogram: the merge of every node cell.
        let merged = hub.dims.latency();
        let want = &direct.global;
        prop_assert_eq!(merged.count(), want.count());
        prop_assert_eq!(merged.min(), want.min());
        prop_assert_eq!(merged.max(), want.max());
        prop_assert_eq!(merged.mean().to_bits(), want.mean().to_bits());
        for q in [0.1, 0.5, 0.95, 0.99] {
            prop_assert_eq!(merged.quantile(q), want.quantile(q));
        }

        // Every commit lands in exactly one node cell.
        let node_commits: u64 = hub.dims.node_rollups(duration_us).iter().map(|r| r.commits).sum();
        prop_assert_eq!(node_commits, run.commits);
    }
}

// ---------------------------------------------------------------------
// 2. RingSeries decimation vs the TimeSeries oracle
// ---------------------------------------------------------------------

/// Folds the oracle's buckets down to `width` (a multiple of its own).
fn fold_oracle(oracle: &TimeSeries, width: Time) -> Vec<f64> {
    let fold = (width / oracle.bucket_us()) as usize;
    oracle
        .buckets()
        .chunks(fold)
        .map(|c| c.iter().sum())
        .collect()
}

proptest! {
    #[test]
    fn ring_decimation_conserves_mass_and_matches_oracle(
        adds in proptest::collection::vec((0u64..200_000, 1u64..100), 1..200),
        capacity in 2usize..32,
    ) {
        let mut ring = RingSeries::with_capacity(1_000, capacity);
        let mut oracle = TimeSeries::new(1_000);
        let mut mass = 0u64;
        for &(at, v) in &adds {
            ring.add(at, v as f64);
            oracle.add(at, v as f64);
            mass += v;
        }

        // Deterministic power-of-two boundaries: the width only ever
        // doubles, and the store never exceeds its budget.
        let factor = ring.bucket_us() / 1_000;
        prop_assert!(factor.is_power_of_two());
        prop_assert!(ring.buckets().len() <= capacity);

        // Mass conserved exactly (integral accumulators < 2^53).
        prop_assert_eq!(ring.total() as u64, mass);
        prop_assert_eq!(oracle.total() as u64, mass);

        // Bucket-for-bucket agreement with the oracle folded to the
        // decimated width (trailing all-zero oracle buckets excepted —
        // the ring never materializes buckets past its last add).
        let folded = fold_oracle(&oracle, ring.bucket_us());
        for (i, &want) in folded.iter().enumerate() {
            let got = ring.buckets().get(i).copied().unwrap_or(0.0);
            prop_assert_eq!(got, want, "bucket {} diverged", i);
        }
    }

    #[test]
    fn ring_is_deterministic_across_replays(
        adds in proptest::collection::vec((0u64..500_000, 1u64..50), 1..100),
    ) {
        // Same add sequence twice ⇒ bit-identical buckets. This is the
        // property the pinned digest goldens lean on.
        let run = |adds: &[(u64, u64)]| {
            let mut s = RingSeries::with_capacity(1_000, 8);
            for &(at, v) in adds {
                s.add(at, v as f64);
            }
            (s.bucket_us(), s.buckets().to_vec())
        };
        let (w1, b1) = run(&adds);
        let (w2, b2) = run(&adds);
        prop_assert_eq!(w1, w2);
        let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&b1), bits(&b2));
    }
}

// ---------------------------------------------------------------------
// 3. End-to-end: bounded memory, Null/Full equivalence, floor sanity
// ---------------------------------------------------------------------

fn tiny_run(horizon: Time, obs_mode: ObsMode) -> RunReport {
    let sim = SimConfig {
        nodes: 2,
        partitions_per_node: 2,
        keys_per_partition: 256,
        clients_per_node: 2,
        ..Default::default()
    };
    let cfg = EngineConfig {
        sim,
        obs_mode,
        ..Default::default()
    };
    let wl = Box::new(YcsbWorkload::new(
        YcsbConfig::for_cluster(2, 2, 256)
            .with_mix(0.2, 0.0)
            .with_seed(7),
    ));
    let mut eng = Engine::new(cfg, wl);
    let mut proto = Lion::standard();
    eng.run(&mut proto, horizon)
}

#[test]
fn long_horizon_run_keeps_series_memory_bounded() {
    // 120 virtual seconds at the 100 ms goodput resolution is 1200 raw
    // buckets — past the 1024-bucket budget, so the goodput series MUST
    // decimate. The digest-pinned figure horizons never reach this point.
    let horizon = 120 * SECOND;
    let report = tiny_run(horizon, ObsMode::Full);
    assert!(report.commits > 0);
    assert!(
        report.goodput_series.len() <= RING_DEFAULT_BUCKETS,
        "goodput series grew past its budget: {} buckets",
        report.goodput_series.len()
    );
    // Decimation happened (width doubled at least once)...
    assert!(
        report.goodput_bucket_us > 100_000,
        "expected decimation at this horizon, width still {} us",
        report.goodput_bucket_us
    );
    // ...and conserved every commit. The report stores per-second rates,
    // so scale back to raw counts by the (decimated) bucket width.
    let rate_sum: f64 = report.goodput_series.iter().sum();
    let mass = rate_sum * report.goodput_bucket_us as f64 / 1_000_000.0;
    assert_eq!(mass.round() as u64, report.commits);
}

#[test]
fn null_and_full_modes_replay_the_same_simulation() {
    let full = tiny_run(2 * SECOND, ObsMode::Full);
    let null = tiny_run(2 * SECOND, ObsMode::Null);
    // The sink must be a pure observer: disabling it cannot change what
    // the simulation does, only what gets recorded.
    assert_eq!(full.events, null.events);
    assert!(full.commits > 0);
    assert_eq!(null.commits, 0, "ObsMode::Null must record nothing");
}

#[test]
fn latency_floor_bounds_measured_p50() {
    let report = tiny_run(2 * SECOND, ObsMode::Full);
    assert!(report.latency_floor_us > 0);
    // No committed distributed transaction can beat one cross-node round
    // trip; p50 over all commits sits at or above the floor multiple 1x
    // only if every commit were single-node and instantaneous — in
    // practice the multiple is >= 1 whenever cross-node work exists.
    assert!(
        report.p50_floor_x > 0.0,
        "floor multiple should be populated on a committing run"
    );
    let json = report.to_json();
    let parsed = lion::obs::json::parse(&json).expect("export parses");
    assert_eq!(
        parsed.get("latency_floor_us").unwrap().as_num(),
        Some(report.latency_floor_us as f64)
    );
    assert!(parsed.get("zone_rollups").unwrap().as_arr().is_some());
}
