//! Property tests for the observability pipeline (PR 6).
//!
//! Three things have to hold for the streaming-metrics design to be sound:
//!
//! 1. `Histogram::merge` must be equivalent to recording every sample into
//!    one histogram — the per-node/per-zone rollups in `DimensionedSink`
//!    are built by merging, and a merge that drifted from the ground truth
//!    would silently corrupt the dimensional percentiles.
//! 2. `RingSeries` decimation must conserve total mass, keep deterministic
//!    power-of-two bucket boundaries, and agree bucket-for-bucket with the
//!    unbounded `TimeSeries` oracle folded to the same width.
//! 3. Sink memory must be constant in run horizon: a run long enough to
//!    overflow the 1024-bucket goodput budget ends with a decimated series
//!    whose footprint is bounded and whose mass still equals `commits`.

use lion::common::{SimConfig, Time, SECOND};
use lion::engine::{Engine, EngineConfig, ObsMode, RunReport};
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
