//! Run summaries: the numbers the experiment harness prints per figure.

use crate::engine::Engine;
use lion_common::{Phase, Time};
use lion_obs::json::{arr, esc, num};
use lion_obs::DimRollup;

/// Aggregated results of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Protocol legend name.
    pub protocol: String,
    /// Simulated duration (µs).
    pub duration_us: Time,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Throughput in transactions/second.
    pub throughput_tps: f64,
    /// Mean commit latency (µs).
    pub mean_latency_us: f64,
    /// p10/p50/p95/p99 commit latency (µs).
    pub latency_p: [Time; 4],
    /// Fraction of commits per §III class: single-node / remastered /
    /// distributed.
    pub class_fractions: [f64; 3],
    /// Per-phase normalized runtime (Fig. 14b).
    pub phase_fractions: [f64; 5],
    /// Total network bytes over commits (Fig. 12b aggregate).
    pub bytes_per_txn: f64,
    /// Remasters / migrations / replica adds performed.
    pub remasters: u64,
    /// Completed migrations.
    pub migrations: u64,
    /// Completed background replica additions.
    pub replica_adds: u64,
    /// Abort rate over attempts.
    pub abort_rate: f64,
    /// Commits per second, per 1 s bucket (timeline figures).
    pub throughput_series: Vec<f64>,
    /// Network bytes per committed transaction, per 1 s bucket (Fig. 12b).
    pub bytes_per_txn_series: Vec<f64>,
    /// Injected node crashes.
    pub crashes: u64,
    /// Correlated zone-loss events. Deterministic, but excluded from
    /// [`RunReport::digest`] because the golden values predate this field
    /// (and it is zero on every zone-free configuration anyway).
    pub zone_crashes: u64,
    /// Partitions that stalled with no live promotable replica (see
    /// [`crate::Metrics::stalled_partitions`]). Excluded from
    /// [`RunReport::digest`] like `zone_crashes`.
    pub stalled_partitions: u64,
    /// Completed failover promotions.
    pub failovers: u64,
    /// In-flight transactions aborted by node failures.
    pub fault_aborts: u64,
    /// Prepare-log entries replayed to survivors during failovers.
    pub replayed_entries: u64,
    /// Mean per-partition recovery latency (crash → serving again), µs.
    pub mean_recovery_latency_us: f64,
    /// Worst per-partition recovery latency, µs.
    pub max_recovery_latency_us: Time,
    /// Total partition-unavailability time (open windows clipped at the
    /// horizon), µs.
    pub unavailability_us: u128,
    /// Number of partition unavailability windows.
    pub unavailability_windows: usize,
    /// Commits per second at 100 ms resolution (goodput dip/ramp analysis).
    pub goodput_series: Vec<f64>,
    /// Events processed by the engine (the perf harness's work unit).
    /// Deterministic, but excluded from [`RunReport::digest`] because the
    /// golden values predate this field.
    pub events: u64,
    /// Client-visible acks released. Like the other durability fields
    /// below, deterministic but excluded from [`RunReport::digest`]: the
    /// goldens predate the subsystem, and in ack-at-commit mode these
    /// merely mirror the commit-side numbers.
    pub acked: u64,
    /// Mean client-visible ack latency (µs): submission → ack. Equals
    /// `mean_latency_us` in ack-at-commit mode; under epoch group commit
    /// it adds epoch residency + replication transit.
    pub mean_ack_latency_us: f64,
    /// p50/p95/p99 ack latency (µs).
    pub ack_latency_p: [Time; 3],
    /// Commit epochs sealed.
    pub epochs_sealed: u64,
    /// Commit epochs voided by crashes before turning durable.
    pub epochs_aborted: u64,
    /// Parked acks retried because their epoch aborted (never lost: they
    /// were never released).
    pub epoch_retried_acks: u64,
    /// Acked-but-never-replicated log entries on crashed primaries — the
    /// durability hole. Must be zero under epoch group commit.
    pub acked_then_lost: u64,
    /// Split-brain windows opened. Like every split-brain field below,
    /// deterministic but excluded from [`RunReport::digest`]: the goldens
    /// predate honest partitions, and the fields are zero unless a plan
    /// opts into `split_brain`.
    pub partitions_begun: u64,
    /// Split-brain windows healed.
    pub partitions_healed: u64,
    /// Commit acks quorum-fenced during split-brain windows (parked outside
    /// epochs until heal reconciliation).
    pub fenced_acks: u64,
    /// Epoch boundaries spanned by divergent timelines aborted at heal.
    pub divergent_epochs_aborted: u64,
    /// Commits executed on the minority (non-quorum) side of a split.
    pub minority_commits: u64,
    /// Minority-side commits per second at 100 ms resolution (the
    /// availability both-sides-live buys during a split).
    pub minority_goodput_series: Vec<f64>,
    /// Theoretical minimum commit RTT this topology allows (see
    /// [`lion_common::SimConfig::commit_floor_us`]). Pure configuration —
    /// excluded from [`RunReport::digest`] like every field below.
    pub latency_floor_us: Time,
    /// Commit p50 as a multiple of [`RunReport::latency_floor_us`]: the
    /// scheduling-quality number that survives topology changes. Zero when
    /// the floor is zero (single-node cluster) or nothing committed.
    pub p50_floor_x: f64,
    /// Per-node goodput/bytes/latency rollups (empty under
    /// [`lion_obs::ObsMode::Null`], where no sink is fed).
    pub node_rollups: Vec<DimRollup>,
    /// Per-zone rollups: merges of the member nodes' cells (same gating).
    pub zone_rollups: Vec<DimRollup>,
    /// Bucket width of [`RunReport::throughput_series`] and
    /// [`RunReport::bytes_per_txn_series`] — 1 s until ring decimation
    /// widens it on very long runs.
    pub series_bucket_us: Time,
    /// Bucket width of [`RunReport::goodput_series`] — 100 ms until ring
    /// decimation widens it.
    pub goodput_bucket_us: Time,
}

impl RunReport {
    /// Builds the report from the engine state after a run.
    pub fn build(protocol: &str, eng: &Engine, duration_us: Time) -> Self {
        let m = &eng.metrics;
        let secs = (duration_us as f64 / 1_000_000.0).max(1e-9);
        let commits = m.commits;
        let class_total = (m.single_node + m.remastered + m.distributed).max(1) as f64;
        let throughput_series = m.commits_series.rates_per_sec();
        let bytes_per_txn_series = m.bytes_series.ratio(&m.commits_series);
        let latency = eng.obs.dims.latency();
        let latency_floor_us = eng.config().sim.commit_floor_us();
        let p50 = latency.quantile(0.50);
        let p50_floor_x = if latency_floor_us > 0 && commits > 0 {
            p50 as f64 / latency_floor_us as f64
        } else {
            0.0
        };
        RunReport {
            protocol: protocol.to_string(),
            duration_us,
            commits,
            aborts: m.aborts,
            throughput_tps: commits as f64 / secs,
            mean_latency_us: latency.mean(),
            latency_p: [
                latency.quantile(0.10),
                p50,
                latency.quantile(0.95),
                latency.quantile(0.99),
            ],
            class_fractions: [
                m.single_node as f64 / class_total,
                m.remastered as f64 / class_total,
                m.distributed as f64 / class_total,
            ],
            phase_fractions: m.phase_fractions(),
            bytes_per_txn: m.bytes_per_txn(),
            remasters: m.remasters,
            migrations: m.migrations,
            replica_adds: m.replica_adds,
            abort_rate: m.abort_rate(),
            throughput_series,
            bytes_per_txn_series,
            crashes: m.crashes,
            zone_crashes: m.zone_crashes,
            stalled_partitions: m.stalled_partitions,
            failovers: m.failovers,
            fault_aborts: m.fault_aborts,
            replayed_entries: m.replayed_entries,
            mean_recovery_latency_us: m.recovery_latency.mean(),
            max_recovery_latency_us: m.recovery_latency.max(),
            unavailability_us: m.unavailability_us(duration_us),
            unavailability_windows: m.unavailability.len(),
            goodput_series: m.goodput_series.rates_per_sec(),
            events: eng.events(),
            acked: m.acked,
            mean_ack_latency_us: m.ack_latency.mean(),
            ack_latency_p: [
                m.ack_latency.quantile(0.50),
                m.ack_latency.quantile(0.95),
                m.ack_latency.quantile(0.99),
            ],
            epochs_sealed: m.epochs_sealed,
            epochs_aborted: m.epochs_aborted,
            epoch_retried_acks: m.epoch_retried_acks,
            acked_then_lost: m.acked_then_lost,
            partitions_begun: m.partitions_begun,
            partitions_healed: m.partitions_healed,
            fenced_acks: m.fenced_acks,
            divergent_epochs_aborted: m.divergent_epochs_aborted,
            minority_commits: m.minority_commits,
            minority_goodput_series: m.minority_goodput_series.rates_per_sec(),
            latency_floor_us,
            p50_floor_x,
            node_rollups: eng.obs.dims.node_rollups(duration_us),
            zone_rollups: eng.obs.dims.zone_rollups(duration_us, &eng.cluster.zone_of),
            series_bucket_us: m.commits_series.bucket_us(),
            goodput_bucket_us: m.goodput_series.bucket_us(),
        }
    }

    /// Stable 64-bit digest of the whole report (FNV-1a over a canonical
    /// byte serialization; floats are hashed by bit pattern so *any*
    /// numeric drift changes the digest). Same seed ⇒ same digest is the
    /// determinism contract the hot-path optimizations must preserve; the
    /// golden values in `tests/determinism_digest.rs` were captured before
    /// the FxHash/slab/zero-copy swaps and pin that behavior.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        struct Fnv(u64);
        impl Fnv {
            fn bytes(&mut self, b: &[u8]) {
                for &x in b {
                    self.0 = (self.0 ^ x as u64).wrapping_mul(FNV_PRIME);
                }
            }
            fn u64(&mut self, v: u64) {
                self.bytes(&v.to_le_bytes());
            }
            fn u128(&mut self, v: u128) {
                self.bytes(&v.to_le_bytes());
            }
            fn f64(&mut self, v: f64) {
                self.u64(v.to_bits());
            }
        }
        let mut h = Fnv(FNV_OFFSET);
        h.bytes(self.protocol.as_bytes());
        h.u64(self.duration_us);
        h.u64(self.commits);
        h.u64(self.aborts);
        h.f64(self.throughput_tps);
        h.f64(self.mean_latency_us);
        for &p in &self.latency_p {
            h.u64(p);
        }
        for &f in &self.class_fractions {
            h.f64(f);
        }
        for &f in &self.phase_fractions {
            h.f64(f);
        }
        h.f64(self.bytes_per_txn);
        h.u64(self.remasters);
        h.u64(self.migrations);
        h.u64(self.replica_adds);
        h.f64(self.abort_rate);
        for &v in &self.throughput_series {
            h.f64(v);
        }
        for &v in &self.bytes_per_txn_series {
            h.f64(v);
        }
        h.u64(self.crashes);
        h.u64(self.failovers);
        h.u64(self.fault_aborts);
        h.u64(self.replayed_entries);
        h.f64(self.mean_recovery_latency_us);
        h.u64(self.max_recovery_latency_us);
        h.u128(self.unavailability_us);
        h.u64(self.unavailability_windows as u64);
        for &v in &self.goodput_series {
            h.f64(v);
        }
        h.0
    }

    /// One-line summary for harness tables. The latency columns are
    /// *commit-time* percentiles; client-visible ack latency (which differs
    /// under epoch group commit) is reported by [`RunReport::ack_row`] and
    /// [`RunReport::failover_row`]. The trailing column quotes p50 as a
    /// multiple of the topology's theoretical commit floor — how close the
    /// protocol runs to the physics of its network.
    pub fn summary_row(&self) -> String {
        format!(
            "{:<10} {:>10.0} tps  commit_p50={:>6}us commit_p95={:>7}us  single={:>5.1}% remaster={:>5.1}% dist={:>5.1}%  abort={:>5.2}%  bytes/txn={:>6.0}  p50/floor={:>5.1}x",
            self.protocol,
            self.throughput_tps,
            self.latency_p[1],
            self.latency_p[2],
            self.class_fractions[0] * 100.0,
            self.class_fractions[1] * 100.0,
            self.class_fractions[2] * 100.0,
            self.abort_rate * 100.0,
            self.bytes_per_txn,
            self.p50_floor_x,
        )
    }

    /// One-line availability/recovery summary (Fig. F1 rows), surfacing
    /// both latency histograms: commit-time p50 and client-visible ack p50.
    /// Empty stats read as zeros for runs without a fault plan.
    pub fn failover_row(&self) -> String {
        format!(
            "{:<10} crashes={} failovers={} stalled={} fault_aborts={:>4} replayed={:>4}  commit_p50={:>6}us ack_p50={:>6}us acked_then_lost={}  recovery: mean={:>7.0}us max={:>7}us  unavail={:>8}us over {} windows",
            self.protocol,
            self.crashes,
            self.failovers,
            self.stalled_partitions,
            self.fault_aborts,
            self.replayed_entries,
            self.latency_p[1],
            self.ack_latency_p[0],
            self.acked_then_lost,
            self.mean_recovery_latency_us,
            self.max_recovery_latency_us,
            self.unavailability_us,
            self.unavailability_windows,
        )
    }

    /// One-line durability/ack summary (Fig. E rows): both histograms side
    /// by side plus the epoch-commit accounting.
    pub fn ack_row(&self) -> String {
        format!(
            "{:<10} acked={:>7}  commit: mean={:>7.0}us p50={:>6}us  ack: mean={:>7.0}us p50={:>6}us p95={:>7}us  epochs sealed={} aborted={} retried_acks={} acked_then_lost={}",
            self.protocol,
            self.acked,
            self.mean_latency_us,
            self.latency_p[1],
            self.mean_ack_latency_us,
            self.ack_latency_p[0],
            self.ack_latency_p[1],
            self.epochs_sealed,
            self.epochs_aborted,
            self.epoch_retried_acks,
            self.acked_then_lost,
        )
    }

    /// Time from `after` until sustained goodput first reaches `frac` of the
    /// pre-fault baseline (mean goodput over `[0, baseline_until)`), in µs.
    /// `None` when the run never recovers to that level.
    pub fn recovery_ramp_us(&self, baseline_until: Time, after: Time, frac: f64) -> Option<Time> {
        // The report's own bucket width, not the configured constant: ring
        // decimation may have widened the buckets on a very long run.
        let bucket = self.goodput_bucket_us;
        let base_buckets = (baseline_until / bucket).max(1) as usize;
        let baseline: f64 =
            self.goodput_series.iter().take(base_buckets).sum::<f64>() / base_buckets as f64;
        if baseline <= 0.0 {
            return Some(0);
        }
        let target = baseline * frac;
        let start = (after / bucket) as usize;
        self.goodput_series
            .iter()
            .enumerate()
            .skip(start)
            .find(|(_, &v)| v >= target)
            .map(|(i, _)| (i as Time * bucket).saturating_sub(after))
    }

    /// The whole report as one line of JSON — the machine-readable artifact
    /// behind `lion-bench --export`. Every scalar, series, and rollup is
    /// included, plus the digest (as hex, so a consumer can cross-check a
    /// run against the pinned goldens without recomputing anything).
    /// Non-finite floats export as `null`; see [`lion_obs::json`].
    pub fn to_json(&self) -> String {
        fn rollups(rows: &[DimRollup]) -> String {
            arr(rows.iter().map(|r| {
                format!(
                    "{{\"label\":\"{}\",\"commits\":{},\"aborts\":{},\"bytes\":{},\"goodput_tps\":{},\"mean_latency_us\":{},\"p50_us\":{},\"p95_us\":{}}}",
                    esc(&r.label),
                    r.commits,
                    r.aborts,
                    r.bytes,
                    num(r.goodput_tps),
                    num(r.mean_latency_us),
                    r.p50_us,
                    r.p95_us,
                )
            }))
        }
        let mut s = String::with_capacity(1024);
        s.push('{');
        s.push_str(&format!("\"protocol\":\"{}\"", esc(&self.protocol)));
        s.push_str(&format!(",\"digest\":\"{:#018x}\"", self.digest()));
        s.push_str(&format!(",\"duration_us\":{}", self.duration_us));
        s.push_str(&format!(",\"commits\":{}", self.commits));
        s.push_str(&format!(",\"aborts\":{}", self.aborts));
        s.push_str(&format!(",\"throughput_tps\":{}", num(self.throughput_tps)));
        s.push_str(&format!(
            ",\"mean_latency_us\":{}",
            num(self.mean_latency_us)
        ));
        s.push_str(&format!(
            ",\"latency_p\":{}",
            arr(self.latency_p.iter().map(|p| p.to_string()))
        ));
        s.push_str(&format!(",\"latency_floor_us\":{}", self.latency_floor_us));
        s.push_str(&format!(",\"p50_floor_x\":{}", num(self.p50_floor_x)));
        s.push_str(&format!(
            ",\"class_fractions\":{}",
            arr(self.class_fractions.iter().map(|&f| num(f)))
        ));
        s.push_str(&format!(
            ",\"phase_fractions\":{}",
            arr(self.phase_fractions.iter().map(|&f| num(f)))
        ));
        s.push_str(&format!(",\"bytes_per_txn\":{}", num(self.bytes_per_txn)));
        s.push_str(&format!(",\"remasters\":{}", self.remasters));
        s.push_str(&format!(",\"migrations\":{}", self.migrations));
        s.push_str(&format!(",\"replica_adds\":{}", self.replica_adds));
        s.push_str(&format!(",\"abort_rate\":{}", num(self.abort_rate)));
        s.push_str(&format!(",\"crashes\":{}", self.crashes));
        s.push_str(&format!(",\"zone_crashes\":{}", self.zone_crashes));
        s.push_str(&format!(
            ",\"stalled_partitions\":{}",
            self.stalled_partitions
        ));
        s.push_str(&format!(",\"failovers\":{}", self.failovers));
        s.push_str(&format!(",\"fault_aborts\":{}", self.fault_aborts));
        s.push_str(&format!(",\"replayed_entries\":{}", self.replayed_entries));
        s.push_str(&format!(
            ",\"mean_recovery_latency_us\":{}",
            num(self.mean_recovery_latency_us)
        ));
        s.push_str(&format!(
            ",\"max_recovery_latency_us\":{}",
            self.max_recovery_latency_us
        ));
        s.push_str(&format!(
            ",\"unavailability_us\":{}",
            self.unavailability_us
        ));
        s.push_str(&format!(
            ",\"unavailability_windows\":{}",
            self.unavailability_windows
        ));
        s.push_str(&format!(",\"events\":{}", self.events));
        s.push_str(&format!(",\"acked\":{}", self.acked));
        s.push_str(&format!(
            ",\"mean_ack_latency_us\":{}",
            num(self.mean_ack_latency_us)
        ));
        s.push_str(&format!(
            ",\"ack_latency_p\":{}",
            arr(self.ack_latency_p.iter().map(|p| p.to_string()))
        ));
        s.push_str(&format!(",\"epochs_sealed\":{}", self.epochs_sealed));
        s.push_str(&format!(",\"epochs_aborted\":{}", self.epochs_aborted));
        s.push_str(&format!(
            ",\"epoch_retried_acks\":{}",
            self.epoch_retried_acks
        ));
        s.push_str(&format!(",\"acked_then_lost\":{}", self.acked_then_lost));
        s.push_str(&format!(",\"partitions_begun\":{}", self.partitions_begun));
        s.push_str(&format!(
            ",\"partitions_healed\":{}",
            self.partitions_healed
        ));
        s.push_str(&format!(",\"fenced_acks\":{}", self.fenced_acks));
        s.push_str(&format!(
            ",\"divergent_epochs_aborted\":{}",
            self.divergent_epochs_aborted
        ));
        s.push_str(&format!(",\"minority_commits\":{}", self.minority_commits));
        s.push_str(&format!(",\"series_bucket_us\":{}", self.series_bucket_us));
        s.push_str(&format!(
            ",\"goodput_bucket_us\":{}",
            self.goodput_bucket_us
        ));
        s.push_str(&format!(
            ",\"throughput_series\":{}",
            arr(self.throughput_series.iter().map(|&v| num(v)))
        ));
        s.push_str(&format!(
            ",\"bytes_per_txn_series\":{}",
            arr(self.bytes_per_txn_series.iter().map(|&v| num(v)))
        ));
        s.push_str(&format!(
            ",\"goodput_series\":{}",
            arr(self.goodput_series.iter().map(|&v| num(v)))
        ));
        s.push_str(&format!(
            ",\"minority_goodput_series\":{}",
            arr(self.minority_goodput_series.iter().map(|&v| num(v)))
        ));
        s.push_str(&format!(
            ",\"node_rollups\":{}",
            rollups(&self.node_rollups)
        ));
        s.push_str(&format!(
            ",\"zone_rollups\":{}",
            rollups(&self.zone_rollups)
        ));
        s.push('}');
        s
    }

    /// Phase breakdown as labeled percentages (Fig. 14b row).
    pub fn phase_row(&self) -> String {
        let mut s = format!("{:<10}", self.protocol);
        for ph in Phase::ALL {
            s.push_str(&format!(
                " {}={:.1}%",
                ph.label(),
                self.phase_fractions[ph.idx()] * 100.0
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_common::{Op, PartitionId, SimConfig, TxnRequest, Workload};

    fn workload() -> Box<dyn Workload> {
        Box::new(|_now| TxnRequest::new(vec![Op::read(PartitionId(0), 1)]))
    }

    #[test]
    fn report_from_fresh_engine_is_zeroed() {
        let cfg = SimConfig {
            nodes: 2,
            partitions_per_node: 1,
            keys_per_partition: 8,
            ..Default::default()
        };
        let eng = Engine::new(cfg, workload());
        let r = RunReport::build("x", &eng, 1_000_000);
        assert_eq!(r.commits, 0);
        assert_eq!(r.throughput_tps, 0.0);
        assert_eq!(r.bytes_per_txn, 0.0);
        assert!(!r.summary_row().is_empty());
        assert!(r.phase_row().contains("execution"));
        // The floor is pure topology: present even on an idle run.
        assert!(r.latency_floor_us > 0);
        assert_eq!(r.p50_floor_x, 0.0);
    }

    #[test]
    fn report_json_parses_and_round_trips_key_fields() {
        let cfg = SimConfig {
            nodes: 2,
            partitions_per_node: 1,
            keys_per_partition: 8,
            ..Default::default()
        };
        let eng = Engine::new(cfg, workload());
        let mut r = RunReport::build("lion \"std\"", &eng, 1_000_000);
        r.commits = 42;
        r.throughput_tps = 123.5;
        r.node_rollups.push(DimRollup {
            label: "N0".into(),
            commits: 42,
            aborts: 1,
            bytes: 640,
            goodput_tps: 42.0,
            mean_latency_us: f64::NAN, // must export as null, not break parsing
            p50_us: 100,
            p95_us: 300,
        });
        let doc = lion_obs::json::parse(&r.to_json()).expect("export must be valid JSON");
        assert_eq!(doc.get("protocol").unwrap().as_str(), Some("lion \"std\""));
        assert_eq!(doc.get("commits").unwrap().as_num(), Some(42.0));
        assert_eq!(doc.get("throughput_tps").unwrap().as_num(), Some(123.5));
        assert_eq!(
            doc.get("latency_floor_us").unwrap().as_num(),
            Some(r.latency_floor_us as f64)
        );
        let rollup = &doc.get("node_rollups").unwrap().as_arr().unwrap()[0];
        assert_eq!(rollup.get("label").unwrap().as_str(), Some("N0"));
        assert_eq!(rollup.get("bytes").unwrap().as_num(), Some(640.0));
        assert_eq!(
            rollup.get("mean_latency_us"),
            Some(&lion_obs::json::JsonValue::Null)
        );
        // The digest rides along as hex for cross-checking against goldens.
        let digest = doc.get("digest").unwrap().as_str().unwrap().to_string();
        assert_eq!(digest, format!("{:#018x}", r.digest()));
    }
}
