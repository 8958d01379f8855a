//! The metric registry: every name the benchmark prints, with its unit, in
//! printing order. `BENCHMARK.json` lists the same names and units (a test
//! holds the two together) and adds direction and regression bound.

use lion::obs::json::num;

/// Metrics a user of the simulator sees (`--trace 0`). **host** numbers are
/// what the simulator costs on this machine; **sim** numbers are what the
/// modelled cluster delivers and repeat exactly for a fixed seed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_us_per_commit", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_tps", "1/s"),
    ("sim_ack_p50_us", "us"),
    ("sim_ack_p99_us", "us"),
    ("sim_single_node_frac", "frac"),
    ("sim_commit_frac", "frac"),
    ("sim_bytes_per_commit", "B"),
    ("sim_avail_frac", "frac"),
];

/// Metrics of single layers (`--trace 1`); the prefix names the crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.events", "count"),
    ("engine.events_per_commit", "count"),
    ("engine.host_ns_per_event", "ns"),
    ("engine.loop_self_ns_per_event", "ns"),
    ("engine.loop_self_share", "frac"),
    ("engine.retries_per_commit", "count"),
    ("engine.sim_commit_p50_us", "us"),
    ("engine.sim_commit_p99_us", "us"),
    ("engine.p50_floor_x", "x"),
    ("engine.phase_frac.scheduling", "frac"),
    ("engine.phase_frac.execution", "frac"),
    ("engine.phase_frac.commit", "frac"),
    ("engine.phase_frac.replication", "frac"),
    ("engine.phase_frac.other", "frac"),
    ("protocol.submit_calls", "count"),
    ("protocol.wake_calls", "count"),
    ("protocol.batch_calls", "count"),
    ("protocol.tick_planner_calls", "count"),
    ("protocol.tick_monitor_calls", "count"),
    ("protocol.fault_calls", "count"),
    ("protocol.submit_busy_ns_per_call", "ns"),
    ("protocol.wake_busy_ns_per_call", "ns"),
    ("protocol.batch_busy_ns_per_txn", "ns"),
    ("protocol.tick_planner_busy_ms_per_call", "ms"),
    ("protocol.busy_share", "frac"),
    ("workloads.gen_calls", "count"),
    ("workloads.gen_busy_ns_per_call", "ns"),
    ("workloads.gen_share", "frac"),
    ("workloads.ops_per_txn", "count"),
    ("workloads.write_frac", "frac"),
    ("workloads.parts_per_txn", "count"),
    ("obs.events_emitted", "count"),
    ("obs.events_per_commit", "count"),
    ("obs.emit_ns_per_event", "ns"),
    ("obs.share_est", "frac"),
    ("sim.fel_ns_per_op", "ns"),
    ("sim.fel_share_est", "frac"),
    ("sim.fel_observed_frac", "frac"),
    ("storage.occ_read_ns_per_op", "ns"),
    ("storage.lock_install_ns_per_write", "ns"),
    ("storage.validate_ns_per_read", "ns"),
    ("storage.log_append_ns_per_write", "ns"),
    ("storage.rows_end", "count"),
    ("storage.bytes_end_mb", "MB"),
    ("cluster.commits_single_node", "count"),
    ("cluster.commits_remastered", "count"),
    ("cluster.commits_distributed", "count"),
    ("cluster.message_bytes_per_commit", "B"),
    ("cluster.replication_bytes_per_commit", "B"),
    ("cluster.migration_bytes_total", "B"),
    ("cluster.remasters", "count"),
    ("cluster.remaster_conflicts", "count"),
    ("cluster.replica_adds", "count"),
    ("cluster.replica_evictions", "count"),
    ("cluster.migrations", "count"),
    ("cluster.replicas_per_partition_end", "count"),
    ("planner.heatgraph_build_ns_per_txn", "ns"),
    ("planner.generate_clumps_us", "us"),
    ("planner.rearrange_us", "us"),
    ("planner.clumps_per_round", "count"),
    ("planner.plan_actions_per_round", "count"),
    ("predictor.observe_ns_per_txn", "ns"),
    ("predictor.predict_us_per_call", "us"),
    ("predictor.lstm_fit_ms", "ms"),
    ("predictor.forecast_mse", "mse"),
    ("core.adapt_lag_ms", "ms"),
    ("core.min_window_single_node_frac", "frac"),
    ("durability.epochs_sealed", "count"),
    ("durability.epochs_aborted", "count"),
    ("durability.epoch_retried_acks", "count"),
    ("durability.ack_minus_commit_p50_us", "us"),
    ("durability.park_seal_ns_per_ack", "ns"),
    ("faults.failovers", "count"),
    ("faults.replayed_entries", "count"),
    ("faults.fault_aborts", "count"),
    ("faults.mean_recovery_latency_us", "us"),
    ("faults.unavail_ms", "ms"),
    ("faults.recovery_ramp_ms", "ms"),
    ("faults.plan_failover_ns_per_plan", "ns"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans_sampled", "count"),
    ("host.us_per_commit", "us"),
    ("host.us_per_txn_slice_median", "us"),
    ("host.raw_us_per_commit_run", "us"),
    ("host.slice_spread_frac", "frac"),
    ("host.slices", "count"),
];

/// Values for one registry, filled by name and printed in registry order.
pub struct MetricSet {
    registry: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over `registry`.
    pub fn new(registry: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            registry,
            values: vec![None; registry.len()],
        }
    }

    /// Sets one metric. Panics on a name the registry does not list, a value
    /// set twice, or a non-finite value: each is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .registry
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.values[i].replace(value).is_none(),
            "metric {name} set twice"
        );
    }

    /// One metric's value. Panics when it was never set.
    pub fn get(&self, name: &str) -> f64 {
        let i = self
            .registry
            .iter()
            .position(|(n, _)| *n == name)
            .expect("registered metric");
        self.values[i].unwrap_or_else(|| panic!("metric {name} was never set"))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over the whole registry.
    /// Panics when a metric was never set.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .registry
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(self.get(name))
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion::obs::json::{parse, JsonValue};

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("valid JSON")
    }

    fn listed(manifest: &JsonValue, key: &str) -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let manifest = manifest();
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = registry
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                listed(&manifest, key),
                ours,
                "{key} and the registry disagree"
            );
        }
        let names: Vec<String> = manifest
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::spec::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn json_carries_every_metric_with_its_unit() {
        let mut set = MetricSet::new(END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            set.set(name, i as f64 + 0.5);
        }
        let parsed = parse(&set.to_json()).expect("valid JSON");
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let m = parsed.get(name).expect("metric present");
            assert_eq!(
                m.get("value").and_then(JsonValue::as_num),
                Some(i as f64 + 0.5)
            );
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(*unit));
        }
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn a_missing_metric_is_a_bug() {
        MetricSet::new(END_TO_END).to_json();
    }
}
