//! The end-to-end workload predictor (§IV-C): template tracking →
//! classification → per-class LSTM forecasts → the `wv(t, h)` trigger
//! (Eq. 6) → weighted sampling of the templates injected into the planner's
//! heat graph.

use crate::classify::{classify_templates, WorkloadClass};
use crate::lstm::Lstm;
use crate::template::TemplateRegistry;
use lion_common::{FastMap, PartitionId, Time, TxnRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Cosine-distance merge threshold β of template classification.
const BETA: f64 = 0.3;

/// Retrain a class model when its normalized MSE exceeds this threshold
/// (the accuracy-maintenance rule of §IV-C.1).
const RETRAIN_MSE: f64 = 0.08;

/// Only the hottest classes get a model (bounds planner CPU).
const MAX_MODEL_CLASSES: usize = 8;

/// RNG seed for sampling and model init.
const SEED: u64 = 0xFACE;

/// Prediction tuning knobs (§VI-A defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// Arrival-rate sampling interval `i` of Eq. 5.
    pub sample_interval_us: Time,
    /// History window fed to the model ("preceding ten-period historical
    /// data logs").
    pub window: usize,
    /// Prediction horizon `h` of Eq. 6, in sampling intervals.
    pub horizon: usize,
    /// Pre-replication trigger threshold γ on the normalized `wv`.
    pub gamma: f64,
    /// Number of predicted transactions `K` injected into the heat graph.
    pub k_predicted: usize,
    /// LSTM hidden units (paper: 20).
    pub hidden: usize,
    /// LSTM layers (paper: 2).
    pub layers: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs per (re)fit.
    pub train_epochs: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            sample_interval_us: 1_000_000,
            window: 10,
            horizon: 3,
            gamma: 0.2,
            k_predicted: 64,
            hidden: 20,
            layers: 2,
            lr: 0.01,
            train_epochs: 30,
        }
    }
}

/// Result of one prediction round.
#[derive(Debug, Clone)]
pub struct PredictionOutcome {
    /// The workload-variation metric `wv(t, h)` (Eq. 6), normalized to the
    /// hottest class rate so γ is scale-free.
    pub wv: f64,
    /// Whether `wv > γ`: pre-replication should run.
    pub triggered: bool,
    /// Sampled future transactions: (partition set, graph weight). Weights
    /// sum to ≈ `k_predicted` so prediction pressure is bounded.
    pub predicted: Vec<(Vec<PartitionId>, f64)>,
    /// Number of workload classes identified this round.
    pub n_classes: usize,
}

impl PredictionOutcome {
    /// An inert outcome (predictor disabled or no data).
    pub fn inactive() -> Self {
        PredictionOutcome {
            wv: 0.0,
            triggered: false,
            predicted: Vec::new(),
            n_classes: 0,
        }
    }
}

/// Per-class model cache entry.
struct ClassModel {
    net: Lstm,
    /// Normalization scale (max of the training series).
    scale: f64,
}

/// The workload predictor.
pub struct WorkloadPredictor {
    cfg: PredictorConfig,
    registry: TemplateRegistry,
    models: FastMap<u64, ClassModel>,
    rng: SmallRng,
    /// Diagnostics: total (re)train invocations.
    pub trainings: u64,
}

impl WorkloadPredictor {
    /// Creates a predictor.
    pub fn new(cfg: PredictorConfig) -> Self {
        WorkloadPredictor {
            registry: TemplateRegistry::new(cfg.sample_interval_us),
            models: FastMap::default(),
            rng: SmallRng::seed_from_u64(SEED),
            cfg,
            trainings: 0,
        }
    }

    /// Configuration accessor.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Template registry accessor (diagnostics).
    pub fn registry(&self) -> &TemplateRegistry {
        &self.registry
    }

    /// Feeds a batch of routed-transaction records.
    pub fn observe(&mut self, records: &[TxnRecord]) {
        self.registry.observe_all(records);
    }

    /// Runs one prediction round at virtual time `now`.
    pub fn predict(&mut self, now: Time) -> PredictionOutcome {
        let train_len = self.cfg.window * 4;
        let mut classes = classify_templates(&self.registry, train_len, BETA, now);
        if classes.is_empty() {
            return PredictionOutcome::inactive();
        }
        // Hottest classes first; model only the top few.
        classes.sort_by(|a, b| {
            b.window_total()
                .partial_cmp(&a.window_total())
                .expect("finite")
        });
        let modeled = classes.len().min(MAX_MODEL_CLASSES);

        let mut current = Vec::with_capacity(modeled);
        let mut future = Vec::with_capacity(modeled);
        for class in classes.iter().take(modeled) {
            let series = &class.series;
            let scale = series.iter().cloned().fold(0.0f64, f64::max).max(1.0);
            let norm: Vec<f64> = series.iter().map(|v| v / scale).collect();
            let key = class_key(&self.registry, class);

            let entry = self.models.entry(key);
            let model = match entry {
                std::collections::hash_map::Entry::Occupied(o) => {
                    let m = o.into_mut();
                    m.scale = scale;
                    // Accuracy maintenance: retrain when the model drifted.
                    if m.net.mse(&norm, self.cfg.window) > RETRAIN_MSE {
                        m.net
                            .fit(&norm, self.cfg.window, self.cfg.train_epochs, self.cfg.lr);
                        self.trainings += 1;
                    }
                    m
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    let mut net = Lstm::new(self.cfg.hidden, self.cfg.layers, SEED ^ key);
                    net.fit(&norm, self.cfg.window, self.cfg.train_epochs, self.cfg.lr);
                    self.trainings += 1;
                    v.insert(ClassModel { net, scale })
                }
            };

            let fc = model.net.forecast(&norm, self.cfg.window, self.cfg.horizon);
            let predicted_rate = (fc.last().copied().unwrap_or(0.0) * scale).max(0.0);
            current.push(class.current_rate());
            future.push(predicted_rate);
        }

        // Eq. 6, normalized by the hottest observed/predicted rate so γ is a
        // relative threshold.
        let n = current.len() as f64;
        let peak = current
            .iter()
            .chain(future.iter())
            .cloned()
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let wv = (current
            .iter()
            .zip(&future)
            .map(|(c, f)| {
                let d = (f - c) / peak;
                d * d
            })
            .sum::<f64>()
            / n)
            .sqrt();
        let triggered = wv > self.cfg.gamma;

        let predicted = if triggered {
            self.sample_templates(&classes[..modeled], &current, &future)
        } else {
            Vec::new()
        };
        PredictionOutcome {
            wv,
            triggered,
            predicted,
            n_classes: classes.len(),
        }
    }

    /// Samples templates from *rising* classes, weighted by predicted rate ×
    /// member frequency (the reservoir-sampling step of §IV-C.1), and
    /// attaches graph weights that sum to ≈ `k_predicted`.
    fn sample_templates(
        &mut self,
        classes: &[WorkloadClass],
        current: &[f64],
        future: &[f64],
    ) -> Vec<(Vec<PartitionId>, f64)> {
        let mut candidates: Vec<(usize, usize, f64)> = Vec::new(); // (class, member, weight)
        for (ci, class) in classes.iter().enumerate() {
            if future[ci] <= current[ci] {
                continue; // only pre-replicate for workloads about to rise
            }
            let member_total: f64 = class.member_weights.iter().sum::<f64>().max(1e-9);
            for (mi, &mw) in class.member_weights.iter().enumerate() {
                let w = future[ci] * (mw / member_total);
                if w > 0.0 {
                    candidates.push((ci, mi, w));
                }
            }
        }
        if candidates.is_empty() {
            return Vec::new();
        }
        // A-Res weighted reservoir: keep the k with the largest u^(1/w) keys.
        let k = self.cfg.k_predicted.min(candidates.len()).max(1);
        let mut keyed: Vec<(f64, usize)> = candidates
            .iter()
            .enumerate()
            .map(|(i, &(_, _, w))| {
                let u: f64 = self.rng.gen_range(1e-12..1.0);
                (u.powf(1.0 / w), i)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
        keyed.truncate(k);

        let selected_total: f64 = keyed
            .iter()
            .map(|&(_, i)| candidates[i].2)
            .sum::<f64>()
            .max(1e-9);
        let budget = self.cfg.k_predicted as f64;
        keyed
            .into_iter()
            .map(|(_, i)| {
                let (ci, mi, w) = candidates[i];
                let template = self.registry.template(classes[ci].members[mi]);
                (template.parts.clone(), budget * w / selected_total)
            })
            .collect()
    }
}

/// Stable identity of a class across rounds: hash of member partition sets.
fn class_key(registry: &TemplateRegistry, class: &WorkloadClass) -> u64 {
    let mut sets: Vec<&[PartitionId]> = class
        .members
        .iter()
        .map(|&id| registry.template(id).parts.as_slice())
        .collect();
    sets.sort();
    let mut h = DefaultHasher::new();
    for s in sets {
        s.hash(&mut h);
        0xFFu8.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Time = 1_000_000;

    fn cfg() -> PredictorConfig {
        PredictorConfig {
            window: 6,
            horizon: 2,
            hidden: 8,
            train_epochs: 40,
            k_predicted: 16,
            ..Default::default()
        }
    }

    fn rec(at: Time, parts: &[u32]) -> TxnRecord {
        TxnRecord {
            at,
            parts: parts.iter().map(|&p| PartitionId(p)).collect(),
        }
    }

    /// Feed a workload that oscillates between two template families with a
    /// fixed period; at the boundary the predictor should trigger and sample
    /// the family about to become hot.
    #[test]
    fn periodic_shift_triggers_pre_replication() {
        let mut pred = WorkloadPredictor::new(cfg());
        let period = 8u64; // seconds per phase
        let mut records = Vec::new();
        for sec in 0..48u64 {
            let phase = (sec / period) % 2;
            let parts: &[u32] = if phase == 0 { &[1, 2] } else { &[3, 4] };
            for k in 0..20 {
                records.push(rec(sec * SEC + k * 1000, parts));
            }
        }
        pred.observe(&records);
        // We are at t=48s: phase-0 ({1,2}) just ended 0 seconds ago; history
        // shows the alternation. Predict near a boundary.
        let out = pred.predict(48 * SEC);
        assert!(
            out.n_classes >= 2,
            "expected both families, got {}",
            out.n_classes
        );
        assert!(out.wv > 0.0);
        if out.triggered {
            assert!(!out.predicted.is_empty());
            let total_w: f64 = out.predicted.iter().map(|(_, w)| w).sum();
            assert!(total_w <= pred.cfg.k_predicted as f64 + 1e-6);
        }
    }

    #[test]
    fn steady_workload_does_not_trigger() {
        let mut pred = WorkloadPredictor::new(cfg());
        let mut records = Vec::new();
        for sec in 0..30u64 {
            for k in 0..10 {
                records.push(rec(sec * SEC + k * 1000, &[1, 2]));
            }
        }
        pred.observe(&records);
        let out = pred.predict(30 * SEC);
        assert_eq!(out.n_classes, 1);
        assert!(
            !out.triggered,
            "steady workload must not trigger pre-replication (wv={})",
            out.wv
        );
        assert!(out.predicted.is_empty());
    }

    #[test]
    fn empty_history_is_inactive() {
        let mut pred = WorkloadPredictor::new(cfg());
        let out = pred.predict(10 * SEC);
        assert_eq!(out.n_classes, 0);
        assert!(!out.triggered);
    }

    #[test]
    fn models_are_cached_between_rounds() {
        let mut pred = WorkloadPredictor::new(cfg());
        let mut records = Vec::new();
        for sec in 0..24u64 {
            for k in 0..10 {
                records.push(rec(sec * SEC + k * 1000, &[5]));
            }
        }
        pred.observe(&records);
        pred.predict(24 * SEC);
        let after_first = pred.trainings;
        assert!(after_first >= 1);
        // Same stable workload: cached model should still be accurate.
        pred.predict(24 * SEC);
        assert_eq!(pred.trainings, after_first, "no retraining when accurate");
    }

    #[test]
    fn sampled_templates_come_from_rising_classes() {
        let mut pred = WorkloadPredictor::new(PredictorConfig {
            gamma: 0.05, // easy trigger
            ..cfg()
        });
        let mut records = Vec::new();
        // template A: steadily fading; template B: steadily ramping.
        for sec in 0..24u64 {
            let a_rate = 24 - sec;
            let b_rate = sec;
            for k in 0..a_rate {
                records.push(rec(sec * SEC + k, &[1]));
            }
            for k in 0..b_rate {
                records.push(rec(sec * SEC + 500_000 + k, &[2]));
            }
        }
        pred.observe(&records);
        let out = pred.predict(24 * SEC);
        if out.triggered && !out.predicted.is_empty() {
            for (parts, _) in &out.predicted {
                assert_eq!(parts, &vec![PartitionId(2)], "only the rising template");
            }
        }
    }
}
