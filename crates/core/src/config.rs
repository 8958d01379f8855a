//! Lion configuration and the ablation variants of Table II.

use lion_planner::PlannerConfig;
use lion_predictor::PredictorConfig;

/// Which partitioning strategy the planner runs (Table II column
/// "Partitioning Strategy").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Lion's replica rearrangement (Algorithm 1): remaster when a secondary
    /// exists, background-copy otherwise.
    Rearrange,
    /// Schism-style replica-oblivious min-cut partitioning realized purely
    /// by blocking migrations (the `Lion(S)`/`Lion(SW)` ablations).
    Schism,
}

/// Full Lion protocol configuration.
#[derive(Debug, Clone)]
pub struct LionConfig {
    /// Report / legend name.
    pub name: &'static str,
    /// Planner knobs (α, ε, B).
    pub planner: PlannerConfig,
    /// Predictor knobs (sampling, γ, K, LSTM shape).
    pub predictor: PredictorConfig,
    /// Partitioning strategy.
    pub partitioning: Partitioning,
    /// Workload prediction enabled (Table II column "Workload Prediction").
    pub prediction: bool,
    /// Batch execution with asynchronous remastering (Table II column
    /// "Batch Optimization", §IV-D).
    pub batch: bool,
}

impl LionConfig {
    fn base(name: &'static str) -> Self {
        LionConfig {
            name,
            planner: PlannerConfig::default(),
            predictor: PredictorConfig {
                // Sampling at 5 s with a ×4 training window covers the 60 s
                // hotspot periods of §VI-C.2.
                sample_interval_us: 5_000_000,
                window: 10,
                horizon: 2,
                train_epochs: 20,
                ..PredictorConfig::default()
            },
            partitioning: Partitioning::Rearrange,
            prediction: false,
            batch: false,
        }
    }

    /// A §IV-D batch variant. A batch ends when its slowest node does, so
    /// it holds ε = 0.2: 5 vs 4 pairs per node (1.25×) is over θ.
    fn batched(name: &'static str) -> Self {
        let mut cfg = Self::base(name);
        cfg.batch = true;
        cfg.planner.epsilon = 0.2;
        cfg
    }

    /// Full Lion: rearrangement + prediction + batch (Table II row "Lion").
    pub fn lion() -> Self {
        LionConfig {
            prediction: true,
            ..Self::batched("Lion")
        }
    }

    /// Lion running in standard (non-batch) mode with every other
    /// optimization on — the configuration of the Fig. 7/8 standard-
    /// execution comparisons.
    pub fn lion_standard() -> Self {
        LionConfig {
            prediction: true,
            ..Self::base("Lion")
        }
    }

    /// `Lion(S)`: Schism partitioning only.
    pub fn lion_s() -> Self {
        LionConfig {
            partitioning: Partitioning::Schism,
            ..Self::base("Lion(S)")
        }
    }

    /// `Lion(R)`: replica rearrangement only.
    pub fn lion_r() -> Self {
        Self::base("Lion(R)")
    }

    /// `Lion(SW)`: Schism + workload prediction.
    pub fn lion_sw() -> Self {
        LionConfig {
            partitioning: Partitioning::Schism,
            prediction: true,
            ..Self::base("Lion(SW)")
        }
    }

    /// `Lion(RW)`: rearrangement + workload prediction.
    pub fn lion_rw() -> Self {
        LionConfig {
            prediction: true,
            ..Self::base("Lion(RW)")
        }
    }

    /// `Lion(RB)`: rearrangement + batch optimization.
    pub fn lion_rb() -> Self {
        Self::batched("Lion(RB)")
    }

    /// Every Table II variant, in the paper's order (2PC lives in
    /// `lion-baselines`).
    pub fn all_variants() -> Vec<LionConfig> {
        vec![
            Self::lion_s(),
            Self::lion_r(),
            Self::lion_sw(),
            Self::lion_rw(),
            Self::lion_rb(),
            Self::lion(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matrix() {
        // (partitioning, prediction, batch) must match Table II exactly.
        let expect = [
            ("Lion(S)", Partitioning::Schism, false, false),
            ("Lion(R)", Partitioning::Rearrange, false, false),
            ("Lion(SW)", Partitioning::Schism, true, false),
            ("Lion(RW)", Partitioning::Rearrange, true, false),
            ("Lion(RB)", Partitioning::Rearrange, false, true),
            ("Lion", Partitioning::Rearrange, true, true),
        ];
        for (cfg, (name, part, pred, batch)) in LionConfig::all_variants().iter().zip(expect) {
            assert_eq!(cfg.name, name);
            assert_eq!(cfg.partitioning, part, "{name}");
            assert_eq!(cfg.prediction, pred, "{name}");
            assert_eq!(cfg.batch, batch, "{name}");
            let epsilon = if batch { 0.2 } else { 0.4 };
            assert_eq!(cfg.planner.epsilon, epsilon, "{name}");
        }
    }

    #[test]
    fn standard_lion_is_non_batch() {
        let cfg = LionConfig::lion_standard();
        assert!(!cfg.batch);
        assert!(cfg.prediction);
        assert_eq!(cfg.partitioning, Partitioning::Rearrange);
    }
}
