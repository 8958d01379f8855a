//! Arrival-rate history (Eq. 5).
//!
//! `ar(t, i) = Σ_{n=t}^{t+i} f(n)`: the access-frequency curve of a query
//! template, sampled in fixed intervals. This is the input signal for both
//! workload classification (cosine similarity) and LSTM forecasting.

use lion_common::Time;

/// A bucketed arrival-rate counter.
#[derive(Debug, Clone)]
pub struct ArrivalHistory {
    bucket_us: Time,
    counts: Vec<f64>,
}

impl ArrivalHistory {
    /// Creates a history with `bucket_us`-wide sampling intervals.
    pub fn new(bucket_us: Time) -> Self {
        assert!(bucket_us > 0);
        ArrivalHistory {
            bucket_us,
            counts: Vec::new(),
        }
    }

    /// Records one arrival at time `at`.
    pub fn record(&mut self, at: Time) {
        let idx = (at / self.bucket_us) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0.0);
        }
        self.counts[idx] += 1.0;
    }

    /// The `n` *complete* buckets before `now`: buckets `[end-n, end)` where
    /// `end` is the bucket containing `now` (excluded, since it is still
    /// filling). Missing buckets read as zero. This is the view every
    /// classification/forecast round uses, so a half-filled current bucket
    /// never masquerades as a rate drop.
    pub fn window_before(&self, now: Time, n: usize) -> Vec<f64> {
        let end = (now / self.bucket_us) as usize;
        let start = end.saturating_sub(n);
        let mut out = vec![0.0; n - (end - start)];
        out.extend((start..end).map(|b| self.counts.get(b).copied().unwrap_or(0.0)));
        out
    }

    /// Arrival rate of the most recent complete bucket before `now`.
    pub fn current_rate(&self, now: Time) -> f64 {
        let idx = (now / self.bucket_us) as usize;
        if idx == 0 {
            return self.counts.first().copied().unwrap_or(0.0);
        }
        self.counts.get(idx - 1).copied().unwrap_or(0.0)
    }

    /// Total arrivals recorded.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }
}

/// Cosine distance `1 - cos(a, b)` between two rate vectors; 0 for parallel
/// curves (templates that "increase and decrease simultaneously", §IV-C.1),
/// 1 for orthogonal ones. Zero vectors are maximally distant from non-zero
/// vectors and identical to each other.
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().max(b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0.0);
        let y = b.get(i).copied().unwrap_or(0.0);
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 && nb == 0.0 {
        return 0.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    (1.0 - dot / (na.sqrt() * nb.sqrt())).clamp(0.0, 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate() {
        let mut h = ArrivalHistory::new(1_000_000);
        h.record(0);
        h.record(10);
        h.record(1_500_000);
        assert_eq!(h.window_before(2_000_000, 2), vec![2.0, 1.0]);
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn current_rate_reads_previous_bucket() {
        let mut h = ArrivalHistory::new(1_000_000);
        for _ in 0..5 {
            h.record(500_000);
        }
        assert_eq!(h.current_rate(1_200_000), 5.0);
        assert_eq!(h.current_rate(500_000), 5.0, "first bucket reads itself");
        assert_eq!(h.current_rate(9_000_000), 0.0);
    }

    #[test]
    fn cosine_distance_behaviour() {
        assert!(
            cosine_distance(&[1.0, 2.0], &[2.0, 4.0]) < 1e-12,
            "parallel"
        );
        assert!(
            (cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12,
            "orthogonal"
        );
        assert_eq!(
            cosine_distance(&[0.0], &[0.0]),
            0.0,
            "both idle: same class"
        );
        assert_eq!(
            cosine_distance(&[1.0], &[0.0]),
            1.0,
            "idle vs active: distant"
        );
        // different lengths are zero-padded
        assert!(cosine_distance(&[1.0, 1.0], &[1.0, 1.0, 0.0]) < 1e-12);
    }
}
