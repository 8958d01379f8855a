//! Template identification (§IV-C.1).
//!
//! "Transactions accessing the same partitions receive the same label,
//! forming identical templates. Once these templates are identified, we
//! track the arrival rate history of each template instead of individual
//! queries." — the registry interns partition sets and buckets arrivals.

use crate::arrival::ArrivalHistory;
use lion_common::{FastMap, PartitionId, Time, TxnRecord};

/// Dense template identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TemplateId(pub u32);

impl TemplateId {
    /// Dense index for `Vec` addressing.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One identified template: a partition set and its arrival history.
#[derive(Debug, Clone)]
pub struct Template {
    /// Sorted partition set defining the template.
    pub parts: Vec<PartitionId>,
    /// Arrival-rate history (Eq. 5).
    pub history: ArrivalHistory,
}

/// Interns partition-set templates and maintains their arrival histories.
#[derive(Debug, Clone)]
pub struct TemplateRegistry {
    bucket_us: Time,
    by_parts: FastMap<Vec<PartitionId>, TemplateId>,
    templates: Vec<Template>,
}

impl TemplateRegistry {
    /// Creates a registry sampling at `bucket_us` intervals.
    pub fn new(bucket_us: Time) -> Self {
        TemplateRegistry {
            bucket_us,
            by_parts: FastMap::default(),
            templates: Vec::new(),
        }
    }

    /// Number of identified templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True when no template has been observed.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Records one routed transaction, interning its template.
    pub fn observe(&mut self, rec: &TxnRecord) -> TemplateId {
        let id = match self.by_parts.get(&rec.parts) {
            Some(&id) => id,
            None => {
                let id = TemplateId(self.templates.len() as u32);
                self.by_parts.insert(rec.parts.clone(), id);
                self.templates.push(Template {
                    parts: rec.parts.clone(),
                    history: ArrivalHistory::new(self.bucket_us),
                });
                id
            }
        };
        self.templates[id.idx()].history.record(rec.at);
        id
    }

    /// Records a whole batch.
    pub fn observe_all(&mut self, records: &[TxnRecord]) {
        for r in records {
            self.observe(r);
        }
    }

    /// Template accessor.
    pub fn template(&self, id: TemplateId) -> &Template {
        &self.templates[id.idx()]
    }

    /// All template ids.
    pub fn ids(&self) -> impl Iterator<Item = TemplateId> {
        (0..self.templates.len() as u32).map(TemplateId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: Time, parts: &[u32]) -> TxnRecord {
        TxnRecord {
            at,
            parts: parts.iter().map(|&p| PartitionId(p)).collect(),
        }
    }

    #[test]
    fn same_partition_set_same_template() {
        let mut reg = TemplateRegistry::new(1_000_000);
        let a = reg.observe(&rec(0, &[1, 2]));
        let b = reg.observe(&rec(500, &[1, 2]));
        let c = reg.observe(&rec(800, &[3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.template(a).history.total(), 2.0);
    }

    #[test]
    fn histories_bucket_by_time() {
        let mut reg = TemplateRegistry::new(1_000_000);
        reg.observe(&rec(0, &[1]));
        reg.observe(&rec(2_000_000, &[1]));
        let t = reg.template(TemplateId(0));
        assert_eq!(t.history.window_before(3_000_000, 3), vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn observe_all_batches() {
        let mut reg = TemplateRegistry::new(1_000_000);
        reg.observe_all(&[rec(0, &[1]), rec(1, &[1]), rec(2, &[2, 3])]);
        assert_eq!(reg.len(), 2);
    }
}
