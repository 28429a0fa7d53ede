//! QoS classes, admission quotas and backpressure decisions.

use std::time::Duration;

/// Service class of a submitted job. Classes shape two things: which queue a
/// replica drains first (Interactive before Batch before BestEffort), and
/// how many jobs of the class the cluster admits before pushing back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Latency-sensitive: small quota, always scheduled first.
    Interactive,
    /// Normal fine-tune traffic.
    Batch,
    /// Scavenger class: runs when nothing better is queued, shed first.
    BestEffort,
}

impl QosClass {
    pub const ALL: [QosClass; 3] = [QosClass::Interactive, QosClass::Batch, QosClass::BestEffort];

    /// Queue index, in scheduling-priority order.
    pub fn index(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Batch => 1,
            QosClass::BestEffort => 2,
        }
    }

    /// Retry hint carried by quota rejections of this class.
    pub fn base_retry(self) -> Duration {
        match self {
            QosClass::Interactive => Duration::from_millis(5),
            QosClass::Batch => Duration::from_millis(50),
            QosClass::BestEffort => Duration::from_millis(250),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Batch => "batch",
            QosClass::BestEffort => "best-effort",
        }
    }
}

/// Per-class admission quotas: the maximum number of jobs of each class the
/// cluster holds (queued + running) before new submissions bounce with
/// [`Submit::Rejected`] instead of growing the queues without bound. A quota
/// of 0 closes the class.
#[derive(Debug, Clone)]
pub struct QosQuotas {
    pub interactive: usize,
    pub batch: usize,
    pub best_effort: usize,
}

impl Default for QosQuotas {
    fn default() -> Self {
        QosQuotas {
            interactive: 64,
            batch: 256,
            best_effort: 1024,
        }
    }
}

impl QosQuotas {
    pub fn limit(&self, class: QosClass) -> usize {
        match class {
            QosClass::Interactive => self.interactive,
            QosClass::Batch => self.batch,
            QosClass::BestEffort => self.best_effort,
        }
    }
}

/// Admission decision for one submission.
#[derive(Debug)]
pub enum Submit {
    /// The job is queued; it will run when a replica picks it up.
    Admitted,
    /// The job was not admitted. `retry_after` is the backpressure hint:
    /// `Some(class.base_retry())` for transient quota rejections (a slot
    /// frees when a job of the class completes), `None` for permanent
    /// errors (invalid spec, duplicate tenant, method mismatch, no healthy
    /// replica) that resubmission cannot fix.
    Rejected {
        reason: String,
        retry_after: Option<Duration>,
    },
}

impl Submit {
    pub fn is_admitted(&self) -> bool {
        matches!(self, Submit::Admitted)
    }
}

/// A job the cluster could not finish: its replica panicked and no healthy
/// replica remained to requeue onto, or the registry could not store its
/// finished adapter.
#[derive(Debug, Clone)]
pub struct JobFailure {
    pub tenant: String,
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_priority_order_and_retry_hints() {
        assert!(QosClass::Interactive.index() < QosClass::Batch.index());
        assert!(QosClass::Batch.index() < QosClass::BestEffort.index());
        assert!(QosClass::Interactive.base_retry() < QosClass::BestEffort.base_retry());
        for (i, c) in QosClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn default_quotas_widen_down_the_priority_ladder() {
        let q = QosQuotas::default();
        assert!(q.limit(QosClass::Interactive) < q.limit(QosClass::Batch));
        assert!(q.limit(QosClass::Batch) < q.limit(QosClass::BestEffort));
    }
}
