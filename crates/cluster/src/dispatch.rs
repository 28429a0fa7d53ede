//! Work-stealing dispatch over per-replica, per-QoS-class deques.
//!
//! Each replica owns three FIFO deques (one per [`QosClass`], drained in
//! priority order). A replica's worker pops from the *front* of its own
//! deques; an idle worker steals from the *back* of a victim's deques — the
//! classic work-stealing discipline that keeps an owner's hot, affine jobs
//! (recently requeued, warm per-tenant workspaces) at its own end while
//! thieves take the coldest work.
//!
//! The queue is job-type-generic (`DispatchQueue<T>`) so its scheduling
//! invariants can be unit-tested without building backbone replicas; the
//! cluster scheduler instantiates it with `T = lx_serve::TenantTask`.

use crate::qos::QosClass;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lock with poison recovery: a replica worker panicking is an expected,
/// contained event (quarantine), so a poisoned mutex must not cascade into
/// every other worker.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct ReplicaQueues<T> {
    /// One FIFO per QoS class, indexed by [`QosClass::index`].
    classes: [Mutex<VecDeque<T>>; 3],
    /// Set when this replica's worker panicked; quarantined replicas accept
    /// no new work and are skipped by thieves.
    quarantined: AtomicBool,
}

impl<T> ReplicaQueues<T> {
    fn new() -> Self {
        ReplicaQueues {
            classes: [
                Mutex::new(VecDeque::new()),
                Mutex::new(VecDeque::new()),
                Mutex::new(VecDeque::new()),
            ],
            quarantined: AtomicBool::new(false),
        }
    }
}

/// Per-replica QoS-class deques with steal-on-idle. All methods take `&self`
/// — the queue is shared by reference across replica worker threads.
pub struct DispatchQueue<T> {
    replicas: Vec<ReplicaQueues<T>>,
}

impl<T> DispatchQueue<T> {
    pub fn new(n_replicas: usize) -> Self {
        assert!(n_replicas > 0, "a cluster needs at least one replica");
        DispatchQueue {
            replicas: (0..n_replicas).map(|_| ReplicaQueues::new()).collect(),
        }
    }

    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Enqueue onto `replica`'s deque for `class` (owner end). Fails with
    /// the item handed back when the replica is quarantined — the flag is
    /// re-checked *under the deque lock*, so a push racing a concurrent
    /// quarantine either lands before the drain (and is redistributed with
    /// it) or is rejected; it can never strand on a dead replica.
    pub fn push(&self, replica: usize, class: QosClass, item: T) -> Result<(), T> {
        let rq = &self.replicas[replica];
        let mut q = lock(&rq.classes[class.index()]);
        if rq.quarantined.load(Ordering::Acquire) {
            return Err(item);
        }
        q.push_back(item);
        Ok(())
    }

    /// Owner pop: highest-priority non-empty class, front of the deque.
    pub fn pop_own(&self, replica: usize) -> Option<(QosClass, T)> {
        for class in QosClass::ALL {
            if let Some(item) = lock(&self.replicas[replica].classes[class.index()]).pop_front() {
                return Some((class, item));
            }
        }
        None
    }

    /// Remove up to `max` items matching `pred` from `replica`'s own deques,
    /// scanning classes in priority order — the fusion-peer harvest: after
    /// popping a fusable job, the owner gathers queued jobs with the same
    /// fusion key into one fused slice.
    pub fn drain_matching(
        &self,
        replica: usize,
        max: usize,
        mut pred: impl FnMut(&T) -> bool,
    ) -> Vec<(QosClass, T)> {
        let mut out = Vec::new();
        for class in QosClass::ALL {
            if out.len() == max {
                break;
            }
            let mut q = lock(&self.replicas[replica].classes[class.index()]);
            let mut i = 0;
            while i < q.len() && out.len() < max {
                if pred(&q[i]) {
                    let item = q.remove(i).unwrap();
                    out.push((class, item));
                } else {
                    i += 1;
                }
            }
        }
        out
    }

    /// Steal one job for an idle `thief`: scan the other healthy replicas
    /// round-robin starting after the thief, classes in priority order,
    /// taking from the *back* (the victim's coldest work).
    pub fn steal_for(&self, thief: usize) -> Option<(QosClass, T)> {
        let n = self.replicas.len();
        for off in 1..n {
            let victim = (thief + off) % n;
            if self.is_quarantined(victim) {
                continue;
            }
            for class in QosClass::ALL {
                if let Some(item) = lock(&self.replicas[victim].classes[class.index()]).pop_back() {
                    return Some((class, item));
                }
            }
        }
        None
    }

    /// Mark `replica` quarantined and drain everything still queued on it
    /// (for redistribution to survivors).
    pub fn quarantine(&self, replica: usize) -> Vec<(QosClass, T)> {
        self.replicas[replica]
            .quarantined
            .store(true, Ordering::Release);
        self.drain_replica(replica)
    }

    /// Drain everything queued on `replica` *without* changing its health —
    /// the post-drive sweep that surfaces jobs stranded by races.
    pub fn drain_replica(&self, replica: usize) -> Vec<(QosClass, T)> {
        let mut out = Vec::new();
        for class in QosClass::ALL {
            let mut q = lock(&self.replicas[replica].classes[class.index()]);
            out.extend(q.drain(..).map(|item| (class, item)));
        }
        out
    }

    pub fn is_quarantined(&self, replica: usize) -> bool {
        self.replicas[replica].quarantined.load(Ordering::Acquire)
    }

    /// Indices of replicas that have not been quarantined.
    pub fn healthy(&self) -> Vec<usize> {
        (0..self.replicas.len())
            .filter(|&r| !self.is_quarantined(r))
            .collect()
    }

    /// Jobs queued on one replica (all classes).
    pub fn pending(&self, replica: usize) -> usize {
        QosClass::ALL
            .iter()
            .map(|c| lock(&self.replicas[replica].classes[c.index()]).len())
            .sum()
    }

    /// Jobs queued cluster-wide.
    pub fn total_pending(&self) -> usize {
        (0..self.replicas.len()).map(|r| self.pending(r)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_drains_classes_in_priority_order() {
        let q: DispatchQueue<i32> = DispatchQueue::new(1);
        q.push(0, QosClass::BestEffort, 30).unwrap();
        q.push(0, QosClass::Interactive, 10).unwrap();
        q.push(0, QosClass::Batch, 20).unwrap();
        q.push(0, QosClass::Interactive, 11).unwrap();
        let order: Vec<i32> = std::iter::from_fn(|| q.pop_own(0).map(|(_, v)| v)).collect();
        assert_eq!(order, vec![10, 11, 20, 30]);
    }

    #[test]
    fn thief_takes_from_the_back_owner_from_the_front() {
        let q: DispatchQueue<i32> = DispatchQueue::new(2);
        q.push(0, QosClass::Batch, 1).unwrap();
        q.push(0, QosClass::Batch, 2).unwrap();
        q.push(0, QosClass::Batch, 3).unwrap();
        assert_eq!(q.steal_for(1), Some((QosClass::Batch, 3)), "coldest job");
        assert_eq!(q.pop_own(0), Some((QosClass::Batch, 1)), "hottest job");
        assert_eq!(q.pending(0), 1);
    }

    #[test]
    fn steal_skips_quarantined_victims_and_self() {
        let q: DispatchQueue<i32> = DispatchQueue::new(3);
        q.push(1, QosClass::Batch, 7).unwrap();
        let drained = q.quarantine(1);
        assert_eq!(drained, vec![(QosClass::Batch, 7)]);
        q.push(2, QosClass::Batch, 8).unwrap();
        // Thief 0 must skip quarantined replica 1 and reach replica 2.
        assert_eq!(q.steal_for(0), Some((QosClass::Batch, 8)));
        assert_eq!(q.steal_for(0), None);
        assert_eq!(q.healthy(), vec![0, 2]);
    }

    #[test]
    fn drain_matching_harvests_across_classes_up_to_max() {
        let q: DispatchQueue<i32> = DispatchQueue::new(1);
        for v in [2, 3, 4, 6, 8] {
            q.push(0, QosClass::Batch, v).unwrap();
        }
        q.push(0, QosClass::Interactive, 10).unwrap();
        let even = q.drain_matching(0, 3, |v| v % 2 == 0);
        let values: Vec<i32> = even.iter().map(|(_, v)| *v).collect();
        // Interactive scanned first, then Batch in queue order.
        assert_eq!(values, vec![10, 2, 4]);
        // Non-matching and beyond-max items stay queued, order preserved.
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop_own(0).map(|(_, v)| v)).collect();
        assert_eq!(rest, vec![3, 6, 8]);
    }
}
