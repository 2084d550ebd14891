//! Weighted-fair queueing over per-tenant backlogs.
//!
//! The scheduler keeps one FIFO per tenant plus a *virtual time* per
//! tenant (classic WFQ with unit job cost): dispatching a job from tenant
//! `t` advances `vtime[t]` by `1 / weight[t]`, and a dispatch always
//! picks the backlogged tenant with the smallest virtual time. A weight-3
//! tenant therefore receives three dispatch slots for every one a
//! weight-1 tenant gets — *when both are backlogged* — while an
//! uncontended tenant gets the whole pool. A tenant whose queue was empty
//! rejoins at the current global virtual time (never earlier), so saved-up
//! idle time cannot be cashed in as a burst that starves everyone else.
//!
//! This module is pure bookkeeping — no threads, no locks — so fairness
//! is unit-testable by inspecting dispatch orders. [`crate::service`]
//! wraps it in a mutex and a condvar, and its idle workers pop from it.

use std::collections::VecDeque;

/// One queued dispatch: the job id plus its payload, parked until a
/// worker pops it.
#[derive(Debug)]
pub struct Queued<T> {
    /// The tenant index the entry belongs to.
    pub tenant: usize,
    /// The queued item (td-serve: the job and its response plumbing).
    pub item: T,
}

/// Per-tenant WFQ state over items of type `T`.
#[derive(Debug)]
pub struct FairQueue<T> {
    queues: Vec<VecDeque<T>>,
    weights: Vec<u32>,
    vtime: Vec<f64>,
    /// Global virtual clock: the virtual time of the most recent dispatch.
    clock: f64,
    /// Total dispatches per tenant (stats surface).
    pub dispatched: Vec<u64>,
}

impl<T> FairQueue<T> {
    /// A fair queue over `weights.len()` tenants (weights clamped to ≥ 1).
    pub fn new(weights: &[u32]) -> Self {
        FairQueue {
            queues: weights.iter().map(|_| VecDeque::new()).collect(),
            weights: weights.iter().map(|&w| w.max(1)).collect(),
            vtime: vec![0.0; weights.len()],
            clock: 0.0,
            dispatched: vec![0; weights.len()],
        }
    }

    /// Enqueues an item for `tenant`. A tenant waking from idle rejoins at
    /// the global clock so it cannot burst ahead of backlogged peers.
    pub fn push(&mut self, tenant: usize, item: T) {
        if self.queues[tenant].is_empty() {
            self.vtime[tenant] = self.vtime[tenant].max(self.clock);
        }
        self.queues[tenant].push_back(item);
    }

    /// Dequeues the next item by weighted fairness: the backlogged tenant
    /// with the smallest virtual time, FIFO within the tenant. `None` when
    /// everything is empty.
    pub fn pop(&mut self) -> Option<Queued<T>> {
        let tenant = (0..self.queues.len())
            .filter(|&t| !self.queues[t].is_empty())
            .min_by(|&a, &b| {
                self.vtime[a]
                    .partial_cmp(&self.vtime[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })?;
        let item = self.queues[tenant].pop_front()?;
        self.clock = self.vtime[tenant];
        self.vtime[tenant] += 1.0 / f64::from(self.weights[tenant]);
        self.dispatched[tenant] += 1;
        Some(Queued { tenant, item })
    }

    /// Total items currently backlogged.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether every tenant queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(fq: &mut FairQueue<u32>) -> Vec<usize> {
        std::iter::from_fn(|| fq.pop().map(|q| q.tenant)).collect()
    }

    #[test]
    fn weighted_tenants_get_proportional_slots() {
        let mut fq = FairQueue::new(&[3, 1]);
        for i in 0..12 {
            fq.push(0, i);
        }
        for i in 0..4 {
            fq.push(1, i);
        }
        let order = drain_order(&mut fq);
        // In every prefix of length 4k the weight-3 tenant holds ~3k slots.
        let heavy_in_first_8 = order[..8].iter().filter(|&&t| t == 0).count();
        assert_eq!(heavy_in_first_8, 6, "3:1 split, got order {order:?}");
        assert_eq!(order.len(), 16);
    }

    #[test]
    fn fifo_within_a_tenant() {
        let mut fq = FairQueue::new(&[1]);
        for i in 0..5 {
            fq.push(0, i);
        }
        let items: Vec<u32> = std::iter::from_fn(|| fq.pop().map(|q| q.item)).collect();
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn uncontended_tenant_gets_every_slot() {
        let mut fq = FairQueue::new(&[1, 8]);
        for i in 0..6 {
            fq.push(0, i);
        }
        assert!(drain_order(&mut fq).iter().all(|&t| t == 0));
    }

    #[test]
    fn idle_tenant_rejoins_at_the_clock_not_at_zero() {
        let mut fq = FairQueue::new(&[1, 1]);
        for i in 0..8 {
            fq.push(0, i);
        }
        // Tenant 0 runs alone for a while...
        for _ in 0..6 {
            assert_eq!(fq.pop().unwrap().tenant, 0);
        }
        // ...then tenant 1 arrives with a backlog. It must *share* from
        // here (alternate), not drain its whole backlog first as a
        // saved-up burst.
        for i in 0..4 {
            fq.push(1, i);
        }
        let order = drain_order(&mut fq);
        let ones_in_first_4 = order[..4].iter().filter(|&&t| t == 1).count();
        assert_eq!(ones_in_first_4, 2, "no catch-up burst, got {order:?}");
    }
}
