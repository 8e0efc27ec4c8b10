//! Bounded priority queue of pending requests.
//!
//! Ordering: higher [`Request::priority`] first; within a priority, FIFO by
//! submission sequence number. Capacity is enforced at push — a full queue
//! hands the entry back so the caller can reply
//! [`crate::RejectReason::QueueFull`] instead of hanging.

use std::cmp::{Ordering as CmpOrdering, Reverse};
use std::collections::BinaryHeap;

use crate::request::Request;

/// A queued request plus its precomputed KV-row reservation.
#[derive(Debug)]
pub struct QueueEntry {
    /// The pending request.
    pub request: Request,
    /// Worst-case KV rows this request reserves when admitted
    /// ([`crate::EngineLimits::cost`]).
    pub cost: usize,
    seq: u64,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Max-heap: higher priority wins; ties resolve to the earliest
        // sequence number (Reverse => smaller seq is "greater").
        (self.request.priority, Reverse(self.seq))
            .cmp(&(other.request.priority, Reverse(other.seq)))
    }
}

/// Bounded priority/FIFO queue.
#[derive(Debug)]
pub struct RequestQueue {
    heap: BinaryHeap<QueueEntry>,
    capacity: usize,
    next_seq: u64,
}

impl RequestQueue {
    /// An empty queue holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        RequestQueue {
            heap: BinaryHeap::new(),
            capacity,
            next_seq: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Enqueues, or hands the request back if the queue is full.
    // The fat `Err` is the point: on overflow the caller gets the request
    // back intact to answer `QueueFull` on its response channel.
    #[allow(clippy::result_large_err)]
    pub fn try_push(&mut self, request: Request, cost: usize) -> Result<(), Request> {
        if self.heap.len() >= self.capacity {
            return Err(request);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueueEntry { request, cost, seq });
        Ok(())
    }

    /// The entry that would pop next, if any.
    pub fn peek(&self) -> Option<&QueueEntry> {
        self.heap.peek()
    }

    /// Removes and returns the highest-priority (then oldest) entry.
    pub fn pop(&mut self) -> Option<QueueEntry> {
        self.heap.pop()
    }

    /// Drains every entry in scheduling order (used at shutdown to reply
    /// [`crate::RejectReason::ShuttingDown`] to everything still queued).
    pub fn drain(&mut self) -> Vec<QueueEntry> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.heap.pop() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{GenerateSpec, RequestKind};
    use std::sync::mpsc;

    fn req(id: u64, priority: i32) -> Request {
        // Receiver dropped immediately: the answer each request sends as
        // it drops goes nowhere.
        let (tx, _rx) = mpsc::channel();
        Request::new(
            id,
            RequestKind::Generate(GenerateSpec::greedy(vec![1], 1, None)),
            tx,
        )
        .with_priority(priority)
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let mut q = RequestQueue::new(8);
        q.try_push(req(1, 0), 1).unwrap();
        q.try_push(req(2, 5), 1).unwrap();
        q.try_push(req(3, 0), 1).unwrap();
        q.try_push(req(4, 5), 1).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.request.id)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn full_queue_hands_request_back() {
        let mut q = RequestQueue::new(1);
        q.try_push(req(1, 0), 1).unwrap();
        let rejected = q.try_push(req(2, 0), 1).unwrap_err();
        assert_eq!(rejected.id, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_empties_in_scheduling_order() {
        let mut q = RequestQueue::new(4);
        q.try_push(req(1, 1), 1).unwrap();
        q.try_push(req(2, 2), 1).unwrap();
        let ids: Vec<u64> = q.drain().into_iter().map(|e| e.request.id).collect();
        assert_eq!(ids, vec![2, 1]);
        assert!(q.is_empty());
    }
}
