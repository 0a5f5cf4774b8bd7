//! Bounded MPMC request queue with micro-batch draining.
//!
//! Connection handlers push individual jobs; worker threads drain up to
//! `max_batch` jobs per wake-up, and one batch's columns share a pool
//! split of the encoder forward. The queue is the backpressure
//! point: a full queue rejects the push (the server maps that to HTTP
//! 503) instead of buffering unboundedly.

use std::collections::VecDeque;
use std::sync::Condvar;
use std::time::Duration;

use explainti_sync::{classes, OrderedMutex};

/// Why a [`BatchQueue::try_push`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed load upstream.
    Full,
    /// The queue was closed for shutdown.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer queue whose consumers drain
/// *batches* rather than single items.
pub struct BatchQueue<T> {
    inner: OrderedMutex<Inner<T>>,
    available: Condvar,
    cap: usize,
}

impl<T> BatchQueue<T> {
    /// A queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: OrderedMutex::new(
                &classes::SERVE_QUEUE_BATCH,
                Inner { items: VecDeque::new(), closed: false },
            ),
            available: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues one item, waking a waiting consumer. Fails fast (no
    /// blocking) when the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.cap {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is available (or the queue closes),
    /// then drains up to `max_batch` items in FIFO order. Returns `None`
    /// only when the queue is closed *and* fully drained — the consumer's
    /// signal to exit.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<T>> {
        let max_batch = max_batch.max(1);
        let mut inner = self.inner.lock();
        loop {
            if !inner.items.is_empty() {
                let n = inner.items.len().min(max_batch);
                return Some(inner.items.drain(..n).collect());
            }
            if inner.closed {
                return None;
            }
            inner = inner.wait(&self.available);
        }
    }

    /// Like [`Self::pop_batch`] but gives up after `timeout`, returning
    /// an empty batch so the consumer can re-check external state.
    pub fn pop_batch_timeout(&self, max_batch: usize, timeout: Duration) -> Option<Vec<T>> {
        let max_batch = max_batch.max(1);
        let mut inner = self.inner.lock();
        loop {
            if !inner.items.is_empty() {
                let n = inner.items.len().min(max_batch);
                return Some(inner.items.drain(..n).collect());
            }
            if inner.closed {
                return None;
            }
            let (guard, timed_out) = inner.wait_timeout(&self.available, timeout);
            inner = guard;
            if timed_out {
                if !inner.items.is_empty() {
                    let n = inner.items.len().min(max_batch);
                    return Some(inner.items.drain(..n).collect());
                }
                return if inner.closed { None } else { Some(Vec::new()) };
            }
        }
    }

    /// Closes the queue: pushes fail from now on, and consumers drain
    /// what remains before [`Self::pop_batch`] returns `None`.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo_order() {
        let q = BatchQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch(3).unwrap(), vec![0, 1, 2]);
        assert_eq!(q.pop_batch(3).unwrap(), vec![3, 4]);
    }

    #[test]
    fn full_queue_rejects_push() {
        let q = BatchQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        // Draining frees capacity again.
        q.pop_batch(1).unwrap();
        q.try_push(3).unwrap();
    }

    #[test]
    fn closed_queue_rejects_push_and_drains() {
        let q = BatchQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed));
        assert_eq!(q.pop_batch(4).unwrap(), vec![7]);
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn pop_blocks_until_producer_arrives() {
        let q = Arc::new(BatchQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4))
        };
        std::thread::sleep(Duration::from_millis(30));
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap().unwrap(), vec![42]);
    }

    #[test]
    fn batch_collects_queued_items_up_to_max() {
        // The micro-batching contract: everything queued at wake-up is
        // drained together, capped at max_batch.
        let q = BatchQueue::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch.len(), 8);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn timeout_pop_returns_empty_batch() {
        let q: BatchQueue<u32> = BatchQueue::new(4);
        let batch = q.pop_batch_timeout(4, Duration::from_millis(10));
        assert_eq!(batch.unwrap(), Vec::<u32>::new());
        q.close();
        assert!(q.pop_batch_timeout(4, Duration::from_millis(10)).is_none());
    }

    #[test]
    fn concurrent_producers_and_consumers_see_every_item() {
        let q = Arc::new(BatchQueue::new(64));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batch) = q.pop_batch(4) {
                        got.extend(batch);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let mut v = p * 100 + i;
                        loop {
                            match q.try_push(v) {
                                Ok(()) => break,
                                Err(PushError::Full) => std::thread::yield_now(),
                                Err(PushError::Closed) => panic!("closed early"),
                            }
                            v = p * 100 + i;
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let mut expected: Vec<u32> =
            (0..4).flat_map(|p| (0..25).map(move |i| p * 100 + i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}
