//! Bounded multi-producer multi-consumer admission queue.
//!
//! Built on `std::sync::{Mutex, Condvar}` (matching the workspace's
//! crossbeam-free threading style). The bound is the serving layer's
//! back-pressure: a producer pushing into a full queue blocks until a
//! worker drains a slot, so request bursts never balloon memory. The queue
//! records its high-water mark so tests can assert the bound held.
//!
//! Locking is **poison-tolerant**: every acquisition recovers the guard via
//! [`PoisonError::into_inner`]. The queue's invariants (a `VecDeque`, a
//! flag, a counter) hold after any partial critical section, so a worker
//! that panicked while holding the lock must not cascade into
//! `.expect("queue lock")` panics in every other shard.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// A bounded FIFO shared between the admission side and shard workers.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` queued items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            state: Mutex::new(State { items: VecDeque::new(), closed: false, high_water: 0 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Acquire the state lock, recovering from poison: the queue's
    /// invariants survive any interrupted critical section.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue, blocking while the queue is at capacity. Returns the item
    /// back if the queue was closed before a slot freed up.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(item);
            }
            if st.items.len() < self.capacity {
                st.items.push_back(item);
                st.high_water = st.high_water.max(st.items.len());
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dequeue without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = self.lock();
        let item = st.items.pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Remove the item maximising `key`; the **earliest** such item wins
    /// ties, so a constant key degrades to exact FIFO ([`Self::try_pop`]).
    fn pop_max<K: Ord>(st: &mut State<T>, key: &impl Fn(&T) -> K) -> Option<T> {
        if st.items.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..st.items.len() {
            if key(&st.items[i]) > key(&st.items[best]) {
                best = i;
            }
        }
        st.items.remove(best)
    }

    /// Dequeue the highest-`key` item without blocking (FIFO within a key
    /// class) — the serving layer's priority-aware admission pop.
    pub fn try_pop_max_by_key<K: Ord>(&self, key: impl Fn(&T) -> K) -> Option<T> {
        let mut st = self.lock();
        let item = Self::pop_max(&mut st, &key);
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Dequeue the highest-`key` item, blocking until one arrives. Returns
    /// `None` only when the queue is closed *and* drained — the worker
    /// shutdown signal.
    pub fn pop_wait_max_by_key<K: Ord>(&self, key: impl Fn(&T) -> K) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = Self::pop_max(&mut st, &key) {
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The largest `key` among queued items — lets a full shard decide
    /// whether a queued arrival outranks a running session *before*
    /// committing to a preemption.
    pub fn max_key<K: Ord>(&self, key: impl Fn(&T) -> K) -> Option<K> {
        self.lock().items.iter().map(key).max()
    }

    /// Close the queue: already-queued items still drain, new pushes fail,
    /// and blocked poppers wake up.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Maximum queue length ever observed (≤ capacity by construction).
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Blocking FIFO pop: a constant key degrades the priority pop to
    /// exact arrival order.
    fn pop_fifo<T>(q: &BoundedQueue<T>) -> Option<T> {
        q.pop_wait_max_by_key(|_| ())
    }

    #[test]
    fn fifo_order_preserved() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.high_water(), 5);
        for i in 0..5 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn close_drains_then_signals() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.close();
        assert_eq!(pop_fifo(&q), Some(1));
        assert_eq!(pop_fifo(&q), None);
        assert_eq!(q.push(2), Err(2));
    }

    #[test]
    fn bound_blocks_producer_until_consumed() {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(0u32).unwrap();
        q.push(1).unwrap();
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            // Blocks until the consumer below pops.
            qp.push(2).unwrap();
            qp.close();
        });
        let mut got = Vec::new();
        while let Some(v) = pop_fifo(&q) {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2]);
        assert!(q.high_water() <= 2);
    }

    #[test]
    fn close_while_producers_blocked_drains_and_unblocks() {
        // Producers blocked on a full queue must wake on close, get their
        // items back as Err, and consumers must still drain exactly the
        // items that made it in — no deadlock, no loss, no duplication.
        let q = Arc::new(BoundedQueue::new(2));
        q.push(100u32).unwrap();
        q.push(101).unwrap();
        let producers: Vec<_> = (0..3)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push(200 + i))
            })
            .collect();
        // Give the producers time to park on the full queue (close must
        // wake them whether or not they reached the wait yet).
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        let mut bounced = 0;
        for p in producers {
            match p.join().unwrap() {
                Ok(()) => panic!("push into a closed full queue must fail"),
                Err(v) => {
                    assert!((200..203).contains(&v));
                    bounced += 1;
                }
            }
        }
        assert_eq!(bounced, 3, "every blocked producer must get its item back");
        // The queued items still drain after close.
        assert_eq!(pop_fifo(&q), Some(100));
        assert_eq!(pop_fifo(&q), Some(101));
        assert_eq!(pop_fifo(&q), None, "drained + closed signals shutdown");
        assert!(q.is_empty());
    }

    #[test]
    fn poisoned_lock_does_not_cascade() {
        // A consumer that panics while holding the queue lock poisons the
        // std Mutex; every later operation must recover and keep working.
        let q = Arc::new(BoundedQueue::new(4));
        q.push(1u32).unwrap();
        let qp = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = qp.state.lock().unwrap();
            panic!("poison the queue lock");
        })
        .join();
        assert!(q.state.is_poisoned(), "test setup: lock must be poisoned");
        q.push(2).unwrap();
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(pop_fifo(&q), Some(2));
        assert_eq!(q.high_water(), 2);
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(pop_fifo(&q), None);
    }

    #[test]
    fn priority_pop_is_max_first_fifo_within_class() {
        let q = BoundedQueue::new(8);
        // (priority, arrival order)
        for item in [(1u8, 0u32), (2, 1), (1, 2), (2, 3), (3, 4)] {
            q.push(item).unwrap();
        }
        assert_eq!(q.max_key(|&(p, _)| p), Some(3));
        let order: Vec<(u8, u32)> =
            std::iter::from_fn(|| q.try_pop_max_by_key(|&(p, _)| p)).collect();
        // Highest priority first; equal priorities keep arrival order.
        assert_eq!(order, vec![(3, 4), (2, 1), (2, 3), (1, 0), (1, 2)]);
        assert_eq!(q.max_key(|&(p, _)| p), None);
    }

    #[test]
    fn constant_key_degrades_to_fifo() {
        let q = BoundedQueue::new(8);
        for i in 0..5u32 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.try_pop_max_by_key(|_| 0u8), Some(i));
        }
    }

    #[test]
    fn pop_wait_max_drains_then_signals_close() {
        let q = BoundedQueue::new(4);
        q.push((1u8, 'a')).unwrap();
        q.push((2, 'b')).unwrap();
        q.close();
        assert_eq!(q.pop_wait_max_by_key(|&(p, _)| p), Some((2, 'b')));
        assert_eq!(q.pop_wait_max_by_key(|&(p, _)| p), Some((1, 'a')));
        assert_eq!(q.pop_wait_max_by_key(|&(p, _)| p), None);
    }

    #[test]
    fn many_consumers_each_item_once() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = pop_fifo(&q) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..50u32 {
            q.push(i).unwrap();
        }
        q.close();
        let mut all: Vec<u32> =
            consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }
}
