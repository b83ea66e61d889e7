//! The admission window: a bounded view of one inbox's share of a closed
//! batch.
//!
//! `ServeEngine::run` hands each inbox its whole share of the batch up
//! front, in batch order. Only the first `capacity` requests are visible;
//! every pop refills the window with the next request of the backlog, so
//! the window is always the `capacity` earliest requests not yet popped,
//! and a priority pop or [`Window::max_key`] ranks only those. Nothing
//! blocks: an empty window has an empty backlog, so it means the inbox is
//! done.
//!
//! Locking is **poison-tolerant**: every acquisition recovers the guard via
//! [`PoisonError::into_inner`]. The window's invariants (a `VecDeque` and an
//! iterator) hold after any partial critical section, so a worker that
//! panicked while holding the lock must not cascade into lock panics in
//! every other shard.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::vec;

struct State<T> {
    /// What pops and `max_key` see, in batch order.
    visible: VecDeque<T>,
    /// The rest of the share, in batch order; non-empty only while
    /// `visible` is full.
    backlog: vec::IntoIter<T>,
}

/// A share of the batch behind a window of at most `capacity` requests,
/// shared between the shards that pop from it.
pub(crate) struct Window<T> {
    state: Mutex<State<T>>,
    high_water: usize,
}

impl<T> Window<T> {
    /// A window of `capacity` over `items`, in order.
    pub fn new(capacity: usize, items: Vec<T>) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        let mut backlog = items.into_iter();
        let visible: VecDeque<T> = backlog.by_ref().take(capacity).collect();
        Self { high_water: visible.len(), state: Mutex::new(State { visible, backlog }) }
    }

    /// Acquire the state lock, recovering from poison: the window's
    /// invariants survive any interrupted critical section.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Remove the highest-`key` visible item — the **earliest** such item
    /// wins ties, so a constant key pops in batch order — and refill the
    /// window from the backlog, provided that key is strictly above `floor`
    /// (`None` is below every key). `None` once the share is used up, or
    /// when nothing visible clears the floor (the window stays as it is).
    /// Checking and popping under one lock lets a shard that has already
    /// freed a slot take only a request that earns it, whatever the other
    /// shards popped meanwhile.
    pub fn pop_max_above<K: Ord>(&self, floor: Option<K>, key: impl Fn(&T) -> K) -> Option<T> {
        let mut st = self.lock();
        let State { visible, backlog } = &mut *st;
        // `max_by_key` keeps the last of equal maxima; scanning backwards
        // makes that the earliest.
        let best = (0..visible.len()).rev().max_by_key(|&i| key(&visible[i]))?;
        if Some(key(&visible[best])) <= floor {
            return None;
        }
        let item = visible.remove(best);
        visible.extend(backlog.next());
        item
    }

    /// The largest `key` among visible items — lets a full shard decide
    /// whether a pending arrival outranks a running session *before*
    /// committing to a preemption.
    pub fn max_key<K: Ord>(&self, key: impl Fn(&T) -> K) -> Option<K> {
        self.lock().visible.iter().map(key).max()
    }

    /// Take everything left, window then backlog: batch order.
    pub fn drain(&self) -> Vec<T> {
        let mut st = self.lock();
        let State { visible, backlog } = &mut *st;
        visible.drain(..).chain(backlog).collect()
    }

    /// The most items ever visible at once (≤ capacity by construction). A
    /// pop refills at most the one it took, so this is the first window's
    /// length.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Pop everything with `key`, in pop order.
    fn pop_all<T, K: Ord>(w: &Window<T>, key: impl Fn(&T) -> K + Copy) -> Vec<T> {
        std::iter::from_fn(|| w.pop_max_above(None, key)).collect()
    }

    #[test]
    fn fifo_order_preserved() {
        let w = Window::new(8, (0..5u32).collect());
        assert_eq!(w.high_water(), 5);
        assert_eq!(pop_all(&w, |_| ()), (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn constant_key_degrades_to_fifo() {
        // Most of the batch in the backlog: refills keep batch order.
        let w = Window::new(3, (0..9u32).collect());
        assert_eq!(pop_all(&w, |_| 0u8), (0..9).collect::<Vec<_>>());
        assert_eq!(w.high_water(), 3);
    }

    #[test]
    fn priority_pop_is_max_first_fifo_within_class() {
        // (priority, batch order), all visible at once.
        let w = Window::new(8, vec![(1u8, 0u32), (2, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(w.max_key(|&(p, _)| p), Some(3));
        let order = pop_all(&w, |&(p, _)| p);
        // Highest priority first; equal priorities keep batch order.
        assert_eq!(order, vec![(3, 4), (2, 1), (2, 3), (1, 0), (1, 2)]);
        assert_eq!(w.max_key(|&(p, _)| p), None);
    }

    #[test]
    fn pop_above_takes_only_a_strictly_higher_key() {
        let w = Window::new(2, vec![(1u8, 'a'), (2, 'b'), (3, 'c')]);
        assert_eq!(w.pop_max_above(Some(2), |&(p, _)| p), None, "b only ties the floor");
        assert_eq!(w.max_key(|&(p, _)| p), Some(2), "a refused pop leaves the window alone");
        assert_eq!(w.pop_max_above(Some(1), |&(p, _)| p), Some((2, 'b')));
        assert_eq!(w.pop_max_above(None, |&(p, _)| p), Some((3, 'c')), "the pop refilled c");
    }

    #[test]
    fn only_the_window_is_visible_and_each_pop_refills_in_batch_order() {
        // A window of 2 over [Low a, Low b, High c, Low d]: c waits in the
        // backlog, so the first pop takes a (FIFO among the visible) and
        // makes c visible; c then outranks b.
        let w = Window::new(2, vec![(0u8, 'a'), (0, 'b'), (9, 'c'), (0, 'd')]);
        assert_eq!(w.max_key(|&(p, _)| p), Some(0), "c is not visible yet");
        assert_eq!(w.pop_max_above(None, |&(p, _)| p), Some((0, 'a')));
        assert_eq!(w.max_key(|&(p, _)| p), Some(9), "the pop refilled c");
        assert_eq!(pop_all(&w, |&(p, _)| p), vec![(9, 'c'), (0, 'b'), (0, 'd')]);
    }

    #[test]
    fn window_never_exceeds_capacity() {
        for (capacity, n) in [(1, 5), (3, 2), (4, 4), (4, 9)] {
            let w = Window::new(capacity, (0..n).collect());
            assert_eq!(w.high_water(), capacity.min(n), "capacity {capacity}, {n} items");
            for _ in 0..n {
                assert!(w.lock().visible.len() <= capacity);
                w.pop_max_above(None, |&i| i % 2);
            }
            assert!(w.pop_max_above(None, |_| ()).is_none(), "capacity {capacity}, {n} items");
        }
    }

    #[test]
    fn drain_takes_window_then_backlog() {
        let w = Window::new(2, (0..5u32).collect());
        assert_eq!(w.pop_max_above(None, |&i| i), Some(1), "1 outranks 0 in the first window");
        assert_eq!(w.drain(), vec![0, 2, 3, 4]);
        assert_eq!(w.pop_max_above(None, |_| ()), None);
    }

    #[test]
    fn poisoned_lock_does_not_cascade() {
        // A shard that panics while holding the window lock poisons the
        // std Mutex; every later operation must recover and keep working.
        let w = Arc::new(Window::new(2, vec![1u32, 2, 3]));
        let wp = Arc::clone(&w);
        let _ = std::thread::spawn(move || {
            let _guard = wp.state.lock().unwrap();
            panic!("poison the window lock");
        })
        .join();
        assert!(w.state.is_poisoned(), "test setup: lock must be poisoned");
        assert_eq!(w.max_key(|&i| i), Some(2));
        assert_eq!(w.pop_max_above(None, |_| ()), Some(1));
        assert_eq!(w.drain(), vec![2, 3]);
        assert_eq!(w.pop_max_above(None, |_| ()), None);
    }

    #[test]
    fn many_consumers_each_item_once() {
        // First-free shards share one window: concurrent pops hand out
        // every request exactly once.
        let w = Arc::new(Window::new(4, (0..50u32).collect()));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || pop_all(&w, |_| ()))
            })
            .collect();
        let mut all: Vec<u32> =
            consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }
}
