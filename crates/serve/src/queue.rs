//! A bounded MPSC request queue with batch-draining consumers.
//!
//! This is the backpressure point of the server: producers
//! ([connection threads](crate::server)) call [`BoundedQueue::try_push`],
//! which **never blocks** — when the queue is at capacity the push fails
//! and the caller answers `Busy`, so offered load beyond capacity is
//! shed at admission instead of accumulating unbounded memory.
//! The consumer (the model's [batch worker](crate::batcher)) calls
//! [`BoundedQueue::pop_batch`], which blocks for the *first* item and
//! then lingers up to `max_wait` to coalesce more — the dynamic
//! micro-batching window.
//!
//! Items carry a caller-defined *weight* (the sample count of a request)
//! and a batch never exceeds `max_weight` total, except that a single
//! item heavier than `max_weight` still forms its own singleton batch —
//! rejecting it would lose it, and the executor handles any batch size.
//!
//! Closing the queue ([`BoundedQueue::close`]) fails further pushes but
//! lets consumers **drain** what was already admitted: `pop_batch`
//! returns the remaining items batch by batch and only then reports
//! exhaustion with `None` — the graceful-shutdown contract.
//!
//! A panic while the lock is held (a caller's `weight` closure, say)
//! cannot leave the state half-updated: it is a `VecDeque` plus a
//! `closed` flag, and every critical section changes it through whole
//! `VecDeque` calls. So a poisoned lock is recovered, not propagated to
//! every later producer and consumer.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why a [`BoundedQueue::try_push`] was refused; the item is returned so
/// the caller can answer the issuing client.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — admission control says `Busy`.
    Full(T),
    /// The queue is closed — the server is draining.
    Closed(T),
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue with weighted batch pops.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Admits `item` without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        self.available.notify_one();
        Ok(())
    }

    /// Pops the next batch: blocks until at least one item is available
    /// (or the queue is closed **and** drained — then `None`), then
    /// coalesces items in FIFO order while the running `weight` total
    /// stays within `max_weight`, waiting up to `max_wait` from the
    /// first pop for more to arrive. A lone item heavier than
    /// `max_weight` is returned as a singleton batch.
    pub fn pop_batch<W: Fn(&T) -> usize>(
        &self,
        max_weight: usize,
        max_wait: Duration,
        weight: W,
    ) -> Option<Vec<T>> {
        let mut st = self.lock();
        loop {
            if !st.items.is_empty() {
                break;
            }
            if st.closed {
                return None;
            }
            st = self
                .available
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let first = st.items.pop_front().expect("non-empty");
        let mut total = weight(&first);
        let mut batch = vec![first];
        let deadline = Instant::now() + max_wait;
        loop {
            // Coalesce whatever is already queued, preserving FIFO order;
            // stop *before* an item that would push the batch over the cap.
            while let Some(front) = st.items.front() {
                let w = weight(front);
                if total.saturating_add(w) > max_weight {
                    return Some(batch);
                }
                total += w;
                batch.push(st.items.pop_front().expect("front exists"));
                if total >= max_weight {
                    return Some(batch);
                }
            }
            if st.closed {
                return Some(batch);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(batch);
            }
            let (guard, timeout) = self
                .available
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if timeout.timed_out() && st.items.is_empty() {
                return Some(batch);
            }
        }
    }

    /// Closes the queue: further pushes fail, consumers drain the
    /// remainder and then observe exhaustion.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.available.notify_all();
    }

    /// Items currently queued (a snapshot; concurrent pops move it).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    const NO_WAIT: Duration = Duration::from_millis(0);

    #[test]
    fn rejects_when_full_and_after_close() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        q.close();
        assert!(matches!(q.try_push(4), Err(PushError::Closed(4))));
    }

    #[test]
    fn pop_batch_preserves_fifo_and_weight_cap() {
        let q = BoundedQueue::new(16);
        for w in [2usize, 3, 4, 1, 5] {
            q.try_push(w).unwrap();
        }
        // Cap 9: takes 2+3+4 = 9 then stops.
        let batch = q.pop_batch(9, NO_WAIT, |&w| w).unwrap();
        assert_eq!(batch, vec![2, 3, 4]);
        // Cap 3: takes 1, stops before 5 (would overflow).
        let batch = q.pop_batch(3, NO_WAIT, |&w| w).unwrap();
        assert_eq!(batch, vec![1]);
        // The oversized 5 still comes out as a singleton.
        let batch = q.pop_batch(3, NO_WAIT, |&w| w).unwrap();
        assert_eq!(batch, vec![5]);
    }

    #[test]
    fn close_drains_then_exhausts() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        q.close();
        let batch = q.pop_batch(3, NO_WAIT, |_| 1).unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
        let batch = q.pop_batch(3, NO_WAIT, |_| 1).unwrap();
        assert_eq!(batch, vec![3, 4]);
        assert!(q.pop_batch(3, NO_WAIT, |_| 1).is_none());
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let popper = thread::spawn(move || q2.pop_batch(4, NO_WAIT, |_| 1));
        thread::sleep(Duration::from_millis(20));
        q.try_push(42).unwrap();
        assert_eq!(popper.join().unwrap().unwrap(), vec![42]);
    }

    #[test]
    fn linger_window_coalesces_late_arrivals() {
        let q = Arc::new(BoundedQueue::new(8));
        let q2 = Arc::clone(&q);
        q.try_push(1).unwrap();
        let pusher = thread::spawn(move || {
            thread::sleep(Duration::from_millis(15));
            q2.try_push(2).unwrap();
        });
        let batch = q.pop_batch(8, Duration::from_millis(300), |_| 1).unwrap();
        pusher.join().unwrap();
        assert_eq!(batch, vec![1, 2], "late arrival joined the open batch");
    }

    #[test]
    fn close_wakes_blocked_popper() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let popper = thread::spawn(move || q2.pop_batch(4, Duration::from_secs(5), |_| 1));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(popper.join().unwrap().is_none());
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1usize).unwrap();
        let q2 = Arc::clone(&q);
        // A weight closure that panics mid-pop poisons the lock.
        let poisoner = thread::spawn(move || q2.pop_batch(4, NO_WAIT, |_| panic!("bad weight")));
        assert!(poisoner.join().is_err());
        assert!(q.state.is_poisoned());

        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_batch(4, NO_WAIT, |_| 1).unwrap(), vec![2, 3]);
        // The condvar waits recover too: a blocked pop sees a later push.
        let q3 = Arc::clone(&q);
        let popper = thread::spawn(move || q3.pop_batch(4, Duration::from_millis(5), |_| 1));
        thread::sleep(Duration::from_millis(20));
        q.try_push(4).unwrap();
        assert_eq!(popper.join().unwrap().unwrap(), vec![4]);
        q.close();
        assert!(q.pop_batch(4, NO_WAIT, |_| 1).is_none());
    }
}
