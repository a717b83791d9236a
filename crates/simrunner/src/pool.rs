//! A bounded MPMC work queue for the campaign worker pool.
//!
//! `std::sync::mpsc` has no bounded MPMC variant, so this is the classic
//! mutex + two-condvar construction: producers block while the queue is
//! at capacity, consumers block while it is empty, and `close()` wakes
//! everyone so consumers can drain the remainder and exit.

use std::collections::VecDeque;
use std::sync::{Condvar, LockResult, Mutex, MutexGuard};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Recover the guard from a poisoned lock. A panic inside a queue-holding
/// critical section only ever interrupts a `VecDeque` push/pop, which
/// cannot leave the deque in a broken state — so poisoning here is noise,
/// and honoring it would cascade one cell's panic into hanging or killing
/// every other worker on the pool.
fn relock<T>(r: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

/// A bounded blocking queue. Shared by reference across scoped threads.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Block until there is room, then enqueue. Returns `false` if the
    /// queue was closed (the item is dropped).
    pub fn push(&self, item: T) -> bool {
        let mut st = relock(self.state.lock());
        while st.items.len() >= self.capacity && !st.closed {
            st = relock(self.not_full.wait(st));
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        self.not_empty.notify_one();
        true
    }

    /// Block until an item is available or the queue is closed and
    /// drained; `None` means no more work will ever arrive.
    pub fn pop(&self) -> Option<T> {
        let mut st = relock(self.state.lock());
        loop {
            if let Some(item) = st.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = relock(self.not_empty.wait(st));
        }
    }

    /// Close the queue: consumers drain what remains, then see `None`.
    pub fn close(&self) {
        let mut st = relock(self.state.lock());
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_single_consumer() {
        let q = BoundedQueue::new(4);
        for i in 0..3 {
            assert!(q.push(i));
        }
        q.close();
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_after_close_is_rejected() {
        let q = BoundedQueue::new(2);
        q.close();
        assert!(!q.push(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_handoff_across_threads() {
        let q = BoundedQueue::new(2);
        let total = 1000u64;
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..total {
                    assert!(q.push(i));
                }
                q.close();
            });
            let mut seen = 0u64;
            let mut sum = 0u64;
            while let Some(x) = q.pop() {
                seen += 1;
                sum += x;
            }
            assert_eq!(seen, total);
            assert_eq!(sum, total * (total - 1) / 2);
        });
    }

    #[test]
    fn poisoned_lock_does_not_cascade() {
        let q = BoundedQueue::new(4);
        assert!(q.push(1));
        // Poison the internal mutex: panic while holding the guard.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = q.state.lock().unwrap();
            panic!("poison");
        }));
        assert!(q.state.lock().is_err(), "mutex should now be poisoned");
        // The queue keeps working regardless.
        assert!(q.push(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn multiple_consumers_drain_everything() {
        let q = BoundedQueue::new(3);
        let drained = Mutex::new(Vec::new());
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(x) = q.pop() {
                        drained.lock().unwrap().push(x);
                    }
                });
            }
            for i in 0..100 {
                assert!(q.push(i));
            }
            q.close();
        });
        let mut got = drained.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
