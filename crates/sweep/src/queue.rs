//! The work-stealing task queue shared by the sweep engine (grid-point
//! chunks) and the batch driver's scoped workers
//! (`vlq_qec::Parallelism::run_batches`, the batches of one run).
//!
//! One shared injector deque feeds small per-worker local deques. A
//! worker pops its own deque LIFO (the task it queued last is the one
//! whose data is warmest), refills from the injector in batches of
//! [`REFILL_BATCH`], and when both run dry steals FIFO from the other
//! workers in ring order. Each run builds its own queue and drops it
//! when its workers join.

use std::collections::VecDeque;
use std::sync::Mutex;

/// How many tasks a worker moves from the injector to its local deque
/// per refill. Small enough to keep late stealers fed, large enough to
/// amortize the injector lock.
pub const REFILL_BATCH: usize = 4;

/// An injector deque plus one local deque per worker.
#[derive(Debug)]
pub struct StealQueue<T> {
    injector: Mutex<VecDeque<T>>,
    locals: Vec<Mutex<VecDeque<T>>>,
}

impl<T> StealQueue<T> {
    /// An empty queue for `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        StealQueue {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
        }
    }

    /// Appends `tasks` to the injector.
    pub fn extend(&self, tasks: impl IntoIterator<Item = T>) {
        self.injector.lock().expect("injector").extend(tasks);
    }

    /// Claims the next task for worker `me`: a local LIFO pop, then an
    /// injector refill, then a FIFO steal from the other workers.
    /// Returns the task and whether it was stolen.
    pub fn next(&self, me: usize) -> Option<(T, bool)> {
        if let Some(t) = self.locals[me].lock().expect("local deque").pop_back() {
            return Some((t, false));
        }
        {
            let mut injector = self.injector.lock().expect("injector");
            if let Some(first) = injector.pop_front() {
                let mut local = self.locals[me].lock().expect("local deque");
                for _ in 1..REFILL_BATCH {
                    match injector.pop_front() {
                        Some(t) => local.push_back(t),
                        None => break,
                    }
                }
                return Some((first, false));
            }
        }
        for off in 1..self.locals.len() {
            let victim = (me + off) % self.locals.len();
            if let Some(t) = self.locals[victim]
                .lock()
                .expect("victim deque")
                .pop_front()
            {
                return Some((t, true));
            }
        }
        None
    }

    /// Drops every queued task (a run abandoning its remaining work);
    /// workers stop after the task they hold.
    pub fn clear(&self) {
        self.injector.lock().expect("injector").clear();
        for local in &self.locals {
            local.lock().expect("local deque").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_takes_tasks_in_injector_order() {
        let q = StealQueue::new(1);
        q.extend(0..10u32);
        let mut seen = Vec::new();
        while let Some((t, stolen)) = q.next(0) {
            assert!(!stolen);
            seen.push(t);
        }
        // Refills move REFILL_BATCH tasks at a time: the first is run
        // at once, the rest pop LIFO from the local deque.
        assert_eq!(seen, vec![0, 3, 2, 1, 4, 7, 6, 5, 8, 9]);
    }

    #[test]
    fn idle_workers_steal_the_oldest_local_task() {
        let q = StealQueue::new(2);
        q.extend(0..4u32);
        assert_eq!(q.next(0), Some((0, false)));
        // Worker 0's local deque holds 1, 2, 3; worker 1 finds the
        // injector empty and steals from the front.
        assert_eq!(q.next(1), Some((1, true)));
        assert_eq!(q.next(0), Some((3, false)));
        q.clear();
        assert_eq!(q.next(1), None);
    }
}
