//! Multi-server queueing resource.
//!
//! Models a node's pool of worker threads (8 per executor node in the paper)
//! as `k` servers: a job takes the earliest-free server, waits if all are
//! busy, and holds the server for its service time. The same structure with
//! `k = 1` models single-threaded resources such as Calvin's lock manager —
//! whose serialization is exactly the scalability ceiling Fig. 11b shows.

use lion_common::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A `k`-server FIFO resource with busy-time accounting.
#[derive(Debug, Clone)]
pub struct MultiServer {
    /// Earliest-free-first heap of per-server availability times.
    free_at: BinaryHeap<Reverse<Time>>,
    servers: usize,
    /// Total busy µs accumulated since creation.
    busy_total: Time,
    /// Busy µs accumulated since the last [`MultiServer::take_window_busy`].
    busy_window: Time,
}

/// Outcome of acquiring a server: when service starts and ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Service start (≥ request time; the difference is queueing delay).
    pub start: Time,
    /// Service completion.
    pub end: Time,
}

impl Grant {
    /// Time spent waiting for a server.
    pub fn queue_wait(&self, requested_at: Time) -> Time {
        self.start.saturating_sub(requested_at)
    }
}

impl MultiServer {
    /// Creates a resource with `servers` parallel servers, all free at t=0.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "resource needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(0));
        }
        MultiServer {
            free_at,
            servers,
            busy_total: 0,
            busy_window: 0,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Acquires the earliest-free server at time `now` for `service` µs.
    /// The server's free time is replaced in place: one sift, not a pop and
    /// a push.
    pub fn acquire(&mut self, now: Time, service: Time) -> Grant {
        let mut earliest = self
            .free_at
            .peek_mut()
            .expect("heap always holds `servers` entries");
        let start = earliest.0.max(now);
        let end = start + service;
        *earliest = Reverse(end);
        self.busy_total += service;
        self.busy_window += service;
        Grant { start, end }
    }

    /// Earliest time any server is (or becomes) free.
    pub fn earliest_free(&self) -> Time {
        self.free_at.peek().map(|Reverse(t)| *t).unwrap_or(0)
    }

    /// Total busy µs since creation.
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }

    /// Returns and resets the busy µs accumulated in the current monitoring
    /// window. Clay's load monitor (§VI-A.2) samples this.
    pub fn take_window_busy(&mut self) -> Time {
        std::mem::take(&mut self.busy_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_until_saturated() {
        let mut r = MultiServer::new(2);
        let g1 = r.acquire(0, 10);
        let g2 = r.acquire(0, 10);
        let g3 = r.acquire(0, 10);
        assert_eq!((g1.start, g1.end), (0, 10));
        assert_eq!((g2.start, g2.end), (0, 10));
        // third job queues behind the first free server
        assert_eq!((g3.start, g3.end), (10, 20));
        assert_eq!(g3.queue_wait(0), 10);
    }

    #[test]
    fn idle_servers_start_immediately() {
        let mut r = MultiServer::new(1);
        r.acquire(0, 5);
        let g = r.acquire(100, 5);
        assert_eq!(g.start, 100);
        assert_eq!(g.queue_wait(100), 0);
    }

    #[test]
    fn busy_accounting() {
        let mut r = MultiServer::new(4);
        r.acquire(0, 7);
        r.acquire(0, 3);
        assert_eq!(r.busy_total(), 10);
        assert_eq!(r.take_window_busy(), 10);
        assert_eq!(r.take_window_busy(), 0);
        r.acquire(20, 5);
        assert_eq!(r.busy_total(), 15);
        assert_eq!(r.take_window_busy(), 5);
    }

    #[test]
    fn single_server_serializes() {
        let mut r = MultiServer::new(1);
        let mut end = 0;
        for _ in 0..10 {
            let g = r.acquire(0, 2);
            assert_eq!(g.start, end);
            end = g.end;
        }
        assert_eq!(end, 20);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = MultiServer::new(0);
    }
}
