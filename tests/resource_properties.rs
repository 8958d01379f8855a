//! `MultiServer` against a sorted-vector reference model.
//!
//! A job takes the earliest-free server; which server that is does not
//! matter, only the multiset of free times. The model keeps that multiset
//! as a sorted `Vec`, takes its first entry and re-inserts the job's end,
//! and every `Grant` and the busy total must match it.

use lion::common::Time;
use lion::sim::{resource::Grant, MultiServer};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn grants_match_a_sorted_vec_of_free_times(
        servers in 1usize..=8,
        jobs in proptest::collection::vec((0u64..200, 0u64..50), 0..200),
    ) {
        let mut r = MultiServer::new(servers);
        let mut free: Vec<Time> = vec![0; servers];
        let (mut now, mut busy) = (0, 0);
        for (gap, service) in jobs {
            now += gap;
            let start = free.remove(0).max(now);
            let end = start + service;
            let at = free.partition_point(|&t| t <= end);
            free.insert(at, end);
            busy += service;
            prop_assert_eq!(r.acquire(now, service), Grant { start, end });
            prop_assert_eq!(r.earliest_free(), free[0]);
            prop_assert_eq!(r.busy_total(), busy);
        }
    }
}
