//! # lion-sim
//!
//! The discrete-event simulation (DES) kernel under the reproduced cluster:
//!
//! * [`CalendarQueue`]: the production future-event list — a bucketed time
//!   wheel with an overflow rung, O(1) schedule/pop, popping in
//!   `(time, sequence)` order so same-time events fire in insertion order;
//! * [`HeapQueue`]: the original binary-heap FEL, kept as the reference
//!   model for property tests;
//! * [`MultiServer`]: a k-server queueing resource modelling a node's worker
//!   pool (and single-threaded resources such as Calvin's lock manager);
//! * [`Histogram`]: log-bucketed latency histogram with percentile queries
//!   (Fig. 14a);
//! * [`RingSeries`]: the production time-series store — fixed bucket
//!   budget with deterministic 2× bucket-width decimation, so a series'
//!   memory is constant in run length (Figs. 8, 10, 12, 13a timelines);
//! * [`TimeSeries`]: the unbounded reference series, kept as the oracle
//!   for the `RingSeries` property tests.
//!
//! Everything here is pure data-structure code with no I/O, so entire
//! cluster runs are reproducible from a seed. The one invariant every FEL
//! implementation must uphold is the **deterministic total pop order**
//! `(timestamp, sequence-number)` — it is the engine's tie-break for
//! same-instant events and the foundation of the repo's digest-golden
//! policy (see `ARCHITECTURE.md`).
//!
//! ```
//! use lion_sim::{CalendarQueue, HeapQueue};
//!
//! // Identical schedules drain in identical order from both FELs.
//! let (mut cal, mut heap) = (CalendarQueue::new(), HeapQueue::new());
//! for (delay, tag) in [(20, "b"), (5, "a"), (5, "tie"), (9_000_000, "far")] {
//!     cal.schedule(delay, tag);
//!     heap.schedule(delay, tag);
//! }
//! while let Some(ev) = cal.pop() {
//!     assert_eq!(heap.pop(), Some(ev));
//! }
//! assert!(heap.is_empty());
//! ```

pub mod fel;
pub mod hist;
pub mod queue;
pub mod resource;
pub mod series;

pub use fel::CalendarQueue;
pub use hist::Histogram;
pub use queue::HeapQueue;
pub use resource::MultiServer;
pub use series::{RingSeries, TimeSeries, RING_DEFAULT_BUCKETS};
