//! # fc-obs
//!
//! Unified observability layer for the FlashCoop reproduction: a lock-cheap
//! metric registry plus a structured trace-event stream, shared by every
//! crate in the workspace (`fc-simkit`, `fc-ssd`, `flashcoop`,
//! `fc-cluster`, `fc-bench`).
//!
//! Two surfaces, one handle:
//!
//! * **Metrics** — [`Counter`], [`Gauge`], and log-bucketed [`Histogram`]
//!   (p50/p99/p999) handles registered by name in a [`Registry`]. Recording
//!   is relaxed atomics only; the registry lock is touched at registration
//!   and snapshot time. A component that already owns its cells publishes
//!   them with [`Registry::adopt`].
//! * **Events** — [`Event`]`{ t: Sim|Wall, component, kind, fields }`
//!   pushed through a pluggable [`EventSink`]: in-memory [`RingBuffer`],
//!   [`JsonLinesSink`] (the `--obs out.jsonl` path), or [`NullSink`].
//!   [`SnapshotScheduler`] turns the registry into periodic `snapshot`
//!   events keyed to sim time, so counters become trajectories.
//!
//! The [`Obs`] handle ties both together and carries the current sim time,
//! letting clock-less layers (the SSD model, the buffer) stamp events.
//!
//! ```
//! use fc_obs::{Obs, Stamp};
//!
//! let (obs, ring) = Obs::ring(1024);
//! let hits = obs.registry().counter("core.buffer.hits");
//! obs.set_sim_now(1_500);
//! hits.inc();
//! obs.emit(obs.event("core", "hit").u64_field("lpn", 42));
//! obs.emit_snapshot(Stamp::Sim(1_500));
//! assert_eq!(ring.len(), 2);
//! for ev in ring.events() {
//!     fc_obs::Event::from_json(&ev.to_json()).unwrap();
//! }
//! ```

pub mod event;
pub mod handle;
pub mod json;
pub mod metric;
pub mod registry;
pub mod schedule;
pub mod schema;
pub mod sink;

pub use event::{Event, Name, Stamp, Value};
pub use handle::Obs;
pub use metric::{
    bucket_index, bucket_lower, bucket_upper, Counter, Gauge, Histogram, HistogramSummary,
    HISTOGRAM_BUCKETS,
};
pub use registry::{Metric, MetricValue, Registry, Snapshot};
pub use schedule::SnapshotScheduler;
pub use schema::{parse_jsonl, validate_jsonl, SchemaError};
pub use sink::{EventSink, JsonLinesSink, NullSink, RingBuffer, RingSink, SharedBuf};
