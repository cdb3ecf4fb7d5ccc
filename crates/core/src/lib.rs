//! # flashcoop
//!
//! Reproduction of **FlashCoop: A Locality-Aware Cooperative Buffer
//! Management for SSD-Based Storage Cluster** (Wei, Gong, Pathak, Tay —
//! ICPP 2010).
//!
//! FlashCoop sits between the file system and the SSD of each server in a
//! cooperative pair. Writes land in the local DRAM buffer *and* replicate
//! into the peer's donated remote buffer over a fast network instead of
//! synchronously hitting the SSD. The **Locality-Aware Replacement (LAR)**
//! policy evicts whole logical blocks — least popular first, most dirty as
//! the tie-break — and flushes them sequentially, reshaping random write
//! streams into the sequential patterns flash wants.
//!
//! Module map (Figure 3 of the paper → code):
//!
//! * [`config`] — every tunable; [`config::Scheme`] enumerates the four
//!   evaluated systems (Baseline + FlashCoop×{LAR, LRU, LFU}).
//! * [`buffer`] + [`policy`] — local buffer and the replacement policies.
//! * [`tables`] — the donated remote store, which is also the RCT a
//!   rebooted server reads back (LCT lives inside the buffer).
//! * [`server`] — the access portal wired to a virtual-clock replay over an
//!   [`fc_ssd::Ssd`], with local crash and snapshot recovery.
//! * [`pair`] — two servers replicating into each other's remote store,
//!   with the allocation loop between them (Figure 9).
//! * [`alloc`] — dynamic memory allocation (Equation 1).
//! * [`sim`] / [`metrics`] — the experiment driver and its reports.
//!
//! Figure 3's Monitor & Recovery module — heartbeats, the pair lifecycle,
//! replication retries — is the threaded node's (`fc-cluster`) alone: the
//! replay here never fails a peer.
//!
//! ```
//! use flashcoop::{FlashCoopConfig, PolicyKind, Scheme, replay, Preconditioning};
//! use fc_ssd::FtlKind;
//! use fc_trace::SyntheticSpec;
//!
//! let cfg = FlashCoopConfig::tiny(FtlKind::PageLevel, PolicyKind::Lar);
//! let trace = SyntheticSpec::mix(128).with_requests(200).generate(1);
//! let report = replay(&trace, &cfg, Scheme::FlashCoop(PolicyKind::Lar), None, 42);
//! assert_eq!(report.requests, 200);
//! let _ = Preconditioning::default();
//! ```

pub mod alloc;
pub mod buffer;
pub mod config;
pub mod metrics;
pub mod pair;
pub mod policy;
pub mod server;
pub mod sim;
pub mod tables;

pub use buffer::{BufferConfig, BufferManager, BufferStats, ReadSegment};
pub use config::{AllocParams, FlashCoopConfig, PolicyKind, Scheme};
pub use metrics::RunReport;
pub use pair::CoopPair;
pub use policy::{Eviction, FlushRun};
pub use server::{CoopServer, ServerMetrics, UtilSample};
pub use sim::{replay, replay_with_obs, Preconditioning};
pub use tables::RemoteStore;
