//! # fc-simkit
//!
//! Deterministic discrete-event simulation substrate used by the FlashCoop
//! reproduction (`fc-ssd`, `fc-trace`, `flashcoop`, `fc-bench`).
//!
//! The crate provides:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) with saturating arithmetic and human-readable display.
//! * [`event`] — a stable, FIFO-tie-breaking event queue ([`event::EventQueue`])
//!   for fully event-driven simulations.
//! * [`resource`] — lightweight FIFO resource timelines ([`resource::Timeline`])
//!   for virtual-clock trace replay, which is how most FlashCoop experiments
//!   are driven.
//! * [`rng`] — seeded deterministic randomness ([`rng::DetRng`]) including the
//!   Zipf sampler used for temporal-locality synthesis.
//! * [`net`] — a latency/bandwidth link model ([`net::LinkModel`]) standing in
//!   for the paper's 10 Gbit Ethernet replication path.
//! * [`stats`] — streaming mean/variance, sample percentiles, and power-of-two
//!   histograms shared by the metric collectors.
//!
//! Everything is `std`-only and deterministic given a seed: replaying the same
//! experiment twice produces bit-identical results.

pub mod event;
pub mod net;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use net::LinkModel;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
