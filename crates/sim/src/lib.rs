//! # pico-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the PicoDriver reproduction. Provides:
//!
//! * [`Ns`] — integral nanosecond time, exact and platform-independent;
//! * [`EventQueue`] — a `(time, sequence)`-ordered event heap with
//!   deterministic tie-breaking;
//! * [`Rng`] — seedable, splittable xoshiro256** with the distributions the
//!   workload and OS-noise models need (exponential, normal, Poisson);
//! * [`ServerPool`] / [`BandwidthGate`] — analytic FIFO queueing resources
//!   that return exact start/finish schedules in O(1), used for the Linux
//!   syscall-offload service CPUs, SDMA engines and fabric links;
//! * [`stats`] — per-key time accumulators (the MPI and kernel
//!   profilers) and histograms;
//! * [`FastMap`] — a splitmix64 open-addressed map (linear probing,
//!   backward-shift deletion) replacing SipHash maps on per-completion
//!   hot paths;
//! * [`sketch`] — constant-memory, deterministic, mergeable quantile
//!   sketches for O(1)-footprint run statistics at 4096-node scale;
//! * [`memalloc`] — an opt-in counting global allocator so the bench
//!   binaries can report peak memory without external crates;
//! * [`par`] — an order-preserving scoped-thread parallel map for the
//!   experiment sweeps (no external runtime, deterministic output);
//! * [`json`] — a minimal JSON builder for the result artifacts.
//!
//! Design rule: *components never read wall-clock time or global RNG* —
//! every source of nondeterminism is injected, so the same seed always
//! yields bit-identical experiment output.

#![warn(missing_docs)]

pub mod event;
pub mod fastmap;
pub mod json;
pub mod memalloc;
pub mod par;
pub mod resource;
pub mod rng;
pub mod sketch;
pub mod stats;
pub mod time;

pub use event::{EventQueue, HeapEventQueue, WheelProfile};
pub use fastmap::FastMap;
pub use json::Json;
pub use par::{default_threads, par_map, par_map_threads, SpinBarrier, WindowSync};
pub use resource::{BandwidthGate, Grant, ServerPool};
pub use rng::Rng;
pub use sketch::{FinishSketch, Sketch};
pub use stats::{Histogram, TimeByKey};
pub use time::{transfer_time, Ns};
