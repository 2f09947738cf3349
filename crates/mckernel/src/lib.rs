//! # pico-mckernel — the lightweight co-kernel model
//!
//! McKernel implements only performance-sensitive services and delegates
//! the rest to Linux. The routing itself lives in the simulator
//! (`pico_cluster`'s `World`), which offloads through
//! `pico_ihk::Delegator`; this crate holds the LWK-side pieces it charges
//! or runs:
//!
//! * [`mm`] — the costs of memory management under the
//!   contiguous/large-page/pinned policy (§3.4), with the expensive
//!   `munmap` + cross-kernel TLB shootdown the paper's QBOX profile
//!   exposes;
//! * [`alloc`] — the *real, thread-safe* per-core allocator with the
//!   foreign-CPU `kfree` path (§3.3: Linux IRQ context frees LWK memory).

#![warn(missing_docs)]

pub mod alloc;
pub mod mm;

pub use alloc::{AllocError, BlockId, FreeKind, ScalableAllocator};
pub use mm::MckMmCosts;
