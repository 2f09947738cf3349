//! # pico-ihk — Interface for Heterogeneous Kernels
//!
//! The substrate that lets a lightweight kernel run next to Linux:
//!
//! * [`ikc`] — the latency parameters of the inter-kernel channel;
//! * [`delegate`] — system-call delegation: IKC round trip plus a FIFO
//!   queue on the few Linux service cores, whose contention under
//!   many-rank SDMA/ioctl load is the bottleneck PicoDriver attacks;
//! * [`proxy`] — the Linux proxy process paired with every LWK process;
//! * [`syscall`] — the syscall numbers both kernels' profiles share.

#![warn(missing_docs)]

pub mod delegate;
pub mod ikc;
pub mod proxy;
pub mod syscall;

pub use delegate::{Delegator, OffloadGrant};
pub use ikc::IkcConfig;
pub use proxy::{LinuxPid, LwkPid, ProxyProcess, ProxyRegistry};
pub use syscall::Sysno;
