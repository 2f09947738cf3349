//! # pico-linux — the host (Linux-like) kernel model
//!
//! The side of the multi-kernel that owns device drivers, interrupts and
//! all slow-path state:
//!
//! * [`vfs`] — character-device registry and per-process fd tables (the
//!   HFI1 device file lives here; McKernel has no fd state of its own);
//! * [`noise`] — the OS-jitter model (`nohz_full` residual ticks, daemon
//!   preemptions) that McKernel cores do not suffer;
//! * [`costs`] — calibrated primitive costs for the node model.

#![warn(missing_docs)]

pub mod costs;
pub mod noise;
pub mod vfs;

pub use costs::LinuxCosts;
pub use noise::{NoiseConfig, NoiseSource};
pub use vfs::{DevId, DeviceRegistry, FdTable, OpenFile, Vfs, VfsError};
