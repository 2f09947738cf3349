//! McKernel memory management policy and costs.
//!
//! The principal policy (§3.4): back `ANONYMOUS` mappings with physically
//! contiguous memory using large pages whenever possible, and pin
//! everything, so the fast path can iterate page tables instead of taking
//! `struct page` references. The flip side — observed in the paper's QBOX
//! profile (Figure 9) and called out as future work — is that `munmap` is
//! expensive: page-table teardown plus a TLB shootdown that crosses the
//! kernel boundary over IKC.
//!
//! The mappings themselves are pinned `pico_mem::AddressSpace` mappings;
//! the simulator charges these costs for the LWK-local scratch
//! `mmap`/`munmap` calls.

use pico_sim::Ns;

/// Cost parameters of McKernel's memory manager.
#[derive(Clone, Copy, Debug)]
pub struct MckMmCosts {
    /// LWK syscall entry/exit (much lighter than Linux's).
    pub syscall_entry: Ns,
    /// Base cost of a local anonymous `mmap`.
    pub mmap_base: Ns,
    /// Per-leaf mapping cost.
    pub mmap_per_leaf: Ns,
    /// Base `munmap` cost.
    pub munmap_base: Ns,
    /// Per-leaf teardown cost.
    pub munmap_per_leaf: Ns,
    /// TLB shootdown: fixed cost of the cross-core (and cross-kernel,
    /// when the mapping was visible to Linux) invalidation round.
    pub tlb_shootdown: Ns,
}

impl Default for MckMmCosts {
    fn default() -> Self {
        MckMmCosts {
            syscall_entry: Ns::nanos(200),
            mmap_base: Ns::nanos(900),
            mmap_per_leaf: Ns::nanos(350),
            // munmap on McKernel is *more* expensive than on Linux: the
            // paper identifies it as the dominant kernel cost for QBOX.
            munmap_base: Ns::micros(4),
            munmap_per_leaf: Ns::nanos(600),
            tlb_shootdown: Ns::micros(20),
        }
    }
}
