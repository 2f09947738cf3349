//! Inter-Kernel Communication (IKC): the message channel between the LWK
//! and Linux that carries system-call delegation requests and replies.
//! The channel is modelled by its latencies alone; the
//! [`Delegator`](crate::Delegator) charges them per offloaded call.

use pico_sim::Ns;

/// Latency parameters of an IKC channel. Calibrated to the IHK/McKernel
/// papers: an uncontended offloaded no-op syscall costs a few microseconds
/// round trip, dominated by the inter-processor interrupt and the proxy
/// process wakeup on the Linux side.
#[derive(Clone, Copy, Debug)]
pub struct IkcConfig {
    /// One-way message latency (ring write + IPI + receive).
    pub one_way: Ns,
    /// Additional cost to wake and dispatch the proxy process on Linux.
    pub proxy_dispatch: Ns,
    /// Service-core occupancy charged per offloaded call on top of the
    /// actual kernel work: two proxy context switches, cache/TLB
    /// pollution on the (slow KNL) service core, and the reply send.
    pub proxy_service: Ns,
    /// Thrash model: under backlog, each additional queued proxy makes
    /// every call slower (context-switch storms, cache/TLB eviction on
    /// the few service cores). The extra per-call service is
    /// `min(backlog / thrash_div, thrash_cap)`.
    pub thrash_div: u64,
    /// Upper bound of the thrash term.
    pub thrash_cap: Ns,
}

impl Default for IkcConfig {
    fn default() -> Self {
        IkcConfig {
            one_way: Ns::nanos(1800),
            proxy_dispatch: Ns::nanos(2500),
            proxy_service: Ns::micros(3),
            thrash_div: 4,
            thrash_cap: Ns::micros(25),
        }
    }
}
