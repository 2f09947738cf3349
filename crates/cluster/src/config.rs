//! Cluster configuration: the three OS configurations of the evaluation
//! plus every knob the ablation benches sweep.

use pico_apps::JobShape;
use pico_fabric::FabricConfig;
use pico_ihk::IkcConfig;
use pico_linux::NoiseConfig;
use pico_psm::PsmConfig;
use pico_sim::Ns;

/// The operating-system configuration of a run — the three lines of
/// every figure in §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OsConfig {
    /// Stock Linux (Fujitsu HPC-tuned: `nohz_full` application cores).
    Linux,
    /// IHK/McKernel with system-call offloading (original).
    McKernel,
    /// IHK/McKernel with the HFI PicoDriver fast paths.
    McKernelHfi,
}

impl OsConfig {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            OsConfig::Linux => "Linux",
            OsConfig::McKernel => "McKernel",
            OsConfig::McKernelHfi => "McKernel+HFI1",
        }
    }
    /// All three configurations.
    pub const ALL: [OsConfig; 3] = [OsConfig::Linux, OsConfig::McKernel, OsConfig::McKernelHfi];
}

/// How same-link packet bursts travel through the fabric model. The
/// per-packet model is the reference. The two coalesced modes run one
/// sink machinery and differ only in what a sink is keyed by: a
/// directed link (`Flows`) or a destination node (`Incast`). `Flows` is
/// kept as the oracle of `Incast`'s cross-source merge (bit-identical
/// bulk arrivals on the simbench incast patterns), the way
/// `HeapEventQueue` backs the timing wheel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FabricMode {
    /// One `Ev::Packet` per hop — the per-packet reference model.
    PerPacket,
    /// Per-link sinks: each dispatch's same-link burst is coalesced into
    /// one fabric reservation that stays open across dispatches,
    /// successive flushes extend it (`Fabric::extend_sink`), and
    /// delivery rides the zero-event soft schedule; a conflict pauses
    /// the undelivered suffix in place, and only `flow_linger_ns`
    /// idleness or the member cap close a sink. A sink has one source,
    /// so its appends arrive in arrival order and never merge.
    Flows,
    /// Destination-rooted sinks: one sink per destination node merges
    /// members from *all* source links into a single soft schedule over
    /// the shared downlink. An N-to-1 incast needs one close reaper and
    /// one soft entry instead of N; pauses, member caps, and lingering
    /// are per node. FIFO-exact against [`FabricMode::Flows`].
    Incast,
}

impl FabricMode {
    /// Whether bursts are coalesced into sinks at all.
    pub fn batches(self) -> bool {
        self != FabricMode::PerPacket
    }
    /// Whether sinks are keyed by destination node rather than by
    /// directed link.
    pub fn incast(self) -> bool {
        self == FabricMode::Incast
    }
}

/// Which event engine executes a run. The single-queue engine is the
/// reference model (one timing wheel, one thread); the sharded engine
/// partitions the cluster by node into per-shard wheels executed on
/// worker threads under conservative lookahead. The two are
/// equivalence-tested against each other the way the fabric modes
/// test `Flows`/`Incast` against `PerPacket`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// One global timing wheel walked by one thread — the reference.
    SingleQueue,
    /// Node-sharded wheels on worker threads: shards execute windows of
    /// width `FabricConfig::base_latency` (the minimum link latency, the
    /// Chandy–Misra lookahead) between barriers; cross-shard fabric
    /// traffic travels through per-destination-shard inboxes committed
    /// at the window boundary. Requires [`FabricMode::Incast`] (the
    /// destination-rooted sinks are what make every cross-node delivery
    /// a sink merge, i.e. routable by destination); `World::new` panics
    /// on any other fabric mode.
    Sharded,
}

impl EngineMode {
    /// Whether this is the node-sharded parallel engine.
    pub fn sharded(self) -> bool {
        self == EngineMode::Sharded
    }
}

/// Full cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// OS configuration.
    pub os: OsConfig,
    /// Job shape (nodes × ranks/node).
    pub shape: JobShape,
    /// Linux service cores per node (4 on OFP).
    pub service_cores: usize,
    /// Physical memory per node handed to the rank side.
    pub mem_per_node: u64,
    /// Fabric parameters.
    pub fabric: FabricConfig,
    /// PSM parameters.
    pub psm: PsmConfig,
    /// IKC latency parameters.
    pub ikc: IkcConfig,
    /// RNG seed (runs are bit-deterministic per seed).
    pub seed: u64,
    /// Fast-path SDMA request cap (hardware max 10 KB; ablations sweep).
    pub sdma_cap: u64,
    /// Enable the fast-path TID registration cache.
    pub tid_cache: bool,
    /// LWK backs anonymous memory with contiguous/large pages
    /// (ablation: disable to measure what contiguity is worth).
    pub lwk_large_pages: bool,
    /// Override the noise model (ablation: [`NoiseConfig::none`]).
    pub noise_override: Option<NoiseConfig>,
    /// PIO copy bandwidth (user-space eager sends).
    pub pio_bw: f64,
    /// PIO fixed cost per packet.
    pub pio_base: Ns,
    /// Receive-side eager copy-out bandwidth.
    pub copy_bw: f64,
    /// Maximum uniform random launch stagger across ranks.
    pub launch_skew: Ns,
    /// Extra one-time `MPI_Init` cost of the PicoDriver configuration
    /// (LWK-side mapping of driver internals, DWARF port load).
    pub pico_init_cost: Ns,
    /// Fraction of host memory churned to fragment the Linux buddy.
    pub host_fragmentation: f64,
    /// Carry real payloads end to end (small runs only).
    pub backed: bool,
    /// Fabric burst coalescing mode (see [`FabricMode`]). The slower
    /// modes are kept as reference models for equivalence testing the way
    /// `HeapEventQueue` backs the timing wheel.
    pub batch_fabric: FabricMode,
    /// Close a sink whose sources have all been idle this long; a closed
    /// sink finalizes its statistics and the next burst opens a fresh
    /// one. Also paces the sink reaper timers (`Ev::SinkClose`, one per
    /// active sink, rescheduled at this cadence): one per directed link
    /// under [`FabricMode::Flows`], one per destination node under
    /// [`FabricMode::Incast`].
    pub flow_linger_ns: Ns,
    /// Hard cap on members accumulated by one sink (per link or per
    /// node, as above) before it is closed and a successor opened —
    /// bounds the member vector a single delivery dispatch may own.
    pub flow_member_cap: usize,
    /// log2 of the fine pages spanned by one coarse-wheel bucket
    /// (see `EventQueue::with_coarse_bits`); the default 6 gives 64 µs
    /// pages and a ~67 ms horizon. The 128/256-node noise sweeps
    /// profile this via `WheelProfile::span_hist`.
    pub wheel_coarse_bits: u32,
    /// Which event engine executes the run (see [`EngineMode`]).
    pub engine: EngineMode,
    /// Worker threads for [`EngineMode::Sharded`]: `None` falls back to
    /// the `PICO_THREADS` environment variable / machine parallelism
    /// (`pico_sim::default_threads`). Results are bit-identical for any
    /// thread count; only wall-clock time changes.
    pub threads: Option<usize>,
    /// Shard count for [`EngineMode::Sharded`]: `None` defaults to the
    /// sizing heuristic (`pico_cluster::auto_shard_count`), which scales
    /// with ranks-per-node and the machine's advertised parallelism but
    /// *not* with [`threads`](Self::threads). The partition (contiguous
    /// node ranges) is fixed by this value alone — independent of the
    /// thread count — which is what makes cross-thread bit-identity
    /// structural.
    pub shards: Option<usize>,
    /// Record the exact per-rank finish-time vector
    /// (`RunResult::rank_finish`) in addition to the constant-memory
    /// `FinishSketch`. Off by default: the vector is O(ranks) result
    /// state, which is exactly what capped the sweeps at 256 nodes. The
    /// equivalence tests that compare finish times rank by rank opt in.
    pub record_per_rank: bool,
    /// Boot every node eagerly — full dense driver register files, dense
    /// TID receive arrays, dense per-core block pools, and a privately
    /// built address space and buddy allocator per node — instead of the
    /// flyweight template-boot model. Off by default: the eager layout
    /// costs O(nodes) boot wall-clock and hundreds of KiB per node and
    /// exists as the reference the flyweight model is equivalence-tested
    /// (and its ≥4× memory / ≥3× construction gate measured) against.
    /// Under the flyweight model exactly one node per OS config boots
    /// for real; the other N−1 share its immutable post-boot images
    /// (driver reset registers, VA layout, buddy free sets) behind `Arc`
    /// and materialize private copies only on first mutating touch.
    /// Results are bit-identical either way.
    pub eager_node_model: bool,
}

impl ClusterConfig {
    /// The paper's deployment defaults for a given OS config and shape.
    pub fn paper(os: OsConfig, shape: JobShape) -> ClusterConfig {
        ClusterConfig {
            os,
            shape,
            service_cores: 4,
            // Enough for buffers: scale with ranks (32 MiB per rank + slack).
            mem_per_node: (shape.ranks_per_node as u64 + 4) * (64 << 20),
            fabric: FabricConfig::default(),
            psm: PsmConfig {
                ranks_per_node: shape.ranks_per_node,
                ..Default::default()
            },
            ikc: IkcConfig::default(),
            seed: 0x9e3779b97f4a7c15,
            sdma_cap: 10 * 1024,
            tid_cache: true,
            lwk_large_pages: true,
            noise_override: None,
            pio_bw: 8.0e9,
            pio_base: Ns::nanos(450),
            copy_bw: 10.0e9,
            launch_skew: Ns::millis(2),
            pico_init_cost: Ns::millis(1),
            host_fragmentation: 0.4,
            backed: false,
            batch_fabric: FabricMode::Incast,
            flow_linger_ns: Ns::millis(2),
            flow_member_cap: 4096,
            wheel_coarse_bits: 6,
            engine: EngineMode::SingleQueue,
            threads: None,
            shards: None,
            record_per_rank: false,
            eager_node_model: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(OsConfig::Linux.label(), "Linux");
        assert_eq!(OsConfig::McKernelHfi.label(), "McKernel+HFI1");
        assert_eq!(OsConfig::ALL.len(), 3);
    }

    #[test]
    fn paper_defaults_are_sane() {
        let shape = JobShape {
            nodes: 8,
            ranks_per_node: 32,
        };
        let c = ClusterConfig::paper(OsConfig::McKernel, shape);
        assert_eq!(c.service_cores, 4);
        assert_eq!(c.psm.ranks_per_node, 32);
        assert!(c.mem_per_node > 32 * (32 << 20));
    }
}
