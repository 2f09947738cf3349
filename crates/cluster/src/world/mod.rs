//! The full-system simulator: N nodes, each composing the Linux model,
//! the McKernel model, the HFI1 chip + driver, and (in the PicoDriver
//! configuration) the fast path — driven by one deterministic event loop.
//!
//! Time accounting rules:
//!
//! * a rank owns a local clock; compute segments advance it through the
//!   node's noise model;
//! * kernel-visible operations advance it by the *route-dependent* cost:
//!   local handling (Linux / fast path) or the full offload round trip
//!   including queueing at the node's few Linux service cores;
//! * SDMA completion IRQs are serviced by those same Linux cores, so IRQ
//!   load and offloaded syscalls contend — a second-order effect the
//!   paper's UMT collapse depends on;
//! * PSM has no progress thread: packets arriving while a rank computes
//!   wait in its inbox until the rank re-enters the MPI library.

mod collect;
mod engine;
mod fabric;
mod kernel;
mod sched;

use crate::config::{ClusterConfig, OsConfig};
pub use collect::RunResult;
pub use engine::auto_shard_count;
use pico_apps::{App, AppSpec, JobShape};
use pico_fabric::{Fabric, SinkInjection, TrainMember, TransferSchedule};
use pico_hfi1::structs::LayoutSet;
use pico_hfi1::{Hfi1Driver, HfiChip, HfiChipConfig, HfiDriverCosts};
use pico_ihk::{Delegator, ProxyRegistry, Sysno};
use pico_linux::{LinuxCosts, NoiseConfig, NoiseSource, Vfs};
use pico_mckernel::{BlockId, MckMmCosts, ScalableAllocator};
use pico_mem::{
    AddressSpace, BuddyAllocator, Frames, MapPolicy, PhysAddr, SpaceTemplate, VirtAddr,
};
use pico_mpi::{BufTable, MpiRank};
use pico_psm::{Endpoint, PsmAction, PsmPacket};
use pico_sim::{EventQueue, FastMap, Ns, Rng, Sketch, TimeByKey};
use picodriver::{CallbackKind, CallbackRef, CallbackTable, HfiFastPath, UnifiedKernelSpace};
use sched::{PendingTimes, SoftSchedule};
use std::collections::VecDeque;
use std::sync::Arc;

const MMAP_BASE: VirtAddr = VirtAddr(0x7000_0000_0000);

/// Events of the cluster simulation.
enum Ev {
    /// Resume a rank (compute finished / retry progress).
    Wake(usize),
    /// Deliver a PSM packet to a rank.
    Packet {
        dst: usize,
        src: u32,
        packet: PsmPacket,
    },
    /// Sender-side SDMA completion (IRQ handled, callbacks run).
    SdmaSent {
        rank: usize,
        msg_id: u64,
        window: u32,
        va: u64,
    },
    /// A burst of packets that rode one fabric reservation: delivered
    /// member by member at their analytic arrivals (the event fires at
    /// the first one; members are in arrival order).
    PacketTrain { members: VecDeque<TrainPacket> },
    /// Sender-side SDMA completions batched from one action flush; the
    /// event fires at the last member's IRQ finish (the only completion
    /// an in-order pipelined sender can act on).
    SdmaSentBatch { members: Vec<SentMember> },
    /// Sink reaper timer: close `sinks[slot]` if every source link
    /// feeding it has idled past `flow_linger_ns`, else re-arm. Touches
    /// no rank state (pure sink bookkeeping), so it is exempt from
    /// `node_pending` accounting and commutes with train continuations.
    SinkClose { slot: usize },
}

/// Where a train dispatch's members came from — decides where an
/// undeliverable remainder is handed back to.
#[derive(Clone, Copy)]
enum TrainSource {
    /// A soft `Ev::PacketTrain`: the remainder is re-emitted as a fresh
    /// train at its first arrival.
    Event,
    /// The pending members of `sinks[i]`: the remainder goes back into
    /// the slot (a lazy pause) and re-defers as its soft entry, so later
    /// appends keep extending it in place.
    Sink(usize),
}

/// One in-flight member of an [`Ev::PacketTrain`].
struct TrainPacket {
    arrival: Ns,
    /// Global emission sequence (from [`PendingMember::seq`]): the
    /// deterministic tiebreak when a sink merges equal arrivals from
    /// different source links.
    seq: u64,
    dst: usize,
    src: u32,
    packet: PsmPacket,
}

/// One member of an [`Ev::SdmaSentBatch`].
#[derive(Clone, Copy)]
struct SentMember {
    rank: usize,
    msg_id: u64,
    window: u32,
    va: u64,
}

/// A packet parked in the per-link train accumulator between its
/// emission (during an event dispatch) and the train flush that turns
/// the burst into one fabric reservation.
struct PendingMember {
    /// Global emission sequence: completion IRQs are serviced on the
    /// Linux cores in exactly the order the per-packet path would have
    /// submitted them, even when a flush spans several links.
    seq: u64,
    /// When the sender handed the packet to the NIC.
    at: Ns,
    dst: usize,
    src: u32,
    /// Wire bytes / wire requests (the fabric schedule inputs).
    bytes: u64,
    nreqs: u64,
    packet: PsmPacket,
    /// Sender-side completion IRQ to batch, for SDMA windows:
    /// `(rank, msg_id, window, va, completion_cpu)`.
    completion: Option<(usize, u64, u32, u64, Ns)>,
}

/// A deferred delivery on the *soft schedule*: flush products kept
/// outside the queue and merged against it by `(at, seq)` — the seq is
/// allocated from the queue's own counter, so executing the smaller key
/// first reproduces the pop order queued events would have, while the
/// soft side costs zero `sim_events`.
struct SoftItem {
    at: Ns,
    seq: u64,
    kind: SoftKind,
}

enum SoftKind {
    /// Deliver the pending members of `sinks[i]`.
    Sink(usize),
    /// Any other flush product (intra-node train, parked singleton,
    /// batched sender completions), dispatched exactly like the event.
    Ev(Ev),
}

/// A sink: a persistent train accumulator, kept open across event
/// dispatches. Under [`FabricMode::Incast`] there is
/// one slot per destination node, merging every source link into one
/// soft schedule over the node's downlink; under [`FabricMode::Flows`]
/// there is one per directed link, allocated on first use. Successive
/// flushes extend the fabric reservation ([`Fabric::extend_sink`]) and
/// land in `members` in `(arrival, seq)` order; one soft entry, one
/// `node_pending` mark, and one [`Ev::SinkClose`] reaper cover the
/// slot. Slots are never freed; `open` flips as sinks close (linger,
/// member cap, reaper) and successors reuse them.
///
/// [`FabricMode::Incast`]: crate::FabricMode::Incast
/// [`FabricMode::Flows`]: crate::FabricMode::Flows
#[derive(Default)]
struct SinkSlot {
    /// The destination node: the slot's soft entry is marked in its
    /// `node_pending`.
    dst: u32,
    /// Whether a sink is currently open on this slot.
    open: bool,
    /// Committed-but-undelivered members, sorted by `(arrival, seq)` —
    /// cross-source arrivals are *not* monotone in commit order (a
    /// slow-uplink member's arrival can be latency-dominated past a
    /// later member's downlink-dominated one), so a per-node sink's
    /// appends merge; a per-link sink's never need to.
    members: VecDeque<TrainPacket>,
    /// Whether a `SoftKind::Sink` entry for `members` is on the soft
    /// schedule (with a matching `node_pending` entry). The entry is
    /// keyed at the head's arrival, so while `pending` the front member
    /// tells where it sits.
    pending: bool,
    /// Seq of the sink's live soft entry. A merge that brings in an
    /// earlier head pushes a fresh entry; the one it replaces no longer
    /// matches and the soft schedule drops it unrun.
    entry_seq: u64,
    /// Members accumulated by the open sink so far (the `extend_sink`
    /// continuation length across all sources; resets on close).
    len: u64,
    /// Last append or delivery on this sink, for linger decisions.
    last_activity: Ns,
    /// Whether an `Ev::SinkClose` reaper event is in the queue.
    reaper_armed: bool,
}

/// Open-addressed index over `pending_trains`, keyed `(src, dst)`:
/// replaces the former per-member linear bucket scan in
/// `enqueue_member`. Cleared per flush by bumping an epoch stamp (O(1),
/// no slot writes); the slot array is reused across flushes, so the
/// steady state allocates nothing.
struct LinkIndex {
    /// `(epoch_stamp, src, dst, bucket)`; a slot is live iff its stamp
    /// equals the current epoch.
    slots: Vec<(u64, u32, u32, u32)>,
    epoch: u64,
    live: usize,
}

impl LinkIndex {
    fn new() -> LinkIndex {
        LinkIndex {
            slots: vec![(0, 0, 0, 0); 64],
            epoch: 1,
            live: 0,
        }
    }

    /// splitmix64 finalizer over the packed link key.
    #[inline]
    fn hash(src: usize, dst: usize) -> u64 {
        let mut x = ((src as u64) << 32) | dst as u64;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Bucket of `(src, dst)`, if indexed this epoch.
    #[inline]
    fn get(&self, src: usize, dst: usize) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(src, dst) as usize & mask;
        loop {
            let (stamp, s, d, b) = self.slots[i];
            if stamp != self.epoch {
                return None;
            }
            if s == src as u32 && d == dst as u32 {
                return Some(b as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record `(src, dst) -> bucket` (the key must be absent).
    fn insert(&mut self, src: usize, dst: usize, bucket: usize) {
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(src, dst) as usize & mask;
        while self.slots[i].0 == self.epoch {
            debug_assert!(self.slots[i].1 != src as u32 || self.slots[i].2 != dst as u32);
            i = (i + 1) & mask;
        }
        self.slots[i] = (self.epoch, src as u32, dst as u32, bucket as u32);
        self.live += 1;
    }

    /// Double the table, rehashing this epoch's live entries.
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, 0, 0); doubled]);
        let mask = self.slots.len() - 1;
        for (stamp, s, d, b) in old {
            if stamp == self.epoch {
                let mut i = Self::hash(s as usize, d as usize) as usize & mask;
                while self.slots[i].0 == self.epoch {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (stamp, s, d, b);
            }
        }
    }

    /// O(1) clear: stale stamps die with the epoch bump.
    #[inline]
    fn clear(&mut self) {
        self.epoch += 1;
        self.live = 0;
    }
}

/// One node's kernel + device complex. Under the flyweight model
/// (`ClusterConfig::eager_node_model` off) exactly one template node per
/// OS configuration boots for real; every instance then shares the
/// template's immutable post-boot images — frame pool (`Frames::Shared`),
/// driver reset registers and layouts (inside [`Hfi1Driver`]), the ported
/// shadow (inside [`HfiFastPath`]), and the `Arc`ed unified kernel space
/// and callback table — while carrying only compact private hot state
/// (open files, TID store, per-core block pools).
struct Node {
    frames: Frames,
    vfs: Vfs,
    dev: pico_linux::DevId,
    chip: HfiChip,
    driver: Hfi1Driver,
    fast: Option<HfiFastPath>,
    delegator: Delegator,
    proxies: ProxyRegistry,
    // PicoDriver runtime pieces, exercised functionally per completion.
    // Immutable after boot (the callback table's invocations and the
    // unified space's queries are `&self`), so flyweight nodes share one
    // allocation per OS configuration.
    unified: Option<Arc<UnifiedKernelSpace>>,
    callbacks: Option<Arc<CallbackTable>>,
    cb_ref: Option<CallbackRef>,
    lwk_alloc: Option<ScalableAllocator>,
}

/// One MPI rank's state.
struct RankState {
    node: usize,
    local: u32,
    engine: MpiRank,
    ep: Endpoint,
    bufs: BufTable,
    space: AddressSpace,
    dev_handle: u64,
    ctxt: u32,
    clock: Ns,
    noise: NoiseSource,
    inbox: Vec<(u32, PsmPacket)>,
    scratch: Vec<(VirtAddr, u64)>,
    kprof: TimeByKey<Sysno>,
    /// In-flight SDMA completion metadata, keyed `(msg_id, window)`.
    /// Hot-path insert/remove per pipelined window — open-addressed
    /// splitmix64 map, not SipHash.
    meta: FastMap<(u64, u32), BlockId>,
    done: bool,
}

/// Scalar configuration copied out of [`ClusterConfig`] once at build
/// time, so the per-event dispatch loop reads hot locals instead of
/// chasing the config struct.
#[derive(Clone, Copy)]
struct HotCfg {
    os: OsConfig,
    pio_base: Ns,
    pio_bw: f64,
    copy_bw: f64,
    /// Bursts coalesce into sinks and ride the soft schedule (`Flows`
    /// or `Incast`).
    batch: bool,
    /// Sinks are per destination node (`Incast`), not per directed link
    /// (`Flows`).
    incast: bool,
    /// Ranks per node: maps a (possibly remote) rank id to its node id
    /// without touching the rank vector — in sharded runs remote ranks
    /// live on another shard entirely.
    rpn: usize,
}

/// Capacity retained by pooled scratch vectors after a burst. A single
/// pathological burst (a 4096-node incast spike) can balloon a scratch
/// allocation to O(ranks); anything past this high-water mark is given
/// back when the vector returns to its pool instead of staying pinned
/// for the rest of the run.
const SCRATCH_KEEP: usize = 1024;

/// Shrink a drained scratch vector back toward [`SCRATCH_KEEP`] once
/// its capacity has grown well past it (hysteresis at 4× so steady
/// medium-sized bursts never thrash the allocator).
#[inline]
fn shrink_scratch<T>(v: &mut Vec<T>) {
    if v.capacity() > 4 * SCRATCH_KEEP {
        v.shrink_to(SCRATCH_KEEP);
    }
}

/// The simulator.
pub struct World {
    cfg: ClusterConfig,
    hot: HotCfg,
    lc: LinuxCosts,
    mmc: MckMmCosts,
    nodes: Vec<Node>,
    ranks: Vec<RankState>,
    fabric: Fabric,
    queue: EventQueue<Ev>,
    delivered_payloads: u64,
    /// Per-rank timestamp of the latest queued `Ev::Wake` (`Ns::MAX` =
    /// none): lets the loop coalesce same-timestamp wake storms into one
    /// dispatch instead of queueing duplicates.
    pending_wake: Vec<Ns>,
    /// Pooled scratch for draining PSM actions (no per-flush allocation).
    action_scratch: Vec<PsmAction>,
    /// Pooled scratch for draining parked inboxes.
    inbox_scratch: Vec<(u32, PsmPacket)>,
    /// Per-link train accumulator: packets emitted during the current
    /// event dispatch, keyed `(src_node, dst_node)`, flushed to the
    /// fabric once per dispatch. Empty whenever the loop is between
    /// dispatches (and always, when `batch_fabric` is off).
    pending_trains: Vec<(usize, usize, Vec<PendingMember>)>,
    /// Recycled member vectors for the accumulator.
    member_pool: Vec<Vec<PendingMember>>,
    /// Pooled scratch for the fabric call and its returned schedules.
    fabric_member_scratch: Vec<TrainMember>,
    sched_scratch: Vec<TransferSchedule>,
    /// Pooled scratch for collecting batched SDMA completions across
    /// the trains of one flush: `(seq, src_node, irq_start, cpu, member)`.
    sent_scratch: Vec<(u64, usize, Ns, Ns, SentMember)>,
    /// Global packet-emission counter backing [`PendingMember::seq`].
    emit_seq: u64,
    /// Monotone id of the train dispatch in flight, with per-rank
    /// epoch marks: a rank greedily delivered-to this dispatch keeps
    /// taking members directly; a rank parked this dispatch keeps
    /// parking (one coalesced wake), captured at `train_park_clock`.
    train_epoch: u64,
    train_delivered: Vec<u64>,
    train_parked: Vec<u64>,
    train_park_clock: Vec<Ns>,
    /// Pooled scratch listing the ranks greedily engaged by the train
    /// dispatch in flight (for the end-of-dispatch wake sweep).
    engaged_scratch: Vec<usize>,
    /// Per-node multiset of pending event times (batching mode only).
    /// Every queued event runs ranks of exactly one node, so a train
    /// dispatch may run ahead of events that touch *other* nodes — their
    /// gates and inboxes are disjoint from the continuation's — but must
    /// yield to anything pending on the destination node itself. Soft
    /// schedule items are accounted here exactly like queued events.
    node_pending: Vec<PendingTimes>,
    /// Soft schedule: a min-heap on `(at, seq)`.
    soft: SoftSchedule,
    /// Sink slots: one per own node under `Incast` (`sinks[dst_node -
    /// node_base]`), one per directed link under `Flows`.
    sinks: Vec<SinkSlot>,
    /// The directed link of each sink slot under `Flows`, scanned
    /// linearly (a run touches a handful of links); empty under
    /// `Incast`.
    sink_links: Vec<(usize, usize)>,
    /// Open-addressed `(src, dst) -> pending_trains bucket` index,
    /// cleared per flush, so `enqueue_member` finds a link's bucket in
    /// O(1) instead of scanning every bucket per member.
    link_index: LinkIndex,
    /// Resplit counter behind [`RunResult::fabric_resplits`].
    resplits: u64,
    /// Sink counters behind the `fabric_sink*` results.
    sinks_opened: u64,
    sink_members_total: u64,
    max_sink_len: u64,
    sink_pauses: u64,
    /// Commutative arrival digest behind [`RunResult::arrival_digest`].
    arrival_digest: u64,
    /// Bulk-only digest behind [`RunResult::arrival_digest_bulk`].
    arrival_digest_bulk: u64,
    /// Constant-memory latency sketch fed by the same digest stream:
    /// shard-local, merged once at collection (order-invariant), so no
    /// worker ever serializes on a shared stats sink.
    arrival_sketch: Sketch,
    /// Soft-schedule dispatches, behind [`RunResult::soft_deliveries`].
    soft_deliveries: u64,
    /// Time of the dispatch in flight (== the popped item's timestamp;
    /// runs ahead of `queue.now()` during soft dispatches).
    sim_now: Ns,
    /// First global rank id owned by this world. `ranks[g - rank_base]`
    /// is rank `g`, and the per-rank *counter* vectors (`pending_wake`,
    /// `train_*`, `sent_seen`) are shard-local with the same `g -
    /// rank_base` indexing — a shard carries O(ranks/shards) stat
    /// state, not O(ranks). Zero in single-queue runs.
    rank_base: usize,
    /// First global node id owned by this world (see `rank_base`).
    /// `nodes`, `node_pending` and, under `Incast`, `sinks` are indexed
    /// `node - node_base`: they cover only the world's own node range, so
    /// a shard never touches another shard's pending marks or sinks.
    node_base: usize,
    /// This shard's id (0 in single-queue runs).
    shard_id: u32,
    /// True inside a sharded run: inter-node sink bursts detour through
    /// `outbox` instead of committing to the destination sink inline.
    sharded: bool,
    /// Cross-shard sink bursts emitted this window, drained to the
    /// destination shards' inboxes at the window barrier.
    outbox: Vec<EdgeMsg>,
    /// Per-shard monotone emission counter ordering same-timestamp
    /// `EdgeMsg`s from one shard.
    emit_order: u64,
    /// Destination-side member sequence source: reassigned in global
    /// commit order so within-sink `(arrival, seq)` ties resolve exactly
    /// like the single-queue engine's emission order.
    commit_seq: u64,
    /// Per-rank epoch stamps deduplicating `SdmaSentBatch` members
    /// (replaces an O(m^2) rescan of the member prefix).
    sent_seen: Vec<u64>,
    sent_seen_epoch: u64,
    /// Streaming payload verification (replaces buffering every
    /// delivered payload per rank until collection).
    payloads_checked: u64,
    payload_errors: u64,
    /// Dispatch counter backing the runaway-loop guard in `pump`.
    dispatches: u64,
    /// Exclusive upper bound of the window being pumped (`Ns::MAX` in a
    /// single-queue run). Commits emitted inside the in-flight window land
    /// only at its barrier, so shard state is complete strictly *below*
    /// this time — greedy sink continuation must not read past it (see
    /// `continuation_clear`).
    window_horizon: Ns,
    /// Pooled scratch for the source half of a deferred sink burst.
    inj_scratch: Vec<SinkInjection>,
}

/// One member of a cross-shard sink burst: the source-side uplink
/// schedule (already committed on the emitting shard's fabric) plus
/// everything the destination shard needs to finish the delivery.
struct EdgeMember {
    inj: SinkInjection,
    dst: usize,
    src: u32,
    packet: PsmPacket,
}

/// A sink burst crossing the shard boundary. Destination shards sort
/// their inboxes by `(emit_at, src_shard, emit_order)` — a total order
/// identical on every thread count — before committing.
struct EdgeMsg {
    emit_at: Ns,
    src_shard: u32,
    emit_order: u64,
    dst_node: usize,
    members: Vec<EdgeMember>,
}

impl World {
    /// Build a world for `app` under `cfg`.
    pub fn new(cfg: ClusterConfig, app: App, iters: u32) -> World {
        assert!(
            !cfg.engine.sharded() || cfg.batch_fabric.incast(),
            "EngineMode::Sharded requires FabricMode::Incast, not FabricMode::{:?}",
            cfg.batch_fabric
        );
        let shape = cfg.shape;
        let spec = pico_apps::spec(app, shape);
        let root_rng = Rng::new(cfg.seed);

        // Boot the address space of one local rank: buffers + scratch
        // mmapped from the node's frame pool. The VA layout this produces
        // is node-invariant, and the physical layout is node-invariant up
        // to the node's `node_idx << 40` base — which is what lets the
        // flyweight model boot it once and instantiate shifted views.
        let boot_space = |frames: &mut Frames| -> (AddressSpace, BufTable) {
            let policy = match cfg.os {
                OsConfig::Linux => MapPolicy::Fragmented4k,
                _ if cfg.lwk_large_pages => MapPolicy::ContiguousLarge,
                _ => MapPolicy::Fragmented4k,
            };
            let pinned = cfg.os != OsConfig::Linux;
            let mut space = AddressSpace::new(policy, MMAP_BASE);
            let frames = frames.get_mut();
            let mut bufs = BufTable::default();
            for &bytes in &spec.buffer_bytes {
                let (va, _) = space
                    .mmap_anonymous(frames, bytes, pinned)
                    .expect("buffer allocation failed: raise mem_per_node");
                bufs.bufs.push(va.0);
            }
            let (sva, _) = space
                .mmap_anonymous(frames, spec.scratch_bytes.max(4096), pinned)
                .expect("scratch allocation failed");
            bufs.scratch = sva.0;
            (space, bufs)
        };

        let mut nodes = Vec::with_capacity(shape.nodes as usize);
        // Flyweight model: per-local-rank frozen space templates + buffer
        // tables from the template node's boot, stamped out everywhere.
        let mut space_tpl: Vec<(SpaceTemplate, BufTable)> = Vec::new();
        if cfg.eager_node_model {
            for n in 0..shape.nodes {
                nodes.push(Self::build_node(&cfg, n));
            }
        } else {
            // Template boot: one real node per OS configuration. Its
            // ranks' address spaces are booted for real against its frame
            // pool, then everything immutable-after-boot is frozen behind
            // `Arc` and every node instance (including node 0, for
            // uniform copy-on-write behavior) becomes a flyweight view.
            let mut template = Self::build_node(&cfg, 0);
            let mut spaces = Vec::with_capacity(shape.ranks_per_node as usize);
            for _ in 0..shape.ranks_per_node {
                spaces.push(boot_space(&mut template.frames));
            }
            let booted = std::mem::replace(
                &mut template.frames,
                Frames::Owned(BuddyAllocator::new(PhysAddr(0), 4096)),
            );
            let image = match booted {
                Frames::Owned(b) => Arc::new(b),
                Frames::Shared { .. } => unreachable!("template node boots eagerly"),
            };
            for (space, bufs) in spaces {
                space_tpl.push((space.freeze(), bufs));
            }
            for n in 0..shape.nodes {
                nodes.push(Self::clone_node(&cfg, &template, &image, n));
            }
        }
        let mut ranks = Vec::with_capacity(shape.nranks() as usize);
        let mut skew_rng = root_rng.substream(7);
        for g in 0..shape.nranks() {
            let node = (g / shape.ranks_per_node) as usize;
            let local = g % shape.ranks_per_node;
            let mut engine_cfg = spec.engine;
            engine_cfg.backed = cfg.backed;
            let program = pico_apps::program(app, shape, iters, g);
            let noise_cfg = cfg.noise_override.unwrap_or(match cfg.os {
                OsConfig::Linux => NoiseConfig::linux_nohz_full(),
                _ => NoiseConfig::mckernel(),
            });
            let (space, bufs) = if cfg.eager_node_model {
                boot_space(&mut nodes[node].frames)
            } else {
                let (tpl, bufs) = &space_tpl[local as usize];
                (tpl.instantiate((node as u64) << 40), bufs.clone())
            };
            ranks.push(RankState {
                node,
                local,
                engine: MpiRank::new(g, shape.nranks(), engine_cfg, program),
                ep: Endpoint::new(g, cfg.psm),
                bufs,
                space,
                dev_handle: 0,
                ctxt: 0,
                // The launch skew: the rank's first wake.
                clock: Ns(skew_rng.gen_range(cfg.launch_skew.0.max(1))),
                noise: NoiseSource::new(noise_cfg, root_rng.substream(1000 + g as u64)),
                inbox: Vec::new(),
                scratch: Vec::new(),
                kprof: TimeByKey::new(),
                meta: FastMap::new(),
                done: false,
            });
        }
        World::assemble(cfg, nodes, ranks, 0, 0, false)
    }

    /// Assemble a world over `nodes` and their `ranks`: the whole cluster
    /// ([`World::new`]) or one node-contiguous shard of it
    /// (`split_shards`), whose first node is `node_base`. A single-queue
    /// world is the one shard over every node with `sharded` off. Each
    /// rank's initial wake is scheduled at its `clock` (the launch skew),
    /// in rank order.
    fn assemble(
        cfg: ClusterConfig,
        nodes: Vec<Node>,
        ranks: Vec<RankState>,
        node_base: usize,
        shard_id: u32,
        sharded: bool,
    ) -> World {
        let hot = HotCfg {
            os: cfg.os,
            pio_base: cfg.pio_base,
            pio_bw: cfg.pio_bw,
            copy_bw: cfg.copy_bw,
            batch: cfg.batch_fabric.batches(),
            incast: cfg.batch_fabric.incast(),
            rpn: cfg.shape.ranks_per_node as usize,
        };
        let rank_base = node_base * hot.rpn;
        let (nranks, nnodes) = (ranks.len(), nodes.len());
        let mut queue = EventQueue::with_coarse_bits(cfg.wheel_coarse_bits);
        let mut node_pending = vec![PendingTimes::default(); nnodes];
        let mut pending_wake = Vec::with_capacity(nranks);
        for (j, rank) in ranks.iter().enumerate() {
            queue.schedule(rank.clock, Ev::Wake(rank_base + j));
            if hot.batch {
                node_pending[rank.node - node_base].insert(rank.clock);
            }
            pending_wake.push(rank.clock);
        }
        // Per-node sinks exist up front; per-link ones on first use.
        let sinks = if hot.incast {
            (node_base..node_base + nnodes)
                .map(|n| SinkSlot {
                    dst: n as u32,
                    ..SinkSlot::default()
                })
                .collect()
        } else {
            Vec::new()
        };
        World {
            fabric: Fabric::new_shard(cfg.fabric, cfg.shape.nodes as usize, node_base, nnodes),
            cfg,
            hot,
            lc: LinuxCosts::default(),
            mmc: MckMmCosts::default(),
            nodes,
            ranks,
            queue,
            delivered_payloads: 0,
            pending_wake,
            action_scratch: Vec::new(),
            inbox_scratch: Vec::new(),
            pending_trains: Vec::new(),
            member_pool: Vec::new(),
            fabric_member_scratch: Vec::new(),
            sched_scratch: Vec::new(),
            sent_scratch: Vec::new(),
            emit_seq: 0,
            train_epoch: 0,
            train_delivered: vec![0; nranks],
            train_parked: vec![0; nranks],
            train_park_clock: vec![Ns::ZERO; nranks],
            engaged_scratch: Vec::new(),
            node_pending,
            soft: SoftSchedule::default(),
            sinks,
            sink_links: Vec::new(),
            link_index: LinkIndex::new(),
            resplits: 0,
            sinks_opened: 0,
            sink_members_total: 0,
            max_sink_len: 0,
            sink_pauses: 0,
            arrival_digest: 0,
            arrival_digest_bulk: 0,
            arrival_sketch: Sketch::new(),
            soft_deliveries: 0,
            sim_now: Ns::ZERO,
            rank_base,
            node_base,
            shard_id,
            sharded,
            outbox: Vec::new(),
            emit_order: 0,
            commit_seq: 0,
            sent_seen: vec![0; nranks],
            sent_seen_epoch: 0,
            payloads_checked: 0,
            payload_errors: 0,
            dispatches: 0,
            window_horizon: Ns::MAX,
            inj_scratch: Vec::new(),
        }
    }

    /// Boot one node for real: buddy allocator, chip, driver probe, and —
    /// in the PicoDriver configuration — the DWARF port, the unified VA
    /// space, and the callback table. The eager model calls this per
    /// node; the flyweight model calls it exactly once per OS
    /// configuration and stamps the rest out with [`Self::clone_node`].
    fn build_node(cfg: &ClusterConfig, node_idx: u32) -> Node {
        let base = PhysAddr(node_idx as u64 * (1 << 40));
        let mut frames = BuddyAllocator::new(base, cfg.mem_per_node);
        if cfg.os == OsConfig::Linux {
            // A long-running host has fragmented physical memory.
            let _held = frames.fragment(cfg.host_fragmentation);
        } else if !cfg.lwk_large_pages {
            // Ablation: an LWK without the contiguity guarantee — fully
            // checkerboarded memory degenerates the fast path to 4 KiB
            // requests.
            let _held = frames.fragment(1.0);
        }
        let mut vfs = Vfs::new();
        let dev = vfs.devices.register("hfi1_0");
        let layouts = LayoutSet::v10_8();
        // The eager reference model keeps the dense RcvArray / free-TID
        // layout; the flyweight model uses the compact first-touch store
        // (bit-identical TID sequences, tested in `pico_hfi1::chip`).
        let nctxt = cfg.shape.ranks_per_node as usize + 2;
        let chip = if cfg.eager_node_model {
            HfiChip::new(HfiChipConfig::default(), nctxt)
        } else {
            HfiChip::new_compact(HfiChipConfig::default(), nctxt)
        };
        let driver = Hfi1Driver::new(layouts.clone(), HfiDriverCosts::default(), 16);
        let (fast, unified, callbacks, cb_ref, lwk_alloc) = if cfg.os == OsConfig::McKernelHfi {
            let module = layouts.emit_module_binary();
            let shadow = picodriver::HfiShadow::port(&module).expect("DWARF port failed");
            let mut fp = HfiFastPath::new(shadow, Default::default(), cfg.tid_cache);
            fp.sdma_cap = cfg.sdma_cap;
            let unified = UnifiedKernelSpace::boot().expect("VA unification failed");
            let mut table = CallbackTable::new(&unified);
            let cb = table.register(CallbackKind::SdmaCompleteLwkFree);
            let alloc = ScalableAllocator::new(cfg.shape.ranks_per_node as usize, 8192);
            (
                Some(fp),
                Some(Arc::new(unified)),
                Some(Arc::new(table)),
                Some(cb),
                Some(alloc),
            )
        } else {
            (None, None, None, None, None)
        };
        Node {
            frames: Frames::Owned(frames),
            vfs,
            dev,
            chip,
            driver,
            fast,
            delegator: Delegator::new(cfg.ikc, cfg.service_cores),
            proxies: ProxyRegistry::new(),
            unified,
            callbacks,
            cb_ref,
            lwk_alloc,
        }
    }

    /// Stamp out node `node_idx` from the booted template: share every
    /// immutable post-boot image (`Arc` clones — the frame pool view is
    /// shifted by the node's physical base) and build only the compact
    /// private hot state fresh. This is the whole per-node boot cost of
    /// the flyweight model.
    fn clone_node(
        cfg: &ClusterConfig,
        template: &Node,
        image: &Arc<BuddyAllocator>,
        node_idx: u32,
    ) -> Node {
        let mut vfs = Vfs::new();
        let dev = vfs.devices.register("hfi1_0");
        Node {
            frames: Frames::Shared {
                image: Arc::clone(image),
                delta: (node_idx as u64) << 40,
            },
            vfs,
            dev,
            chip: HfiChip::new_compact(
                HfiChipConfig::default(),
                cfg.shape.ranks_per_node as usize + 2,
            ),
            driver: template.driver.clone_fresh(),
            fast: template.fast.as_ref().map(HfiFastPath::clone_fresh),
            delegator: Delegator::new(cfg.ikc, cfg.service_cores),
            proxies: ProxyRegistry::new(),
            unified: template.unified.clone(),
            callbacks: template.callbacks.clone(),
            cb_ref: template.cb_ref,
            lwk_alloc: template
                .lwk_alloc
                .as_ref()
                .map(|_| ScalableAllocator::new(cfg.shape.ranks_per_node as usize, 8192)),
        }
    }

    /// Debug dump of stuck ranks (used when a run fails to complete).
    pub fn debug_stuck(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.ranks.iter().enumerate() {
            if !r.done {
                out.push_str(&format!(
                    "rank {}: clock={} inbox={} ep_actions={} {}\n",
                    i + self.rank_base,
                    r.clock,
                    r.inbox.len(),
                    r.ep.has_actions(),
                    r.engine.debug_state()
                ));
            }
        }
        out
    }

    /// Run to completion and aggregate results.
    pub fn run(self) -> RunResult {
        self.run_with_debug(false)
    }
}

/// Convenience: build and run an app under a configuration.
pub fn run_app(cfg: ClusterConfig, app: App, iters: u32) -> RunResult {
    World::new(cfg, app, iters).run()
}

/// Convenience: the paper configuration for `os` at `nodes` ×
/// `app.paper_ranks_per_node()` (scaled down by `rpn_override`).
pub fn paper_config(
    os: OsConfig,
    app: App,
    nodes: u32,
    rpn_override: Option<u32>,
) -> ClusterConfig {
    let rpn = rpn_override.unwrap_or_else(|| app.paper_ranks_per_node());
    ClusterConfig::paper(
        os,
        JobShape {
            nodes,
            ranks_per_node: rpn,
        },
    )
}

/// The AppSpec for reporting purposes.
pub fn app_spec(app: App, shape: JobShape) -> AppSpec {
    pico_apps::spec(app, shape)
}
