use super::{PendingTimes, SinkSlot, World};
use pico_ihk::Sysno;
use pico_mpi::MpiCall;
use pico_sim::{FinishSketch, Ns, Sketch, TimeByKey, WheelProfile};

/// Aggregated results of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wall-clock time of the slowest rank (the app's figure of merit).
    pub wall_time: Ns,
    /// Streaming sketch of every rank's finish time: exact
    /// min/max/sum/count plus log-bucket quantiles, constant memory at
    /// any job size. This is the result path; the exact vector below is
    /// opt-in.
    pub finish: FinishSketch,
    /// Per-rank finish times — populated only when
    /// [`ClusterConfig::record_per_rank`](crate::ClusterConfig::record_per_rank)
    /// is set (the equivalence tests that need exact vectors); empty
    /// otherwise so a 4096-node run carries no O(ranks) result state.
    pub rank_finish: Vec<Ns>,
    /// Streaming sketch of fabric delivery latencies (arrival −
    /// schedule time, ns) over every digested member, in constant
    /// memory.
    pub arrival_latency: Sketch,
    /// Resident bytes of O(ranks) statistics state at collection —
    /// per-rank wake/train/dedup bookkeeping across all shards, the
    /// opt-in `rank_finish` vector, plus the (constant-size) sketches.
    /// The `simbench` memory gate holds this ≥4× below the
    /// per-rank-vector baseline at 1024 nodes.
    pub stat_bytes: u64,
    /// Process-wide peak allocation in bytes, read from
    /// [`pico_sim::memalloc`] at collection. Zero unless the binary
    /// installed the counting allocator (the bench binaries do; tests
    /// and figure binaries that don't measure memory don't).
    pub peak_alloc_bytes: u64,
    /// Resident bytes of node-indexed engine state at collection,
    /// summed across shards: fabric gate storage, `node_pending` and the
    /// sink slots, each sized to its shard's own node range (sinks under
    /// `Incast`; `Flows` keeps one per link it used) — O(total_nodes)
    /// for the whole run.
    pub shard_state_bytes: u64,
    /// MPI per-call time summed over all ranks.
    pub mpi_profile: TimeByKey<MpiCall>,
    /// Kernel per-syscall time summed over all ranks (Figures 8/9).
    pub kernel_profile: TimeByKey<Sysno>,
    /// Total offloaded syscalls across nodes.
    pub offloaded_calls: u64,
    /// Total queueing delay at the Linux service cores.
    pub offload_queue_wait: Ns,
    /// Bytes moved through the fabric.
    pub fabric_bytes: u64,
    /// Messages through the fabric.
    pub fabric_messages: u64,
    /// Packet trains scheduled on the fabric (bursts of ≥ 2 packets
    /// that shared one link reservation).
    pub fabric_trains: u64,
    /// Packets that rode one of those trains.
    pub fabric_train_members: u64,
    /// Longest train scheduled.
    pub fabric_max_train: u64,
    /// Intra-node train deliveries that stopped at a member the
    /// dispatch could not consume and *re-committed* the remainder as a
    /// fresh soft item — a new train losing its accumulator. Sink
    /// suffixes stay in their slot instead (a lazy pause).
    pub fabric_resplits: u64,
    /// Sinks opened: per destination node under
    /// [`FabricMode::Incast`](crate::FabricMode::Incast), per directed
    /// link under [`FabricMode::Flows`](crate::FabricMode::Flows). An
    /// N-to-1 incast opens 1 where `Flows` opens N.
    pub fabric_sinks: u64,
    /// Members merged through those sinks.
    pub fabric_sink_members: u64,
    /// Longest sink (members merged by one sink before it closed).
    pub fabric_max_sink: u64,
    /// Sink deliveries that stopped at a conflicting member and
    /// re-deferred the suffix in place — the per-sink lazy pause, zero
    /// queue events each.
    pub fabric_sink_pauses: u64,
    /// Deliveries executed on the zero-event soft schedule (`Flows` /
    /// `Incast`): flush products that would otherwise each have cost a
    /// queue event.
    pub soft_deliveries: u64,
    /// Order-independent digest of every fabric delivery schedule
    /// (`hash(arrival, dst, src, bytes)` summed commutatively at
    /// schedule time, all modes): two runs whose per-member arrival
    /// times are bit-identical produce equal digests regardless of
    /// dispatch interleaving.
    pub arrival_digest: u64,
    /// [`RunResult::arrival_digest`] restricted to bulk messages (>= 1
    /// KiB on the wire) — the incast gate's equality witness. Control
    /// messages (barrier/rendezvous handshakes, a few dozen bytes) ride
    /// on rank run-ahead whose flush ordering both soft modes only
    /// approximate, so their arrivals may differ between `Flows` and
    /// `Incast` the same way they differ against the reference model;
    /// data-plane arrivals go through the fabric gates alone and must
    /// match bit-for-bit.
    pub arrival_digest_bulk: u64,
    /// Scheduling-placement counters and page-span histogram of the
    /// timing wheel (see [`WheelProfile`]): which tier every schedule
    /// landed in over the whole run.
    pub wheel_profile: WheelProfile,
    /// Backed-run payloads whose bytes failed the wrapping-increment
    /// self-check after delivery (must be zero; nonzero means the train
    /// or reassembly path corrupted a payload).
    pub payload_errors: u64,
    /// TID entries programmed on all chips.
    pub tid_programs: u64,
    /// PIO sends on all chips.
    pub pio_sends: u64,
    /// Ranks that reached `Finalize` (must equal the job size).
    pub ranks_done: u32,
    /// Payloads delivered to receives (backed runs only).
    pub delivered_payloads: u64,
    /// Events popped from the queue over the whole run (deterministic).
    pub sim_events: u64,
    /// Events silently clamped after past-scheduling (must be zero; a
    /// nonzero value means a model scheduled into the past in a release
    /// build).
    pub clamped_events: u64,
    /// Simulator throughput: events popped per wall-clock second. The
    /// only *nondeterministic* field — it measures the engine, not the
    /// simulated system, and is excluded from determinism comparisons.
    pub events_per_sec: f64,
    /// Worker threads the engine ran on (1 = single-queue or a
    /// one-thread sharded run). Recorded so benchmark artifacts never
    /// silently compare different parallelism.
    pub threads: u32,
    /// Shards the run was partitioned into (1 = single-queue).
    pub shards: u32,
}

impl RunResult {
    /// Total time spent in kernel space (the Fig. 8/9 denominator).
    pub fn kernel_time(&self) -> Ns {
        self.kernel_profile.grand_total()
    }
    /// Total MPI time.
    pub fn mpi_time(&self) -> Ns {
        self.mpi_profile.grand_total()
    }
}

/// Aggregate one or more finished worlds — one per shard, in shard
/// order (= global rank/node order) — into a [`RunResult`]. A
/// single-queue run passes exactly one world, so this is also the
/// plain collection path; concatenation and commutative sums make the
/// two engines' results directly comparable field by field.
pub(super) fn collect_many(
    worlds: Vec<World>,
    elapsed_secs: f64,
    threads: u32,
    shards: u32,
) -> RunResult {
    let record_per_rank = worlds[0].cfg.record_per_rank;
    let nranks: usize = worlds.iter().map(|w| w.ranks.len()).sum();
    let mut mpi = TimeByKey::new();
    let mut kprof = TimeByKey::new();
    let mut wheel = WheelProfile::default();
    // The exact per-rank vector is opt-in; the sketch is the result path.
    let mut rank_finish = Vec::with_capacity(if record_per_rank { nranks } else { 0 });
    let mut finish = FinishSketch::new();
    let mut arrival_latency = Sketch::new();
    let mut stat_bytes = 0u64;
    let mut shard_state_bytes = 0u64;
    let mut done = 0;
    let mut delivered = 0u64;
    let mut payload_errors = 0u64;
    let mut sim_events = 0u64;
    let mut clamped_events = 0u64;
    let mut offloaded = 0;
    let mut queue_wait = Ns::ZERO;
    let mut tid_programs = 0;
    let mut pio = 0;
    let (mut bytes, mut messages, mut trains, mut train_members, mut max_train) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut resplits = 0u64;
    let (mut sinks_opened, mut sink_members, mut max_sink, mut sink_pauses) =
        (0u64, 0u64, 0u64, 0u64);
    let mut soft_deliveries = 0u64;
    let (mut digest, mut digest_bulk) = (0u64, 0u64);
    for w in &worlds {
        sim_events += w.queue.events_processed();
        clamped_events += w.queue.clamped_events();
        wheel.merge(w.queue.profile());
        // Payload delivery and verification stream at `Completed` time
        // (`delivered_payloads` counts the delivery, `payloads_checked`
        // the per-rank verification of the same payload).
        delivered += w.delivered_payloads + w.payloads_checked;
        payload_errors += w.payload_errors;
        // Each shard folds its own ranks into a local sketch, merged
        // once here at the join — merge order cannot perturb the result
        // (commutative bucket sums), so this matches what any worker
        // interleaving would have produced.
        let mut shard_finish = FinishSketch::new();
        for r in &w.ranks {
            mpi.merge(r.engine.profile());
            kprof.merge(&r.kprof);
            let at = r.engine.finished_at().unwrap_or(r.clock);
            shard_finish.record(at.0);
            if record_per_rank {
                rank_finish.push(at);
            }
            if r.done {
                done += 1;
            }
        }
        finish.merge(&shard_finish);
        arrival_latency.merge(&w.arrival_sketch);
        // Resident O(ranks) stat state this shard still carried at the
        // end of the run (capacities, not lengths: high-water matters).
        stat_bytes += (w.pending_wake.capacity() * std::mem::size_of::<Ns>()
            + w.train_delivered.capacity() * 8
            + w.train_parked.capacity() * 8
            + w.train_park_clock.capacity() * std::mem::size_of::<Ns>()
            + w.sent_seen.capacity() * 8
            + w.arrival_sketch.heap_bytes()) as u64;
        // Node-indexed state this shard carried: fabric gate storage
        // plus the `node_pending` and sink vectors, sized to the shard's
        // own node range.
        shard_state_bytes += (w.fabric.resident_gate_bytes()
            + w.node_pending.capacity() * std::mem::size_of::<PendingTimes>()
            + w.sinks.capacity() * std::mem::size_of::<SinkSlot>())
            as u64;
        for n in &w.nodes {
            offloaded += n.delegator.offloaded();
            queue_wait += n.delegator.total_queue_wait();
            tid_programs += n.chip.tid_programs();
            pio += n.chip.pio_sends();
        }
        bytes += w.fabric.bytes();
        messages += w.fabric.messages();
        trains += w.fabric.trains();
        train_members += w.fabric.train_members();
        max_train = max_train.max(w.fabric.max_train_len());
        resplits += w.resplits;
        sinks_opened += w.sinks_opened;
        sink_members += w.sink_members_total;
        // Sinks still open at exhaustion never saw their close.
        let mut ms = w.max_sink_len;
        for s in &w.sinks {
            if s.open {
                ms = ms.max(s.len);
            }
        }
        max_sink = max_sink.max(ms);
        sink_pauses += w.sink_pauses;
        soft_deliveries += w.soft_deliveries;
        digest = digest.wrapping_add(w.arrival_digest);
        digest_bulk = digest_bulk.wrapping_add(w.arrival_digest_bulk);
    }
    let wall = finish.max().map_or(Ns::ZERO, Ns);
    stat_bytes += (rank_finish.capacity() * std::mem::size_of::<Ns>() + finish.heap_bytes()) as u64;
    RunResult {
        wall_time: wall,
        finish,
        rank_finish,
        arrival_latency,
        stat_bytes,
        peak_alloc_bytes: pico_sim::memalloc::peak_bytes(),
        shard_state_bytes,
        mpi_profile: mpi,
        kernel_profile: kprof,
        offloaded_calls: offloaded,
        offload_queue_wait: queue_wait,
        fabric_bytes: bytes,
        fabric_messages: messages,
        fabric_trains: trains,
        fabric_train_members: train_members,
        fabric_max_train: max_train,
        fabric_resplits: resplits,
        fabric_sinks: sinks_opened,
        fabric_sink_members: sink_members,
        fabric_max_sink: max_sink,
        fabric_sink_pauses: sink_pauses,
        soft_deliveries,
        arrival_digest: digest,
        arrival_digest_bulk: digest_bulk,
        wheel_profile: wheel,
        payload_errors,
        tid_programs,
        pio_sends: pio,
        ranks_done: done,
        delivered_payloads: delivered,
        sim_events,
        clamped_events,
        events_per_sec: if elapsed_secs > 0.0 {
            sim_events as f64 / elapsed_secs
        } else {
            0.0
        },
        threads,
        shards,
    }
}
