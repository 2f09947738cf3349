use super::{
    collect::collect_many, shrink_scratch, EdgeMsg, Ev, Node, RankState, RunResult, SoftItem,
    SoftKind, TrainSource, World,
};
use pico_mpi::StepResult;
use pico_psm::PsmPacket;
use pico_sim::{transfer_time, Ns, WindowSync};

impl World {
    /// Schedule a wake for rank `r` at `at`, coalescing duplicates: a
    /// wake identical to the latest one already queued for this rank
    /// (same rank, same timestamp) would dispatch to an already-served
    /// rank, so it is skipped at the source.
    #[inline]
    pub(super) fn schedule_wake(&mut self, r: usize, at: Ns) {
        if self.pending_wake[r - self.rank_base] == at {
            return;
        }
        self.pending_wake[r - self.rank_base] = at;
        self.schedule_ev(at, Ev::Wake(r));
    }

    /// The node whose ranks (and whose fabric gates / SDMA engine) an
    /// event's dispatch can touch. Every variant runs ranks of exactly
    /// one node; anything it sends to other nodes becomes a *new*
    /// queued event, accounted on its own node when scheduled.
    /// `None` for pure-bookkeeping events (`SinkClose`), which touch no
    /// rank state and commute with everything.
    fn ev_node(&self, ev: &Ev) -> Option<usize> {
        match ev {
            Ev::Wake(r) => Some(self.ranks[(*r) - self.rank_base].node),
            Ev::Packet { dst, .. } => Some(self.ranks[(*dst) - self.rank_base].node),
            Ev::SdmaSent { rank, .. } => Some(self.ranks[(*rank) - self.rank_base].node),
            Ev::PacketTrain { members } => {
                let d = members[0].dst;
                Some(self.ranks[(d) - self.rank_base].node)
            }
            Ev::SdmaSentBatch { members } => {
                let r0 = members[0].rank;
                Some(self.ranks[(r0) - self.rank_base].node)
            }
            Ev::SinkClose { .. } => None,
        }
    }

    /// May a train dispatch keep running rank `dst` up to a member due
    /// at `arrival`? Yes unless an event pending at or before `arrival`
    /// touches `dst`'s node (the reference model dispatches it first and
    /// its side effects must stay ahead of the continuation's), or this
    /// dispatch staged an intra-node burst whose shared-memory arrivals
    /// on the same node are not yet scheduled.
    pub(super) fn continuation_clear(&self, dst: usize, arrival: Ns) -> bool {
        if arrival >= self.window_horizon {
            // Sharded runs only: the sink and the `node_pending` marks
            // cannot yet reflect this window's own emissions (those commit
            // at the barrier), so continuing past the horizon would
            // consume members on incomplete information. Defer — the
            // paused suffix re-keys and re-evaluates in the window that
            // owns `arrival`, with every commit at or before it applied.
            // This is where the sharded engine deliberately departs from
            // the single-queue engine, whose greedy continuation is
            // non-causal: it reads commits from the future of the member
            // it consumes (see DESIGN.md).
            return false;
        }
        let node = self.ranks[(dst) - self.rank_base].node;
        if self.node_pending[node - self.node_base]
            .first()
            .is_some_and(|t| t <= arrival)
        {
            return false;
        }
        !self
            .pending_trains
            .iter()
            .any(|(s, d, ms)| *s == node && *d == node && !ms.is_empty())
    }

    /// Schedule an event, keeping the per-node pending-time multiset in
    /// step (batching mode only — the reference path never consults it).
    pub(super) fn schedule_ev(&mut self, at: Ns, ev: Ev) {
        if self.hot.batch {
            if let Some(n) = self.ev_node(&ev) {
                self.node_pending[n - self.node_base].insert(at);
            }
        }
        self.queue.schedule(at, ev);
    }

    /// Drop one `node_pending` mark for node `n` at time `t` (the inverse
    /// of the bookkeeping in [`schedule_ev`](Self::schedule_ev) /
    /// [`push_soft`](Self::push_soft), applied when the event or soft
    /// item is dispatched).
    pub(super) fn node_pending_remove(&mut self, n: usize, t: Ns) {
        self.node_pending[n - self.node_base].remove(t);
    }

    /// Put a deferred delivery on the soft schedule, stamped with a seq
    /// from the queue's counter (so it merges into the exact pop order
    /// of a queued event) and accounted in `node_pending` like one.
    /// Returns the seq.
    pub(super) fn push_soft(&mut self, at: Ns, kind: SoftKind) -> u64 {
        let node = match &kind {
            SoftKind::Sink(i) => Some(self.sinks[*i].dst as usize),
            SoftKind::Ev(ev) => self.ev_node(ev),
        };
        if let Some(n) = node {
            self.node_pending[n - self.node_base].insert(at);
        }
        let seq = self.queue.alloc_seq();
        self.soft.push(SoftItem { at, seq, kind });
        seq
    }

    /// Emit a flush product as a zero-event soft item.
    pub(super) fn emit_ev(&mut self, at: Ns, ev: Ev) {
        self.push_soft(at, SoftKind::Ev(ev));
    }

    /// Put sink `slot` on the soft schedule at its head arrival `at`. A
    /// previous entry of the sink, if any, is cancelled: its seq no
    /// longer matches `entry_seq`.
    pub(super) fn defer_sink(&mut self, slot: usize, at: Ns) {
        let seq = self.push_soft(at, SoftKind::Sink(slot));
        let sink = &mut self.sinks[slot];
        sink.pending = true;
        sink.entry_seq = seq;
    }

    /// Run; optionally print stuck-rank diagnostics at exhaustion. The
    /// engine follows from the resolved shard count: one shard is the
    /// single-queue walk, more run the windowed engine.
    pub fn run_with_debug(mut self, debug: bool) -> RunResult {
        let started = std::time::Instant::now();
        let nnodes = self.nodes.len();
        let shards = if self.cfg.engine.sharded() {
            self.cfg
                .shards
                .unwrap_or_else(|| auto_shard_count(nnodes, self.hot.rpn))
                .clamp(1, nnodes)
        } else {
            1
        };
        let (worlds, threads) = if shards > 1 {
            self.run_sharded(shards)
        } else {
            self.pump(Ns::MAX);
            (vec![self], 1)
        };
        if debug {
            for w in &worlds {
                let d = w.debug_stuck();
                if !d.is_empty() {
                    eprintln!("--- stuck ranks (shard {}) ---\n{d}", w.shard_id);
                }
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        collect_many(worlds, elapsed, threads as u32, shards as u32)
    }

    /// Earliest pending dispatch time across the queue and the soft
    /// schedule, as a raw key (`u64::MAX` when this world is idle).
    fn next_key_time(&mut self) -> u64 {
        let soft = self.soft.peek(&self.sinks);
        let soft = soft.map_or(u64::MAX, |(at, _)| at.0);
        let ev = self.queue.peek_time().map_or(u64::MAX, |t| t.0);
        soft.min(ev)
    }

    /// Drain every dispatch with time strictly before `horizon`
    /// (`Ns::MAX` = run to exhaustion). The single-queue engine calls
    /// this once; the sharded engine calls it per conservative window.
    fn pump(&mut self, horizon: Ns) {
        self.window_horizon = horizon;
        loop {
            // Merge the soft schedule with the queue by `(time, seq)`:
            // both sides draw seqs from one counter, so this pop order is
            // bit-identical to queueing everything — the soft side just
            // doesn't pay queue events.
            let (t, take_soft) = match (self.soft.peek(&self.sinks), self.queue.peek_key()) {
                (Some(s), Some(q)) if s < q => (s.0, true),
                (_, Some(q)) => (q.0, false),
                (Some(s), None) => (s.0, true),
                (None, None) => return,
            };
            if t >= horizon {
                return;
            }
            self.dispatches += 1;
            assert!(
                self.dispatches < 2_000_000_000,
                "runaway simulation: {} dispatches",
                self.dispatches
            );
            if take_soft {
                let item = self.soft.pop();
                self.soft_deliveries += 1;
                self.sim_now = item.at;
                self.dispatch_soft(item);
            } else {
                let (t, ev) = self.queue.pop().expect("non-empty queue");
                self.sim_now = t;
                if self.hot.batch {
                    if let Some(n) = self.ev_node(&ev) {
                        self.node_pending_remove(n, t);
                    }
                }
                self.dispatch_ev(t, ev);
            }
            // Coalesce everything the dispatch emitted: one fabric
            // reservation per link burst, extending the link's sink
            // (`Flows`) or the destination node's (`Incast`).
            self.flush_trains();
        }
    }

    /// The conservative-lookahead engine ([`EngineMode::Sharded`]):
    /// partition the world into node-contiguous shards, run them in BSP
    /// windows one link latency wide, and exchange cross-node sink
    /// bursts at the window barriers. Any event a shard executes at `t <
    /// window_end = T_min + base_latency` can only influence another
    /// shard through the fabric, and the earliest such influence arrives
    /// at `t + base_latency ≥ window_end` — so every window's execution
    /// is causally closed and the result is bit-identical on any thread
    /// count (the partition depends only on the shard count). Returns the
    /// finished shards, in shard order, and the worker count.
    fn run_sharded(self, want: usize) -> (Vec<World>, usize) {
        let lookahead = self.cfg.fabric.base_latency.0;
        assert!(
            lookahead > 0,
            "sharded engine needs a positive base link latency for lookahead"
        );
        let threads = self
            .cfg
            .threads
            .unwrap_or_else(pico_sim::default_threads)
            .clamp(1, want);
        let (mut shards, node_shard) = self.split_shards(want);
        let sync = WindowSync::new(threads, want);
        for (s, sh) in shards.iter_mut().enumerate() {
            sync.set_next_key(s, sh.next_key_time());
        }
        sync.coordinate(lookahead);
        let inboxes: Vec<std::sync::Mutex<Vec<EdgeMsg>>> = (0..want)
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        let slots: Vec<std::sync::Mutex<Option<World>>> = shards
            .into_iter()
            .map(|s| std::sync::Mutex::new(Some(s)))
            .collect();
        std::thread::scope(|scope| {
            let (sync, inboxes, slots, node_shard) = (&sync, &inboxes, &slots, &node_shard);
            for w in 0..threads {
                scope.spawn(move || {
                    // A worker that panics poisons the window barrier, so
                    // the others panic too and the scope propagates it.
                    let _poison = sync.poison_on_unwind();
                    // Worker `w` owns shards w, w+threads, … for the
                    // whole run; ownership never moves, so the slot and
                    // inbox locks are never contended within a phase.
                    let mut owned: Vec<(usize, World)> = (w..slots.len())
                        .step_by(threads)
                        .map(|s| {
                            let sh = slots[s].lock().expect("shard slot");
                            (s, sh)
                        })
                        .map(|(s, mut guard)| (s, guard.take().expect("shard taken once")))
                        .collect();
                    let mut batch: Vec<EdgeMsg> = Vec::new();
                    while let Some(end) = sync.begin() {
                        for (_, sh) in owned.iter_mut() {
                            sh.pump(Ns(end));
                            for msg in sh.outbox.drain(..) {
                                let dst = node_shard[msg.dst_node] as usize;
                                inboxes[dst].lock().expect("inbox").push(msg);
                            }
                        }
                        sync.mid();
                        for (s, sh) in owned.iter_mut() {
                            std::mem::swap(&mut batch, &mut *inboxes[*s].lock().expect("inbox"));
                            sh.commit_inbox(&mut batch);
                            sync.set_next_key(*s, sh.next_key_time());
                        }
                        sync.finish();
                        if w == 0 {
                            sync.coordinate(lookahead);
                        }
                    }
                    for (s, sh) in owned {
                        *slots[s].lock().expect("shard slot") = Some(sh);
                    }
                });
            }
        });
        let shards = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("shard slot")
                    .expect("worker returned its shards")
            })
            .collect();
        (shards, threads)
    }

    /// Partition this (fresh, not-yet-run) world into `nshards`
    /// node-contiguous shards. Entity state (`ranks`, `nodes`) is
    /// chunked, and each chunk is [`assemble`](World::assemble)d like the
    /// whole world was: per-rank counter vectors (`g - rank_base`
    /// indexing) and node-indexed state (`node_pending`, sinks, the
    /// shard-local fabric's gates: `node - node_base`) cover only the
    /// shard's own range, so its footprint is O(ranks/shards), not
    /// O(ranks), and gate state never races — a shard only advances its
    /// own nodes' uplinks at injection and downlinks at commit. The
    /// initial wakes are rescheduled in rank order (`rank.clock` still
    /// holds the launch skew, and nothing else is pending this early).
    /// Returns the shards and the node → shard map.
    fn split_shards(mut self, nshards: usize) -> (Vec<World>, Vec<u32>) {
        assert_eq!(
            self.queue.events_processed(),
            0,
            "worlds must be split before running"
        );
        let nnodes = self.nodes.len();
        let rpn = self.hot.rpn;
        let base = nnodes / nshards;
        let rem = nnodes % nshards;
        let mut node_shard = vec![0u32; nnodes];
        let mut shards = Vec::with_capacity(nshards);
        let mut nodes_iter = std::mem::take(&mut self.nodes).into_iter();
        let mut ranks_iter = std::mem::take(&mut self.ranks).into_iter();
        let mut node_base = 0usize;
        for i in 0..nshards {
            let count = base + usize::from(i < rem);
            let nodes: Vec<Node> = nodes_iter.by_ref().take(count).collect();
            let ranks: Vec<RankState> = ranks_iter.by_ref().take(count * rpn).collect();
            for s in &mut node_shard[node_base..node_base + count] {
                *s = i as u32;
            }
            shards.push(World::assemble(
                self.cfg.clone(),
                nodes,
                ranks,
                node_base,
                i as u32,
                true,
            ));
            node_base += count;
        }
        (shards, node_shard)
    }

    /// Execute one soft-schedule item (its `node_pending` mark drops
    /// first, exactly like an event pop).
    fn dispatch_soft(&mut self, item: SoftItem) {
        match item.kind {
            SoftKind::Sink(i) => {
                self.node_pending_remove(self.sinks[i].dst as usize, item.at);
                let members = std::mem::take(&mut self.sinks[i].members);
                // The live entry sits at the head's arrival; `sink_settle`
                // reads its key from the front member.
                debug_assert_eq!(members.front().map(|p| p.arrival), Some(item.at));
                self.sinks[i].pending = false;
                self.sinks[i].last_activity = item.at;
                self.on_packet_train(members, TrainSource::Sink(i));
                // The reaper disarms instead of polling while a delivery
                // is outstanding; now that `pending` cleared (or the
                // train paused and will come back through here), restore
                // the one armed timer the slot's linger close relies on.
                let s = &self.sinks[i];
                if (s.open || s.pending) && !s.reaper_armed {
                    let at = s.last_activity + self.cfg.flow_linger_ns;
                    self.sinks[i].reaper_armed = true;
                    self.schedule_ev(at, Ev::SinkClose { slot: i });
                }
            }
            SoftKind::Ev(ev) => {
                if let Some(n) = self.ev_node(&ev) {
                    self.node_pending_remove(n, item.at);
                }
                self.dispatch_ev(item.at, ev);
            }
        }
    }

    /// Dispatch one event (queued or soft) at time `t`.
    fn dispatch_ev(&mut self, t: Ns, ev: Ev) {
        match ev {
            Ev::Wake(r) => {
                if self.pending_wake[r - self.rank_base] == t {
                    self.pending_wake[r - self.rank_base] = Ns::MAX;
                }
                if !self.ranks[(r) - self.rank_base].done {
                    let now = t.max(self.ranks[(r) - self.rank_base].clock);
                    self.run_rank(r, now);
                }
            }
            Ev::Packet { dst, src, packet } => {
                if self.ranks[(dst) - self.rank_base].done {
                    return;
                }
                let busy_until = self.ranks[(dst) - self.rank_base].clock;
                if busy_until > t {
                    // Rank busy (computing or mid-offload): park the
                    // packet and make sure the rank gets poked. Storms
                    // of packets parking behind the same busy window
                    // coalesce into a single wake.
                    self.ranks[(dst) - self.rank_base].inbox.push((src, packet));
                    self.schedule_wake(dst, busy_until);
                } else {
                    let mut now = t;
                    self.deliver_packet(dst, src, packet, &mut now);
                    self.run_rank(dst, now);
                }
            }
            Ev::SdmaSent {
                rank,
                msg_id,
                window,
                va,
            } => {
                self.on_sdma_sent(rank, msg_id, window, va);
                let now = t.max(self.ranks[(rank) - self.rank_base].clock);
                if !self.ranks[(rank) - self.rank_base].done {
                    self.run_rank(rank, now);
                }
            }
            Ev::PacketTrain { members } => {
                self.on_packet_train(members, TrainSource::Event);
            }
            Ev::SdmaSentBatch { members } => {
                // Windows of one message complete together: advance each
                // endpoint once per `(rank, msg_id)` group instead of
                // once per window.
                let mut i = 0;
                while i < members.len() {
                    let mut j = i + 1;
                    while j < members.len()
                        && (members[j].rank, members[j].msg_id)
                            == (members[i].rank, members[i].msg_id)
                    {
                        j += 1;
                    }
                    self.on_sdma_sent_group(&members[i..j]);
                    i = j;
                }
                // One run per distinct sender rank, deduplicated by
                // epoch stamp — a rescan of the member prefix was
                // O(m²) in the batch width on the incast hot loop.
                self.sent_seen_epoch += 1;
                let epoch = self.sent_seen_epoch;
                for m in members.iter() {
                    if self.sent_seen[m.rank - self.rank_base] == epoch {
                        continue;
                    }
                    self.sent_seen[m.rank - self.rank_base] = epoch;
                    if !self.ranks[(m.rank) - self.rank_base].done {
                        let now = t.max(self.ranks[(m.rank) - self.rank_base].clock);
                        self.run_rank(m.rank, now);
                    }
                }
            }
            Ev::SinkClose { slot } => {
                self.on_sink_close(slot, t);
            }
        }
    }

    fn deliver_packet(&mut self, dst: usize, src: u32, packet: PsmPacket, now: &mut Ns) {
        // Receive-side copy-out cost for eager data (library copies from
        // the eager ring into the user buffer).
        if let PsmPacket::Eager { len, .. } = &packet {
            *now += transfer_time(*len, self.hot.copy_bw);
        }
        self.ranks[(dst) - self.rank_base].ep.on_packet(src, packet);
    }

    /// Run rank `r` from time `now` until it blocks, computes, or ends.
    pub(super) fn run_rank(&mut self, r: usize, mut now: Ns) {
        loop {
            // Drain parked packets first, through the pooled scratch so
            // the park/drain cycle reuses one buffer's capacity.
            if !self.ranks[(r) - self.rank_base].inbox.is_empty() {
                let mut parked = std::mem::replace(
                    &mut self.ranks[(r) - self.rank_base].inbox,
                    std::mem::take(&mut self.inbox_scratch),
                );
                for (src, packet) in parked.drain(..) {
                    self.deliver_packet(r, src, packet, &mut now);
                }
                // The park/drain swap circulates capacity between every
                // rank's inbox and this pool — give back anything a burst
                // ballooned before it gets pinned to a rank for the run.
                shrink_scratch(&mut parked);
                self.inbox_scratch = parked;
            }
            self.flush_actions(r, &mut now);
            let res = {
                let rank = &mut self.ranks[(r) - self.rank_base];
                // Split borrow: engine vs ep vs bufs are disjoint fields.
                let RankState {
                    engine, ep, bufs, ..
                } = rank;
                engine.step(now, ep, bufs)
            };
            // Actions emitted by the step (and any completions they
            // produce) must be visible before we decide to sleep.
            let flushed = self.flush_actions(r, &mut now);
            match res {
                StepResult::Computing(d) => {
                    let real = self.ranks[(r) - self.rank_base].noise.perturb(d);
                    let wake = now + real;
                    self.ranks[(r) - self.rank_base].clock = wake;
                    self.schedule_wake(r, wake);
                    return;
                }
                StepResult::HostCall(op) => {
                    now = self.do_host_op(r, op, now);
                }
                StepResult::Blocked => {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    if !flushed && rank.inbox.is_empty() && !rank.ep.has_actions() {
                        rank.clock = now;
                        return;
                    }
                    // Something moved (a completion landed in the flush,
                    // or packets are parked): give the engine another go.
                }
                StepResult::Done => {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    rank.done = true;
                    rank.clock = now;
                    return;
                }
            }
        }
    }

    /// Execute all pending PSM actions of rank `r`, advancing its clock.
    /// Returns whether any action was processed.
    fn flush_actions(&mut self, r: usize, now: &mut Ns) -> bool {
        if !self.ranks[(r) - self.rank_base].ep.has_actions() {
            return false;
        }
        // Pooled scratch: actions drain into one reused vector instead of
        // a fresh allocation per flush (the former per-send hot cost).
        let mut actions = std::mem::take(&mut self.action_scratch);
        loop {
            self.ranks[(r) - self.rank_base]
                .ep
                .drain_actions_into(&mut actions);
            if actions.is_empty() {
                break;
            }
            for a in actions.drain(..) {
                self.handle_action(r, a, now);
            }
        }
        self.action_scratch = actions;
        true
    }
}

/// Default shard count for [`EngineMode::Sharded`](crate::EngineMode::Sharded)
/// when [`ClusterConfig::shards`](crate::ClusterConfig::shards) is
/// `None`: enough shards to keep roughly two in flight per available
/// worker (so shards that hit their window horizon early don't idle a
/// core), but never so many that a shard owns fewer than ~32 ranks
/// (each shard pays a full fabric + barrier crossing per window), and
/// never more than one per node or 64 total.
///
/// Deliberately *independent of the run's worker count*
/// ([`ClusterConfig::threads`](crate::ClusterConfig::threads)): the
/// partition — and therefore the bit-exact result — depends only on
/// the job shape and the machine's advertised parallelism
/// ([`pico_sim::default_threads`], overridable via `PICO_THREADS`), so
/// the worker-count bit-invariance property holds by construction. Benchmark artifacts record the shard count
/// and `benchdiff` refuses to trend across differing partitions.
///
/// The nodes-per-shard floor (`nodes / 4`, i.e. at least four nodes per
/// shard once the cluster has them to give) keeps very large clusters
/// with few ranks per node from splitting into slivers: a shard pays a
/// full window barrier plus a fabric flush per lookahead window
/// regardless of size, so a shard smaller than a handful of nodes costs
/// more in crossings than it wins in parallelism.
pub fn auto_shard_count(nodes: usize, ranks_per_node: usize) -> usize {
    let ranks = nodes.saturating_mul(ranks_per_node.max(1));
    let by_workers = pico_sim::default_threads().saturating_mul(2).max(1);
    let by_ranks = (ranks / 32).max(1);
    let by_nodes = (nodes / 4).max(1);
    by_workers
        .min(by_ranks)
        .min(by_nodes)
        .min(nodes.max(1))
        .min(64)
}
