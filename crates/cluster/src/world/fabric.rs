use super::{
    shrink_scratch, EdgeMember, EdgeMsg, Ev, PendingMember, SentMember, SinkSlot, TrainPacket,
    TrainSource, World,
};
use pico_fabric::TrainMember;
use pico_sim::Ns;
use std::collections::VecDeque;

impl World {
    /// Add a packet to the train accumulator bucket of its link, located
    /// through the open-addressed [`LinkIndex`] (O(1) expected; the old
    /// pairwise scan of `pending_trains` was O(links) *per member*, which
    /// alltoall dispatches at scale turned into a quadratic hot spot).
    pub(super) fn enqueue_member(
        &mut self,
        src_node: usize,
        dst_node: usize,
        mut m: PendingMember,
    ) {
        m.seq = self.emit_seq;
        self.emit_seq += 1;
        if let Some(b) = self.link_index.get(src_node, dst_node) {
            debug_assert!(
                self.pending_trains[b].0 == src_node && self.pending_trains[b].1 == dst_node
            );
            self.pending_trains[b].2.push(m);
            return;
        }
        self.link_index
            .insert(src_node, dst_node, self.pending_trains.len());
        let mut v = self.member_pool.pop().unwrap_or_default();
        v.push(m);
        self.pending_trains.push((src_node, dst_node, v));
    }

    /// Turn everything the last event dispatch emitted into trains: one
    /// `Fabric::transfer_train` reservation and one delivery event per
    /// `(src_node, dst_node)` burst (members in accumulation order, the
    /// same order the per-packet path would have reserved the link in).
    pub(super) fn flush_trains(&mut self) {
        if self.pending_trains.is_empty() {
            return;
        }
        let mut trains = std::mem::take(&mut self.pending_trains);
        // The index refers to the buckets just taken; reset it before any
        // (hypothetical) re-accumulation.
        self.link_index.clear();
        for (src_node, dst_node, members) in &mut trains {
            self.flush_one_train(*src_node, *dst_node, members);
            debug_assert!(members.is_empty());
            let mut v = std::mem::take(members);
            shrink_scratch(&mut v);
            self.member_pool.push(v);
        }
        // Scheduling events never emits packets, so nothing accumulated
        // while flushing; keep the outer allocation warm.
        debug_assert!(self.pending_trains.is_empty());
        trains.clear();
        self.pending_trains = trains;
        self.flush_completions();
    }

    /// Service the flush's sender-side completion IRQs on the Linux
    /// cores in global emission order (the exact submission order of
    /// the per-packet path, even when the flush spanned several links),
    /// then fire one event per `(rank, msg_id)` group at its last
    /// window's finish — the only completion an in-order pipelined
    /// sender can act on. A single-window message keeps its own event,
    /// so its completion time is unchanged by batching.
    fn flush_completions(&mut self) {
        if self.sent_scratch.is_empty() {
            return;
        }
        let mut sent = std::mem::take(&mut self.sent_scratch);
        sent.sort_by_key(|&(seq, ..)| seq);
        let mut i = 0;
        while i < sent.len() {
            let (_, node, start, cpu, first) = sent[i];
            let mut at = self.nodes[(node) - self.node_base]
                .delegator
                .service(start, cpu)
                .finish;
            let mut j = i + 1;
            while j < sent.len() {
                let (_, n2, s2, c2, m2) = sent[j];
                if (m2.rank, m2.msg_id) != (first.rank, first.msg_id) {
                    break;
                }
                debug_assert_eq!(n2, node, "one message stays on one node");
                at = at.max(
                    self.nodes[(n2) - self.node_base]
                        .delegator
                        .service(s2, c2)
                        .finish,
                );
                j += 1;
            }
            if j - i == 1 {
                self.emit_ev(
                    at,
                    Ev::SdmaSent {
                        rank: first.rank,
                        msg_id: first.msg_id,
                        window: first.window,
                        va: first.va,
                    },
                );
            } else {
                let group: Vec<SentMember> = sent[i..j].iter().map(|&(.., m)| m).collect();
                self.emit_ev(at, Ev::SdmaSentBatch { members: group });
            }
            i = j;
        }
        sent.clear();
        shrink_scratch(&mut sent);
        self.sent_scratch = sent;
    }

    /// Fold one delivery schedule into the order-independent arrival
    /// digest (see [`RunResult::arrival_digest`]): a splitmix64-finalized
    /// hash of the member identity, accumulated with a commutative sum so
    /// dispatch interleaving cannot change it.
    #[inline]
    pub(super) fn digest_arrival(&mut self, arrival: Ns, dst: usize, src: u32, bytes: u64) {
        #[inline]
        fn mix(mut x: u64) -> u64 {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        let id = mix(((dst as u64) << 40) ^ ((src as u64) << 16) ^ bytes);
        let h = mix(arrival.0 ^ id);
        self.arrival_digest = self.arrival_digest.wrapping_add(h);
        if bytes >= 1024 {
            self.arrival_digest_bulk = self.arrival_digest_bulk.wrapping_add(h);
        }
        // Same stream, constant memory: the delivery latency (schedule →
        // arrival) lands in this shard's sketch.
        self.arrival_sketch
            .record(arrival.0.saturating_sub(self.sim_now.0));
    }

    /// The burst's emission times and wire sizes, in the pooled member
    /// scratch (hand it back to `fabric_member_scratch` after the fabric
    /// call).
    fn stage_burst(&mut self, members: &[PendingMember]) -> Vec<TrainMember> {
        let mut fm = std::mem::take(&mut self.fabric_member_scratch);
        fm.clear();
        fm.extend(members.iter().map(|m| TrainMember {
            at: m.at,
            bytes: m.bytes,
            nreqs: m.nreqs,
        }));
        fm
    }

    /// Collect the burst's sender-side completion IRQs, each raised when
    /// its member left the uplink (`injected`, in member order). They are
    /// serviced in global emission order by `flush_completions` once
    /// every burst of the flush has its fabric schedule.
    fn stage_completions(
        &mut self,
        src_node: usize,
        members: &[PendingMember],
        injected: impl Iterator<Item = Ns>,
    ) {
        for (m, at) in members.iter().zip(injected) {
            if let Some((rank, msg_id, window, va, cpu)) = m.completion {
                self.sent_scratch.push((
                    m.seq,
                    src_node,
                    at + self.lc.irq_entry,
                    cpu,
                    SentMember {
                        rank,
                        msg_id,
                        window,
                        va,
                    },
                ));
            }
        }
    }

    fn flush_one_train(
        &mut self,
        src_node: usize,
        dst_node: usize,
        members: &mut Vec<PendingMember>,
    ) {
        // Inter-node link: the burst extends a persistent sink instead of
        // becoming its own train. Intra-node (shared-memory) arrivals are
        // not monotone across dispatches, so those bursts stay per-flush
        // trains — on the soft schedule.
        if src_node != dst_node {
            if self.sharded {
                // Sharded engine: the destination sink lives on another
                // shard (or must be committed in global order even when
                // it doesn't) — run the source half here, ship the rest.
                self.sink_defer(src_node, dst_node, members);
            } else {
                self.sink_append(src_node, dst_node, members);
            }
            return;
        }
        // One reservation per gate for the whole burst.
        let fm = self.stage_burst(members);
        let mut scheds = std::mem::take(&mut self.sched_scratch);
        scheds.clear();
        self.fabric
            .transfer_train(src_node, dst_node, &fm, &mut scheds);
        self.fabric_member_scratch = fm;
        for (m, sched) in members.iter().zip(&scheds) {
            self.digest_arrival(sched.arrival, m.dst, m.src, m.bytes);
        }
        self.stage_completions(src_node, members, scheds.iter().map(|s| s.injected));
        // Deliver: a singleton burst stays a plain packet event; a real
        // train becomes one event at its first arrival.
        if members.len() == 1 {
            let m = members.pop().expect("one member");
            self.emit_ev(
                scheds[0].arrival,
                Ev::Packet {
                    dst: m.dst,
                    src: m.src,
                    packet: m.packet,
                },
            );
        } else {
            let mut packets: Vec<TrainPacket> = members
                .drain(..)
                .zip(scheds.iter())
                .map(|(m, s)| TrainPacket {
                    arrival: s.arrival,
                    seq: m.seq,
                    dst: m.dst,
                    src: m.src,
                    packet: m.packet,
                })
                .collect();
            // Link arrivals are monotone by FIFO construction, but the
            // shared-memory path isn't when emissions interleave: keep
            // delivery in time order (stable, so ties keep link order).
            packets.sort_by_key(|p| p.arrival);
            let first = packets[0].arrival;
            self.emit_ev(
                first,
                Ev::PacketTrain {
                    members: VecDeque::from(packets),
                },
            );
        }
        scheds.clear();
        self.sched_scratch = scheds;
    }

    /// The sink slot a burst on link `src -> dst` extends: the
    /// destination node's under `Incast`, the directed link's own under
    /// `Flows` (allocated on first use).
    fn sink_slot(&mut self, src: usize, dst: usize) -> usize {
        if self.hot.incast {
            return dst - self.node_base;
        }
        if let Some(i) = self.sink_links.iter().position(|&l| l == (src, dst)) {
            return i;
        }
        self.sink_links.push((src, dst));
        self.sinks.push(SinkSlot {
            dst: dst as u32,
            ..SinkSlot::default()
        });
        self.sinks.len() - 1
    }

    /// Finalize the open sink in `slot` (stats identity only: undelivered
    /// members stay in place and a successor reuses the slot).
    fn close_sink(&mut self, slot: usize) {
        let sink = &mut self.sinks[slot];
        if sink.open {
            self.max_sink_len = self.max_sink_len.max(sink.len);
            sink.open = false;
            sink.len = 0;
        }
    }

    /// Append one flush's burst from `src_node` to its sink. The fabric
    /// side ([`Fabric::extend_sink`]) advances the source's uplink gate
    /// and commits the destination's downlink once, continuing the sink's
    /// cumulative reservation, so the analytic spread continues exactly
    /// as one longer train. Under `Incast` the sink takes every source
    /// link, whose arrivals are not monotone in commit order, so
    /// `sink_settle` merges new members by `(arrival, seq)` and re-keys
    /// the sink's single soft entry when the merge brings an earlier head.
    fn sink_append(&mut self, src_node: usize, dst_node: usize, members: &mut Vec<PendingMember>) {
        let now = self.sim_now;
        let slot = self.sink_slot(src_node, dst_node);
        let prior = self.sink_admit(slot, members.len(), now);
        let fm = self.stage_burst(members);
        let mut scheds = std::mem::take(&mut self.sched_scratch);
        scheds.clear();
        self.fabric
            .extend_sink(src_node, dst_node, &fm, prior, &mut scheds);
        self.fabric_member_scratch = fm;
        self.stage_completions(src_node, members, scheds.iter().map(|s| s.injected));
        let n = members.len();
        for (m, s) in members.drain(..).zip(scheds.iter()) {
            self.digest_arrival(s.arrival, m.dst, m.src, m.bytes);
            self.sinks[slot].members.push_back(TrainPacket {
                arrival: s.arrival,
                seq: m.seq,
                dst: m.dst,
                src: m.src,
                packet: m.packet,
            });
        }
        self.sink_settle(slot, n, now);
        scheds.clear();
        self.sched_scratch = scheds;
    }

    /// Open-side sink bookkeeping shared by both engines' sink commits
    /// ([`sink_append`](Self::sink_append) and
    /// [`commit_edge_msg`](Self::commit_edge_msg)): before a burst of `n`
    /// members lands in sink `slot` at `now`, lazily close the open sink
    /// — every source feeding it idled past the linger, or the burst
    /// would breach the member cap — and open a successor. Returns the
    /// sink's accumulated length, the fabric's continuation `prior_len`.
    fn sink_admit(&mut self, slot: usize, n: usize, now: Ns) -> u64 {
        let s = &self.sinks[slot];
        if s.open {
            let idled = !s.pending && now > s.last_activity + self.cfg.flow_linger_ns;
            let capped = s.len as usize + n > self.cfg.flow_member_cap;
            if idled || capped {
                self.close_sink(slot);
            }
        }
        let s = &mut self.sinks[slot];
        if !s.open {
            s.open = true;
            self.sinks_opened += 1;
        }
        s.len
    }

    /// Settle-side sink bookkeeping shared by both engines, after the
    /// last `n` members of sink `slot` were appended at `now`: merge them
    /// into `(arrival, seq)` order, update the counters, and keep exactly
    /// one soft entry (keyed at the head) and one reaper armed for the
    /// sink.
    fn sink_settle(&mut self, slot: usize, n: usize, now: Ns) {
        let incast = self.hot.incast;
        let sink = &mut self.sinks[slot];
        let old = sink.members.len() - n;
        debug_assert!(!sink.pending || old > 0, "a pending sink has members");
        // While `pending`, the front member before the merge is where the
        // sink's soft entry is keyed.
        let entry_at = sink.members[0].arrival;
        // One burst is single-source, so its arrivals are monotone; only
        // the boundary against members already pending (other sources,
        // or an earlier bucket of this flush with interleaved emission
        // seqs) can put the new head out of order. `seq` is globally
        // unique, so the key is total — unstable sort is deterministic.
        let key = |p: &TrainPacket| (p.arrival, p.seq);
        if old > 0 && key(&sink.members[old]) < key(&sink.members[old - 1]) {
            // A per-link sink has one source, whose FIFO link hands it
            // arrivals in commit order (even across a pause), so only a
            // per-node sink ever merges. `Flows` never reaching this sort
            // or the re-key below is what keeps it an independent oracle
            // for the merge.
            debug_assert!(incast, "per-link sink arrivals must stay monotone");
            sink.members.make_contiguous().sort_unstable_by_key(key);
        }
        sink.len += n as u64;
        sink.last_activity = now;
        let (len, head) = (sink.len, sink.members[0].arrival);
        self.sink_members_total += n as u64;
        self.max_sink_len = self.max_sink_len.max(len);
        if !self.sinks[slot].pending {
            self.defer_sink(slot, head);
        } else if head < entry_at {
            // The merge put an earlier member at the head: re-key the
            // sink's soft entry (and its `node_pending` mark) to the new
            // first arrival, or the delivery would fire late. The old
            // entry stays in the heap, cancelled.
            self.node_pending_remove(self.sinks[slot].dst as usize, entry_at);
            self.defer_sink(slot, head);
        }
        if !self.sinks[slot].reaper_armed {
            self.sinks[slot].reaper_armed = true;
            self.schedule_ev(now + self.cfg.flow_linger_ns, Ev::SinkClose { slot });
        }
    }

    /// Source half of [`sink_append`](Self::sink_append) for the sharded
    /// engine: commit the burst on the *source's* uplink gate (owned by
    /// this shard), service the sender completions locally, and ship the
    /// members — with their uplink schedules — to the destination shard
    /// via the outbox. The destination half runs in
    /// [`commit_edge_msg`](Self::commit_edge_msg) at the window barrier;
    /// conservative lookahead guarantees it commits before any arrival
    /// can matter (arrival ≥ emit time + base latency = the lookahead).
    fn sink_defer(&mut self, src_node: usize, dst_node: usize, members: &mut Vec<PendingMember>) {
        let fm = self.stage_burst(members);
        let mut inj = std::mem::take(&mut self.inj_scratch);
        inj.clear();
        self.fabric.sink_inject(src_node, &fm, &mut inj);
        self.fabric_member_scratch = fm;
        // `up_finish` == the whole-run engine's `sched.injected`.
        self.stage_completions(src_node, members, inj.iter().map(|i| i.up_finish));
        let ms: Vec<EdgeMember> = members
            .drain(..)
            .zip(inj.drain(..))
            .map(|(m, i)| EdgeMember {
                inj: i,
                dst: m.dst,
                src: m.src,
                packet: m.packet,
            })
            .collect();
        self.emit_order += 1;
        self.outbox.push(EdgeMsg {
            emit_at: self.sim_now,
            src_shard: self.shard_id,
            emit_order: self.emit_order,
            dst_node,
            members: ms,
        });
        shrink_scratch(&mut inj);
        self.inj_scratch = inj;
    }

    /// Commit every burst shipped to this shard during the window, in
    /// the global order `(emit time, source shard, per-shard emission
    /// counter)` — identical on every thread count.
    pub(super) fn commit_inbox(&mut self, msgs: &mut Vec<EdgeMsg>) {
        msgs.sort_unstable_by_key(|m| (m.emit_at, m.src_shard, m.emit_order));
        for msg in msgs.drain(..) {
            self.commit_edge_msg(msg);
        }
    }

    /// Destination half of [`sink_append`](Self::sink_append): replay
    /// the sink-slot bookkeeping at the burst's emit time, commit the
    /// shared downlink on *this* shard's fabric, and merge the members
    /// into the sink. Member seqs are reassigned from `commit_seq`
    /// (monotone in global commit order), so within-sink `(arrival,
    /// seq)` ties break exactly as the single-queue engine's
    /// emission-order seqs break them.
    fn commit_edge_msg(&mut self, msg: EdgeMsg) {
        let now = msg.emit_at;
        self.sim_now = now;
        let idx = msg.dst_node;
        // The sharded engine runs only under `Incast`: per-node sinks.
        let slot = idx - self.node_base;
        let n = msg.members.len();
        let prior = self.sink_admit(slot, n, now);
        let mut inj = std::mem::take(&mut self.inj_scratch);
        inj.clear();
        inj.extend(msg.members.iter().map(|m| m.inj));
        let mut scheds = std::mem::take(&mut self.sched_scratch);
        scheds.clear();
        self.fabric.sink_commit(idx, &inj, prior, &mut scheds);
        for (m, s) in msg.members.into_iter().zip(scheds.iter()) {
            self.digest_arrival(s.arrival, m.dst, m.src, m.inj.bytes);
            let seq = self.commit_seq;
            self.commit_seq += 1;
            self.sinks[slot].members.push_back(TrainPacket {
                arrival: s.arrival,
                seq,
                dst: m.dst,
                src: m.src,
                packet: m.packet,
            });
        }
        self.sink_settle(slot, n, now);
        inj.clear();
        shrink_scratch(&mut inj);
        self.inj_scratch = inj;
        scheds.clear();
        self.sched_scratch = scheds;
    }

    /// The `Ev::SinkClose` reaper, fired at `t`: close the sink in `slot`
    /// if every source feeding it has idled past the linger; re-arm while
    /// it is active; disarm for good once the sink is closed, so an idle
    /// sink costs no further events.
    pub(super) fn on_sink_close(&mut self, slot: usize, t: Ns) {
        let linger = self.cfg.flow_linger_ns;
        let s = &self.sinks[slot];
        let (pending, last, open) = (s.pending, s.last_activity, s.open);
        if pending {
            // An outstanding delivery blocks the close, and its dispatch
            // re-arms the timer once `pending` clears — disarm rather
            // than poll every linger until then. (Launch-skew deferrals
            // hold `pending` for whole milliseconds; polling them used
            // to dominate the queue-event count.)
            self.sinks[slot].reaper_armed = false;
            return;
        }
        if open && t < last + linger {
            self.schedule_ev(last + linger, Ev::SinkClose { slot });
            return;
        }
        self.sinks[slot].reaper_armed = false;
        self.close_sink(slot);
    }

    /// Deliver a train's members in arrival order, preserving the
    /// per-packet semantics member by member:
    ///
    /// * a member due **now** (the event timestamp) reaches its
    ///   destination exactly like a plain `Ev::Packet` would: an idle
    ///   rank takes it, a busy rank parks it behind one coalesced wake;
    /// * a rank that took a member keeps taking its later members this
    ///   dispatch — it is inside the MPI library, consuming the train
    ///   as it drains off the wire;
    /// * a future arrival for a rank the dispatch has not engaged (or
    ///   one that would outrun a parked rank's pending wake) must not
    ///   be delivered early or out of order: the remainder of the train
    ///   is handed back — to the soft schedule for an event train, or
    ///   into its slot (a lazy pause) for a sink.
    pub(super) fn on_packet_train(
        &mut self,
        mut members: VecDeque<TrainPacket>,
        source: TrainSource,
    ) {
        self.train_epoch += 1;
        let epoch = self.train_epoch;
        let t = members[0].arrival;
        let mut engaged = std::mem::take(&mut self.engaged_scratch);
        engaged.clear();
        while let Some(m) = members.pop_front() {
            let dst = m.dst;
            if self.ranks[(dst) - self.rank_base].done {
                continue;
            }
            if self.train_delivered[dst - self.rank_base] == epoch
                && self.continuation_clear(dst, m.arrival)
            {
                // The rank is inside the library and nothing touching its
                // node is due before this member drains off the wire:
                // consume it in this dispatch, replaying the park-and-drain
                // semantics the per-packet path would apply event by event.
                // (With a same-node event pending in between, the remainder
                // is resplit below instead — the reference model would have
                // dispatched that event first, and its fabric/IRQ
                // reservations and inbox pushes must stay ahead of ours.
                // Events on other nodes commute with the continuation:
                // their gates, SDMA engines, and inboxes are disjoint.)
                let mut member = Some((m.src, m.packet));
                while let Some((src, packet)) = member.take() {
                    let clock = self.ranks[(dst) - self.rank_base].clock;
                    if m.arrival < clock {
                        // Arrives mid-processing: parks, like a packet
                        // event popping while the rank is busy. Drained
                        // at the coalesced wake — emulated by the next
                        // idle-time member, or made real at dispatch end.
                        self.ranks[(dst) - self.rank_base].inbox.push((src, packet));
                    } else if !self.ranks[(dst) - self.rank_base].inbox.is_empty() {
                        // The parked prefix's wake (at `clock`) pops
                        // before this member's arrival: drain it first.
                        self.run_rank(dst, clock);
                        member = Some((src, packet));
                    } else {
                        self.ranks[(dst) - self.rank_base].inbox.push((src, packet));
                        self.run_rank(dst, m.arrival);
                    }
                }
                continue;
            }
            let parked = self.train_parked[dst - self.rank_base] == epoch;
            if parked && m.arrival <= self.train_park_clock[dst - self.rank_base] {
                self.ranks[(dst) - self.rank_base]
                    .inbox
                    .push((m.src, m.packet));
                continue;
            }
            if !parked && m.arrival <= t {
                let clock = self.ranks[(dst) - self.rank_base].clock;
                if clock <= t {
                    self.train_delivered[dst - self.rank_base] = epoch;
                    engaged.push(dst);
                    self.ranks[(dst) - self.rank_base]
                        .inbox
                        .push((m.src, m.packet));
                    self.run_rank(dst, t);
                } else {
                    self.ranks[(dst) - self.rank_base]
                        .inbox
                        .push((m.src, m.packet));
                    self.train_parked[dst - self.rank_base] = epoch;
                    self.train_park_clock[dst - self.rank_base] = clock;
                    self.schedule_wake(dst, clock);
                }
                continue;
            }
            // A member the dispatch cannot consume — a pending same-node
            // item must interleave first, or it would outrun a parked
            // rank's pending wake: the delivered prefix stays consumed
            // and the remainder is handed back at its arrival. How the
            // remainder goes back is what the resplit accounting splits:
            // a train *re-commits* it as a fresh scheduler item (a
            // requeue plus a fresh dispatch), while a sink's suffix
            // stays in its slot and merely re-defers the soft
            // entry (a lazy pause, zero queue events, accumulator
            // preserved). Either way the conflicting member goes back on
            // the front of the same deque, which is handed back whole.
            members.push_front(m);
            let at = members[0].arrival;
            match source {
                TrainSource::Sink(i) => {
                    // Lazy pause: only the suffix after the conflict (from
                    // every source, still merged) goes back into the sink
                    // and re-defers as its single soft entry; later
                    // appends extend it in place.
                    self.sink_pauses += 1;
                    debug_assert!(self.sinks[i].members.is_empty());
                    self.sinks[i].members = members;
                    self.defer_sink(i, at);
                }
                TrainSource::Event if members.len() == 1 => {
                    self.resplits += 1;
                    let p = members.pop_front().expect("one member");
                    self.emit_ev(
                        at,
                        Ev::Packet {
                            dst: p.dst,
                            src: p.src,
                            packet: p.packet,
                        },
                    );
                }
                TrainSource::Event => {
                    self.resplits += 1;
                    self.emit_ev(at, Ev::PacketTrain { members });
                }
            }
            break;
        }
        // Members parked during greedy continuation never got their
        // drain emulated: give them the coalesced wake the per-packet
        // path would have scheduled — run inline when the node is clear
        // up to the wake time (no event spent), as a real event when the
        // reference model would dispatch something else first.
        for dst in engaged.drain(..) {
            if !self.ranks[(dst) - self.rank_base].done
                && !self.ranks[(dst) - self.rank_base].inbox.is_empty()
            {
                let clock = self.ranks[(dst) - self.rank_base].clock;
                if self.continuation_clear(dst, clock) {
                    self.run_rank(dst, clock);
                } else {
                    self.schedule_wake(dst, clock);
                }
            }
        }
        self.engaged_scratch = engaged;
    }
}
