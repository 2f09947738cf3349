use super::{shrink_scratch, Ev, PendingMember, SentMember, World};
use crate::config::OsConfig;
use pico_ihk::Sysno;
use pico_mem::VirtAddr;
use pico_mpi::HostOp;
use pico_psm::{PsmAction, PsmPacket};
use pico_sim::{transfer_time, Ns};

impl World {
    pub(super) fn handle_action(&mut self, r: usize, a: PsmAction, now: &mut Ns) {
        match a {
            PsmAction::PioSend { dst, packet } => {
                let bytes = packet.wire_bytes();
                *now += self.hot.pio_base + transfer_time(bytes, self.hot.pio_bw);
                let src_node = self.ranks[(r) - self.rank_base].node;
                // Arithmetic node lookup: the destination rank may live
                // on another shard, so its state cannot be touched here.
                let dst_node = dst as usize / self.hot.rpn;
                // PIO packets ride the wire in ~8 KB chunks.
                let nreqs = bytes.div_ceil(8 * 1024).max(1);
                self.nodes[(src_node) - self.node_base].chip.record_pio();
                let src = self.ranks[(r) - self.rank_base].engine.rank();
                if self.hot.batch {
                    self.enqueue_member(
                        src_node,
                        dst_node,
                        PendingMember {
                            seq: 0, // assigned by enqueue_member
                            at: *now,
                            dst: dst as usize,
                            src,
                            bytes,
                            nreqs,
                            packet,
                            completion: None,
                        },
                    );
                } else {
                    let sched = self.fabric.transfer(*now, src_node, dst_node, bytes, nreqs);
                    self.digest_arrival(sched.arrival, dst as usize, src, bytes);
                    self.schedule_ev(
                        sched.arrival,
                        Ev::Packet {
                            dst: dst as usize,
                            src,
                            packet,
                        },
                    );
                }
            }
            PsmAction::TidRegister {
                src,
                msg_id,
                window,
                va,
                len,
            } => {
                let tids = self.sys_tid_register(r, VirtAddr(va), len, now);
                self.ranks[(r) - self.rank_base]
                    .ep
                    .on_tid_registered(src, msg_id, window, tids);
            }
            PsmAction::TidUnregister { tids, va, len, .. } => {
                self.sys_tid_unregister(r, VirtAddr(va), len, &tids, now);
            }
            PsmAction::SdmaSend {
                dst,
                msg_id,
                window,
                va,
                len,
                payload,
            } => {
                self.sys_sdma_send(r, dst, msg_id, window, VirtAddr(va), len, payload, now);
            }
            PsmAction::Completed { handle, payload } => {
                if let Some(p) = payload.as_deref() {
                    self.delivered_payloads += 1;
                    // Verify the wrapping-increment pattern now and keep
                    // only counters — buffering every payload per rank
                    // until collection held O(delivered bytes) live for
                    // the whole run.
                    self.payloads_checked += 1;
                    if let Some(&base) = p.first() {
                        if p.iter()
                            .enumerate()
                            .any(|(i, &b)| b != base.wrapping_add(i as u8))
                        {
                            self.payload_errors += 1;
                        }
                    }
                }
                self.ranks[(r) - self.rank_base]
                    .engine
                    .on_completion(handle);
            }
        }
    }

    // ---- kernel operation executors ---------------------------------------

    /// Charge `service` of Linux-side work for call `sysno` of rank `r`,
    /// issued at `now`. Linux runs the call in place; both McKernel
    /// configurations offload it over IKC to the node's few Linux
    /// service cores, where it queues behind every other offloaded call
    /// and completion IRQ. Every device and file call outside the
    /// PicoDriver fast paths comes through here; scratch `mmap`/`munmap`
    /// and `nanosleep` stay with the rank's own kernel.
    /// Records the call in the rank's kernel profile and returns
    /// `(complete, linux_done)`: when the rank resumes, and when the
    /// Linux side finished the work (the same instant on Linux).
    fn linux_call(&mut self, r: usize, sysno: Sysno, now: Ns, service: Ns) -> (Ns, Ns) {
        let rank = &mut self.ranks[r - self.rank_base];
        let (complete, linux_done) = match self.hot.os {
            OsConfig::Linux => (now + service, now + service),
            OsConfig::McKernel | OsConfig::McKernelHfi => {
                let g = self.nodes[rank.node - self.node_base]
                    .delegator
                    .offload(now, sysno, service);
                (g.complete, g.linux_done)
            }
        };
        rank.kprof.record(sysno, complete - now);
        (complete, linux_done)
    }

    fn sys_tid_register(&mut self, r: usize, va: VirtAddr, len: u64, now: &mut Ns) -> Vec<u16> {
        let rank = &mut self.ranks[r - self.rank_base];
        let node = &mut self.nodes[rank.node - self.node_base];
        if let Some(fast) = node.fast.as_mut() {
            // PicoDriver fast path: the TID ioctl runs in the LWK.
            let reg = fast
                .tid_update(&mut node.chip, &rank.space, rank.ctxt, va, len)
                .expect("fast TID registration failed");
            *now += reg.cpu;
            rank.kprof.record(Sysno::Ioctl, reg.cpu);
            return reg.tids;
        }
        let reg = node
            .driver
            .tid_update(
                &mut node.chip,
                &mut rank.space,
                rank.dev_handle,
                va,
                len,
                &self.lc,
            )
            .expect("TID registration failed");
        let service = self.lc.syscall_entry + self.lc.vfs_dispatch + reg.cpu;
        (*now, _) = self.linux_call(r, Sysno::Ioctl, *now, service);
        reg.tids
    }

    fn sys_tid_unregister(&mut self, r: usize, va: VirtAddr, len: u64, tids: &[u16], now: &mut Ns) {
        let rank = &mut self.ranks[r - self.rank_base];
        let node = &mut self.nodes[rank.node - self.node_base];
        if let Some(fast) = node.fast.as_mut() {
            let cpu = fast
                .tid_free(&mut node.chip, rank.ctxt, va, len, tids, false)
                .expect("fast TID free failed");
            *now += cpu;
            rank.kprof.record(Sysno::Ioctl, cpu);
            return;
        }
        let cpu = node
            .driver
            .tid_free(&mut node.chip, &mut rank.space, rank.dev_handle, va, tids)
            .expect("TID free failed");
        let service = self.lc.syscall_entry + self.lc.vfs_dispatch + cpu;
        (*now, _) = self.linux_call(r, Sysno::Ioctl, *now, service);
    }

    #[allow(clippy::too_many_arguments)]
    fn sys_sdma_send(
        &mut self,
        r: usize,
        dst: u32,
        msg_id: u64,
        window: u32,
        va: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
        now: &mut Ns,
    ) {
        let rank = &mut self.ranks[r - self.rank_base];
        let node_idx = rank.node;
        let node = &mut self.nodes[node_idx - self.node_base];
        let (nreqs, wire_start) = if let Some(fast) = node.fast.as_mut() {
            // Cross-kernel read of the live driver engine state via
            // DWARF-extracted offsets.
            let state = node.driver.sdma_state(0).bytes();
            let sub = fast
                .sdma_writev(&mut node.chip, &rank.space, state, va, len, 0)
                .expect("fast writev failed");
            *now += sub.cpu;
            rank.kprof.record(Sysno::Writev, sub.cpu);
            // Allocate completion metadata from the LWK per-core pool
            // (freed later from a Linux CPU via the ported callback).
            if let Some(alloc) = node.lwk_alloc.as_ref() {
                if let Ok(block) = alloc.alloc(rank.local as usize) {
                    rank.meta.insert((msg_id, window), block);
                }
            }
            (sub.nreqs, *now)
        } else {
            let sub = node
                .driver
                .sdma_writev(
                    &mut node.chip,
                    &mut rank.space,
                    rank.dev_handle,
                    va,
                    len,
                    &self.lc,
                )
                .expect("writev failed");
            let service = self.lc.syscall_entry + self.lc.vfs_dispatch + sub.cpu;
            let (complete, linux_done) = self.linux_call(r, Sysno::Writev, *now, service);
            *now = complete;
            // The window goes on the wire once the Linux driver has
            // queued it, while the reply is still travelling back.
            (sub.nreqs, linux_done)
        };
        // Wire the window to the destination node (arithmetically: the
        // destination rank may belong to a different shard).
        let dst_node = dst as usize / self.hot.rpn;
        let packet = PsmPacket::SdmaData {
            msg_id,
            window,
            len,
            payload,
        };
        // Sender-side completion IRQ: handled on the Linux service cores
        // (McKernel handles no device interrupts).
        let completion_cpu = self.nodes[(node_idx) - self.node_base]
            .driver
            .costs()
            .completion
            + self.lc.kmalloc_pair;
        if self.hot.batch {
            // Pipelined windows of one flush ride the wire as a train;
            // the IRQ is serviced (and the delegator charged) when the
            // train's fabric schedule is known, at flush time.
            self.enqueue_member(
                node_idx,
                dst_node,
                PendingMember {
                    seq: 0, // assigned by enqueue_member
                    at: wire_start,
                    dst: dst as usize,
                    src: self.ranks[(r) - self.rank_base].engine.rank(),
                    bytes: len + 64,
                    nreqs,
                    packet,
                    completion: Some((r, msg_id, window, va.0, completion_cpu)),
                },
            );
            return;
        }
        let sched = self
            .fabric
            .transfer(wire_start, node_idx, dst_node, len + 64, nreqs);
        let src_rank = self.ranks[(r) - self.rank_base].engine.rank();
        self.digest_arrival(sched.arrival, dst as usize, src_rank, len + 64);
        self.schedule_ev(
            sched.arrival,
            Ev::Packet {
                dst: dst as usize,
                src: src_rank,
                packet,
            },
        );
        let grant = self.nodes[(node_idx) - self.node_base]
            .delegator
            .service(sched.injected + self.lc.irq_entry, completion_cpu);
        self.schedule_ev(
            grant.finish,
            Ev::SdmaSent {
                rank: r,
                msg_id,
                window,
                va: va.0,
            },
        );
    }

    pub(super) fn on_sdma_sent(&mut self, r: usize, msg_id: u64, window: u32, va: u64) {
        self.sdma_complete_kernel(r, msg_id, window, va);
        self.ranks[(r) - self.rank_base]
            .ep
            .on_sdma_sent(msg_id, window);
    }

    /// Batched sender-side completions for one `(rank, msg_id)` group:
    /// the kernel-side callback runs per window (each IRQ frees its own
    /// metadata), but the endpoint's progress state advances once for the
    /// whole group.
    pub(super) fn on_sdma_sent_group(&mut self, members: &[SentMember]) {
        for m in members {
            self.sdma_complete_kernel(m.rank, m.msg_id, m.window, m.va);
        }
        let first = members[0];
        self.ranks[(first.rank) - self.rank_base]
            .ep
            .on_sdma_sent_batch(first.msg_id, members.len() as u32);
    }

    /// Kernel/driver half of an SDMA completion IRQ (everything but the
    /// endpoint progress update).
    fn sdma_complete_kernel(&mut self, r: usize, msg_id: u64, window: u32, va: u64) {
        let node_idx = self.ranks[(r) - self.rank_base].node;
        match self.hot.os {
            OsConfig::Linux | OsConfig::McKernel => {
                // The original completion callback: unpin + Linux kfree.
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node_idx) - self.node_base];
                let _ = noderef.driver.sdma_complete(
                    &mut rank.space,
                    rank.dev_handle,
                    VirtAddr(va),
                    &self.lc,
                );
            }
            OsConfig::McKernelHfi => {
                // The duplicated callback in McKernel TEXT, invoked from
                // the Linux IRQ context: frees LWK metadata remotely.
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &self.nodes[(node_idx) - self.node_base];
                if let Some(block) = rank.meta.remove(&(msg_id, window)) {
                    let (Some(table), Some(cb), Some(unified), Some(alloc)) = (
                        noderef.callbacks.as_deref(),
                        noderef.cb_ref,
                        noderef.unified.as_deref(),
                        noderef.lwk_alloc.as_ref(),
                    ) else {
                        unreachable!("picodriver pieces present in +HFI config");
                    };
                    table
                        .invoke_from_linux(unified, cb, alloc, 0, block)
                        .expect("completion callback failed");
                }
            }
        }
    }

    // ---- host (non-PSM) operations -----------------------------------------

    pub(super) fn do_host_op(&mut self, r: usize, op: HostOp, mut now: Ns) -> Ns {
        let node_idx = self.ranks[(r) - self.rank_base].node;
        match op {
            HostOp::InitDevice => {
                // Proxy process + device open + 6 device-region mmaps.
                let rank = &mut self.ranks[r - self.rank_base];
                let node = &mut self.nodes[node_idx - self.node_base];
                let pid = node.proxies.spawn(rank.engine.rank());
                let (handle, ctxt, cpu) = node
                    .driver
                    .open(&mut node.chip)
                    .expect("device open failed");
                let fd = node
                    .vfs
                    .open(pid, node.dev, handle)
                    .expect("vfs open failed");
                debug_assert!(fd >= 3);
                rank.dev_handle = handle;
                rank.ctxt = ctxt;
                let mmap = self.lc.syscall_entry + node.driver.dev_mmap();
                let open = self.lc.syscall_entry + self.lc.vfs_dispatch + cpu;
                (now, _) = self.linux_call(r, Sysno::Open, now, open);
                for _ in 0..6 {
                    (now, _) = self.linux_call(r, Sysno::Mmap, now, mmap);
                }
                if self.hot.os == OsConfig::McKernelHfi {
                    // LWK-side initialization of the driver-internal
                    // mappings and the DWARF-ported structures.
                    now += self.cfg.pico_init_cost;
                }
                now
            }
            HostOp::FiniDevice => {
                let rank = &mut self.ranks[r - self.rank_base];
                let node = &mut self.nodes[node_idx - self.node_base];
                let close = node
                    .driver
                    .close(&mut node.chip, rank.dev_handle)
                    .unwrap_or(Ns::ZERO)
                    + self.lc.syscall_entry;
                node.proxies.reap(rank.engine.rank());
                self.linux_call(r, Sysno::Close, now, close).0
            }
            HostOp::MmapScratch { bytes } => {
                let pinned = self.cfg.os != OsConfig::Linux;
                let leaves = {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    let noderef = &mut self.nodes[(node_idx) - self.node_base];
                    let (va, stats) = rank
                        .space
                        .mmap_anonymous(noderef.frames.get_mut(), bytes, pinned)
                        .expect("scratch mmap failed");
                    rank.scratch.push((va, bytes));
                    stats.leaves_mapped
                };
                // Linux maps lazily and uses THP: charge per 2 MiB
                // granule, not per populated 4 KiB leaf.
                let thp = bytes.div_ceil(2 << 20);
                let cpu = match self.cfg.os {
                    OsConfig::Linux => {
                        self.lc.syscall_entry + self.lc.mmap_base + self.lc.mmap_per_page * thp
                    }
                    _ => {
                        self.mmc.syscall_entry
                            + self.mmc.mmap_base
                            + self.mmc.mmap_per_leaf * leaves
                    }
                };
                now += cpu;
                self.ranks[(r) - self.rank_base]
                    .kprof
                    .record(Sysno::Mmap, cpu);
                now
            }
            HostOp::MunmapScratch => {
                let Some((va, len)) = self.ranks[(r) - self.rank_base].scratch.pop() else {
                    return now;
                };
                shrink_scratch(&mut self.ranks[(r) - self.rank_base].scratch);
                let leaves = {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    let noderef = &mut self.nodes[(node_idx) - self.node_base];
                    if self.cfg.os == OsConfig::McKernelHfi {
                        // Invalidate cached TID registrations overlapping
                        // the unmapped range before teardown.
                        let ctxt = rank.ctxt;
                        let fast = noderef.fast.as_mut().expect("fast path");
                        let _ = fast.invalidate_range(&mut noderef.chip, ctxt, va, len);
                    }
                    rank.space
                        .munmap(noderef.frames.get_mut(), va)
                        .expect("scratch munmap failed")
                };
                let thp = len.div_ceil(2 << 20);
                let cpu = match self.cfg.os {
                    OsConfig::Linux => {
                        self.lc.syscall_entry + self.lc.munmap_base + self.lc.munmap_per_page * thp
                    }
                    // McKernel munmap: teardown + cross-kernel TLB
                    // shootdown — the QBOX-dominating cost (Fig. 9).
                    _ => {
                        self.mmc.syscall_entry
                            + self.mmc.munmap_base
                            + self.mmc.munmap_per_leaf * leaves
                            + self.mmc.tlb_shootdown
                    }
                };
                now += cpu;
                self.ranks[(r) - self.rank_base]
                    .kprof
                    .record(Sysno::Munmap, cpu);
                now
            }
            HostOp::ReadInput { bytes } => {
                let open = self.lc.syscall_entry + self.lc.vfs_dispatch;
                let read = self.lc.syscall_entry + transfer_time(bytes, 2.0e9);
                for (sysno, service) in [
                    (Sysno::Open, open),
                    (Sysno::Read, read),
                    (Sysno::Close, open),
                ] {
                    (now, _) = self.linux_call(r, sysno, now, service);
                }
                now
            }
            HostOp::Nanosleep(d) => {
                // Local on both kernels; kernel handling is tiny, the
                // sleep itself is idle time.
                let cpu = Ns::micros(1);
                self.ranks[(r) - self.rank_base]
                    .kprof
                    .record(Sysno::Nanosleep, cpu);
                now + cpu + d
            }
        }
    }
}
