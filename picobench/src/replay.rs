//! Per-layer replays: each layer's public entry points timed in a loop,
//! fed with the sizes and mixes the workload's own run produced (mean
//! sink length and wire bytes, rendezvous window, scratch size, live
//! events and wheel tier mix). A replay's host ns per call times that
//! run's call count, divided by the run's host time, estimates the share
//! of the run the layer accounts for.

use crate::trace::Tracer;
use pico_apps::App;
use pico_bench::time_it;
use pico_cluster::{ClusterConfig, OsConfig, RunResult};
use pico_fabric::{Fabric, TrainMember};
use pico_hfi1::structs::LayoutSet;
use pico_hfi1::{Hfi1Driver, HfiChip, HfiChipConfig, HfiDriverCosts};
use pico_ihk::{Delegator, Sysno};
use pico_linux::LinuxCosts;
use pico_mckernel::ScalableAllocator;
use pico_mem::{AddressSpace, BuddyAllocator, MapPolicy, PhysAddr, VirtAddr};
use pico_psm::{Endpoint, PsmAction, PsmConfig, PsmPacket, Tag};
use pico_sim::{transfer_time, EventQueue, Ns, Rng};
use picodriver::{HfiFastPath, HfiShadow};
use std::hint::black_box;

const MMAP_BASE: VirtAddr = VirtAddr(0x7000_0000_0000);

/// Host cost per call of each layer's entry points.
pub struct Replays {
    /// `EventQueue::schedule` + `pop`, ns per pair.
    pub queue_ns: f64,
    /// `Fabric::extend_sink`, ns per merged member.
    pub member_ns: f64,
    /// One eager message through two endpoints, ns.
    pub eager_ns: f64,
    /// One rendezvous message (RTS, CTS and data per window), ns.
    pub rndv_ns: f64,
    pub hfi1_writev_ns: f64,
    pub hfi1_tid_ns: f64,
    pub core_writev_ns: f64,
    pub core_tid_ns: f64,
    /// RcvArray entries a fast-path TID registration programs on a cache
    /// miss, over the rank's rendezvous windows.
    pub tid_entries_per_miss: f64,
    pub offload_ns: f64,
    pub mmap_munmap_ns: f64,
    pub alloc_free_ns: f64,
    pub remote_free_ns: f64,
    pub port_us: f64,
}

/// Call counts of one run, read from its `RunResult`, that the replays
/// are multiplied by.
pub struct Calls {
    pub mpi: u64,
    pub ioctl: u64,
    pub writev: u64,
    pub mmap: u64,
    pub munmap: u64,
    /// Rendezvous messages: SDMA windows over windows per message.
    pub rndv: u64,
    /// Eager data packets: PIO sends minus each rendezvous's RTS and CTSs.
    pub eager: u64,
}

impl Calls {
    pub fn of(r: &RunResult, windows_per_rndv: u64) -> Calls {
        let count = |s| r.kernel_profile.get(&s).0;
        let writev = count(Sysno::Writev);
        let rndv = writev / windows_per_rndv.max(1);
        Calls {
            mpi: r.mpi_profile.sorted_desc().iter().map(|&(_, c, _)| c).sum(),
            ioctl: count(Sysno::Ioctl),
            writev,
            mmap: count(Sysno::Mmap),
            munmap: count(Sysno::Munmap),
            rndv,
            eager: r.pio_sends.saturating_sub(rndv + writev),
        }
    }
}

/// What a workload's run fed each layer with.
pub struct Inputs {
    /// Events live in the queue at steady state: one pending wake per rank.
    pub live_events: usize,
    /// Members merged by one incast sink before it closes.
    pub sink_len: usize,
    /// Mean wire bytes of a fabric message.
    pub wire_bytes: u64,
    /// Eager payload: the mean wire size, within the eager threshold.
    pub eager_len: u64,
    /// Rendezvous message: the app's largest buffer above the eager
    /// threshold (one PSM window when it has none).
    pub rndv_len: u64,
    /// SDMA window / TID registration length.
    pub window_len: u64,
    pub scratch_len: u64,
    /// Rendezvous receive buffers of one rank.
    pub rndv_bufs: Vec<u64>,
}

impl Inputs {
    pub fn of(cfg: &ClusterConfig, app: App, r: &RunResult) -> Inputs {
        let spec = pico_apps::spec(app, cfg.shape);
        let psm = cfg.psm;
        let rndv_bufs: Vec<u64> = spec
            .buffer_bytes
            .iter()
            .copied()
            .filter(|&b| b > psm.eager_threshold)
            .collect();
        let rndv_len = rndv_bufs.iter().copied().max().unwrap_or(psm.window);
        let wire_bytes = (r.fabric_bytes / r.fabric_messages.max(1)).max(64);
        Inputs {
            live_events: cfg.shape.nranks() as usize,
            sink_len: (r.fabric_sink_members / r.fabric_sinks.max(1))
                .clamp(1, cfg.flow_member_cap as u64) as usize,
            wire_bytes,
            eager_len: wire_bytes.saturating_sub(64).clamp(8, psm.eager_threshold),
            rndv_len,
            window_len: rndv_len.min(psm.window),
            scratch_len: spec.scratch_bytes.max(4096),
            rndv_bufs: if rndv_bufs.is_empty() {
                vec![psm.window]
            } else {
                rndv_bufs
            },
        }
    }

    pub fn windows_per_rndv(&self, psm: &PsmConfig) -> u64 {
        self.rndv_len.div_ceil(psm.window)
    }
}

/// Physical memory like the workload's nodes boot with: the Linux buddy
/// fragmented by the configured churn, the LWK's left contiguous.
fn boot_frames(cfg: &ClusterConfig, os: OsConfig) -> BuddyAllocator {
    let mut frames = BuddyAllocator::new(PhysAddr(0), cfg.mem_per_node);
    if os == OsConfig::Linux {
        frames.fragment(cfg.host_fragmentation);
    } else if !cfg.lwk_large_pages {
        frames.fragment(1.0);
    }
    frames
}

fn policy(cfg: &ClusterConfig, os: OsConfig) -> (MapPolicy, bool) {
    match os {
        OsConfig::Linux => (MapPolicy::Fragmented4k, false),
        _ if cfg.lwk_large_pages => (MapPolicy::ContiguousLarge, true),
        _ => (MapPolicy::Fragmented4k, true),
    }
}

pub fn run(
    cfg: &ClusterConfig,
    r: &RunResult,
    inp: &Inputs,
    budget_ms: u64,
    tracer: &mut Tracer,
) -> Replays {
    let lc = LinuxCosts::default();
    let mut span = |name: &str, f: &mut dyn FnMut() -> f64| -> f64 {
        tracer.span("replay", format!("replay {name}"), |_| f())
    };

    let queue_ns = span("sim.queue", &mut || {
        replay_queue(
            r,
            inp.live_events,
            cfg.wheel_coarse_bits,
            cfg.seed,
            budget_ms,
        )
    });
    let member_ns = span("fabric.extend_sink", &mut || {
        replay_sink(cfg, inp, budget_ms)
    });
    let eager_ns = span("psm.eager", &mut || {
        replay_psm(cfg.psm, inp.eager_len, budget_ms)
    });
    let rndv_ns = span("psm.rndv", &mut || {
        replay_psm(cfg.psm, inp.rndv_len, budget_ms)
    });

    // The driver path runs on the workload's own memory; the fast path only
    // ever runs on the LWK's.
    let layouts = LayoutSet::v10_8();
    let mut driver = Hfi1Driver::new(layouts.clone(), HfiDriverCosts::default(), 16);
    let mut chip = HfiChip::new_compact(
        HfiChipConfig::default(),
        cfg.shape.ranks_per_node as usize + 2,
    );
    let (handle, ctxt, _) = driver.open(&mut chip).expect("replay device open");
    let mut frames = boot_frames(cfg, cfg.os);
    let (pol, pinned) = policy(cfg, cfg.os);
    let mut space = AddressSpace::new(pol, MMAP_BASE);
    let (va, _) = space
        .mmap_anonymous(&mut frames, inp.window_len, pinned)
        .expect("replay buffer mmap");
    let len = inp.window_len;
    let hfi1_writev_ns = span("hfi1.writev", &mut || {
        time_it(100, budget_ms, || {
            let sub = driver
                .sdma_writev(&mut chip, &mut space, handle, va, len, &lc)
                .expect("replay writev");
            driver
                .sdma_complete(&mut space, handle, va, &lc)
                .expect("replay sdma completion");
            black_box(sub.nreqs);
        })
        .ns_per_iter()
    });
    let hfi1_tid_ns = span("hfi1.tid_update", &mut || {
        time_it(100, budget_ms, || {
            let reg = driver
                .tid_update(&mut chip, &mut space, handle, va, len, &lc)
                .expect("replay tid_update");
            driver
                .tid_free(&mut chip, &mut space, handle, va, &reg.tids)
                .expect("replay tid_free");
        })
        .ns_per_iter()
    });
    let mmap_munmap_ns = span("mem.mmap_munmap", &mut || {
        time_it(20, budget_ms, || {
            let (va, _) = space
                .mmap_anonymous(&mut frames, inp.scratch_len, pinned)
                .expect("replay scratch mmap");
            space
                .munmap(&mut frames, va)
                .expect("replay scratch munmap");
        })
        .ns_per_iter()
    });
    drop(frames);

    let module = layouts.emit_module_binary();
    let port_us = span("dwarf.port", &mut || {
        time_it(5, budget_ms, || {
            black_box(HfiShadow::port(&module).expect("replay DWARF port"));
        })
        .ns_per_iter()
            / 1e3
    });
    let mut lwk_frames = boot_frames(cfg, OsConfig::McKernelHfi);
    let (lwk_pol, _) = policy(cfg, OsConfig::McKernelHfi);
    let mut lwk_space = AddressSpace::new(lwk_pol, MMAP_BASE);
    let windows: Vec<(VirtAddr, u64)> = inp
        .rndv_bufs
        .iter()
        .flat_map(|&bytes| {
            let (base, _) = lwk_space
                .mmap_anonymous(&mut lwk_frames, bytes, true)
                .expect("replay LWK buffer mmap");
            let w = cfg.psm.window;
            (0..bytes.div_ceil(w)).map(move |i| (base + i * w, w.min(bytes - i * w)))
        })
        .collect();
    let shadow = HfiShadow::port(&module).expect("replay DWARF port");
    let mut fast = HfiFastPath::new(shadow, Default::default(), cfg.tid_cache);
    fast.sdma_cap = cfg.sdma_cap;
    // First registration of each window, on the still-empty cache: the
    // RcvArray entries one TID cache miss programs.
    let programmed: u64 = windows
        .iter()
        .map(|&(va, len)| {
            let reg = fast
                .tid_update(&mut chip, &lwk_space, ctxt, va, len)
                .expect("replay fast tid_update");
            fast.tid_free(&mut chip, ctxt, va, len, &reg.tids, false)
                .expect("replay fast tid_free");
            reg.entries
        })
        .sum();
    let tid_entries_per_miss = programmed as f64 / windows.len() as f64;
    let state = driver.sdma_state(0).bytes();
    let (wva, wlen) = windows[0];
    let core_writev_ns = span("core.writev", &mut || {
        time_it(100, budget_ms, || {
            let sub = fast
                .sdma_writev(&mut chip, &lwk_space, state, wva, wlen, 0)
                .expect("replay fast writev");
            black_box(sub.nreqs);
        })
        .ns_per_iter()
    });
    let mut k = 0usize;
    let core_tid_ns = span("core.tid_update", &mut || {
        time_it(100, budget_ms, || {
            let (va, len) = windows[k % windows.len()];
            k += 1;
            let reg = fast
                .tid_update(&mut chip, &lwk_space, ctxt, va, len)
                .expect("replay fast tid_update");
            fast.tid_free(&mut chip, ctxt, va, len, &reg.tids, false)
                .expect("replay fast tid_free");
        })
        .ns_per_iter()
    });

    let offload_ns = span("ihk.offload", &mut || {
        replay_offload(cfg, r, &lc, budget_ms)
    });
    let pool = ScalableAllocator::new(cfg.shape.ranks_per_node as usize, 8192);
    let alloc_free_ns = span("mckernel.alloc_free", &mut || {
        time_it(1000, budget_ms, || {
            let b = pool.alloc(0).expect("replay alloc");
            pool.free(0, b).expect("replay local free");
        })
        .ns_per_iter()
    });
    let remote_free_ns = span("mckernel.remote_free", &mut || {
        // A Linux CPU (outside the LWK partition) frees the block.
        time_it(1000, budget_ms, || {
            let b = pool.alloc(0).expect("replay alloc");
            pool.free(u32::MAX, b).expect("replay remote free");
        })
        .ns_per_iter()
    });

    Replays {
        queue_ns,
        member_ns,
        eager_ns,
        rndv_ns,
        hfi1_writev_ns,
        hfi1_tid_ns,
        core_writev_ns,
        core_tid_ns,
        tid_entries_per_miss,
        offload_ns,
        mmap_munmap_ns,
        alloc_free_ns,
        remote_free_ns,
        port_us,
    }
}

/// Schedule/pop churn over `live` events whose delays follow the run's
/// wheel placement: same-timestamp appends at the run's share, the rest
/// spread over pages ahead of the cursor by the run's span histogram.
fn replay_queue(r: &RunResult, live: usize, coarse_bits: u32, seed: u64, budget_ms: u64) -> f64 {
    let prof = &r.wheel_profile;
    let mut weights = prof.span_hist;
    // Bucket 1 (the current page) also holds the same-timestamp appends.
    weights[1] = weights[1].saturating_sub(prof.sched_run);
    let spread: u64 = weights.iter().sum();
    let mut rng = Rng::new(seed);
    let delays: Vec<u64> = (0..4096)
        .map(|_| {
            if spread == 0 || rng.gen_range(prof.total().max(1)) < prof.sched_run {
                return 0;
            }
            let mut x = rng.gen_range(spread);
            let bucket = weights
                .iter()
                .position(|&w| {
                    if x < w {
                        return true;
                    }
                    x -= w;
                    false
                })
                .expect("draw below the histogram total");
            // Bucket b holds page distances d with bit_length(d + 1) == b.
            let lo = (1u64 << bucket.max(1).saturating_sub(1)) - 1;
            let pages = lo + rng.gen_range(lo + 1);
            (pages << 10) + rng.gen_range(1 << 10)
        })
        .collect();
    let mut q = EventQueue::with_coarse_bits(coarse_bits);
    for i in 0..live.max(1) {
        q.schedule(Ns(rng.gen_range(4096)), i as u32);
    }
    let mut k = 0usize;
    time_it(10_000, budget_ms, || {
        let (t, ev) = q.pop().expect("the replay queue never empties");
        q.schedule(Ns(t.0 + delays[k & 4095]), black_box(ev));
        k += 1;
    })
    .ns_per_iter()
}

/// Whole sinks of the run's mean length and wire size, merged from
/// rotating sources into one destination's downlink.
fn replay_sink(cfg: &ClusterConfig, inp: &Inputs, budget_ms: u64) -> f64 {
    let nodes = (cfg.shape.nodes as usize).max(2);
    let mut fabric = Fabric::new(cfg.fabric, nodes);
    let bytes = inp.wire_bytes;
    let gap = transfer_time(bytes, cfg.fabric.link_bw).0.max(1);
    let mut members = vec![
        TrainMember {
            at: Ns::ZERO,
            bytes,
            nreqs: bytes.div_ceil(8 * 1024),
        };
        inp.sink_len
    ];
    let mut out = Vec::with_capacity(inp.sink_len);
    let (mut now, mut src) = (0u64, 1usize);
    let t = time_it(100, budget_ms, || {
        for m in members.iter_mut() {
            m.at = Ns(now);
            now += gap;
        }
        out.clear();
        fabric.extend_sink(src, 0, &members, 0, &mut out);
        black_box(&out);
        src = if src + 1 < nodes { src + 1 } else { 1 };
    });
    t.ns_per_iter() / inp.sink_len as f64
}

/// One `len`-byte message between ranks on two nodes: `isend`, `irecv`
/// and every `on_packet` the protocol needs, with the host side (TID
/// registration, SDMA) answered instantly.
fn replay_psm(psm: PsmConfig, len: u64, budget_ms: u64) -> f64 {
    let ranks = [0, psm.ranks_per_node.max(1)];
    let mut eps = ranks.map(|r| Endpoint::new(r, psm));
    let mut actions = Vec::new();
    time_it(100, budget_ms, || {
        eps[0].isend(ranks[1], Tag(7), 0, len, None);
        eps[1].irecv(Some(ranks[0]), Tag(7), 0, len);
        let mut completed = 0;
        while completed < 2 {
            for side in 0..2 {
                let peer = 1 - side;
                eps[side].drain_actions_into(&mut actions);
                for a in actions.drain(..) {
                    match a {
                        PsmAction::PioSend { packet, .. } => {
                            eps[peer].on_packet(ranks[side], packet)
                        }
                        PsmAction::TidRegister {
                            src,
                            msg_id,
                            window,
                            ..
                        } => eps[side].on_tid_registered(src, msg_id, window, vec![0]),
                        PsmAction::TidUnregister { .. } => {}
                        PsmAction::SdmaSend {
                            msg_id,
                            window,
                            len,
                            payload,
                            ..
                        } => {
                            eps[peer].on_packet(
                                ranks[side],
                                PsmPacket::SdmaData {
                                    msg_id,
                                    window,
                                    len,
                                    payload,
                                },
                            );
                            eps[side].on_sdma_sent(msg_id, window);
                        }
                        PsmAction::Completed { .. } => completed += 1,
                    }
                }
            }
        }
    })
    .ns_per_iter()
}

/// Offloads arriving at one node's service cores at the run's mean
/// per-node rate.
fn replay_offload(cfg: &ClusterConfig, r: &RunResult, lc: &LinuxCosts, budget_ms: u64) -> f64 {
    let mut d = Delegator::new(cfg.ikc, cfg.service_cores);
    let gap = (r.wall_time.0 * u64::from(cfg.shape.nodes) / r.offloaded_calls.max(1)).max(1);
    let service = lc.syscall_entry + lc.vfs_dispatch;
    let mut now = 0u64;
    time_it(1000, budget_ms, || {
        black_box(d.offload(Ns(now), Sysno::Ioctl, service));
        now += gap;
    })
    .ns_per_iter()
}
