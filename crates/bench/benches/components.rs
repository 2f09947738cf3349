//! Micro-benches over the performance-critical components: the two SDMA
//! submission paths (the paper's fast path vs the Linux driver path),
//! DWARF extraction (the port-time cost), the cross-kernel ticket lock,
//! the per-core allocator's local vs remote free, the buddy allocator,
//! and a full simulated ping-pong as the end-to-end yardstick.
//!
//! Self-timed (`pico_bench::time_it`) — no external harness, runs with
//! `cargo bench -p pico-bench` fully offline.

use pico_bench::{report, time_it};
use pico_hfi1::structs::LayoutSet;
use pico_hfi1::{Hfi1Driver, HfiChip, HfiChipConfig, HfiDriverCosts};
use pico_linux::LinuxCosts;
use pico_mckernel::ScalableAllocator;
use pico_mem::{AddressSpace, BuddyAllocator, MapPolicy, PhysAddr, VirtAddr};
use picodriver::{FastPathCosts, HfiFastPath, HfiShadow, TicketLock};
use std::hint::black_box;
use std::sync::Arc;

const BASE: VirtAddr = VirtAddr(0x7000_0000_0000);

fn bench_sdma_paths() {
    for &size in &[64 * 1024u64, 1 << 20, 4 << 20] {
        // Fast path: page-table walk over contiguous large pages.
        {
            let layouts = LayoutSet::v10_8();
            let module = layouts.emit_module_binary();
            let shadow = HfiShadow::port(&module).unwrap();
            let mut fp = HfiFastPath::new(shadow, FastPathCosts::default(), false);
            let mut chip = HfiChip::new(HfiChipConfig::default(), 4);
            let driver = Hfi1Driver::new(layouts, HfiDriverCosts::default(), 16);
            let mut frames = BuddyAllocator::new(PhysAddr(0), 64 << 20);
            let mut space = AddressSpace::new(MapPolicy::ContiguousLarge, BASE);
            let (va, _) = space.mmap_anonymous(&mut frames, size, true).unwrap();
            let t = time_it(1000, 200, || {
                let sub = fp
                    .sdma_writev(&mut chip, &space, driver.sdma_state(0).bytes(), va, size, 0)
                    .unwrap();
                black_box(sub.nreqs);
            });
            report(&format!("sdma_fastpath_walk/{size}"), &t);
        }
        // Linux driver path: get_user_pages + 4 KiB requests.
        {
            let layouts = LayoutSet::v10_8();
            let mut driver = Hfi1Driver::new(layouts, HfiDriverCosts::default(), 16);
            let mut chip = HfiChip::new(HfiChipConfig::default(), 4);
            let mut frames = BuddyAllocator::new(PhysAddr(0), 64 << 20);
            let mut space = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
            let (va, _) = space.mmap_anonymous(&mut frames, size, false).unwrap();
            let (h, _, _) = driver.open(&mut chip).unwrap();
            let lc = LinuxCosts::default();
            let t = time_it(1000, 200, || {
                let sub = driver
                    .sdma_writev(&mut chip, &mut space, h, va, size, &lc)
                    .unwrap();
                driver.sdma_complete(&mut space, h, va, &lc).unwrap();
                black_box(sub.nreqs);
            });
            report(&format!("sdma_linux_gup/{size}"), &t);
        }
    }
}

fn bench_dwarf_port() {
    {
        let module = LayoutSet::v10_8().emit_module_binary();
        let t = time_it(50, 200, || {
            black_box(HfiShadow::port(&module).unwrap());
        });
        report("dwarf_extract_port", &t);
    }
    {
        let layouts = LayoutSet::v10_8();
        let t = time_it(50, 200, || {
            black_box(layouts.emit_module_binary());
        });
        report("dwarf_encode_module", &t);
    }
}

fn bench_ticket_lock() {
    {
        let lock = TicketLock::new(0u64);
        let t = time_it(10_000, 200, || {
            *lock.lock() += 1;
        });
        report("ticket_lock_uncontended", &t);
    }
    {
        let lock = Arc::new(TicketLock::new(0u64));
        let other = Arc::clone(&lock);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let th = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                *other.lock() += 1;
            }
        });
        let t = time_it(10_000, 200, || {
            *lock.lock() += 1;
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        th.join().unwrap();
        report("ticket_lock_2_threads", &t);
    }
}

fn bench_allocator() {
    {
        let a = ScalableAllocator::new(1, 1024);
        let t = time_it(10_000, 200, || {
            let blk = a.alloc(0).unwrap();
            a.free(0, blk).unwrap();
        });
        report("percore_alloc_local_free", &t);
    }
    {
        let a = ScalableAllocator::new(1, 1024);
        let t = time_it(10_000, 200, || {
            let blk = a.alloc(0).unwrap();
            // Freed from a "Linux CPU" (foreign): remote queue path.
            a.free(99, blk).unwrap();
        });
        report("percore_alloc_remote_free", &t);
    }
}

fn bench_buddy() {
    {
        let mut buddy = BuddyAllocator::new(PhysAddr(0), 256 << 20);
        let t = time_it(10_000, 200, || {
            let p = buddy.alloc(0).unwrap();
            buddy.free(p, 0).unwrap();
        });
        report("buddy_alloc_free_4k", &t);
    }
    {
        let mut buddy = BuddyAllocator::new(PhysAddr(0), 256 << 20);
        let t = time_it(10_000, 200, || {
            let p = buddy.alloc(9).unwrap();
            buddy.free(p, 9).unwrap();
        });
        report("buddy_alloc_free_2m", &t);
    }
    {
        // QBOX's Linux node: a 2,304 MiB pool fragmented at boot, then a
        // 16 MiB FFT workspace mapped from isolated 4 KiB frames and torn
        // down per step.
        let mut buddy = BuddyAllocator::new(PhysAddr(0), 2304 << 20);
        let _held = buddy.fragment(0.4);
        let mut space = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let t = time_it(20, 200, || {
            let (va, _) = space.mmap_anonymous(&mut buddy, 16 << 20, false).unwrap();
            black_box(space.munmap(&mut buddy, va).unwrap());
        });
        report("buddy_fragmented_scratch_16m", &t);
    }
    {
        // A whole QBOX node's worth: 32 live workspaces (512 MiB) exhaust
        // the pool's ~118k isolated frames, so the tail is split from
        // larger blocks and coalesces again on unmap. Reported per
        // map + unmap pair.
        let mut buddy = BuddyAllocator::new(PhysAddr(0), 2304 << 20);
        let _held = buddy.fragment(0.4);
        let mut space = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let t = time_it(5, 500, || {
            let vas: Vec<_> = (0..32)
                .map(|_| space.mmap_anonymous(&mut buddy, 16 << 20, false).unwrap().0)
                .collect();
            for va in vas.into_iter().rev() {
                black_box(space.munmap(&mut buddy, va).unwrap());
            }
        });
        let per_pair = pico_bench::BenchTiming {
            iters: t.iters * 32,
            ..t
        };
        report("buddy_fragmented_scratch_16m_x32", &per_pair);
    }
}

fn bench_full_pingpong() {
    use pico_apps::App;
    use pico_cluster::{paper_config, run_app, OsConfig};
    for os in OsConfig::ALL {
        let t = time_it(5, 500, || {
            let app = App::PingPong {
                bytes: 1 << 20,
                reps: 10,
            };
            let cfg = paper_config(os, app, 2, Some(1));
            black_box(run_app(cfg, app, 1).wall_time);
        });
        report(&format!("simulated_pingpong/{}", os.label()), &t);
    }
}

fn main() {
    bench_sdma_paths();
    bench_dwarf_port();
    bench_ticket_lock();
    bench_allocator();
    bench_buddy();
    bench_full_pingpong();
}
