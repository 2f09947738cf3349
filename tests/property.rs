//! Property-based tests on the core data structures and invariants.
//!
//! Driven by the in-tree deterministic [`Rng`] (seeded per case) rather
//! than an external property-testing framework, so they run fully
//! offline. Each property loops over many generated cases; a failure
//! message includes the case seed, which reproduces the input exactly.

use pico_dwarf::leb128;
use pico_mem::buddy::{block_size, MAX_ORDER};
use pico_mem::{
    AddressSpace, BuddyAllocator, BuddyError, MapPolicy, PageSize, PageTable, PhysAddr, VirtAddr,
    PAGE_1G, PAGE_2M, PAGE_4K,
};
use pico_mpi::coll;
use pico_sim::{EventQueue, HeapEventQueue, Ns, Rng, ServerPool};
use std::collections::BTreeSet;

/// Per-case RNG: one master seed per property, split by case index.
fn case_rng(master: u64, case: u64) -> Rng {
    Rng::new(master ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// LEB128 round-trips for arbitrary integers.
#[test]
fn leb128_round_trip() {
    let edges_u = [0u64, 1, 127, 128, u64::MAX];
    let edges_s = [0i64, -1, 63, -64, 64, i64::MIN, i64::MAX];
    let mut cases: Vec<(u64, i64)> = edges_u
        .iter()
        .flat_map(|&v| edges_s.iter().map(move |&s| (v, s)))
        .collect();
    for case in 0..256 {
        let mut r = case_rng(0x001E_B128, case);
        cases.push((r.next_u64(), r.next_u64() as i64));
    }
    for (v, s) in cases {
        let mut buf = Vec::new();
        leb128::write_uleb128(&mut buf, v);
        let mut pos = 0;
        assert_eq!(leb128::read_uleb128(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len());

        let mut buf = Vec::new();
        leb128::write_sleb128(&mut buf, s);
        let mut pos = 0;
        assert_eq!(leb128::read_sleb128(&buf, &mut pos).unwrap(), s, "sleb {s}");
    }
}

/// Reference model for [`BuddyAllocator`]: the same algorithm over
/// per-order `BTreeSet`s of free block addresses, the simplest layout
/// that returns the lowest-addressed block.
#[derive(Clone)]
struct RefBuddy {
    base: u64,
    size: u64,
    free: Vec<BTreeSet<u64>>,
    allocated: u64,
}

impl RefBuddy {
    fn new(base: u64, size: u64) -> RefBuddy {
        let mut b = RefBuddy {
            base,
            size,
            free: vec![BTreeSet::new(); MAX_ORDER as usize + 1],
            allocated: 0,
        };
        let mut cur = 0;
        while cur < size {
            let order = (0..=MAX_ORDER)
                .rev()
                .find(|&o| cur.is_multiple_of(block_size(o)) && cur + block_size(o) <= size)
                .unwrap();
            b.free[order as usize].insert(base + cur);
            cur += block_size(order);
        }
        b
    }

    fn alloc(&mut self, order: u8) -> Result<PhysAddr, BuddyError> {
        let mut o = (order..=MAX_ORDER)
            .find(|&o| !self.free[o as usize].is_empty())
            .ok_or(BuddyError::OutOfMemory)?;
        let addr = self.free[o as usize].pop_first().unwrap();
        while o > order {
            o -= 1;
            self.free[o as usize].insert(addr + block_size(o));
        }
        self.allocated += block_size(order);
        Ok(PhysAddr(addr))
    }

    fn free(&mut self, addr: PhysAddr, order: u8) -> Result<(), BuddyError> {
        let bs = block_size(order);
        if order > MAX_ORDER
            || addr.0 < self.base
            || addr.0 + bs > self.base + self.size
            || !(addr.0 - self.base).is_multiple_of(bs)
        {
            return Err(BuddyError::BadFree);
        }
        // The block must overlap no free block of any order.
        if self.free.iter().enumerate().any(|(o, set)| {
            let reach = (addr.0 + 1).saturating_sub(block_size(o as u8));
            set.range(reach..addr.0 + bs).next().is_some()
        }) {
            return Err(BuddyError::BadFree);
        }
        let (mut addr, mut order) = (addr.0, order);
        while order < MAX_ORDER {
            let buddy = self.base + ((addr - self.base) ^ block_size(order));
            if buddy + block_size(order) > self.base + self.size
                || !self.free[order as usize].remove(&buddy)
            {
                break;
            }
            addr = addr.min(buddy);
            order += 1;
        }
        self.free[order as usize].insert(addr);
        self.allocated -= bs;
        Ok(())
    }

    fn clone_rebased(&self, delta: u64) -> RefBuddy {
        RefBuddy {
            base: self.base + delta,
            free: self
                .free
                .iter()
                .map(|set| set.iter().map(|a| a + delta).collect())
                .collect(),
            ..*self
        }
    }

    fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free[o as usize].is_empty())
    }

    /// `n` calls of `alloc(0)`, stopping at the first failure.
    fn alloc_pages(&mut self, n: usize, out: &mut Vec<PhysAddr>) -> Result<(), BuddyError> {
        for _ in 0..n {
            out.push(self.alloc(0)?);
        }
        Ok(())
    }

    /// One `free(pa, 0)` per frame; refused if any of them was.
    fn free_pages(&mut self, frames: &[PhysAddr]) -> Result<(), BuddyError> {
        let refused = frames.iter().filter(|&&pa| self.free(pa, 0).is_err());
        match refused.count() {
            0 => Ok(()),
            _ => Err(BuddyError::BadFree),
        }
    }

    fn fragment(&mut self, fraction: f64) -> Vec<PhysAddr> {
        let pages = ((self.size as f64 * fraction) / PAGE_4K as f64) as u64;
        let taken: Vec<_> = (0..pages).map_while(|_| self.alloc(0).ok()).collect();
        let mut kept = Vec::new();
        for (i, p) in taken.into_iter().enumerate() {
            if i % 2 == 0 {
                kept.push(p);
            } else {
                self.free(p, 0).unwrap();
            }
        }
        kept
    }
}

/// The buddy allocator conserves memory under arbitrary alloc/free
/// interleavings, never double-allocates a region, and makes exactly the
/// choices of the `BTreeSet` reference model: every `alloc`/`free`
/// result (bad and double frees included, and the free of a block one of
/// whose frames was freed first), `allocated()` and
/// `largest_free_order()` match, across `fragment`, a `clone_rebased`
/// partway through, non-zero bases and non-power-of-two sizes.
#[test]
fn buddy_conservation() {
    for case in 0..64 {
        let mut r = case_rng(0x000B_0DD7, case);
        let nops = 1 + r.gen_range(200) as usize;
        let base = if case % 2 == 0 {
            0
        } else {
            r.gen_range(1 << 20) * PAGE_4K
        };
        let size = if case % 4 < 2 {
            16 << 20
        } else {
            (16 << 20) + (1 + r.gen_range(4095)) * PAGE_4K
        };
        let mut b = BuddyAllocator::new(PhysAddr(base), size);
        let mut oracle = RefBuddy::new(base, size);
        let cap = b.capacity();
        let mut live: Vec<(PhysAddr, u8)> = Vec::new();
        if r.chance(0.3) {
            let fraction = r.gen_range(60) as f64 / 100.0;
            let held = b.fragment(fraction);
            assert_eq!(held, oracle.fragment(fraction), "case {case}");
            live.extend(held.into_iter().map(|p| (p, 0)));
        }
        let overlaps_live = |live: &[(PhysAddr, u8)], pa: u64, size: u64| {
            live.iter()
                .any(|&(l, o)| pa < l.0 + block_size(o) && l.0 < pa + size)
        };
        for step in 0..nops {
            if step == nops / 2 {
                let delta = (1 + r.gen_range(64)) << 40;
                b = b.clone_rebased(delta);
                oracle = oracle.clone_rebased(delta);
                for (pa, _) in live.iter_mut() {
                    pa.0 += delta;
                }
            }
            let order = r.gen_range(6) as u8;
            if r.chance(0.5) && !live.is_empty() {
                let (pa, o) = live.swap_remove(live.len() / 2);
                assert_eq!(b.free(pa, o), Ok(()), "case {case}");
                assert_eq!(oracle.free(pa, o), Ok(()), "case {case}");
                // A double free, and the free of a 4 KiB sub-block of
                // what is now (part of) a coalesced free block.
                let sub = pa.0 + r.gen_range(block_size(o) / PAGE_4K) * PAGE_4K;
                for (a, ao) in [(pa, o), (PhysAddr(sub), 0)] {
                    assert_eq!(b.free(a, ao), Err(BuddyError::BadFree), "case {case}");
                    assert_eq!(oracle.free(a, ao), Err(BuddyError::BadFree), "case {case}");
                }
            } else if r.chance(0.1) && live.iter().any(|&(_, o)| o > 0) {
                // Free a non-first 4 KiB frame of a live block, then the
                // whole block: it now overlaps free memory and must be
                // refused. Its other frames stay live as single frames.
                let i = live.iter().rposition(|&(_, o)| o > 0).expect("checked");
                let (pa, o) = live.swap_remove(i);
                let pages = block_size(o) / PAGE_4K;
                let k = 1 + r.gen_range(pages - 1);
                let sub = PhysAddr(pa.0 + k * PAGE_4K);
                assert_eq!(b.free(sub, 0), Ok(()), "case {case}");
                assert_eq!(oracle.free(sub, 0), Ok(()), "case {case}");
                assert_eq!(b.free(pa, o), Err(BuddyError::BadFree), "case {case}");
                assert_eq!(oracle.free(pa, o), Err(BuddyError::BadFree), "case {case}");
                live.extend(
                    (0..pages)
                        .filter(|&j| j != k)
                        .map(|j| (PhysAddr(pa.0 + j * PAGE_4K), 0)),
                );
            } else if r.chance(0.2) {
                // A wild free that overlaps no live block: misaligned, out
                // of range or over free memory, it must be refused.
                let page = r.gen_range(cap / PAGE_4K + 2) * PAGE_4K;
                let skew = if r.chance(0.1) { 0x10 } else { 0 };
                let pa = PhysAddr((oracle.base + page + skew).saturating_sub(PAGE_4K));
                let o = r.gen_range(MAX_ORDER as u64 + 2) as u8;
                if !overlaps_live(&live, pa.0, block_size(o)) {
                    assert_eq!(b.free(pa, o), Err(BuddyError::BadFree), "case {case}");
                    assert_eq!(oracle.free(pa, o), Err(BuddyError::BadFree), "case {case}");
                }
            } else {
                let got = b.alloc(order);
                assert_eq!(got, oracle.alloc(order), "case {case}");
                if let Ok(pa) = got {
                    let size = block_size(order);
                    assert!(
                        !overlaps_live(&live, pa.0, size),
                        "case {case} overlap at {pa:?}"
                    );
                    live.push((pa, order));
                }
            }
            let live_bytes: u64 = live.iter().map(|&(_, o)| block_size(o)).sum();
            assert_eq!(b.allocated(), live_bytes, "case {case}");
            assert_eq!(oracle.allocated, live_bytes, "case {case}");
            assert_eq!(b.free_bytes(), cap - live_bytes, "case {case}");
            assert_eq!(
                b.largest_free_order(),
                oracle.largest_free_order(),
                "case {case}"
            );
        }
        for (pa, o) in live {
            assert_eq!(b.free(pa, o), Ok(()), "case {case}");
            assert_eq!(oracle.free(pa, o), Ok(()), "case {case}");
        }
        assert_eq!(b.allocated(), 0, "case {case}");
        assert_eq!(
            b.largest_free_order(),
            oracle.largest_free_order(),
            "case {case}"
        );
    }
}

/// `alloc_pages(n)` and `free_pages` make exactly the choices of `n`
/// calls of `alloc(0)` and of one `free(pa, 0)` per frame on the
/// reference model: the same frames in the same order, the same prefix
/// and error when memory runs out mid-run, and `BadFree` for batches
/// with duplicate, misaligned, out-of-range or already-free frames. On
/// partly fragmented pools the runs drain the order-0 holes and go on by
/// splitting, and freed batches hold frames whose buddy is free (the
/// single-frame fallback).
#[test]
fn buddy_batch_calls_match_single_frame_calls() {
    for case in 0..48 {
        let mut r = case_rng(0x00BA_7C4E, case);
        let base = if case % 2 == 0 {
            0
        } else {
            r.gen_range(1 << 20) * PAGE_4K
        };
        let size = ((1 + r.gen_range(8)) << 20) + r.gen_range(256) * PAGE_4K;
        let pages = size / PAGE_4K;
        let mut b = BuddyAllocator::new(PhysAddr(base), size);
        let mut oracle = RefBuddy::new(base, size);
        let mut live = Vec::new();
        if r.chance(0.7) {
            let fraction = r.gen_range(80) as f64 / 100.0;
            let held = b.fragment(fraction);
            assert_eq!(held, oracle.fragment(fraction), "case {case}");
            live.extend(held);
        }
        let mut freed: Vec<PhysAddr> = Vec::new();
        for _ in 0..24 {
            if r.chance(0.5) {
                let n = r.gen_range(pages / 3) as usize;
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let res = b.alloc_pages(n, &mut got);
                assert_eq!(res, oracle.alloc_pages(n, &mut want), "case {case}");
                assert_eq!(got, want, "case {case}");
                live.extend(got);
            } else {
                let mut batch = Vec::new();
                for _ in 0..r.gen_range(live.len() as u64 + 1) {
                    let i = r.gen_range(live.len() as u64) as usize;
                    batch.push(live.swap_remove(i));
                }
                for _ in 0..r.gen_range(4) {
                    let bad = match r.gen_range(5) {
                        0 if !batch.is_empty() => batch[r.gen_range(batch.len() as u64) as usize],
                        1 => PhysAddr(base + r.gen_range(pages) * PAGE_4K + 0x10),
                        2 => PhysAddr(base + size + r.gen_range(4) * PAGE_4K),
                        3 if base > 0 => PhysAddr(base - PAGE_4K),
                        _ if !freed.is_empty() => freed[r.gen_range(freed.len() as u64) as usize],
                        _ => PhysAddr(base + size),
                    };
                    let at = r.gen_range(batch.len() as u64 + 1) as usize;
                    batch.insert(at, bad);
                }
                let res = b.free_pages(&batch);
                assert_eq!(res, oracle.free_pages(&batch), "case {case}");
                freed.extend(batch);
            }
            assert_eq!(b.allocated(), oracle.allocated, "case {case}");
            assert_eq!(
                b.largest_free_order(),
                oracle.largest_free_order(),
                "case {case}"
            );
        }
        // Draining both hands out every remaining free frame in order.
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let res = b.alloc_pages(pages as usize, &mut got);
        assert_eq!(
            res,
            oracle.alloc_pages(pages as usize, &mut want),
            "case {case}"
        );
        assert_eq!(got, want, "case {case}");
    }
}

/// `map_4k_run` and `unmap_range` leave a page table exactly as the
/// per-page `map` and `unmap` calls they stand for: the same error and
/// mapped-prefix count, the same `mapped_pages` and translations, and
/// the same tree of tables, so every table a range unmap empties is
/// freed. Runs cross 2 MiB and 1 GiB boundaries and collide with
/// existing 4 KiB and 2 MiB leaves.
#[test]
fn page_table_spans_match_per_page_calls() {
    for case in 0..32 {
        let mut r = case_rng(0x0005_9A45, case);
        let (mut span, mut model) = (PageTable::new(), PageTable::new());
        // Eight 2 MiB slots around a 1 GiB boundary.
        let origin = (1 + r.gen_range(4)) * PAGE_1G - 4 * PAGE_2M;
        let window = 8 * PAGE_2M / PAGE_4K;
        for _ in 0..16 {
            let va = VirtAddr(origin + r.gen_range(window) * PAGE_4K);
            match r.gen_range(4) {
                0 => {
                    let (at, size) = if r.chance(0.5) {
                        (va.align_down(PAGE_2M), PageSize::Size2M)
                    } else {
                        (va, PageSize::Size4K)
                    };
                    let pa = PhysAddr(r.gen_range(1 << 20) * size.bytes());
                    assert_eq!(span.map(at, pa, size, 0), model.map(at, pa, size, 0));
                }
                1 | 2 => {
                    let n = r.gen_range(1200) as usize;
                    let frames: Vec<_> = (0..n)
                        .map(|_| {
                            let skew = if r.chance(0.0005) { 0x10 } else { 0 };
                            PhysAddr(r.gen_range(1 << 30) * PAGE_4K + skew)
                        })
                        .collect();
                    let fl = r.gen_range(16) as u8;
                    let want = frames.iter().enumerate().try_for_each(|(i, &pa)| {
                        let page = va + i as u64 * PAGE_4K;
                        model
                            .map(page, pa, PageSize::Size4K, fl)
                            .map_err(|e| (i, e))
                    });
                    assert_eq!(span.map_4k_run(va, &frames, fl), want, "case {case}");
                }
                _ => {
                    let len = r.gen_range(1500) * PAGE_4K;
                    let want = (0..len / PAGE_4K)
                        .filter(|i| model.unmap(va + i * PAGE_4K).is_ok())
                        .count() as u64;
                    assert_eq!(span.unmap_range(va, len), want, "case {case}");
                }
            }
            assert_eq!(span.mapped_pages(), model.mapped_pages(), "case {case}");
            assert_eq!(format!("{span:?}"), format!("{model:?}"), "case {case}");
        }
        for i in 0..window + 1200 {
            let page = VirtAddr(origin + i * PAGE_4K);
            assert_eq!(span.translate(page), model.translate(page), "case {case}");
        }
        // Unmapping everything leaves only the (empty) root.
        span.unmap_range(VirtAddr(0), 1 << 47);
        assert_eq!(span.mapped_pages(), 0, "case {case}");
        assert_eq!(format!("{span:?}"), format!("{:?}", PageTable::new()));
    }
}

/// Whatever the allocation policy and mapping size, the physically
/// contiguous runs of a mapping exactly tile its length, and every
/// byte translates to where the run walk says it is.
#[test]
fn contiguous_runs_tile_mappings() {
    for case in 0..48 {
        let mut r = case_rng(0x00C0_4716, case);
        let kb = 4 + r.gen_range(508);
        let contiguous = case % 2 == 0;
        let frag = (case / 2) % 2 == 0;
        let mut frames = BuddyAllocator::new(PhysAddr(0), 64 << 20);
        let _held;
        if frag {
            _held = frames.fragment(0.5);
        }
        let policy = if contiguous {
            MapPolicy::ContiguousLarge
        } else {
            MapPolicy::Fragmented4k
        };
        let mut asp = AddressSpace::new(policy, VirtAddr(0x7000_0000_0000));
        let len = kb * 1024;
        let (va, _) = asp.mmap_anonymous(&mut frames, len, true).unwrap();
        let (runs, _) = asp.contiguous_runs(va, len).unwrap();
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, len, "case {case}");
        // Runs are maximal: adjacent runs are not physically contiguous.
        for w in runs.windows(2) {
            assert_ne!(w[0].pa.0 + w[0].len, w[1].pa.0, "case {case}");
        }
        // Spot-check translations at run boundaries.
        let mut off = 0;
        for run in &runs {
            let t = asp.translate(va + off).unwrap();
            assert_eq!(t.pa, run.pa, "case {case}");
            off += run.len;
        }
    }
}

/// Request counting: the number of SDMA requests for a buffer is
/// exactly sum(ceil(run/cap)) and is monotonically non-increasing in
/// the cap.
#[test]
fn request_counts_monotone_in_cap() {
    for case in 0..32 {
        let mut r = case_rng(0x5D3A, case);
        let kb = 64 + r.gen_range(960);
        let mut frames = BuddyAllocator::new(PhysAddr(0), 64 << 20);
        let mut asp = AddressSpace::new(MapPolicy::ContiguousLarge, VirtAddr(0x7000_0000_0000));
        let len = kb * 1024;
        let (va, _) = asp.mmap_anonymous(&mut frames, len, true).unwrap();
        let (runs, _) = asp.contiguous_runs(va, len).unwrap();
        let count = |cap: u64| -> u64 { runs.iter().map(|r| r.len.div_ceil(cap)).sum() };
        let c4 = count(4 * 1024);
        let c8 = count(8 * 1024);
        let c10 = count(10 * 1024);
        assert!(c4 >= c8 && c8 >= c10, "case {case}");
        assert_eq!(c4, len.div_ceil(PAGE_4K).max(1), "case {case}");
    }
}

/// Every collective schedule pairs up: if a sends to b in round k,
/// b receives from a in round k (for arbitrary job sizes).
#[test]
fn collective_schedules_pair() {
    for case in 0..64 {
        let mut rng = case_rng(0x00C0_11EC, case);
        let n = 2 + rng.gen_range(68) as u32;
        let root = rng.gen_range(n as u64) as u32;
        for round in 0..coll::dissemination_rounds(n) {
            for r in 0..n {
                let x = coll::dissemination_round(r, n, round);
                if let Some(dst) = x.send_to {
                    assert_eq!(
                        coll::dissemination_round(dst, n, round).recv_from,
                        Some(r),
                        "case {case}"
                    );
                }
            }
        }
        for round in 0..coll::bcast_rounds(n) {
            for r in 0..n {
                let x = coll::bcast_round(r, n, root, round);
                if let Some(dst) = x.send_to {
                    assert_eq!(
                        coll::bcast_round(dst, n, root, round).recv_from,
                        Some(r),
                        "case {case}"
                    );
                }
            }
        }
        for round in 0..coll::scan_rounds(n) {
            for r in 0..n {
                let x = coll::scan_round(r, n, round);
                if let Some(dst) = x.send_to {
                    assert_eq!(
                        coll::scan_round(dst, n, round).recv_from,
                        Some(r),
                        "case {case}"
                    );
                }
            }
        }
    }
}

/// The FIFO server pool never starts a job before its submission,
/// never overlaps more jobs than servers, and work is conserved.
#[test]
fn server_pool_sanity() {
    for case in 0..48 {
        let mut r = case_rng(0x0005_E4E5, case);
        let servers = 1 + r.gen_range(7) as usize;
        let njobs = 1 + r.gen_range(99) as usize;
        let mut pool = ServerPool::new(servers);
        let mut total = Ns::ZERO;
        let mut intervals = Vec::new();
        let mut t = 0u64;
        for _ in 0..njobs {
            let gap = r.gen_range(1000);
            let service = 1 + r.gen_range(499);
            t += gap;
            let g = pool.submit(Ns(t), Ns(service));
            assert!(g.start >= Ns(t), "case {case}");
            assert_eq!(g.finish - g.start, Ns(service), "case {case}");
            assert!(g.server < servers, "case {case}");
            total += Ns(service);
            intervals.push((g.server, g.start, g.finish));
        }
        assert_eq!(pool.busy_time(), total, "case {case}");
        // Per-server intervals never overlap.
        for s in 0..servers {
            let mut iv: Vec<_> = intervals.iter().filter(|&&(sv, _, _)| sv == s).collect();
            iv.sort_by_key(|&&(_, st, _)| st);
            for w in iv.windows(2) {
                assert!(w[0].2 <= w[1].1, "case {case} server {s} overlap");
            }
        }
    }
}

/// RNG distributions stay in range for arbitrary seeds.
#[test]
fn rng_ranges() {
    for case in 0..256 {
        let mut r = case_rng(0x4A6D_5EED, case);
        let bound = 1 + r.next_u64() % 1_000_000;
        for _ in 0..100 {
            assert!(r.gen_range(bound) < bound);
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }
}

/// The timing-wheel [`EventQueue`] pops the exact `(time, seq)` sequence
/// of the reference binary-heap model under arbitrary schedule/pop
/// interleavings — near, same-timestamp, cross-page, coarse-ring and
/// far-future deltas, including draining to empty and refilling
/// (window resets).
#[test]
fn wheel_pops_heap_sequence() {
    for case in 0..32 {
        let mut r = case_rng(0x0003_EE10_FEA9, case);
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        let mut next_id = 0u32;
        for _ in 0..4000 {
            if r.chance(0.55) {
                let dt = match r.gen_range(6) {
                    0 => 0,                                // same-timestamp storm
                    1 => r.gen_range(1024),                // same page
                    2 => r.gen_range(1 << 20),             // fine horizon
                    3 => (1 << 20) + r.gen_range(1 << 24), // coarse ring
                    4 => (1 << 26) + r.gen_range(1 << 28), // overflow heap
                    _ => r.gen_range(64),                  // near
                };
                let at = Ns(wheel.now().0 + dt);
                wheel.schedule(at, next_id);
                heap.schedule(at, next_id);
                next_id += 1;
            } else {
                assert_eq!(wheel.pop(), heap.pop(), "case {case}");
            }
            assert_eq!(wheel.len(), heap.len(), "case {case}");
            assert_eq!(wheel.peek_time(), heap.peek_time(), "case {case}");
        }
        while let Some(got) = wheel.pop() {
            assert_eq!(Some(got), heap.pop(), "case {case} drain");
        }
        assert!(heap.pop().is_none(), "case {case}");
        assert_eq!(wheel.events_processed(), heap.events_processed());
    }
}

/// Per-link and per-node sinks are pure event-count optimizations: both
/// coalescing modes must produce the same physics as the per-packet
/// reference model. Wall time must match within the documented
/// tolerance (DESIGN.md "Packet trains" / "Fabric sinks": 0.1% on these
/// configs; coalesced delivery can reorder library entry against
/// unrelated events, so bit-equality is not guaranteed for every
/// workload), and the conserved quantities — ranks finished, payloads
/// delivered, fabric bytes/messages — must be exactly equal.
///
/// Every config runs on 2 nodes, where each destination has one source:
/// a per-node sink then holds exactly what the per-link sink holds, so
/// `Flows` and `Incast` must agree on everything, engine counters
/// included.
#[test]
fn packet_trains_match_per_packet_reference() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, FabricMode, OsConfig, World};

    let apps = [
        (
            App::PingPong {
                bytes: 8 * 1024,
                reps: 6,
            },
            1,
            1u32,
        ), // eager PIO
        (
            App::PingPong {
                bytes: 256 * 1024,
                reps: 4,
            },
            1,
            1,
        ), // 1-window rendezvous
        (
            App::PingPong {
                bytes: 2 << 20,
                reps: 3,
            },
            1,
            1,
        ), // 4-window train
        (App::Umt2013, 2, 2), // halo exchange
        (App::Hacc, 2, 2),    // overlapped isends
        (App::Nekbone, 2, 1), // CG allreduce
        (App::Lammps, 2, 1),  // neighbor exchange
        (
            App::PingPong {
                bytes: 4 << 20,
                reps: 2,
            },
            1,
            1,
        ), // 8-window train
    ];
    let mut case = 0u64;
    for (app, rpn, iters) in apps {
        for os in OsConfig::ALL {
            let seed = case_rng(0x7124_1145, case).next_u64();
            case += 1;
            let shape = JobShape {
                nodes: 2,
                ranks_per_node: rpn,
            };
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.seed = seed;
            // Exact per-rank vectors ride along so every run below also
            // witnesses FinishSketch ≡ record_per_rank on min/max/sum.
            cfg.record_per_rank = true;
            let mut unbatched = cfg.clone();
            unbatched.batch_fabric = FabricMode::PerPacket;
            let mut flowed = cfg.clone();
            flowed.batch_fabric = FabricMode::Flows;
            let mut sunk = cfg;
            sunk.batch_fabric = FabricMode::Incast;
            let off = World::new(unbatched, app, iters).run();
            let flows = World::new(flowed, app, iters).run();
            let incast = World::new(sunk, app, iters).run();
            let label = format!("case {case} {:?} {}", app, os.label());
            assert_eq!(engine_digest(&flows), engine_digest(&incast), "{label}");
            assert_eq!(
                flows.fabric_train_members, incast.fabric_train_members,
                "{label}"
            );
            assert_eq!(flows.fabric_max_train, incast.fabric_max_train, "{label}");
            assert_eq!(
                flows.kernel_profile.sorted_desc(),
                incast.kernel_profile.sorted_desc(),
                "{label}"
            );
            for (mode, res) in [("flows", flows), ("incast", incast)] {
                let label = format!("{label} [{mode}]");
                // The streaming sketch must agree *exactly* with the
                // recorded vector on its exact fields, for every app ×
                // OS × fabric mode in the equivalence mix.
                assert_eq!(res.finish.count(), res.rank_finish.len() as u64, "{label}");
                assert_eq!(
                    res.finish.sum(),
                    res.rank_finish.iter().map(|t| t.0).sum::<u64>(),
                    "{label}"
                );
                assert_eq!(
                    res.finish.min(),
                    res.rank_finish.iter().map(|t| t.0).min(),
                    "{label}"
                );
                assert_eq!(
                    res.finish.max(),
                    res.rank_finish.iter().map(|t| t.0).max(),
                    "{label}"
                );
                assert_eq!(res.wall_time.0, res.finish.max().unwrap(), "{label}");
                assert_eq!(res.ranks_done, off.ranks_done, "{label}");
                assert_eq!(res.delivered_payloads, off.delivered_payloads, "{label}");
                assert_eq!(res.fabric_bytes, off.fabric_bytes, "{label}");
                assert_eq!(res.fabric_messages, off.fabric_messages, "{label}");
                assert_eq!(res.clamped_events, 0, "{label}");
                assert_eq!(off.clamped_events, 0, "{label}");
                let dev = (res.wall_time.0 as f64 - off.wall_time.0 as f64).abs()
                    / off.wall_time.0.max(1) as f64;
                assert!(
                    dev <= 0.001,
                    "{label}: wall {} (coalesced) vs {} (reference), deviation {:.4}%",
                    res.wall_time,
                    off.wall_time,
                    dev * 100.0
                );
                assert!(
                    res.sim_events <= off.sim_events,
                    "{label}: batching must not add events ({} vs {})",
                    res.sim_events,
                    off.sim_events
                );
            }
        }
    }
}

/// The coalesced modes against the per-packet reference at 3–8 nodes,
/// where a per-node sink merges several sources and both modes drift
/// from the reference by more than the 2-node 0.1 % (DESIGN.md §7).
/// Conserved quantities must still match exactly and the coalesced
/// runs may not spend more events. Wall time is held to 4 %, which
/// pins the drift (worst measured: +3.48 %, 8-node alltoall, Linux,
/// `Incast`) without retiring it.
#[test]
fn coalesced_fabric_drift_bounded_beyond_two_nodes() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, FabricMode, OsConfig, World};

    let alltoall = App::Alltoall {
        bytes: 8 * 1024,
        reps: 8,
    };
    // (app, nodes, ranks per node); one iteration each.
    let cases = [
        (alltoall, 8, 1),
        (App::Umt2013, 8, 2),
        (App::Lammps, 8, 2),
        (App::Hacc, 8, 2),
        (App::Nekbone, 8, 2),
        (App::Umt2013, 3, 2),
        (alltoall, 4, 1),
    ];
    for (app, nodes, rpn) in cases {
        for os in OsConfig::ALL {
            let run = |mode| {
                let shape = JobShape {
                    nodes,
                    ranks_per_node: rpn,
                };
                let mut cfg = ClusterConfig::paper(os, shape);
                cfg.batch_fabric = mode;
                World::new(cfg, app, 1).run()
            };
            let off = run(FabricMode::PerPacket);
            assert_eq!(off.clamped_events, 0, "{app:?} {}", os.label());
            for mode in [FabricMode::Flows, FabricMode::Incast] {
                let res = run(mode);
                let label = format!("{app:?} {nodes}x{rpn} {} [{mode:?}]", os.label());
                assert_eq!(res.ranks_done, off.ranks_done, "{label}");
                assert_eq!(res.fabric_bytes, off.fabric_bytes, "{label}");
                assert_eq!(res.fabric_messages, off.fabric_messages, "{label}");
                assert_eq!(res.delivered_payloads, off.delivered_payloads, "{label}");
                assert_eq!(res.pio_sends, off.pio_sends, "{label}");
                assert_eq!(res.tid_programs, off.tid_programs, "{label}");
                assert_eq!(res.offloaded_calls, off.offloaded_calls, "{label}");
                assert_eq!(res.clamped_events, 0, "{label}");
                assert!(
                    res.sim_events <= off.sim_events,
                    "{label}: batching must not add events ({} vs {})",
                    res.sim_events,
                    off.sim_events
                );
                let drift =
                    (res.wall_time.0 as f64 - off.wall_time.0 as f64) / off.wall_time.0 as f64;
                assert!(
                    drift.abs() <= 0.04,
                    "{label}: wall {} (coalesced) vs {} (reference), drift {:+.3}%",
                    res.wall_time,
                    off.wall_time,
                    drift * 100.0
                );
            }
        }
    }
}

/// A full simulated run is byte-identical across repeated runs and
/// across `par_map` worker counts (the sweep fan-out must not leak
/// nondeterminism into results).
#[test]
fn sweeps_identical_across_thread_counts() {
    use pico_apps::App;
    use pico_cluster::{paper_config, run_app, OsConfig};
    use pico_sim::par_map_threads;

    let digest = |os: OsConfig| -> String {
        let app = App::PingPong {
            bytes: 64 * 1024,
            reps: 4,
        };
        let mut cfg = paper_config(os, app, 2, Some(1));
        cfg.record_per_rank = true;
        let res = run_app(cfg, app, 1);
        assert_eq!(res.clamped_events, 0, "no event may be clamped to `now`");
        // events_per_sec is wall-clock derived and deliberately excluded;
        // the MPI profile is digested through its sorted view (the raw
        // HashMap's iteration order is not stable).
        format!(
            "{:?}|{}|{}|{:?}|{:#x}|{:#x}|{:?}",
            res.wall_time,
            res.ranks_done,
            res.sim_events,
            res.rank_finish,
            res.finish.digest(),
            res.arrival_latency.digest(),
            res.mpi_profile.sorted_desc()
        )
    };
    let configs: Vec<OsConfig> = OsConfig::ALL.to_vec();
    let serial: Vec<String> = configs.iter().map(|&os| digest(os)).collect();
    for threads in [1usize, 4] {
        let par = par_map_threads(threads, configs.clone(), digest);
        assert_eq!(par, serial, "thread count {threads} changed results");
    }
}

/// Everything the *simulated system* determines, bit-for-bit: wall
/// time, per-rank finish times, arrival digests, fabric traffic,
/// delivery and syscall totals. Excludes engine bookkeeping — event /
/// pause / soft-dispatch counts — which the two engines spend
/// differently on the same physics (the sharded engine defers greedy
/// train continuation at window horizons; see DESIGN.md).
#[cfg(test)]
fn physical_digest(res: &pico_cluster::RunResult) -> String {
    assert_eq!(res.clamped_events, 0, "no event may be clamped to `now`");
    format!(
        "{:?}|{}|{}|{}|{:#x}|{:#x}|{}|{}|{}|{}|{}|{}|{:?}|{:#x}|{:?}",
        res.wall_time,
        res.ranks_done,
        res.delivered_payloads,
        res.payload_errors,
        res.arrival_digest,
        res.arrival_digest_bulk,
        res.fabric_bytes,
        res.fabric_messages,
        res.fabric_sink_members,
        res.pio_sends,
        res.tid_programs,
        res.offloaded_calls,
        res.rank_finish,
        res.finish.digest(),
        res.mpi_profile.sorted_desc(),
    )
}

/// [`physical_digest`] plus every engine bookkeeping counter: within
/// one engine these are deterministic too, so runs differing only in
/// worker thread count must agree on all of them.
#[cfg(test)]
fn engine_digest(res: &pico_cluster::RunResult) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{:#x}",
        physical_digest(res),
        res.sim_events,
        res.soft_deliveries,
        res.fabric_sinks,
        res.fabric_sink_pauses,
        res.fabric_max_sink,
        res.fabric_trains,
        res.fabric_resplits,
        // Latency is measured commit → arrival, so it depends on the
        // engine's dispatch schedule — deterministic *within* an engine,
        // hence part of the engine digest, not the physical one.
        res.arrival_latency.digest(),
    )
}

/// Everything *conserved* by the physics — traffic, deliveries, payload
/// integrity, syscall and doorbell totals — as one exact string. Both
/// engines must agree on these bit-for-bit on every workload: deferring
/// a greedy sink continuation moves timestamps, never bytes.
#[cfg(test)]
fn conserved_digest(res: &pico_cluster::RunResult) -> String {
    assert_eq!(res.clamped_events, 0, "no event may be clamped to `now`");
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}",
        res.ranks_done,
        res.delivered_payloads,
        res.payload_errors,
        res.fabric_bytes,
        res.fabric_messages,
        res.fabric_sink_members,
        res.pio_sends,
        res.tid_programs,
        res.offloaded_calls,
    )
}

/// The conservative-lookahead sharded engine against the single-queue
/// incast engine, across the application mix and all three OS configs.
///
/// The single-queue engine's greedy sink continuation is *non-causal*:
/// a delivery dispatch at `t` consumes members whose arrivals lie
/// arbitrarily far past `t` — including members merged by commits that
/// other nodes emit *after* `t`. A conservative parallel engine cannot
/// reproduce that bit-for-bit (it would have to see other shards'
/// same-window emissions before they happen), so the sharded engine
/// pauses continuations at its window horizon and resumes them with
/// complete state (see DESIGN.md). The contract verified here is the
/// same shape as `packet_trains_match_per_packet_reference`: conserved
/// quantities exactly equal, timing within a tight tolerance (worst
/// observed deviation across this mix is 0.81%).
#[test]
fn sharded_engine_matches_single_queue() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let apps = [
        (
            App::PingPong {
                bytes: 8 * 1024,
                reps: 6,
            },
            2,
            1,
            1u32,
        ), // eager PIO
        (
            App::PingPong {
                bytes: 2 << 20,
                reps: 3,
            },
            2,
            1,
            1,
        ), // 4-window train
        (App::Umt2013, 4, 2, 2), // halo exchange, 4 shards
        (App::Hacc, 4, 2, 2),    // overlapped isends, 4 shards
        (App::Nekbone, 4, 2, 1), // CG allreduce, 4 shards
        (App::Lammps, 2, 2, 1),  // neighbor exchange
    ];
    const TOL: f64 = 0.01; // 1% timing tolerance; worst observed 0.81%
    let mut case = 0u64;
    for (app, nodes, rpn, iters) in apps {
        for os in OsConfig::ALL {
            let seed = case_rng(0x5AAD_ED01, case).next_u64();
            case += 1;
            let shape = JobShape {
                nodes,
                ranks_per_node: rpn,
            };
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.seed = seed;
            cfg.batch_fabric = FabricMode::Incast;
            cfg.record_per_rank = true;
            let mut sharded = cfg.clone();
            sharded.engine = EngineMode::Sharded;
            sharded.threads = Some(2);
            // Pin one shard per node: these jobs are far below the auto
            // heuristic's ~32-ranks-per-shard floor, and the point here
            // is to exercise the cross-shard machinery.
            sharded.shards = Some(nodes as usize);
            let single = World::new(cfg, app, iters).run();
            let shard = World::new(sharded, app, iters).run();
            let label = format!("case {case} {:?} {} nodes {nodes}", app, os.label());
            assert_eq!(shard.shards, nodes, "{label}");
            assert_eq!(single.shards, 1, "{label}");
            assert_eq!(single.rank_finish.len(), (nodes * rpn) as usize, "{label}");
            assert_eq!(shard.rank_finish.len(), (nodes * rpn) as usize, "{label}");
            assert_eq!(
                conserved_digest(&shard),
                conserved_digest(&single),
                "{label}: conserved quantities"
            );
            let wall_dev = (shard.wall_time.0 as f64 - single.wall_time.0 as f64).abs()
                / single.wall_time.0 as f64;
            assert!(
                wall_dev <= TOL,
                "{label}: wall {:?} vs {:?} ({:.3}% > {:.1}%)",
                shard.wall_time,
                single.wall_time,
                wall_dev * 100.0,
                TOL * 100.0
            );
            for (r, (a, b)) in single
                .rank_finish
                .iter()
                .zip(&shard.rank_finish)
                .enumerate()
            {
                let dev = (b.0 as f64 - a.0 as f64).abs() / a.0.max(1) as f64;
                assert!(
                    dev <= TOL,
                    "{label}: rank {r} finish {b:?} vs {a:?} ({:.3}%)",
                    dev * 100.0
                );
            }
        }
    }
}

/// Workloads whose sink deliveries never straddle a window horizon —
/// eager ping-pong, the rendezvous train ping-pong and the LAMMPS
/// neighbor exchange — take the deferral path zero times, so there the
/// sharded engine *is* a bit-exact identity over the single-queue
/// engine: wall time, per-rank finishes, arrival digests, everything.
#[test]
fn sharded_engine_bit_identical_without_deferral() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let apps = [
        (
            App::PingPong {
                bytes: 8 * 1024,
                reps: 6,
            },
            2,
            1,
            1u32,
        ),
        (
            App::PingPong {
                bytes: 2 << 20,
                reps: 3,
            },
            2,
            1,
            1,
        ),
        (App::Lammps, 2, 2, 1),
    ];
    let mut case = 0u64;
    for (app, nodes, rpn, iters) in apps {
        for os in OsConfig::ALL {
            let seed = case_rng(0xB17E_AC71, case).next_u64();
            case += 1;
            let shape = JobShape {
                nodes,
                ranks_per_node: rpn,
            };
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.seed = seed;
            cfg.batch_fabric = FabricMode::Incast;
            cfg.record_per_rank = true;
            let mut sharded = cfg.clone();
            sharded.engine = EngineMode::Sharded;
            sharded.threads = Some(2);
            sharded.shards = Some(nodes as usize);
            let single = World::new(cfg, app, iters).run();
            let shard = World::new(sharded, app, iters).run();
            let label = format!("case {case} {app:?} {}", os.label());
            assert_eq!(
                physical_digest(&shard),
                physical_digest(&single),
                "{label}: sharded vs single-queue"
            );
        }
    }
}

/// The sharded engine's partition depends only on the shard count, so
/// the worker thread count is invisible in the results: 1, 2, 4 and 8
/// threads produce byte-identical digests.
#[test]
fn sharded_identical_across_thread_counts() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let shape = JobShape {
        nodes: 4,
        ranks_per_node: 2,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.record_per_rank = true;
    cfg.shards = Some(4);
    let run = |threads: usize| {
        let mut c = cfg.clone();
        c.threads = Some(threads);
        let res = World::new(c, App::Umt2013, 2).run();
        assert_eq!(res.shards, 4, "threads {threads}");
        engine_digest(&res)
    };
    let one = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(run(threads), one, "thread count {threads} changed results");
    }
}

/// Data integrity under the sharded engine: a backed CORAL run carries
/// real payloads across the shard boundary — every delivered payload
/// must still pass the wrapping-increment self-check.
#[test]
fn backed_coral_sharded_smoke() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let shape = JobShape {
        nodes: 4,
        ranks_per_node: 2,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.backed = true;
    cfg.shards = Some(4);
    let res = World::new(cfg, App::Umt2013, 2).run();
    assert_eq!(res.ranks_done, 8);
    assert_eq!(res.payload_errors, 0, "payload corrupted crossing shards");
    assert!(res.delivered_payloads > 0, "backed run must carry payloads");
    assert_eq!(res.clamped_events, 0);
}

/// Any permutation of shard merges produces a bit-identical sketch:
/// the log-bucket merge is a commutative, associative fold, so the
/// order workers join in can never perturb the result.
#[test]
fn sketch_merge_order_invariant() {
    use pico_sim::Sketch;

    for case in 0..32u64 {
        let mut rng = case_rng(0x5E7C_4E36, case);
        let nshards = 2 + (rng.next_u64() % 7) as usize;
        let shards: Vec<Sketch> = (0..nshards)
            .map(|_| {
                let mut s = Sketch::new();
                let n = rng.next_u64() % 200;
                let shift = rng.next_u64() % 48;
                for _ in 0..n {
                    s.record(rng.next_u64() >> shift);
                }
                s
            })
            .collect();
        // Reference: merge in index order.
        let mut reference = Sketch::new();
        for s in &shards {
            reference.merge(s);
        }
        // Rng-driven permutations (Fisher–Yates) plus reverse order.
        let mut order: Vec<usize> = (0..nshards).collect();
        for perm in 0..8 {
            if perm == 0 {
                order.reverse();
            } else {
                for i in (1..nshards).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
            }
            let mut merged = Sketch::new();
            for &i in &order {
                merged.merge(&shards[i]);
            }
            assert_eq!(merged, reference, "case {case} perm {perm}: {order:?}");
            assert_eq!(merged.digest(), reference.digest(), "case {case}");
        }
    }
}

/// The sketch's quantiles stay within the documented error envelope of
/// the exact sample quantile: exact below 16, and at most one 1/16
/// sub-bucket above the true value everywhere else — while min, max,
/// sum and count are exact for any input.
#[test]
fn sketch_quantile_error_bound() {
    use pico_sim::Sketch;

    for case in 0..48u64 {
        let mut rng = case_rng(0x5E7C_0B0D, case);
        // Vary the magnitude regime per case: timestamps, latencies,
        // small counts — the shift walks the whole bucket range.
        let shift = rng.next_u64() % 56;
        let n = 100 + (rng.next_u64() % 2000) as usize;
        let mut exact: Vec<u64> = (0..n).map(|_| rng.next_u64() >> shift).collect();
        let mut sketch = Sketch::new();
        for &v in &exact {
            sketch.record(v);
        }
        exact.sort_unstable();
        assert_eq!(sketch.count(), n as u64, "case {case}");
        assert_eq!(sketch.min(), Some(exact[0]), "case {case}");
        assert_eq!(sketch.max(), Some(exact[n - 1]), "case {case}");
        assert_eq!(
            sketch.sum(),
            exact.iter().fold(0u64, |a, &v| a.wrapping_add(v)),
            "case {case}"
        );
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let truth = exact[rank - 1];
            let got = sketch.quantile(q).unwrap();
            let ceiling = truth.saturating_add(truth / 16).saturating_add(1);
            assert!(
                got >= truth && got <= ceiling,
                "case {case} q={q}: sketch {got} vs exact {truth}"
            );
        }
    }
}

/// A shard touches only its own nodes' fabric gates. In the sharded
/// engine's inject/commit split the source half runs on the source's
/// shard and the commit half on the destination's, so every gate access
/// is to a shard-owned node — and a shard's fabric holds gates for its
/// own node range only, panicking on any other. The all-to-all UMT halo
/// exchange is the adversarial workload: every node talks to every
/// other across four one-node shards.
#[test]
fn shards_touch_only_their_own_gates() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let shape = JobShape {
        nodes: 4,
        ranks_per_node: 2,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.shards = Some(4);
    // Two workers: a gate panic on either poisons the window barrier, so
    // the other panics too and the failure reaches this test.
    cfg.threads = Some(2);
    let res = World::new(cfg, App::Umt2013, 2).run();
    assert_eq!(res.shards, 4);
    assert_eq!(res.ranks_done, 8);
    assert!(res.fabric_bytes > 0, "halo exchange must move traffic");
}

/// The auto shard heuristic never reads the run's worker count, so two
/// runs differing only in `threads` (with `shards: None`) pick the same
/// partition and produce byte-identical digests — the sharded engine's
/// worker-count invariance, holding through the sizing heuristic as
/// well as for a pinned shard count.
#[test]
fn auto_shard_heuristic_independent_of_worker_count() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{auto_shard_count, ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    // 8 nodes x 8 ranks: above the ~32-ranks-per-shard floor on any
    // host (by_ranks = 2, by_workers >= 2), so the heuristic yields 2
    // shards everywhere and this test is machine-independent.
    assert_eq!(auto_shard_count(8, 8), 2);
    // Floor: tiny jobs collapse to one shard (the single-queue walk).
    assert_eq!(auto_shard_count(4, 2), 1);
    // Ceilings: never more shards than nodes, never more than 64.
    assert!(auto_shard_count(2, 64) <= 2);
    assert!(auto_shard_count(65536, 64) <= 64);
    // Nodes-per-shard floor: a shard owns at least ~4 nodes once the
    // cluster has them, so rank-heavy small clusters don't shatter into
    // slivers (7 nodes x 64 rpn would otherwise split by ranks alone)...
    assert_eq!(auto_shard_count(7, 64), 1);
    assert!(auto_shard_count(64, 64) <= 16);
    // ...while large clusters still reach the 64-shard ceiling.
    assert!(auto_shard_count(16384, 1) >= auto_shard_count(4096, 1));

    let shape = JobShape {
        nodes: 8,
        ranks_per_node: 8,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.record_per_rank = true;
    assert!(cfg.shards.is_none(), "this test exercises the heuristic");
    let run = |threads: usize| {
        let mut c = cfg.clone();
        c.threads = Some(threads);
        let res = World::new(c, App::Nekbone, 1).run();
        assert_eq!(res.shards, 2, "threads {threads}");
        engine_digest(&res)
    };
    let one = run(1);
    assert_eq!(run(2), one, "worker count changed the partition/results");
}

/// The flyweight node model (template-boot cloning + lazy cold state)
/// against the eager per-node boot (`cfg.eager_node_model`), across the
/// application mix and all three OS configs, sharded at 2 workers plus
/// a 1/2/4/8-worker sweep.
///
/// The flyweight model boots exactly one node per OS configuration and
/// stamps the rest out as `Arc`-shared views of its post-boot images —
/// frame pool, address-space tables, driver reset registers, the ported
/// shadow, unified kernel space and callback table — materializing
/// private copies only on first mutating touch. The eager model builds
/// every node privately. A fresh view is bit-identical to a fresh
/// private boot (node state is node-invariant up to the `node << 40`
/// physical base, which every read-only walk applies on the fly), so
/// the two models must agree on every engine counter, every finish
/// time, and every arrival digest.
#[test]
fn flyweight_node_model_matches_eager_boot() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let apps = [
        (
            App::PingPong {
                bytes: 8 * 1024,
                reps: 6,
            },
            2,
            1,
            1u32,
        ),
        (App::Umt2013, 4, 2, 2),
        (App::Hacc, 4, 2, 2),
        (App::Nekbone, 4, 2, 1),
        (App::Qbox, 2, 2, 1),
    ];
    let mut case = 0u64;
    for (app, nodes, rpn, iters) in apps {
        for os in OsConfig::ALL {
            let seed = case_rng(0xF1E9_B007, case).next_u64();
            case += 1;
            let shape = JobShape {
                nodes,
                ranks_per_node: rpn,
            };
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.seed = seed;
            cfg.batch_fabric = FabricMode::Incast;
            cfg.record_per_rank = true;
            cfg.engine = EngineMode::Sharded;
            cfg.threads = Some(2);
            cfg.shards = Some(nodes as usize);
            assert!(!cfg.eager_node_model, "flyweight is the default");
            let mut eager_cfg = cfg.clone();
            eager_cfg.eager_node_model = true;
            let fly = World::new(cfg, app, iters).run();
            let eager = World::new(eager_cfg, app, iters).run();
            let label = format!("case {case} {app:?} {} nodes {nodes}", os.label());
            assert_eq!(
                engine_digest(&fly),
                engine_digest(&eager),
                "{label}: flyweight vs eager node model"
            );
            assert_eq!(
                fly.kernel_profile.sorted_desc(),
                eager.kernel_profile.sorted_desc(),
                "{label}: kernel syscall profile"
            );
        }
    }

    // Worker sweep: both node models are worker-count-invariant and
    // equal to each other at every thread count.
    let shape = JobShape {
        nodes: 4,
        ranks_per_node: 2,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.record_per_rank = true;
    cfg.shards = Some(4);
    let run = |threads: usize, eager: bool| {
        let mut c = cfg.clone();
        c.threads = Some(threads);
        c.eager_node_model = eager;
        engine_digest(&World::new(c, App::Umt2013, 2).run())
    };
    let reference = run(1, true);
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            run(threads, false),
            reference,
            "flyweight, {threads} threads"
        );
        assert_eq!(run(threads, true), reference, "eager, {threads} threads");
    }
}

/// Toy-scale first-touch coverage: a flyweight node dragged through
/// *every* syscall and offload path — device open / 6 device mmaps /
/// close, scratch mmap + munmap churn (Qbox materializes the shared
/// frame pool and address spaces), TID programming and SDMA writev
/// (UMT exercises the fast path's read-only walks over shared tables),
/// completion callbacks through the shared callback table, and backed
/// payloads end to end — finishes bit-identical to an eagerly booted
/// node, in every OS configuration, on the single-queue reference
/// engine.
#[test]
fn flyweight_first_touch_paths_match_eager() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, OsConfig, World};

    let shape = JobShape {
        nodes: 2,
        ranks_per_node: 2,
    };
    // Qbox: mmap/munmap churn (frame-pool + page-table materialization,
    // TLB shootdowns). UMT: SDMA pipeline, TID registration, LWK block
    // pool and cross-kernel completion callbacks. PingPong (backed):
    // real payloads through PIO and the receive copy-out.
    let apps = [
        (App::Qbox, 1u32),
        (App::Umt2013, 2),
        (
            App::PingPong {
                bytes: 64 * 1024,
                reps: 4,
            },
            2,
        ),
    ];
    for (app, iters) in apps {
        for os in OsConfig::ALL {
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.record_per_rank = true;
            cfg.backed = true;
            assert!(!cfg.eager_node_model, "flyweight is the default");
            let mut eager_cfg = cfg.clone();
            eager_cfg.eager_node_model = true;
            let fly = World::new(cfg, app, iters).run();
            let eager = World::new(eager_cfg, app, iters).run();
            let label = format!("{app:?} {}", os.label());
            assert_eq!(fly.payload_errors, 0, "{label}");
            assert_eq!(
                engine_digest(&fly),
                engine_digest(&eager),
                "{label}: flyweight vs eager"
            );
            assert_eq!(
                fly.kernel_profile.sorted_desc(),
                eager.kernel_profile.sorted_desc(),
                "{label}: kernel syscall profile"
            );
            assert_eq!(
                fly.offload_queue_wait, eager.offload_queue_wait,
                "{label}: delegator queueing"
            );
        }
    }
}
