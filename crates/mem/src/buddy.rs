//! A classic binary buddy allocator over a physical address range.
//!
//! This is the frame allocator behind both kernel models. Its observable
//! behaviour matters for the paper's central optimization: whether a user
//! buffer ends up physically contiguous decides how large the SDMA
//! requests built from it can be (§3.4). A freshly booted LWK hands out
//! long contiguous blocks; a long-running Linux node's memory is
//! fragmented — we reproduce that with [`BuddyAllocator::fragment`].

use crate::addr::{is_aligned, PhysAddr, PAGE_4K};

/// Largest supported order: `4 KiB << 18 = 1 GiB` blocks.
pub const MAX_ORDER: u8 = 18;

/// One 4096-bit slice of a free list, with one bit per non-zero word so
/// the lowest set bit is two `trailing_zeros` away.
#[derive(Clone, Debug)]
struct Chunk {
    nonempty: u64,
    words: [u64; 64],
}

/// The free list of one order: a bitmap over base-relative block indices
/// `(addr - base) >> (12 + order)`, cut into [`Chunk`]s that are
/// allocated on first insert, plus one summary bit per non-empty chunk.
/// Insert, remove, contains and lowest-set-bit are O(1) in the number of
/// free blocks (the summary scan is one word per 1 GiB of pool at order 0).
#[derive(Clone, Debug, Default)]
struct FreeBits {
    len: u64,
    summary: Vec<u64>,
    chunks: Vec<Option<Box<Chunk>>>,
}

impl FreeBits {
    #[inline]
    fn split(i: u64) -> (usize, usize, u64) {
        ((i >> 12) as usize, ((i >> 6) & 63) as usize, 1 << (i & 63))
    }

    fn contains(&self, i: u64) -> bool {
        let (c, w, bit) = Self::split(i);
        matches!(self.chunks.get(c), Some(Some(ch)) if ch.words[w] & bit != 0)
    }

    fn insert(&mut self, i: u64) {
        let (c, w, bit) = Self::split(i);
        if self.chunks.len() <= c {
            self.chunks.resize_with(c + 1, || None);
            self.summary.resize(c / 64 + 1, 0);
        }
        let ch = self.chunks[c].get_or_insert_with(|| {
            Box::new(Chunk {
                nonempty: 0,
                words: [0; 64],
            })
        });
        debug_assert!(ch.words[w] & bit == 0, "block {i} already free");
        ch.words[w] |= bit;
        ch.nonempty |= 1 << w;
        self.summary[c / 64] |= 1 << (c % 64);
        self.len += 1;
    }

    /// Clear bit `i`; returns whether it was set.
    fn remove(&mut self, i: u64) -> bool {
        let (c, w, bit) = Self::split(i);
        let Some(Some(ch)) = self.chunks.get_mut(c) else {
            return false;
        };
        if ch.words[w] & bit == 0 {
            return false;
        }
        ch.words[w] &= !bit;
        if ch.words[w] == 0 {
            ch.nonempty &= !(1 << w);
            if ch.nonempty == 0 {
                self.summary[c / 64] &= !(1 << (c % 64));
            }
        }
        self.len -= 1;
        true
    }

    /// The lowest set index.
    fn first(&self) -> Option<u64> {
        let (s, &word) = self.summary.iter().enumerate().find(|(_, w)| **w != 0)?;
        let c = s * 64 + word.trailing_zeros() as usize;
        let ch = self.chunks[c].as_ref()?;
        let w = ch.nonempty.trailing_zeros() as usize;
        Some(((c as u64) << 12) | ((w as u64) << 6) | ch.words[w].trailing_zeros() as u64)
    }
}

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuddyError {
    /// No block of the requested order (or larger) is free.
    OutOfMemory,
    /// `free` called with a block that is not aligned / not within the
    /// managed range / overlaps free memory.
    BadFree,
}

/// Binary buddy allocator. Free lists are bitmaps searched lowest bit
/// first, so the allocator always returns the lowest-addressed block —
/// deterministic across runs.
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    base: u64,
    size: u64,
    /// `free[o]` marks the free blocks of size `4K << o`, indexed by
    /// `(addr - base) >> (12 + o)`.
    free: Vec<FreeBits>,
    allocated: u64,
}

impl BuddyAllocator {
    /// Manage `[base, base+size)`. Both must be 4 KiB aligned and `size`
    /// must be a non-zero multiple of 4 KiB.
    pub fn new(base: PhysAddr, size: u64) -> BuddyAllocator {
        assert!(is_aligned(base.0, PAGE_4K), "base must be page aligned");
        assert!(is_aligned(size, PAGE_4K) && size > 0, "bad size");
        let mut b = BuddyAllocator {
            base: base.0,
            size,
            free: (0..=MAX_ORDER).map(|_| FreeBits::default()).collect(),
            allocated: 0,
        };
        // Seed free lists with the largest aligned blocks that tile the range.
        let mut cur = 0;
        while cur < size {
            let mut order = MAX_ORDER;
            loop {
                let bs = block_size(order);
                if is_aligned(cur, bs) && cur + bs <= size {
                    break;
                }
                order -= 1;
            }
            b.free[order as usize].insert(cur >> (12 + order));
            cur += block_size(order);
        }
        b
    }

    /// Total managed bytes.
    pub fn capacity(&self) -> u64 {
        self.size
    }
    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.size - self.allocated
    }

    /// Order needed for an allocation of `bytes`.
    pub fn order_for(bytes: u64) -> u8 {
        let pages = bytes.div_ceil(PAGE_4K).max(1);
        let order = 64 - (pages - 1).leading_zeros() as u8;
        if pages.is_power_of_two() {
            pages.trailing_zeros() as u8
        } else {
            order
        }
    }

    /// Allocate a block of order `order` (size `4K << order`).
    pub fn alloc(&mut self, order: u8) -> Result<PhysAddr, BuddyError> {
        if order > MAX_ORDER {
            return Err(BuddyError::OutOfMemory);
        }
        // Find the smallest order ≥ requested with a free block.
        let mut o = order;
        while (o as usize) < self.free.len() && self.free[o as usize].len == 0 {
            o += 1;
        }
        if o > MAX_ORDER {
            return Err(BuddyError::OutOfMemory);
        }
        let mut idx = self.free[o as usize].first().expect("non-empty list");
        self.free[o as usize].remove(idx);
        // Split down to the requested order, returning upper halves to the
        // free lists.
        while o > order {
            o -= 1;
            idx *= 2;
            self.free[o as usize].insert(idx + 1);
        }
        self.allocated += block_size(order);
        Ok(PhysAddr(self.base + (idx << (12 + order))))
    }

    /// Allocate the smallest block that covers `bytes`.
    pub fn alloc_bytes(&mut self, bytes: u64) -> Result<(PhysAddr, u8), BuddyError> {
        let order = Self::order_for(bytes);
        self.alloc(order).map(|a| (a, order))
    }

    /// Free a block previously obtained with [`alloc`](Self::alloc).
    pub fn free(&mut self, addr: PhysAddr, order: u8) -> Result<(), BuddyError> {
        let bs = block_size(order);
        if order > MAX_ORDER
            || addr.0 < self.base
            || addr.0 + bs > self.base + self.size
            || !is_aligned(addr.0 - self.base, bs)
        {
            return Err(BuddyError::BadFree);
        }
        let rel = addr.0 - self.base;
        // Double-free detection: the block (or a coalesced ancestor
        // containing it) must not already be on a free list.
        if (0..=MAX_ORDER).any(|o| self.free[o as usize].contains(rel >> (12 + o))) {
            return Err(BuddyError::BadFree);
        }
        let mut idx = rel >> (12 + order);
        let mut order = order;
        // Coalesce with the buddy while possible. A buddy past the end of
        // the range is never on a free list, so no bounds check is needed.
        while order < MAX_ORDER && self.free[order as usize].remove(idx ^ 1) {
            idx /= 2;
            order += 1;
        }
        self.free[order as usize].insert(idx);
        self.allocated -= bs;
        Ok(())
    }

    /// A copy of this allocator translated by `delta` bytes: same size,
    /// same free lists, every address shifted. Free lists are indexed
    /// relative to the base, so this is a plain clone with a new base.
    /// Every decision the allocator makes (seeding, split, coalesce,
    /// lowest-address choice) is arithmetic on `addr - base`, so the clone
    /// behaves bit-identically to an allocator that was constructed at
    /// the shifted base and then driven through the same call sequence —
    /// the invariant behind template-boot node cloning.
    pub fn clone_rebased(&self, delta: u64) -> BuddyAllocator {
        BuddyAllocator {
            base: self.base + delta,
            ..self.clone()
        }
    }

    /// The order of the largest currently free block, if any.
    pub fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| self.free[o as usize].len != 0)
    }

    /// Fragment the allocator to emulate a long-running host: allocates
    /// single 4 KiB pages and frees every other one, leaving a
    /// checkerboard that prevents large contiguous allocations. `fraction`
    /// is the share of total memory to churn (0.0 ..= 1.0).
    ///
    /// Returns the pages left allocated (the caller may keep or free them).
    pub fn fragment(&mut self, fraction: f64) -> Vec<PhysAddr> {
        let fraction = fraction.clamp(0.0, 1.0);
        let target_pages = ((self.size as f64 * fraction) / PAGE_4K as f64) as u64;
        let mut taken = Vec::new();
        for _ in 0..target_pages {
            match self.alloc(0) {
                Ok(p) => taken.push(p),
                Err(_) => break,
            }
        }
        // Free every other page: buddies can never coalesce past order 0.
        let mut kept = Vec::with_capacity(taken.len() / 2);
        for (i, p) in taken.into_iter().enumerate() {
            if i % 2 == 0 {
                kept.push(p);
            } else {
                self.free(p, 0).expect("freeing just-allocated page");
            }
        }
        kept
    }
}

/// Size in bytes of a block of the given order.
#[inline]
pub const fn block_size(order: u8) -> u64 {
    PAGE_4K << order
}

/// Copy-on-write frame allocator for flyweight node models: N nodes
/// whose post-boot buddy state is identical up to a per-node physical
/// offset share one [`BuddyAllocator`] image behind an `Arc`, and a
/// node materializes its own rebased copy only at its first mutating
/// touch (a runtime `mmap`/`munmap`; steady-state fast-path traffic
/// never allocates frames). The eager layout stays available as
/// [`Frames::Owned`].
#[derive(Clone, Debug)]
pub enum Frames {
    /// A node-private allocator (the eager reference layout, and the
    /// state of any shared node after its first mutation).
    Owned(BuddyAllocator),
    /// A view of a shared post-boot image, translated by `delta` bytes.
    Shared {
        /// The template node's post-boot allocator.
        image: std::sync::Arc<BuddyAllocator>,
        /// This node's physical offset from the template.
        delta: u64,
    },
}

impl Frames {
    /// Whether this node holds a private (materialized) allocator.
    pub fn is_materialized(&self) -> bool {
        matches!(self, Frames::Owned(_))
    }

    /// Mutable access, materializing a private rebased copy on first
    /// touch of a shared image.
    pub fn get_mut(&mut self) -> &mut BuddyAllocator {
        if let Frames::Shared { image, delta } = self {
            *self = Frames::Owned(image.clone_rebased(*delta));
        }
        match self {
            Frames::Owned(b) => b,
            Frames::Shared { .. } => unreachable!("materialized above"),
        }
    }

    /// Total managed bytes (read-through; never materializes).
    pub fn capacity(&self) -> u64 {
        match self {
            Frames::Owned(b) => b.capacity(),
            Frames::Shared { image, .. } => image.capacity(),
        }
    }

    /// Bytes currently allocated (read-through; never materializes).
    pub fn allocated(&self) -> u64 {
        match self {
            Frames::Owned(b) => b.allocated(),
            Frames::Shared { image, .. } => image.allocated(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(size: u64) -> BuddyAllocator {
        BuddyAllocator::new(PhysAddr(0), size)
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut b = mk(1 << 20); // 1 MiB
        let a = b.alloc(0).unwrap();
        assert_eq!(b.allocated(), PAGE_4K);
        b.free(a, 0).unwrap();
        assert_eq!(b.allocated(), 0);
        // After freeing everything, a maximal block is available again.
        assert_eq!(b.largest_free_order(), Some(8)); // 1 MiB = 4K << 8
    }

    #[test]
    fn returns_lowest_address_first() {
        let mut b = mk(1 << 20);
        let a0 = b.alloc(0).unwrap();
        let a1 = b.alloc(0).unwrap();
        assert_eq!(a0, PhysAddr(0));
        assert_eq!(a1, PhysAddr(PAGE_4K));
    }

    #[test]
    fn split_and_coalesce() {
        let mut b = mk(1 << 20);
        let pages: Vec<_> = (0..4).map(|_| b.alloc(0).unwrap()).collect();
        // Free in reverse order: must coalesce back to an order-2 block.
        for p in pages.iter().rev() {
            b.free(*p, 0).unwrap();
        }
        let big = b.alloc(2).unwrap();
        assert_eq!(big, PhysAddr(0));
    }

    #[test]
    fn order_for_sizes() {
        assert_eq!(BuddyAllocator::order_for(1), 0);
        assert_eq!(BuddyAllocator::order_for(PAGE_4K), 0);
        assert_eq!(BuddyAllocator::order_for(PAGE_4K + 1), 1);
        assert_eq!(BuddyAllocator::order_for(2 << 20), 9);
        assert_eq!(BuddyAllocator::order_for((2 << 20) + 1), 10);
    }

    #[test]
    fn out_of_memory() {
        let mut b = mk(PAGE_4K * 2);
        b.alloc(0).unwrap();
        b.alloc(0).unwrap();
        assert_eq!(b.alloc(0), Err(BuddyError::OutOfMemory));
        assert_eq!(b.alloc(5), Err(BuddyError::OutOfMemory));
    }

    #[test]
    fn bad_and_double_free_detected() {
        let mut b = mk(1 << 20);
        let a = b.alloc(0).unwrap();
        assert_eq!(b.free(PhysAddr(0x123), 0), Err(BuddyError::BadFree));
        assert_eq!(b.free(PhysAddr(2 << 20), 0), Err(BuddyError::BadFree));
        b.free(a, 0).unwrap();
        assert_eq!(b.free(a, 0), Err(BuddyError::BadFree));
    }

    #[test]
    fn fragmentation_prevents_large_blocks() {
        let mut b = mk(16 << 20); // 16 MiB
        assert!(b.largest_free_order().unwrap() >= 10);
        let _held = b.fragment(1.0);
        // Half the memory is free but only as isolated 4 KiB pages.
        assert_eq!(b.largest_free_order(), Some(0));
        assert!(b.alloc(1).is_err());
        assert!(b.alloc(0).is_ok());
    }

    #[test]
    fn non_power_of_two_region() {
        // 20 KiB region: 16 KiB block + 4 KiB block.
        let mut b = BuddyAllocator::new(PhysAddr(0), 5 * PAGE_4K);
        assert_eq!(b.capacity(), 5 * PAGE_4K);
        let big = b.alloc(2).unwrap();
        assert_eq!(big, PhysAddr(0));
        let small = b.alloc(0).unwrap();
        assert_eq!(small, PhysAddr(4 * PAGE_4K));
        assert_eq!(b.free_bytes(), 0);
    }

    #[test]
    fn offset_base() {
        let mut b = BuddyAllocator::new(PhysAddr(0x10000000), 1 << 20);
        let a = b.alloc(0).unwrap();
        assert_eq!(a, PhysAddr(0x10000000));
        b.free(a, 0).unwrap();
        assert_eq!(b.allocated(), 0);
    }

    #[test]
    fn clone_rebased_tracks_the_shifted_original() {
        // Drive an allocator through a mixed history, clone it with a
        // delta, then drive both through the same tail: every result
        // must match shifted, including free-list choices and errors.
        let delta = 1u64 << 40;
        let mut a = mk(4 << 20);
        let mut shifted = BuddyAllocator::new(PhysAddr(delta), 4 << 20);
        let mut live = Vec::new();
        for i in 0..40u64 {
            let order = (i % 3) as u8;
            let pa = a.alloc(order).unwrap();
            let ps = shifted.alloc(order).unwrap();
            assert_eq!(ps.0, pa.0 + delta);
            live.push((pa, ps, order));
            if i % 4 == 3 {
                let (pa, ps, o) = live.remove(live.len() / 2);
                a.free(pa, o).unwrap();
                shifted.free(ps, o).unwrap();
            }
        }
        let b = a.clone_rebased(delta);
        assert_eq!(format!("{b:?}"), format!("{shifted:?}"));
        assert_eq!(b.allocated(), a.allocated());
    }

    #[test]
    fn frames_materialize_on_first_mutation() {
        let mut a = mk(1 << 20);
        let p = a.alloc(3).unwrap();
        a.free(p, 3).unwrap();
        let delta = 2u64 << 40;
        let image = std::sync::Arc::new(a);
        let mut f = Frames::Shared {
            image: image.clone(),
            delta,
        };
        assert!(!f.is_materialized());
        assert_eq!(f.capacity(), 1 << 20);
        assert_eq!(f.allocated(), 0);
        let got = f.get_mut().alloc(0).unwrap();
        assert!(f.is_materialized());
        assert_eq!(got, PhysAddr(delta));
        // The shared image is untouched.
        assert_eq!(image.allocated(), 0);
    }
}
