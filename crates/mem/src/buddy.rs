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

/// One 4096-bit slice of a [`Bitmap`], with one bit per non-zero word so
/// the lowest set bit is two `trailing_zeros` away.
#[derive(Clone, Debug)]
struct Chunk {
    nonempty: u64,
    words: [u64; 64],
}

/// A set of indices kept as a bitmap, cut into [`Chunk`]s that are
/// allocated on first insert, plus one summary bit per non-empty chunk
/// and a count. Operations take a word index `w` (bits `64w .. 64w+64`)
/// and a mask, so a caller can move up to 64 indices at once. Insert,
/// remove and lowest-set-bit are O(1) in the number of set bits (the
/// summary scan is one word per 2^18 indices).
#[derive(Clone, Debug, Default)]
struct Bitmap {
    len: u64,
    summary: Vec<u64>,
    chunks: Vec<Option<Box<Chunk>>>,
}

impl Bitmap {
    /// The bits of word `w`.
    #[inline]
    fn word(&self, w: u64) -> u64 {
        match self.chunks.get((w >> 6) as usize) {
            Some(Some(ch)) => ch.words[(w & 63) as usize],
            _ => 0,
        }
    }

    /// Set the bits of `mask` in word `w`; none of them may be set.
    fn set_bits(&mut self, w: u64, mask: u64) {
        let (c, wi) = ((w >> 6) as usize, (w & 63) as usize);
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
        debug_assert!(ch.words[wi] & mask == 0, "word {w}: bits already set");
        ch.words[wi] |= mask;
        ch.nonempty |= 1 << wi;
        self.summary[c / 64] |= 1 << (c % 64);
        self.len += u64::from(mask.count_ones());
    }

    /// Clear the bits of `mask` in word `w`; all of them must be set.
    fn clear_bits(&mut self, w: u64, mask: u64) {
        let (c, wi) = ((w >> 6) as usize, (w & 63) as usize);
        let ch = self.chunks[c]
            .as_mut()
            .expect("clearing bits of a live chunk");
        debug_assert!(ch.words[wi] & mask == mask, "word {w}: bits not set");
        ch.words[wi] &= !mask;
        if ch.words[wi] == 0 {
            ch.nonempty &= !(1 << wi);
            if ch.nonempty == 0 {
                self.summary[c / 64] &= !(1 << (c % 64));
            }
        }
        self.len -= u64::from(mask.count_ones());
    }

    fn insert(&mut self, i: u64) {
        self.set_bits(i >> 6, 1 << (i & 63));
    }

    /// Clear bit `i`; returns whether it was set.
    fn remove(&mut self, i: u64) -> bool {
        let bit = 1 << (i & 63);
        let set = self.word(i >> 6) & bit != 0;
        if set {
            self.clear_bits(i >> 6, bit);
        }
        set
    }

    /// The lowest non-zero word: its index and bits.
    fn first_word(&self) -> Option<(u64, u64)> {
        let (s, &word) = self.summary.iter().enumerate().find(|(_, w)| **w != 0)?;
        let c = s * 64 + word.trailing_zeros() as usize;
        let ch = self.chunks[c].as_ref()?;
        let w = ch.nonempty.trailing_zeros() as usize;
        Some((((c as u64) << 6) | w as u64, ch.words[w]))
    }

    /// The lowest set index.
    fn first(&self) -> Option<u64> {
        self.first_word()
            .map(|(w, bits)| (w << 6) | u64::from(bits.trailing_zeros()))
    }
}

/// The `(word, mask)` pairs covering bits `[start, start + n)`.
fn word_masks(start: u64, n: u64) -> impl Iterator<Item = (u64, u64)> {
    let end = start + n;
    (start >> 6..end.div_ceil(64)).map(move |w| {
        let lo = (w << 6).max(start);
        let width = ((w + 1) << 6).min(end) - lo;
        let ones = if width == 64 { !0 } else { (1 << width) - 1 };
        (w, ones << (lo & 63))
    })
}

/// The lowest `k` set bits of `bits` (all of them if it has `k` or fewer).
fn lowest_bits(bits: u64, k: usize) -> u64 {
    let mut rest = bits;
    for _ in 0..k.min(64) {
        rest &= rest.wrapping_sub(1);
    }
    bits & !rest
}

/// Every set bit of `bits`, lowest first.
fn bit_indices(mut bits: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        let b = bits.trailing_zeros();
        bits &= bits.wrapping_sub(1);
        (b < 64).then_some(u64::from(b))
    })
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

/// The allocator's bitmaps, in one heap block so the allocator itself —
/// stored inline in every simulated node — stays three words.
#[derive(Clone, Debug)]
struct Bitmaps {
    /// `free[o]` marks the free blocks of size `4K << o`, indexed by
    /// `(addr - base) >> (12 + o)`.
    free: [Bitmap; MAX_ORDER as usize + 1],
    /// One bit per allocated 4 KiB frame, indexed by `(addr - base) >> 12`.
    /// Every frame is either allocated or inside exactly one free block.
    allocated: Bitmap,
}

/// Binary buddy allocator. Free lists are bitmaps searched lowest bit
/// first, so the allocator always returns the lowest-addressed block —
/// deterministic across runs.
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    base: u64,
    size: u64,
    maps: Box<Bitmaps>,
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
            maps: Box::new(Bitmaps {
                free: std::array::from_fn(|_| Bitmap::default()),
                allocated: Bitmap::default(),
            }),
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
            b.maps.free[order as usize].insert(cur >> (12 + order));
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
        self.maps.allocated.len * PAGE_4K
    }
    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.size - self.allocated()
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
        // The smallest order ≥ `order` with a free block (none past MAX_ORDER).
        let Some(mut o) = (order..=MAX_ORDER).find(|&o| self.maps.free[o as usize].len != 0) else {
            return Err(BuddyError::OutOfMemory);
        };
        let free = &mut self.maps.free;
        let mut idx = free[o as usize].first().expect("non-empty list");
        free[o as usize].remove(idx);
        // Split down to the requested order, returning upper halves to the
        // free lists.
        while o > order {
            o -= 1;
            idx *= 2;
            free[o as usize].insert(idx + 1);
        }
        for (w, mask) in word_masks(idx << order, 1 << order) {
            self.maps.allocated.set_bits(w, mask);
        }
        Ok(PhysAddr(self.base + (idx << (12 + order))))
    }

    /// Allocate the smallest block that covers `bytes`.
    pub fn alloc_bytes(&mut self, bytes: u64) -> Result<(PhysAddr, u8), BuddyError> {
        let order = Self::order_for(bytes);
        self.alloc(order).map(|a| (a, order))
    }

    /// Allocate `n` 4 KiB frames and append them to `out`, in exactly the
    /// order `n` calls of `alloc(0)` would return them. If memory runs out
    /// first, `out` holds the frames those calls would have returned
    /// (still allocated) and the result is `OutOfMemory`.
    ///
    /// Free order-0 frames are taken a bitmap word at a time. With none
    /// left, the lowest block of the smallest free order is split: `alloc(0)`
    /// would hand out its frames lowest first, so the first `k` are taken
    /// at once and the rest `[k, 2^o)` go back as the aligned blocks those
    /// calls would leave — order `trailing_zeros(p)` at each offset `p`.
    pub fn alloc_pages(&mut self, n: usize, out: &mut Vec<PhysAddr>) -> Result<(), BuddyError> {
        out.reserve(n);
        let base = self.base;
        let mut need = n;
        while need > 0 {
            let maps = &mut *self.maps;
            if let Some((w, bits)) = maps.free[0].first_word() {
                let take = lowest_bits(bits, need);
                maps.free[0].clear_bits(w, take);
                maps.allocated.set_bits(w, take);
                out.extend(bit_indices(take).map(|b| PhysAddr(base + (((w << 6) | b) << 12))));
                need -= take.count_ones() as usize;
                continue;
            }
            let Some(o) = (1..=MAX_ORDER).find(|&o| maps.free[o as usize].len != 0) else {
                return Err(BuddyError::OutOfMemory);
            };
            let idx = maps.free[o as usize].first().expect("non-empty list");
            maps.free[o as usize].remove(idx);
            let (start, count) = (idx << o, 1u64 << o);
            let take = count.min(need as u64);
            for (w, mask) in word_masks(start, take) {
                maps.allocated.set_bits(w, mask);
            }
            out.extend((start..start + take).map(|f| PhysAddr(base + (f << 12))));
            let mut p = take;
            while p < count {
                let ord = p.trailing_zeros();
                maps.free[ord as usize].insert((start + p) >> ord);
                p += 1 << ord;
            }
            need -= take as usize;
        }
        Ok(())
    }

    /// Free a block previously obtained with [`alloc`](Self::alloc). The
    /// block must be aligned, inside the managed range, and overlap no
    /// free memory: every one of its frames must be allocated.
    pub fn free(&mut self, addr: PhysAddr, order: u8) -> Result<(), BuddyError> {
        let bs = block_size(order);
        if order > MAX_ORDER
            || addr.0 < self.base
            || addr.0 + bs > self.base + self.size
            || !is_aligned(addr.0 - self.base, bs)
        {
            return Err(BuddyError::BadFree);
        }
        let frame = (addr.0 - self.base) >> 12;
        let maps = &mut *self.maps;
        if !word_masks(frame, 1 << order).all(|(w, m)| maps.allocated.word(w) & m == m) {
            return Err(BuddyError::BadFree);
        }
        for (w, mask) in word_masks(frame, 1 << order) {
            maps.allocated.clear_bits(w, mask);
        }
        let mut idx = frame >> order;
        let mut order = order;
        // Coalesce with the buddy while possible. A buddy past the end of
        // the range is never on a free list, so no bounds check is needed.
        while order < MAX_ORDER && maps.free[order as usize].remove(idx ^ 1) {
            idx /= 2;
            order += 1;
        }
        maps.free[order as usize].insert(idx);
        Ok(())
    }

    /// Free 4 KiB frames, each exactly as `free(pa, 0)` would: the result
    /// is `BadFree` if any frame was refused (misaligned, out of range,
    /// not allocated, or repeated), and every other frame is freed.
    ///
    /// Consecutive frames in one 64-frame bitmap word are freed together.
    /// The buddy of an order-0 frame lies in the same word, so the word
    /// goes straight to the order-0 free list unless a frame meets a free
    /// buddy there; only such a word takes the single-frame path. The
    /// final state does not depend on the order of the frames: a buddy
    /// allocator's free lists are determined by which frames are free.
    pub fn free_pages(&mut self, frames: &[PhysAddr]) -> Result<(), BuddyError> {
        let mut refused = false;
        let (mut word, mut mask) = (0, 0);
        for &pa in frames {
            if pa.0 < self.base || pa.0 >= self.base + self.size || !is_aligned(pa.0, PAGE_4K) {
                refused = true;
                continue;
            }
            let f = (pa.0 - self.base) >> 12;
            if f >> 6 != word {
                self.free_word(word, mask);
                (word, mask) = (f >> 6, 0);
            }
            let bit = 1 << (f & 63);
            if mask & bit != 0 || self.maps.allocated.word(word) & bit == 0 {
                refused = true;
                continue;
            }
            mask |= bit;
        }
        self.free_word(word, mask);
        if refused {
            Err(BuddyError::BadFree)
        } else {
            Ok(())
        }
    }

    /// Free the allocated frames `mask` of bitmap word `word`.
    fn free_word(&mut self, word: u64, mask: u64) {
        const EVEN: u64 = 0x5555_5555_5555_5555;
        let maps = &mut *self.maps;
        let both = mask | maps.free[0].word(word);
        if both & (both >> 1) & EVEN == 0 {
            // No frame pairs with a free buddy: nothing coalesces.
            if mask != 0 {
                maps.allocated.clear_bits(word, mask);
                maps.free[0].set_bits(word, mask);
            }
            return;
        }
        for b in bit_indices(mask) {
            let pa = PhysAddr(self.base + (((word << 6) | b) << 12));
            self.free(pa, 0).expect("frame checked allocated");
        }
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
            .find(|&o| self.maps.free[o as usize].len != 0)
    }

    /// Fragment the allocator to emulate a long-running host: allocates
    /// single 4 KiB pages and frees every other one, leaving a
    /// checkerboard that prevents large contiguous allocations. `fraction`
    /// is the share of total memory to churn (0.0 ..= 1.0).
    ///
    /// Returns the pages left allocated (the caller may keep or free them).
    pub fn fragment(&mut self, fraction: f64) -> Vec<PhysAddr> {
        let fraction = fraction.clamp(0.0, 1.0);
        let target_pages = ((self.size as f64 * fraction) / PAGE_4K as f64) as usize;
        let mut taken = Vec::new();
        // Running out of memory just ends the churn early.
        let _ = self.alloc_pages(target_pages, &mut taken);
        // Free every other page: buddies can never coalesce past order 0.
        let freed: Vec<_> = taken.iter().skip(1).step_by(2).copied().collect();
        self.free_pages(&freed)
            .expect("freeing just-allocated pages");
        taken.into_iter().step_by(2).collect()
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
    fn free_refuses_a_block_with_a_free_frame() {
        // Freeing a block's second frame first leaves the block
        // overlapping free memory: the whole-block free must be refused,
        // or `allocated()` wraps and the free frame is handed out twice.
        let mut b = mk(1 << 20);
        let a = b.alloc(1).unwrap();
        b.free(a + PAGE_4K, 0).unwrap();
        assert_eq!(b.free(a, 1), Err(BuddyError::BadFree));
        assert_eq!(b.allocated(), PAGE_4K);
        b.free(a, 0).unwrap();
        assert_eq!(b.allocated(), 0);
        assert_eq!(b.largest_free_order(), Some(8));
    }

    #[test]
    fn batch_calls_on_a_checkerboard() {
        let mut b = mk(1 << 20);
        let held = b.fragment(0.25); // 64 frames taken, the odd 32 freed
        assert_eq!(held.len(), 32);
        let mut got = Vec::new();
        // 32 isolated holes, then a split of the lowest free 256 KiB block.
        b.alloc_pages(40, &mut got).unwrap();
        let holes = (0..32).map(|i| PhysAddr((2 * i + 1) * PAGE_4K));
        let split = (64..72).map(|i| PhysAddr(i * PAGE_4K));
        assert_eq!(got, holes.chain(split).collect::<Vec<_>>());
        assert_eq!(b.free_pages(&got), Ok(()));
        assert_eq!(b.free_pages(&got[..1]), Err(BuddyError::BadFree));
        assert_eq!(b.free_pages(&held), Ok(()));
        assert_eq!((b.allocated(), b.largest_free_order()), (0, Some(8)));
    }

    #[test]
    fn allocator_stays_three_words() {
        // Every simulated node stores one inline.
        assert_eq!(std::mem::size_of::<BuddyAllocator>(), 24);
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
