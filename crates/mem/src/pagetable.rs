//! A 4-level, x86_64-style radix page table.
//!
//! The PicoDriver fast path (§3.4) walks page tables directly — instead of
//! collecting `struct page` references via `get_user_pages()` — to discover
//! physically contiguous runs and build SDMA requests up to 10 KB. This
//! module provides that structure faithfully: 512-entry tables, leaf
//! entries at level 1 (4 KiB), level 2 (2 MiB) and level 3 (1 GiB), and a
//! walker that reports how many levels it touched (the fast-path cost
//! model charges per level).

use crate::addr::{is_aligned, PageSize, PhysAddr, PhysRun, VirtAddr, PAGE_4K};

/// Page-table entry permission/state flags.
pub mod flags {
    /// Entry is valid.
    pub const PRESENT: u8 = 1 << 0;
    /// Writable.
    pub const WRITE: u8 = 1 << 1;
    /// User-accessible.
    pub const USER: u8 = 1 << 2;
    /// Backing frames are pinned (cannot be reclaimed/swapped).
    pub const PINNED: u8 = 1 << 3;
}

/// Errors from page-table operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtError {
    /// Address not aligned for the requested page size.
    Misaligned,
    /// The range is already (partially) mapped.
    AlreadyMapped,
    /// Attempt to unmap / translate an unmapped address.
    NotMapped,
    /// A huge-page leaf sits where a lower-level table is required.
    SplitsHugePage,
    /// Non-canonical virtual address.
    NonCanonical,
}

/// One leaf translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Physical address corresponding to the queried virtual address.
    pub pa: PhysAddr,
    /// Size of the mapping's page.
    pub page_size: PageSize,
    /// Entry flags.
    pub flags: u8,
    /// Levels traversed to find the leaf (1 ..= 4).
    pub levels_walked: u8,
}

#[derive(Debug)]
enum Entry {
    Empty,
    Table(Box<Table>),
    Leaf {
        /// Physical base of the page.
        pa: u64,
        flags: u8,
    },
}

#[derive(Debug)]
struct Table {
    entries: Vec<Entry>, // always 512
    /// Non-empty entries; a non-root table is freed when this hits 0.
    live: u16,
}

impl Table {
    fn new() -> Box<Table> {
        Box::new(Table {
            entries: (0..512).map(|_| Entry::Empty).collect(),
            live: 0,
        })
    }

    /// Deep-copy the subtree, adding `delta` to every leaf physical base.
    fn clone_rebased(&self, delta: u64) -> Box<Table> {
        Box::new(Table {
            live: self.live,
            entries: self
                .entries
                .iter()
                .map(|e| match e {
                    Entry::Empty => Entry::Empty,
                    Entry::Table(t) => Entry::Table(t.clone_rebased(delta)),
                    Entry::Leaf { pa, flags } => Entry::Leaf {
                        pa: pa + delta,
                        flags: *flags,
                    },
                })
                .collect(),
        })
    }

    /// Remove the leaf covering `va` from this level-`level` subtree,
    /// freeing any child table the removal leaves empty.
    fn unmap(&mut self, va: u64, level: u8) -> Result<(PhysAddr, PageSize), PtError> {
        let idx = index(va, level);
        let removed = match &mut self.entries[idx] {
            Entry::Empty => return Err(PtError::NotMapped),
            Entry::Leaf { pa, .. } => {
                let size = match level {
                    1 => PageSize::Size4K,
                    2 => PageSize::Size2M,
                    3 => PageSize::Size1G,
                    _ => return Err(PtError::NotMapped),
                };
                if !is_aligned(va, size.bytes()) {
                    // Unmapping mid-page: caller must pass the page base.
                    return Err(PtError::Misaligned);
                }
                (PhysAddr(*pa), size)
            }
            Entry::Table(t) => {
                let removed = t.unmap(va, level - 1)?;
                if t.live > 0 {
                    return Ok(removed);
                }
                removed
            }
        };
        self.entries[idx] = Entry::Empty;
        self.live -= 1;
        Ok(removed)
    }

    /// Remove every leaf of this level-`level` subtree, which maps from
    /// `base`, whose base address lies in `[lo, hi)`; frees each child
    /// table left empty. Returns the number of leaves removed.
    fn unmap_span(&mut self, base: u64, level: u8, lo: u64, hi: u64) -> u64 {
        let span = 1u64 << (12 + 9 * (level as u64 - 1));
        let first = (lo.max(base) - base) / span;
        let last = (hi - base).div_ceil(span).min(512);
        let mut removed = 0;
        for i in first..last {
            let start = base + i * span;
            let entry = &mut self.entries[i as usize];
            match entry {
                Entry::Empty => continue,
                Entry::Leaf { .. } if start < lo => continue,
                Entry::Leaf { .. } => removed += 1,
                Entry::Table(t) => {
                    removed += t.unmap_span(start, level - 1, lo, hi);
                    if t.live > 0 {
                        continue;
                    }
                }
            }
            *entry = Entry::Empty;
            self.live -= 1;
        }
        removed
    }
}

/// Index of `va` at `level` (4 = PML4 .. 1 = PT).
#[inline]
fn index(va: u64, level: u8) -> usize {
    ((va >> (12 + 9 * (level - 1) as u64)) & 0x1FF) as usize
}

/// The level at which a leaf of the given size lives.
#[inline]
fn leaf_level(size: PageSize) -> u8 {
    match size {
        PageSize::Size4K => 1,
        PageSize::Size2M => 2,
        PageSize::Size1G => 3,
    }
}

/// A 4-level page table.
#[derive(Debug)]
pub struct PageTable {
    root: Box<Table>,
    mapped_pages: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// An empty table.
    pub fn new() -> PageTable {
        PageTable {
            root: Table::new(),
            mapped_pages: 0,
        }
    }

    /// Number of leaf mappings currently installed.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Deep-copy the table, adding `delta` to every leaf physical address.
    ///
    /// Node address spaces in a homogeneous cluster are identical modulo a
    /// constant physical offset (each node's frame pool starts at
    /// `node_idx << 40`); this is the clone that lets one booted template
    /// stand in for all of them. Virtual addresses — the radix structure —
    /// are untouched.
    pub fn clone_rebased(&self, delta: u64) -> PageTable {
        PageTable {
            root: self.root.clone_rebased(delta),
            mapped_pages: self.mapped_pages,
        }
    }

    /// Install a mapping `va -> pa` of the given page size.
    pub fn map(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        fl: u8,
    ) -> Result<(), PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        if !is_aligned(va.0, size.bytes()) || !is_aligned(pa.0, size.bytes()) {
            return Err(PtError::Misaligned);
        }
        let target = leaf_level(size);
        let table = self.table_for(va.0, target)?;
        let entry = &mut table.entries[index(va.0, target)];
        if !matches!(entry, Entry::Empty) {
            return Err(PtError::AlreadyMapped);
        }
        *entry = Entry::Leaf {
            pa: pa.0,
            flags: fl | flags::PRESENT,
        };
        table.live += 1;
        self.mapped_pages += 1;
        Ok(())
    }

    /// Map `frames[i]` at `va + i * 4 KiB` with 4 KiB leaves, exactly as
    /// that many [`map`](Self::map) calls in order would, but descending
    /// once per level-1 table. On error, returns how many pages were
    /// mapped before the page that failed, and that page's error.
    pub fn map_4k_run(
        &mut self,
        va: VirtAddr,
        frames: &[PhysAddr],
        fl: u8,
    ) -> Result<(), (usize, PtError)> {
        let mut done = 0;
        while done < frames.len() {
            let cur = va.0 + done as u64 * PAGE_4K;
            // The pages of one level-1 table share one 2 MiB-aligned span,
            // so they share canonicity and `va`'s alignment.
            let chunk = &frames[done..frames.len().min(done + 512 - index(cur, 1))];
            let fail = if !VirtAddr(cur).is_canonical() {
                Some((0, PtError::NonCanonical))
            } else if !is_aligned(cur, PAGE_4K) {
                Some((0, PtError::Misaligned))
            } else {
                chunk
                    .iter()
                    .position(|pa| !is_aligned(pa.0, PAGE_4K))
                    .map(|i| (i, PtError::Misaligned))
            };
            let ok = fail.map_or(chunk.len(), |(i, _)| i);
            if ok > 0 {
                let table = self.table_for(cur, 1).map_err(|e| (done, e))?;
                let mut filled = 0;
                for (pa, entry) in chunk[..ok].iter().zip(&mut table.entries[index(cur, 1)..]) {
                    if !matches!(entry, Entry::Empty) {
                        break;
                    }
                    *entry = Entry::Leaf {
                        pa: pa.0,
                        flags: fl | flags::PRESENT,
                    };
                    filled += 1;
                }
                table.live += filled as u16;
                self.mapped_pages += filled as u64;
                if filled < ok {
                    return Err((done + filled, PtError::AlreadyMapped));
                }
            }
            if let Some((i, e)) = fail {
                return Err((done + i, e));
            }
            done += chunk.len();
        }
        Ok(())
    }

    /// The level-`level` table on the walk to `va`, creating missing
    /// tables on the way down. A larger leaf in the way is `AlreadyMapped`.
    fn table_for(&mut self, va: u64, level: u8) -> Result<&mut Table, PtError> {
        let mut table = &mut self.root;
        for l in (level + 1..=4).rev() {
            let idx = index(va, l);
            match &table.entries[idx] {
                Entry::Empty => {
                    table.entries[idx] = Entry::Table(Table::new());
                    table.live += 1;
                }
                Entry::Leaf { .. } => return Err(PtError::AlreadyMapped),
                Entry::Table(_) => {}
            }
            table = match &mut table.entries[idx] {
                Entry::Table(t) => t,
                _ => unreachable!("just checked or created"),
            };
        }
        Ok(table)
    }

    /// Remove the mapping covering `va`; returns what was mapped. Tables
    /// left empty by the removal are freed (the root is kept), so an
    /// address range that is mapped and unmapped repeatedly leaves no
    /// page-table pages behind.
    pub fn unmap(&mut self, va: VirtAddr) -> Result<(PhysAddr, PageSize), PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        let removed = self.root.unmap(va.0, 4)?;
        self.mapped_pages -= 1;
        Ok(removed)
    }

    /// Remove every leaf whose base address lies in `[va, va + len)` — for
    /// a page-aligned range, the leaves [`unmap`](Self::unmap) would remove
    /// at each of its pages — clearing whole spans of each table and
    /// freeing every table left empty (never the root). Returns the number
    /// of leaves removed.
    pub fn unmap_range(&mut self, va: VirtAddr, len: u64) -> u64 {
        if !va.is_canonical() {
            return 0;
        }
        // Tables index the low 48 bits; the range ends where `va`'s
        // canonical half does.
        let lo = va.0 & ((1 << 48) - 1);
        let half_end = if lo < 1 << 47 { 1 << 47 } else { 1 << 48 };
        let removed = self
            .root
            .unmap_span(0, 4, lo, lo.saturating_add(len).min(half_end));
        self.mapped_pages -= removed;
        removed
    }

    /// Translate `va` to a physical address.
    pub fn translate(&self, va: VirtAddr) -> Result<Translation, PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        let mut table = &self.root;
        let mut level = 4u8;
        let mut walked = 0u8;
        loop {
            walked += 1;
            let idx = index(va.0, level);
            match &table.entries[idx] {
                Entry::Empty => return Err(PtError::NotMapped),
                Entry::Leaf { pa, flags: fl } => {
                    let size = match level {
                        1 => PageSize::Size4K,
                        2 => PageSize::Size2M,
                        3 => PageSize::Size1G,
                        _ => return Err(PtError::NotMapped),
                    };
                    let offset = va.0 & (size.bytes() - 1);
                    return Ok(Translation {
                        pa: PhysAddr(pa + offset),
                        page_size: size,
                        flags: *fl,
                        levels_walked: walked,
                    });
                }
                Entry::Table(t) => {
                    if level == 1 {
                        return Err(PtError::NotMapped);
                    }
                    table = t;
                    level -= 1;
                }
            }
        }
    }

    /// Walk `[va, va+len)` and return the physically contiguous runs that
    /// back it, merging adjacent physical ranges — exactly what the
    /// PicoDriver fast path does before cutting SDMA requests (§3.4).
    ///
    /// Also returns the total number of page-table levels touched, for the
    /// walk-cost model. Fails if any byte of the range is unmapped.
    pub fn contiguous_runs(&self, va: VirtAddr, len: u64) -> Result<(Vec<PhysRun>, u64), PtError> {
        if len == 0 {
            return Ok((Vec::new(), 0));
        }
        let mut runs: Vec<PhysRun> = Vec::new();
        let mut cursor = va.0;
        let end = va.0 + len;
        let mut levels = 0u64;
        while cursor < end {
            let tr = self.translate(VirtAddr(cursor))?;
            levels += tr.levels_walked as u64;
            let page_end = (cursor & !(tr.page_size.bytes() - 1)) + tr.page_size.bytes();
            let chunk = (end - cursor).min(page_end - cursor);
            match runs.last_mut() {
                Some(last) if last.pa.0 + last.len == tr.pa.0 => {
                    last.len += chunk;
                }
                _ => runs.push(PhysRun {
                    pa: tr.pa,
                    len: chunk,
                }),
            }
            cursor += chunk;
        }
        Ok((runs, levels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_2M, PAGE_4K};

    #[test]
    fn map_translate_4k() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(0x4000),
            PhysAddr(0x8000),
            PageSize::Size4K,
            flags::WRITE,
        )
        .unwrap();
        let t = pt.translate(VirtAddr(0x4123)).unwrap();
        assert_eq!(t.pa, PhysAddr(0x8123));
        assert_eq!(t.page_size, PageSize::Size4K);
        assert_eq!(t.levels_walked, 4);
        assert!(t.flags & flags::WRITE != 0);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn map_translate_2m_walks_fewer_levels() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(PAGE_2M),
            PhysAddr(4 * PAGE_2M),
            PageSize::Size2M,
            flags::WRITE | flags::PINNED,
        )
        .unwrap();
        let t = pt.translate(VirtAddr(PAGE_2M + 0x1234)).unwrap();
        assert_eq!(t.pa, PhysAddr(4 * PAGE_2M + 0x1234));
        assert_eq!(t.page_size, PageSize::Size2M);
        assert_eq!(t.levels_walked, 3);
        assert!(t.flags & flags::PINNED != 0);
    }

    #[test]
    fn misaligned_and_overlap_rejected() {
        let mut pt = PageTable::new();
        assert_eq!(
            pt.map(VirtAddr(0x1001), PhysAddr(0), PageSize::Size4K, 0),
            Err(PtError::Misaligned)
        );
        pt.map(VirtAddr(0x1000), PhysAddr(0), PageSize::Size4K, 0)
            .unwrap();
        assert_eq!(
            pt.map(VirtAddr(0x1000), PhysAddr(0x2000), PageSize::Size4K, 0),
            Err(PtError::AlreadyMapped)
        );
        // Mapping a 2M page over an existing PT at the same slot fails.
        assert_eq!(
            pt.map(VirtAddr(0), PhysAddr(0), PageSize::Size2M, 0),
            Err(PtError::AlreadyMapped)
        );
    }

    #[test]
    fn unmap_restores_not_mapped() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr(0x2000), PhysAddr(0x6000), PageSize::Size4K, 0)
            .unwrap();
        let (pa, sz) = pt.unmap(VirtAddr(0x2000)).unwrap();
        assert_eq!((pa, sz), (PhysAddr(0x6000), PageSize::Size4K));
        assert_eq!(pt.translate(VirtAddr(0x2000)), Err(PtError::NotMapped));
        assert_eq!(pt.unmap(VirtAddr(0x2000)), Err(PtError::NotMapped));
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn unmap_frees_emptied_tables() {
        // Fill one whole level-1 table with 4 KiB leaves, then empty it:
        // the table must go, so a 2 MiB leaf fits in its parent slot.
        let mut pt = PageTable::new();
        let va = 7 * PAGE_2M;
        for i in 0..512 {
            pt.map(
                VirtAddr(va + i * PAGE_4K),
                PhysAddr(i * PAGE_4K),
                PageSize::Size4K,
                0,
            )
            .unwrap();
        }
        for i in 0..512 {
            pt.unmap(VirtAddr(va + i * PAGE_4K)).unwrap();
        }
        assert_eq!(pt.mapped_pages(), 0);
        pt.map(VirtAddr(va), PhysAddr(PAGE_2M), PageSize::Size2M, 0)
            .unwrap();
        assert_eq!(pt.translate(VirtAddr(va + 0x10)).unwrap().levels_walked, 3);
        // Emptying the whole tree leaves only the root.
        pt.unmap(VirtAddr(va)).unwrap();
        assert_eq!(pt.root.live, 0);
        assert!(pt.root.entries.iter().all(|e| matches!(e, Entry::Empty)));
    }

    #[test]
    fn span_calls_cross_table_boundaries_and_free_tables() {
        // 600 pages from 3 pages below 1 GiB: four level-1 tables under
        // two level-2 tables.
        let mut pt = PageTable::new();
        let va = crate::addr::PAGE_1G - 3 * PAGE_4K;
        let frames: Vec<_> = (0..600).map(|i| PhysAddr(i * PAGE_4K)).collect();
        pt.map_4k_run(VirtAddr(va), &frames, 0).unwrap();
        assert_eq!(pt.mapped_pages(), 600);
        let last = pt.translate(VirtAddr(va + 599 * PAGE_4K)).unwrap();
        assert_eq!(last.pa, PhysAddr(599 * PAGE_4K));
        // Mapping over it stops at the first taken page.
        let more: Vec<_> = (0..4).map(|i| PhysAddr(i * PAGE_4K)).collect();
        let at = VirtAddr(va - 2 * PAGE_4K);
        assert_eq!(
            pt.map_4k_run(at, &more, 0),
            Err((2, PtError::AlreadyMapped))
        );
        assert_eq!(pt.unmap_range(VirtAddr(va + PAGE_4K), 1 << 30), 599);
        assert_eq!(pt.unmap_range(at, 3 * PAGE_4K), 3);
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.root.live, 0);
    }

    #[test]
    fn non_canonical_rejected() {
        let mut pt = PageTable::new();
        let bad = VirtAddr(0x0001_0000_0000_0000);
        assert_eq!(
            pt.map(bad, PhysAddr(0), PageSize::Size4K, 0),
            Err(PtError::NonCanonical)
        );
        assert_eq!(pt.translate(bad), Err(PtError::NonCanonical));
    }

    #[test]
    fn contiguous_runs_merge_adjacent_frames() {
        let mut pt = PageTable::new();
        // Three adjacent physical pages, one gap, then one more.
        for (i, pa) in [0x10000u64, 0x11000, 0x12000, 0x20000].iter().enumerate() {
            pt.map(
                VirtAddr(0x4000 + i as u64 * PAGE_4K),
                PhysAddr(*pa),
                PageSize::Size4K,
                0,
            )
            .unwrap();
        }
        let (runs, levels) = pt.contiguous_runs(VirtAddr(0x4000), 4 * PAGE_4K).unwrap();
        assert_eq!(
            runs,
            vec![
                PhysRun {
                    pa: PhysAddr(0x10000),
                    len: 3 * PAGE_4K
                },
                PhysRun {
                    pa: PhysAddr(0x20000),
                    len: PAGE_4K
                },
            ]
        );
        assert_eq!(levels, 16); // 4 pages x 4 levels
    }

    #[test]
    fn contiguous_runs_through_large_page() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr(0), PhysAddr(PAGE_2M), PageSize::Size2M, 0)
            .unwrap();
        // A 100 KiB window starting inside the 2M page is one run and one walk.
        let (runs, levels) = pt.contiguous_runs(VirtAddr(0x3000), 100 * 1024).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].pa, PhysAddr(PAGE_2M + 0x3000));
        assert_eq!(runs[0].len, 100 * 1024);
        assert_eq!(levels, 3);
    }

    #[test]
    fn clone_rebased_shifts_leaves_only() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(0x4000),
            PhysAddr(0x10000),
            PageSize::Size4K,
            flags::WRITE,
        )
        .unwrap();
        pt.map(
            VirtAddr(PAGE_2M),
            PhysAddr(4 * PAGE_2M),
            PageSize::Size2M,
            flags::PINNED,
        )
        .unwrap();
        let delta = 7u64 << 40;
        let shifted = pt.clone_rebased(delta);
        assert_eq!(shifted.mapped_pages(), pt.mapped_pages());
        let t = shifted.translate(VirtAddr(0x4123)).unwrap();
        assert_eq!(t.pa, PhysAddr(delta + 0x10123));
        assert_eq!(t.flags, flags::WRITE | flags::PRESENT);
        let t2 = shifted.translate(VirtAddr(PAGE_2M + 0x99)).unwrap();
        assert_eq!(t2.pa, PhysAddr(delta + 4 * PAGE_2M + 0x99));
        assert_eq!(t2.page_size, PageSize::Size2M);
        // The original is untouched and the copy is independent.
        let mut shifted = shifted;
        shifted.unmap(VirtAddr(0x4000)).unwrap();
        assert!(pt.translate(VirtAddr(0x4000)).is_ok());
    }

    #[test]
    fn contiguous_runs_partial_unmapped_fails() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr(0x1000), PhysAddr(0x5000), PageSize::Size4K, 0)
            .unwrap();
        assert_eq!(
            pt.contiguous_runs(VirtAddr(0x1000), 2 * PAGE_4K),
            Err(PtError::NotMapped)
        );
        // Zero-length walk is trivially fine.
        let (runs, levels) = pt.contiguous_runs(VirtAddr(0x1000), 0).unwrap();
        assert!(runs.is_empty());
        assert_eq!(levels, 0);
    }
}
