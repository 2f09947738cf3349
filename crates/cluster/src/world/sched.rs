//! The two structures every dispatch touches besides the event queue:
//! the soft schedule and each node's multiset of pending times.

use super::{SinkSlot, SoftItem, SoftKind};
use pico_sim::Ns;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The soft schedule: a binary min-heap of [`SoftItem`]s on `(at, seq)`,
/// so a push or a pop costs O(log n) however many deliveries are
/// outstanding.
///
/// A sink whose merge brings in an earlier head re-keys its delivery by
/// pushing a fresh entry; the old one is cancelled lazily. A
/// `SoftKind::Sink` entry is live only while its seq is the sink's
/// [`SinkSlot::entry_seq`], and [`peek`](Self::peek) drops dead entries
/// off the top before reporting a key — so a cancelled entry never
/// dispatches, never counts as a soft delivery, and never sets a shard's
/// next window.
#[derive(Default)]
pub(super) struct SoftSchedule {
    heap: BinaryHeap<SoftItem>,
}

impl SoftSchedule {
    pub(super) fn push(&mut self, item: SoftItem) {
        self.heap.push(item);
    }

    /// Key of the earliest live entry, after dropping cancelled ones.
    /// `sinks` is indexed `node - node_base`, as in the world.
    pub(super) fn peek(&mut self, sinks: &[SinkSlot], node_base: usize) -> Option<(Ns, u64)> {
        while let Some(top) = self.heap.peek() {
            let live = match top.kind {
                SoftKind::Sink(i) => sinks[i - node_base].entry_seq == top.seq,
                SoftKind::Flow(_) | SoftKind::Ev(_) => true,
            };
            if live {
                return Some((top.at, top.seq));
            }
            self.heap.pop();
        }
        None
    }

    /// Remove the entry whose key [`peek`](Self::peek) just returned.
    pub(super) fn pop(&mut self) -> SoftItem {
        self.heap.pop().expect("pop after a successful peek")
    }
}

// `BinaryHeap` is a max-heap: the smallest `(at, seq)` must rank highest.
impl Ord for SoftItem {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for SoftItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SoftItem {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for SoftItem {}

/// One node's `node_pending` multiset of pending dispatch times, kept as
/// a sorted `Vec`: insert and remove shift O(k) marks, the earliest is
/// the first element, and the buffer stays allocated while the set
/// drains and refills.
#[derive(Clone, Default)]
pub(super) struct PendingTimes(Vec<Ns>);

impl PendingTimes {
    pub(super) fn insert(&mut self, t: Ns) {
        let pos = self.0.partition_point(|&x| x <= t);
        self.0.insert(pos, t);
    }

    /// Drop one mark at `t`; the mark must be present.
    pub(super) fn remove(&mut self, t: Ns) {
        let pos = self.0.partition_point(|&x| x < t);
        let found = self.0.get(pos) == Some(&t);
        debug_assert!(found, "no pending mark at {t}");
        if found {
            self.0.remove(pos);
        }
    }

    /// The earliest pending time.
    pub(super) fn first(&self) -> Option<Ns> {
        self.0.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_sim::Rng;
    use std::collections::BTreeMap;

    fn case_rng(master: u64, case: u64) -> Rng {
        Rng::new(master ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Push, re-key and pop against a sorted-`Vec` reference from which
    /// a re-keyed entry is removed eagerly: the heap pops the same
    /// `(at, seq)` sequence, and no cancelled entry ever surfaces. Times
    /// come from a narrow range, so a re-keyed sink regularly pushes a
    /// live entry at the very time of one of its cancelled entries.
    #[test]
    fn soft_schedule_matches_sorted_reference() {
        for case in 0..64 {
            let mut r = case_rng(0x50F7_4EA9, case);
            let node_base = (case % 3) as usize * 100;
            let nsinks = 1 + r.gen_range(6) as usize;
            let mut sinks: Vec<SinkSlot> = (0..nsinks).map(|_| SinkSlot::default()).collect();
            let mut heap = SoftSchedule::default();
            let mut reference: Vec<(Ns, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let insert = |reference: &mut Vec<(Ns, u64)>, key: (Ns, u64)| {
                let pos = reference.partition_point(|&k| k < key);
                reference.insert(pos, key);
            };
            for _ in 0..400 + r.gen_range(400) {
                match r.gen_range(4) {
                    // A delivery that is never re-keyed (a flow, an event).
                    0 => {
                        let at = Ns(now + r.gen_range(8));
                        heap.push(SoftItem {
                            at,
                            seq,
                            kind: SoftKind::Flow(0),
                        });
                        insert(&mut reference, (at, seq));
                        seq += 1;
                    }
                    // A sink defers its head, or re-keys it earlier.
                    1 | 2 => {
                        let si = r.gen_range(nsinks as u64) as usize;
                        let s = &mut sinks[si];
                        let at = if s.pending {
                            let pos = reference
                                .iter()
                                .position(|&(_, q)| q == s.entry_seq)
                                .expect("pending sink has a reference entry");
                            let (old_at, _) = reference.remove(pos);
                            if old_at.0 == now {
                                // Nothing earlier to re-key to; restore.
                                insert(&mut reference, (old_at, s.entry_seq));
                                continue;
                            }
                            Ns(now + r.gen_range(old_at.0 - now))
                        } else {
                            Ns(now + r.gen_range(8))
                        };
                        s.pending = true;
                        s.entry_seq = seq;
                        heap.push(SoftItem {
                            at,
                            seq,
                            kind: SoftKind::Sink(node_base + si),
                        });
                        insert(&mut reference, (at, seq));
                        seq += 1;
                    }
                    _ => {
                        let key = heap.peek(&sinks, node_base);
                        assert_eq!(key, reference.first().copied(), "case {case}");
                        if key.is_none() {
                            continue;
                        }
                        reference.remove(0);
                        let item = heap.pop();
                        assert_eq!(Some((item.at, item.seq)), key);
                        now = item.at.0;
                        if let SoftKind::Sink(i) = item.kind {
                            let s = &mut sinks[i - node_base];
                            assert!(s.pending && s.entry_seq == item.seq, "cancelled entry");
                            s.pending = false;
                        }
                    }
                }
            }
            while let Some(key) = heap.peek(&sinks, node_base) {
                assert_eq!(Some(key), reference.first().copied(), "case {case}");
                reference.remove(0);
                if let SoftKind::Sink(i) = heap.pop().kind {
                    let s = &mut sinks[i - node_base];
                    assert!(s.pending && s.entry_seq == key.1, "cancelled entry");
                    s.pending = false;
                }
            }
            assert!(reference.is_empty(), "case {case}: heap drained early");
        }
    }

    /// Insert, remove and `first` against a `BTreeMap<Ns, u32>` multiset.
    #[test]
    fn pending_times_match_btreemap_multiset() {
        for case in 0..64 {
            let mut r = case_rng(0x0DE9_E4D1, case);
            let mut set = PendingTimes::default();
            let mut reference: BTreeMap<Ns, u32> = BTreeMap::new();
            let mut len = 0usize;
            for _ in 0..500 {
                if len > 0 && r.gen_range(5) < 2 {
                    // Remove an existing mark, often the earliest.
                    let k = if r.gen_range(2) == 0 {
                        0
                    } else {
                        r.gen_range(reference.len() as u64) as usize
                    };
                    let t = *reference.keys().nth(k).expect("key in range");
                    set.remove(t);
                    match reference.get_mut(&t) {
                        Some(c) if *c > 1 => *c -= 1,
                        _ => {
                            reference.remove(&t);
                        }
                    }
                    len -= 1;
                } else {
                    let t = Ns(r.gen_range(32));
                    set.insert(t);
                    *reference.entry(t).or_insert(0) += 1;
                    len += 1;
                }
                assert_eq!(set.first(), reference.keys().next().copied(), "case {case}");
                assert_eq!(set.0.len(), len, "case {case}");
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "no pending mark")]
    fn pending_times_refuse_an_absent_mark() {
        let mut set = PendingTimes::default();
        set.insert(Ns(5));
        set.remove(Ns(4));
    }
}
