//! Lightweight statistics used throughout the simulator: per-key time
//! accumulators (the MPI and kernel profilers are built on these) and
//! log₂-bucketed histograms.

use crate::fastmap::FastMap;
use crate::time::Ns;
use std::hash::Hash;

/// Accumulates `(count, total duration)` per key. This is the backbone of
/// both the `I_MPI_STATS`-style MPI profiler (key = MPI call) and the
/// in-kernel profiler of Figures 8/9 (key = syscall number). Backed by
/// [`FastMap`]: `record` runs once per syscall/MPI call on every rank,
/// where SipHash was pure overhead.
#[derive(Clone, Debug)]
pub struct TimeByKey<K: Eq + Hash> {
    map: FastMap<K, (u64, Ns)>,
}

impl<K: Eq + Hash> Default for TimeByKey<K> {
    fn default() -> Self {
        TimeByKey {
            map: FastMap::new(),
        }
    }
}

impl<K: Eq + Hash + Clone> TimeByKey<K> {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one occurrence of `key` lasting `dur`.
    pub fn record(&mut self, key: K, dur: Ns) {
        let e = self.map.get_or_insert_with(key, || (0, Ns::ZERO));
        e.0 += 1;
        e.1 += dur;
    }

    /// `(count, total)` for `key`.
    pub fn get(&self, key: &K) -> (u64, Ns) {
        self.map.get(key).copied().unwrap_or((0, Ns::ZERO))
    }

    /// Heap bytes resident in the accumulator.
    pub fn heap_bytes(&self) -> usize {
        self.map.heap_bytes()
    }

    /// Sum of all recorded durations.
    pub fn grand_total(&self) -> Ns {
        self.map.values().map(|&(_, t)| t).sum()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All entries sorted by descending total time (then by count). The
    /// caller supplies a key-ordering tiebreak via `Ord` on `K` being
    /// unnecessary: ties on time+count are broken deterministically only
    /// if the caller sorts again, so we require no `Ord` here.
    pub fn sorted_desc(&self) -> Vec<(K, u64, Ns)>
    where
        K: Ord,
    {
        let mut v: Vec<(K, u64, Ns)> = self
            .map
            .iter()
            .map(|(k, &(c, t))| (k.clone(), c, t))
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(b.1.cmp(&a.1)).then(a.0.cmp(&b.0)));
        v
    }

    /// Merge another accumulator into this one (used to aggregate ranks).
    pub fn merge(&mut self, other: &TimeByKey<K>) {
        for (k, &(c, t)) in other.map.iter() {
            let e = self.map.get_or_insert_with(k.clone(), || (0, Ns::ZERO));
            e.0 += c;
            e.1 += t;
        }
    }
}

/// A log₂-bucketed histogram of `u64` samples (latencies, sizes).
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `buckets[i]` counts samples with `floor(log2(v)) == i`; bucket 0
    /// additionally holds zeros.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }
    /// Mean of samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }
    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile from the bucketed distribution: returns the
    /// upper bound of the bucket containing the q-quantile.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i == 0 {
                    0
                } else {
                    (1u64 << i).saturating_sub(1) | (1 << (i - 1))
                });
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_by_key_accumulates_and_sorts() {
        let mut t = TimeByKey::new();
        t.record("wait", Ns(100));
        t.record("wait", Ns(50));
        t.record("barrier", Ns(400));
        t.record("init", Ns(10));
        assert_eq!(t.get(&"wait"), (2, Ns(150)));
        assert_eq!(t.grand_total(), Ns(560));
        let sorted = t.sorted_desc();
        assert_eq!(sorted[0].0, "barrier");
        assert_eq!(sorted[1].0, "wait");
        assert_eq!(sorted[2].0, "init");
    }

    #[test]
    fn time_by_key_merge() {
        let mut a = TimeByKey::new();
        a.record(1u32, Ns(5));
        let mut b = TimeByKey::new();
        b.record(1u32, Ns(7));
        b.record(2u32, Ns(3));
        a.merge(&b);
        assert_eq!(a.get(&1), (2, Ns(12)));
        assert_eq!(a.get(&2), (1, Ns(3)));
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean() - (1106.0 / 6.0)).abs() < 1e-9);
        assert!(h.quantile(0.0).is_some());
        assert!(h.quantile(1.0).unwrap() >= 512);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(1000));
        assert_eq!(a.min(), Some(10));
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
    }
}
