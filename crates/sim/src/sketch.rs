//! Constant-memory, deterministic, mergeable streaming accumulators.
//!
//! The experiment harness used to materialize O(ranks) result state per
//! run (`rank_finish: Vec<Ns>`, arrival trace rows). At 4096 nodes that
//! linear state — duplicated per shard under the sharded engine — is
//! what capped the figure sweeps at 256 nodes. This module replaces it
//! with a fixed-size log-bucket sketch:
//!
//! * **Constant memory** — a flat array of 1024 saturating `u32`
//!   counters (~4 KiB) plus exact `u64` min/max/sum/count, independent
//!   of how many samples are recorded.
//! * **Deterministic** — recording is a pure function of the value
//!   (no randomness, no timestamps), and [`Sketch::merge`] is a
//!   bucket-wise saturating add plus min/min, max/max, sum+sum:
//!   commutative and associative, so *any* permutation of shard merges
//!   produces bit-identical state. This is the same argument that makes
//!   the arrival digests order-invariant (wrapping sums), lifted to a
//!   full distribution.
//! * **Bounded quantile error** — values `< 16` land in exact unit
//!   buckets; larger values use 16 sub-buckets per power of two, so a
//!   reported quantile is at most one sub-bucket above the true sample
//!   quantile: relative error ≤ 1/16 (6.25%) plus one ulp of rounding.
//!
//! `min`, `max`, `sum` and `count` are held exactly outside the bucket
//! array, so figure code that only needs totals (e.g. `%Rt` columns)
//! is bit-identical to the old per-rank-vector path.

/// Sub-buckets per power of two: quantile relative error ≤ 1/SUB.
const SUB: u64 = 16;
/// log2(SUB), the sub-bucket shift.
const SUB_BITS: u32 = 4;
/// Bucket-array length: values `< SUB` map to unit buckets `0..SUB`;
/// a value with highest set bit `o >= SUB_BITS` maps into octave `o`'s
/// 16-slot run at `o * SUB`. The top octave is `o = 63`.
const BUCKETS: usize = 64 * SUB as usize;

/// A fixed log-bucket histogram over `u64` samples (nanoseconds in
/// practice) with exact min/max/sum/count. See the module docs for the
/// determinism and error-bound arguments.
///
/// The bucket array is boxed so an unused sketch (e.g. a run that never
/// records an arrival) costs only the struct header until first use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sketch {
    buckets: Option<Box<[u32; BUCKETS]>>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// The run-result finish-time sketch: one [`Sketch`] recording every
/// rank's completion time, replacing `rank_finish: Vec<Ns>`.
pub type FinishSketch = Sketch;

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value (pure function of `v`).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        // Highest set bit o >= SUB_BITS; sub-bucket = next SUB_BITS bits.
        let o = 63 - v.leading_zeros();
        let sub = (v >> (o - SUB_BITS)) & (SUB - 1);
        (o as usize) * SUB as usize + sub as usize
    }
}

/// Inclusive upper bound of a bucket — the value [`Sketch::quantile`]
/// reports for samples that landed in it.
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB as usize {
        idx as u64
    } else {
        let o = (idx / SUB as usize) as u32;
        let sub = (idx % SUB as usize) as u64;
        // Bucket covers [ (SUB+sub) << (o-SUB_BITS), (SUB+sub+1) << (o-SUB_BITS) ).
        let width_shift = o - SUB_BITS;
        ((SUB + sub + 1) << width_shift).wrapping_sub(1)
    }
}

impl Sketch {
    /// An empty sketch (no bucket array allocated yet).
    pub const fn new() -> Self {
        Self {
            buckets: None,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = self
            .buckets
            .get_or_insert_with(|| Box::new([0u32; BUCKETS]));
        let slot = &mut b[bucket_of(v)];
        *slot = slot.saturating_add(1);
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merge another sketch into this one. Bucket-wise saturating add
    /// plus exact min/max/sum/count folds — commutative and
    /// associative, so shard merge order cannot perturb the result.
    pub fn merge(&mut self, other: &Sketch) {
        if other.count == 0 {
            return;
        }
        if let Some(ob) = &other.buckets {
            let b = self
                .buckets
                .get_or_insert_with(|| Box::new([0u32; BUCKETS]));
            for (dst, src) in b.iter_mut().zip(ob.iter()) {
                *dst = dst.saturating_add(*src);
            }
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (wrapping) sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0..=1.0`), or `None` if empty. For the sample at exact rank
    /// `ceil(q * count)` the reported value `r` satisfies
    /// `v <= r <= v + v/16 + 1` — within 1/16 relative error above the
    /// true sample quantile `v` (exact for `v < 16`).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // q = 0 and q = 1 are exact by construction.
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let b = self.buckets.as_ref()?;
        let mut seen = 0u64;
        for (idx, &c) in b.iter().enumerate() {
            seen += c as u64;
            if seen >= target {
                // Clamp into the exact envelope: the true sample lies in
                // [min, max] even when the bucket bound overshoots.
                return Some(bucket_upper(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Heap bytes held by this sketch (0 until the first record).
    pub fn heap_bytes(&self) -> usize {
        if self.buckets.is_some() {
            BUCKETS * std::mem::size_of::<u32>()
        } else {
            0
        }
    }

    /// Order-invariant content digest (splitmix64 fold over the bucket
    /// array and the exact fields) — two sketches digest equal iff
    /// their observable state is identical. Used by the bit-invariance
    /// tests that compare runs across worker counts.
    pub fn digest(&self) -> u64 {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut h = mix(self.count)
            ^ mix(self.sum.wrapping_add(0x9e37_79b9_7f4a_7c15))
            ^ mix(self.min)
            ^ mix(self.max);
        if let Some(b) = &self.buckets {
            for (i, &c) in b.iter().enumerate() {
                if c != 0 {
                    h ^= mix((i as u64) << 32 | c as u64);
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch() {
        let s = Sketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.heap_bytes(), 0);
    }

    #[test]
    fn small_values_exact() {
        let mut s = Sketch::new();
        for v in 0..16u64 {
            s.record(v);
        }
        for q in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let exact = ((q * 16.0).ceil() as u64).clamp(1, 16) - 1;
            let got = s.quantile(q).unwrap();
            let want = if q <= 0.0 { 0 } else { exact };
            assert_eq!(got, want, "q={q}");
        }
        assert_eq!(s.sum(), (0..16).sum::<u64>());
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(15));
    }

    #[test]
    fn bucket_roundtrip_bounds() {
        // Every value's bucket upper bound is >= the value and within
        // 1/16 relative error (for v >= 16).
        for shift in 0..60 {
            for base in [1u64, 3, 7, 11, 15] {
                let v = base << shift;
                let up = bucket_upper(bucket_of(v));
                assert!(up >= v, "v={v} up={up}");
                assert!(up <= v + v / 16 + 1, "v={v} up={up}");
            }
        }
    }

    #[test]
    fn merge_matches_bulk() {
        let mut a = Sketch::new();
        let mut b = Sketch::new();
        let mut all = Sketch::new();
        for i in 0..1000u64 {
            let v = i * i * 37 + 5;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
        assert_eq!(ab.digest(), all.digest());
    }
}
