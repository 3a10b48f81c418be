//! Mergeable streaming quantile sketch + input-size binning.
//!
//! [`QuantileSketch`] is a DDSketch-style log-bucketed quantile summary:
//! values land in geometrically spaced buckets, so the sketch holds a
//! *relative-accuracy* guarantee (a quantile estimate is within
//! `2·`[`ALPHA`] of the true value, relatively) in bounded memory, and —
//! unlike t-digest or GK compaction — its merge is plain bucket-count
//! addition: exactly associative, exactly commutative, and
//! deterministic. That is the property the footprint pipeline needs:
//! per-shard sketches merged in any order must produce byte-identical
//! profiles on every replica.
//!
//! [`size_bucket`]/[`bucket_label`] provide the fixed power-of-two
//! input-size binning used to key per-tool footprint profiles: real
//! tool footprints vary with input size (rapids-singlecell's batching
//! observation), so profiles are learned per `(tool, size bucket)`,
//! not per tool alone.

use std::collections::BTreeMap;

/// Relative accuracy of every sketch: quantile estimates are within ~2%
/// of the true value. At this accuracy the bucket index range below caps
/// the sketch at a few thousand buckets regardless of stream length.
/// One accuracy for all sketches is what lets any two of them merge.
pub const ALPHA: f64 = 0.01;

/// Bucket indices are clamped to this symmetric range, bounding memory
/// to `2 * MAX_BUCKET_INDEX + 2` buckets in the worst case. With
/// [`ALPHA`] this covers values from ~1e-9 to ~1e+12 before
/// saturating into the edge buckets.
const MAX_BUCKET_INDEX: i32 = 1 << 11;

/// A mergeable, bounded-memory streaming quantile sketch over
/// non-negative samples (memory footprints, runtimes).
///
/// Buckets are geometric: positive value `v` lands in bucket
/// `ceil(ln(v) / ln(gamma))` with `gamma = (1 + ALPHA) / (1 - ALPHA)`.
/// Zero (and any negative input, clamped) lands in a dedicated zero
/// bucket. Exact `min`/`max`/`sum`/`count` ride along so the edge
/// quantiles and the mean stay exact.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    gamma_ln: f64,
    buckets: BTreeMap<i32, u64>,
    zero_count: u64,
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for QuantileSketch {
    /// An empty sketch.
    fn default() -> Self {
        let gamma = (1.0 + ALPHA) / (1.0 - ALPHA);
        QuantileSketch {
            gamma_ln: gamma.ln(),
            buckets: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl QuantileSketch {
    /// Record one sample. Non-finite samples are ignored; negatives are
    /// clamped to zero (footprints and runtimes are non-negative).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let value = value.max(0.0);
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= 0.0 {
            self.zero_count += 1;
        } else {
            let idx = self.bucket_index(value);
            *self.buckets.entry(idx).or_insert(0) += 1;
        }
    }

    fn bucket_index(&self, value: f64) -> i32 {
        let raw = (value.ln() / self.gamma_ln).ceil();
        (raw as i32).clamp(-MAX_BUCKET_INDEX, MAX_BUCKET_INDEX)
    }

    /// Representative value for a bucket: the geometric interior point
    /// `2·gamma^i / (gamma + 1)`, which is within [`ALPHA`] (relatively)
    /// of every value the bucket can hold.
    fn bucket_value(&self, idx: i32) -> f64 {
        let gamma = self.gamma_ln.exp();
        2.0 * (idx as f64 * self.gamma_ln).exp() / (gamma + 1.0)
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum sample (`None` while empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample (`None` while empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact running sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`, clamped). Returns
    /// `None` while empty. Estimates are clamped into `[min, max]`, so
    /// `quantile(0.0)` and `quantile(1.0)` are exact.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return Some(self.max);
        }
        // 1-based target rank of the q-quantile in the sorted stream.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero_count;
        if seen >= target {
            return Some(0.0);
        }
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                return Some(self.bucket_value(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another sketch into this one. Addition of bucket counts
    /// makes the merge exactly associative, commutative, and
    /// deterministic.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Buckets currently occupied (memory proxy; bounded by the index
    /// clamp regardless of stream length).
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.len() + usize::from(self.zero_count > 0)
    }
}

/// Fixed power-of-two input-size bucket index for a size in MiB:
/// bucket `b` covers `[2^b, 2^(b+1))` MiB, with sizes below 1 MiB in
/// bucket 0. Fixed (not data-driven) so the same input always lands in
/// the same profile row on every node and every run.
pub fn size_bucket(size_mib: u64) -> u32 {
    let s = size_mib.max(1);
    63 - s.leading_zeros()
}

/// Human-readable label for a [`size_bucket`] index, e.g. `"[4,8)MiB"`.
pub fn bucket_label(bucket: u32) -> String {
    let bucket = bucket.min(62);
    format!("[{},{})MiB", 1u64 << bucket, 1u64 << (bucket + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl QuantileSketch {
        /// Exact mean (`None` while empty).
        fn mean(&self) -> Option<f64> {
            (self.count > 0).then_some(self.sum / self.count as f64)
        }
    }

    fn filled(values: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::default();
        for &v in values {
            s.observe(v);
        }
        s
    }

    #[test]
    fn empty_sketch_answers_none() {
        let s = QuantileSketch::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn quantiles_are_within_relative_error() {
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        let s = filled(&values);
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let exact = values[((q * values.len() as f64).ceil() as usize - 1).min(9_999)];
            let est = s.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 2.0 * ALPHA + 1e-9, "q={q}: est {est} vs exact {exact} rel {rel}");
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(10_000.0));
    }

    #[test]
    fn merge_equals_observing_the_concatenation() {
        let a: Vec<f64> = (1..500).map(|i| (i as f64) * 1.7).collect();
        let b: Vec<f64> = (1..900).map(|i| (i as f64) * 0.3).collect();
        let mut left = filled(&a);
        left.merge(&filled(&b));
        let both = filled(&[a, b].concat());
        assert_eq!(left, both);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let a = filled(&[1.0, 5.0, 9.0]);
        let b = filled(&[2.0, 1_000.0]);
        let c = filled(&[0.0, 0.5, 77.7]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn zero_and_negative_samples_land_in_the_zero_bucket() {
        let s = filled(&[0.0, -3.0, 4.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let s = filled(&[f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.5), Some(2.0));
    }

    #[test]
    fn memory_stays_bounded_under_a_long_heavy_tailed_stream() {
        let mut s = QuantileSketch::default();
        let mut x = 1.0_f64;
        for i in 0..200_000u64 {
            // Deterministic multiplicative walk spanning many decades.
            x = (x * 1.618).rem_euclid(1e9) + 1e-6;
            s.observe(x + i as f64 * 1e-3);
        }
        assert_eq!(s.count(), 200_000);
        assert!(s.occupied_buckets() <= 2 * MAX_BUCKET_INDEX as usize + 2);
        assert!(s.occupied_buckets() < 4_000, "got {}", s.occupied_buckets());
    }

    #[test]
    fn size_buckets_are_power_of_two_ranges() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 0);
        assert_eq!(size_bucket(2), 1);
        assert_eq!(size_bucket(3), 1);
        assert_eq!(size_bucket(4), 2);
        assert_eq!(size_bucket(1_023), 9);
        assert_eq!(size_bucket(1_024), 10);
        assert_eq!(bucket_label(0), "[1,2)MiB");
        assert_eq!(bucket_label(10), "[1024,2048)MiB");
    }
}
