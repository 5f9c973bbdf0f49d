//! Deterministic metrics: named counters and log2-bucketed histograms.
//!
//! Everything here is plain integer arithmetic over `BTreeMap`s keyed by
//! `&'static str`, so snapshots iterate in a stable order and merging two
//! registries (e.g. per-rank shards) is associative and commutative —
//! the properties the proptests in `tests/properties.rs` pin down.

use std::collections::BTreeMap;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `k`
/// (1 ≤ k ≤ 64) holds values in `[2^(k-1), 2^k - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` observations (latencies in
/// nanoseconds, sizes in bytes). Fixed memory, O(1) record, exact
/// count/sum/min/max, quantiles answered as bucket bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value: 0 for 0, else `64 - leading_zeros(v)`.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive lower edge of bucket `b`.
    pub fn lower_edge(b: usize) -> u64 {
        assert!(b < HIST_BUCKETS);
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Inclusive upper edge of bucket `b`.
    pub fn upper_edge(b: usize) -> u64 {
        assert!(b < HIST_BUCKETS);
        match b {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` in. Field-wise addition (min/max take the extremum),
    /// so merging is associative and commutative, and merging shards
    /// equals recording the concatenated observation stream.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Mean of the recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Bounds of the bucket holding the `q`-quantile (0 ≤ q ≤ 1) of the
    /// recorded values: the true quantile value lies within the returned
    /// inclusive `(lower, upper)` edges. `None` when empty.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((Self::lower_edge(b), Self::upper_edge(b)));
            }
        }
        unreachable!("rank {rank} beyond count {}", self.count)
    }
}

/// Named counters and histograms with deterministic iteration order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Fold another registry in (field-wise; associative + commutative).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in other.counters() {
            self.inc(k, v);
        }
        for (k, h) in other.histograms() {
            self.hists.entry(k).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_bracket_their_values() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let b = Histogram::bucket_of(v);
            assert!(Histogram::lower_edge(b) <= v, "v={v} b={b}");
            assert!(v <= Histogram::upper_edge(b), "v={v} b={b}");
        }
    }

    #[test]
    fn edges_are_contiguous() {
        for b in 0..HIST_BUCKETS - 1 {
            assert_eq!(
                Histogram::upper_edge(b).wrapping_add(1),
                Histogram::lower_edge(b + 1),
                "gap after bucket {b}"
            );
        }
        assert_eq!(Histogram::upper_edge(64), u64::MAX);
    }

    #[test]
    fn record_tracks_exact_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile_bounds(0.5), None);
        for v in [5u64, 0, 1000, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        let (lo, hi) = h.quantile_bounds(1.0).unwrap();
        assert!(lo <= 1000 && 1000 <= hi);
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
            all.record(v);
        }
        for v in [100u64, 0] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_merges_and_reads_back() {
        let mut a = MetricsRegistry::new();
        a.inc("pkts", 3);
        a.observe("lat", 10);
        let mut b = MetricsRegistry::new();
        b.inc("pkts", 4);
        b.inc("drops", 1);
        b.observe("lat", 20);
        a.merge(&b);
        assert_eq!(a.counter("pkts"), 7);
        assert_eq!(a.counter("drops"), 1);
        assert_eq!(a.counter("absent"), 0);
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
    }
}
