//! Per-core (striped) counters: contended-write-free on the hot path,
//! merged on read.
//!
//! A [`StripedCells`] is `N` logical `u64` counters materialized as one
//! *slab* of `N` atomics **per writing thread** (lazily allocated on the
//! thread's first write, like per-core counter pages in scalable kernels).
//! Writers only ever touch their own slab — a plain `Relaxed` `fetch_add`
//! with no cross-core cache-line bouncing — and a read sums the slabs.
//! Reads are therefore O(threads) and *eventually exact*: a read
//! concurrent with writers may miss in-flight increments, but a read that
//! happens-after all writes (e.g. after joining the producer threads, or
//! under the single-threaded simulator) is exact. Merging is plain
//! addition, so the single-threaded path produces bit-identical totals to
//! the old non-atomic fields — the property the same-seed replay tests pin.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of slab slots. Thread stripe ids are assigned round-robin, so
/// more than `STRIPES` concurrent writers start sharing slabs (still
/// correct — the slots are atomics — just with some contention again).
pub const STRIPES: usize = 16;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    static STRIPE_ID: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// The calling thread's stripe slot (stable for the thread's lifetime).
pub fn stripe_id() -> usize {
    STRIPE_ID.with(|s| *s)
}

/// `N` logical counters, striped per writing thread.
pub struct StripedCells<const N: usize> {
    slabs: [OnceLock<Box<[AtomicU64; N]>>; STRIPES],
}

impl<const N: usize> Default for StripedCells<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> StripedCells<N> {
    pub fn new() -> StripedCells<N> {
        StripedCells {
            slabs: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The calling thread's slab, allocated on first use.
    fn my_slab(&self) -> &[AtomicU64; N] {
        self.slabs[stripe_id()].get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU64::new(0))))
    }

    /// Add `n` to counter `i` (contended-write-free: own slab only).
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.my_slab()[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Raise counter `i` to at least `v` (per-slab max; the merged read
    /// takes the max across slabs).
    #[inline]
    pub fn raise(&self, i: usize, v: u64) {
        self.my_slab()[i].fetch_max(v, Ordering::Relaxed);
    }

    /// Sum of counter `i` across all slabs.
    pub fn sum(&self, i: usize) -> u64 {
        self.slabs
            .iter()
            .filter_map(|s| s.get())
            .map(|s| s[i].load(Ordering::Relaxed))
            .sum()
    }

    /// Max of counter `i` across all slabs (pairs with [`Self::raise`]).
    pub fn max(&self, i: usize) -> u64 {
        self.slabs
            .iter()
            .filter_map(|s| s.get())
            .map(|s| s[i].load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Number of slabs that have been touched (diagnostics: how many
    /// distinct writer stripes this instance has seen).
    pub fn active_slabs(&self) -> usize {
        self.slabs.iter().filter(|s| s.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_sums_are_exact() {
        let c: StripedCells<3> = StripedCells::new();
        c.add(0, 5);
        c.add(0, 7);
        c.add(2, 1);
        assert_eq!(c.sum(0), 12);
        assert_eq!(c.sum(1), 0);
        assert_eq!(c.sum(2), 1);
        assert_eq!(c.active_slabs(), 1);
    }

    #[test]
    fn concurrent_adds_merge_to_the_exact_total() {
        let c: Arc<StripedCells<1>> = Arc::new(StripedCells::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(0, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.sum(0), 80_000);
    }

    #[test]
    fn raise_merges_as_max() {
        let c: Arc<StripedCells<1>> = Arc::new(StripedCells::new());
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.raise(0, 10 * (k + 1)))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.max(0), 40);
    }
}
