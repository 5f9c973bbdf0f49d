//! Contended-write-free protocol counters.
//!
//! [`StatsCells`] is the hot-path representation of [`NmStats`]: every
//! incrementable counter gets a constant index into an
//! [`obs::StripedCells`] slab, so a counter bump from any thread is one
//! `Relaxed` `fetch_add` on that thread's own cache lines — no shared
//! write contention, no lock. A [`StatsCells::snapshot`] merges the
//! per-thread slabs back into the plain [`NmStats`] struct that tests,
//! benchmarks and the fingerprint replay checker consume.
//!
//! Merge discipline (mirrors `obs::striped`):
//! - additive counters (`add`) merge by summation;
//! - high-water marks (`raise`, currently only `fc_peak_unex_bytes`)
//!   merge by maximum;
//! - gauges recomputed at snapshot time (`peer_entries`, rail-health and
//!   membership mirrors, the copy meter) are **not** stored here — the
//!   owner recomputes them in `NmCore::stats`, exactly as before.
//!
//! Under the single-threaded simulator only one stripe is ever touched,
//! so a snapshot is plainly the sequence of increments — bit-identical
//! to the old non-atomic field bumps, which is what keeps same-seed
//! replay fingerprints stable across this refactor.

use crate::core::NmStats;

/// Constant indices for every striped counter. Lower-case on purpose:
/// call sites read `stats.add(stat::eager_sends, 1)`, keeping the diff
/// from the old `stats.eager_sends += 1` form mechanical and greppable.
#[allow(non_upper_case_globals)]
pub mod stat {
    macro_rules! indices {
        ($($name:ident),+ $(,)?) => {
            indices!(@build 0usize; $($name),+);
        };
        (@build $idx:expr; $name:ident $(, $rest:ident)*) => {
            pub const $name: usize = $idx;
            indices!(@build $idx + 1; $($rest),*);
        };
        (@build $idx:expr;) => {
            /// Number of striped counters.
            pub const COUNT: usize = $idx;
        };
    }

    indices!(
        eager_sends,
        rdv_sends,
        packets_sent,
        aggregates_sent,
        frags_aggregated,
        data_chunks_sent,
        recv_completions,
        send_completions,
        eager_retries,
        rts_retries,
        cts_retries,
        data_retries,
        acks_sent,
        fins_sent,
        dup_envelopes,
        dup_data,
        protocol_errors,
        crc_drops,
        rerouted_bytes,
        fc_eager_admitted,
        fc_credit_stalls,
        fc_fallback_sends,
        fc_credits_returned,
        fc_credits_withheld,
        fc_peak_unex_bytes,
        membership_dead_peers,
        membership_aborted_sends,
        membership_aborted_recvs,
        membership_drained_entries,
        membership_stray_frames,
        membership_credits_released,
        membership_stale_epoch,
        revoked_epochs,
        revoked_ops,
    );
}

/// The striped counter bank behind [`NmStats`]. Shared-write-free on the
/// hot path; merged on read.
#[derive(Default)]
pub struct StatsCells {
    cells: obs::StripedCells<{ stat::COUNT }>,
}

impl StatsCells {
    pub fn new() -> StatsCells {
        StatsCells::default()
    }

    /// Bump an additive counter (see [`stat`] for indices).
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.cells.add(i, n);
    }

    /// Raise a high-water-mark counter to at least `v`.
    #[inline]
    pub fn raise(&self, i: usize, v: u64) {
        self.cells.raise(i, v);
    }

    /// Merged read of one additive counter.
    pub fn get(&self, i: usize) -> u64 {
        self.cells.sum(i)
    }

    /// Merged read of a high-water-mark counter (pairs with [`Self::raise`]).
    pub fn max_of(&self, i: usize) -> u64 {
        self.cells.max(i)
    }

    /// Merge every stripe into the plain snapshot struct. Gauges that the
    /// owner recomputes (`peer_entries`, rail health, membership
    /// transitions, the copy meter) are left at their defaults.
    pub fn snapshot(&self) -> NmStats {
        let c = &self.cells;
        NmStats {
            eager_sends: c.sum(stat::eager_sends),
            rdv_sends: c.sum(stat::rdv_sends),
            packets_sent: c.sum(stat::packets_sent),
            aggregates_sent: c.sum(stat::aggregates_sent),
            frags_aggregated: c.sum(stat::frags_aggregated),
            data_chunks_sent: c.sum(stat::data_chunks_sent),
            recv_completions: c.sum(stat::recv_completions),
            send_completions: c.sum(stat::send_completions),
            eager_retries: c.sum(stat::eager_retries),
            rts_retries: c.sum(stat::rts_retries),
            cts_retries: c.sum(stat::cts_retries),
            data_retries: c.sum(stat::data_retries),
            acks_sent: c.sum(stat::acks_sent),
            fins_sent: c.sum(stat::fins_sent),
            dup_envelopes: c.sum(stat::dup_envelopes),
            dup_data: c.sum(stat::dup_data),
            protocol_errors: c.sum(stat::protocol_errors),
            crc_drops: c.sum(stat::crc_drops),
            rail_transitions: 0,
            rerouted_bytes: c.sum(stat::rerouted_bytes),
            degraded_nanos: 0,
            probes_sent: 0,
            probe_acks: 0,
            fc_eager_admitted: c.sum(stat::fc_eager_admitted),
            fc_credit_stalls: c.sum(stat::fc_credit_stalls),
            fc_fallback_sends: c.sum(stat::fc_fallback_sends),
            fc_credits_returned: c.sum(stat::fc_credits_returned),
            fc_credits_withheld: c.sum(stat::fc_credits_withheld),
            fc_peak_unex_bytes: c.max(stat::fc_peak_unex_bytes),
            membership_transitions: 0,
            membership_dead_peers: c.sum(stat::membership_dead_peers),
            membership_aborted_sends: c.sum(stat::membership_aborted_sends),
            membership_aborted_recvs: c.sum(stat::membership_aborted_recvs),
            membership_drained_entries: c.sum(stat::membership_drained_entries),
            membership_stray_frames: c.sum(stat::membership_stray_frames),
            membership_credits_released: c.sum(stat::membership_credits_released),
            membership_stale_epoch: c.sum(stat::membership_stale_epoch),
            revoked_epochs: c.sum(stat::revoked_epochs),
            revoked_ops: c.sum(stat::revoked_ops),
            peer_entries: 0,
            copy: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn indices_are_dense_and_distinct() {
        // The macro assigns 0..COUNT; spot-check the ends.
        assert_eq!(stat::eager_sends, 0);
        assert_eq!(stat::revoked_ops, stat::COUNT - 1);
    }

    #[test]
    fn snapshot_mirrors_increments() {
        let s = StatsCells::new();
        s.add(stat::eager_sends, 2);
        s.add(stat::rdv_sends, 1);
        s.add(stat::rerouted_bytes, 4096);
        s.raise(stat::fc_peak_unex_bytes, 100);
        s.raise(stat::fc_peak_unex_bytes, 40);
        let snap = s.snapshot();
        assert_eq!(snap.eager_sends, 2);
        assert_eq!(snap.rdv_sends, 1);
        assert_eq!(snap.rerouted_bytes, 4096);
        assert_eq!(snap.fc_peak_unex_bytes, 100);
        assert_eq!(snap.packets_sent, 0);
        assert_eq!(s.get(stat::eager_sends), 2);
    }

    /// One writer's share of a concurrent run: a fixed mix of additive
    /// bumps and high-water raises, a function of `k` only.
    fn bump_run(s: &StatsCells, k: u64) {
        for i in 0..1000 {
            s.add(stat::packets_sent, 1);
            if i % 7 == 0 {
                s.add(stat::rdv_sends, 1);
            } else {
                s.add(stat::eager_sends, 1);
                s.add(stat::fc_credits_returned, 1);
            }
            s.raise(stat::fc_peak_unex_bytes, k * 1000 + i);
        }
    }

    #[test]
    fn concurrent_bumps_merge_exactly() {
        // 16 writers also exceed the free stripes, so some threads share a
        // slab: the merge must stay exact either way.
        for threads in [4u64, 16] {
            let s = Arc::new(StatsCells::new());
            let workers: Vec<_> = (0..threads)
                .map(|k| {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || bump_run(&s, k))
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            let sequential = StatsCells::new();
            for k in 0..threads {
                bump_run(&sequential, k);
            }
            let snap = s.snapshot();
            assert_eq!(snap, sequential.snapshot(), "{threads} writers");
            assert_eq!(snap.packets_sent, threads * 1000);
            assert_eq!(snap.fc_peak_unex_bytes, threads * 1000 - 1);
        }
    }
}
