//! Per-gate sharded tag matching.
//!
//! Tag matching without a single global lock: traffic from different
//! peers matches independently. This module shards
//! [`MatchEngine`](crate::matching::MatchEngine)'s two
//! queues **by source gate** — each gate gets its own posted/unexpected
//! queues behind its own small mutex — because MPI matching for a
//! directed receive only ever consults one `(gate, tag)` key, so gates
//! are independent by construction.
//!
//! The one operation that crosses gates is the ANY_SOURCE probe
//! (`probe_tag`): "which gate has the **earliest-arrived** unexpected
//! message with this tag?". The single-queue engine answered it with a
//! global arrival-ordered index; here every stored unexpected arrival is
//! stamped with a ticket from one global `AtomicU64`, and `probe_tag`
//! takes the minimum ticket across shards. Tickets are handed out in
//! arrival order, so the arbitration is exactly the old FIFO — a property
//! the differential test in `tests/matcher_differential.rs` drives with
//! recorded envelope streams.
//!
//! All methods take `&self`: shards use interior mutability, and the
//! per-gate locks, the registry and the global ticket are safe under
//! concurrent callers (`concurrent_gates_match_each_message_once` below
//! races 16 threads through them; CI runs it under ThreadSanitizer).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::matching::{GateId, Unexpected};
use crate::sr::RecvReqId;

/// One gate's private matching state.
#[derive(Default)]
struct ShardState {
    /// Posted receives waiting, FIFO per tag.
    posted: HashMap<u64, VecDeque<RecvReqId>>,
    /// Unexpected messages waiting, FIFO per tag, each stamped with its
    /// global arrival ticket.
    unexpected: HashMap<u64, VecDeque<(u64, Unexpected)>>,
    /// Debug check: last matched sequence number per tag.
    last_matched_seq: HashMap<u64, u64>,
}

impl ShardState {
    fn check_order(&mut self, gate: GateId, tag: u64, seq: u64) {
        if let Some(prev) = self.last_matched_seq.insert(tag, seq) {
            debug_assert!(
                seq > prev,
                "matching order violated on gate {gate:?} tag {tag}: seq {seq} after {prev}"
            );
        }
        let _ = gate;
    }
}

/// The sharded matching engine. API mirrors
/// [`MatchEngine`](crate::matching::MatchEngine) (which remains as the
/// single-queue differential oracle), with `&self` receivers.
pub struct ShardedMatchEngine {
    /// Gate registry: rarely written (first contact, purges), read on
    /// every operation. `BTreeMap` so cross-shard scans iterate in a
    /// deterministic order.
    shards: RwLock<BTreeMap<GateId, Arc<Mutex<ShardState>>>>,
    /// Global arrival clock for ANY_SOURCE FIFO arbitration.
    next_ticket: AtomicU64,
    /// Live unexpected entries across all shards (kept O(1) readable).
    unexpected_live: AtomicUsize,
    /// Posted receives waiting across all shards.
    posted_live: AtomicUsize,
}

impl Default for ShardedMatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedMatchEngine {
    pub fn new() -> ShardedMatchEngine {
        ShardedMatchEngine {
            shards: RwLock::new(BTreeMap::new()),
            next_ticket: AtomicU64::new(0),
            unexpected_live: AtomicUsize::new(0),
            posted_live: AtomicUsize::new(0),
        }
    }

    /// The gate's shard, created on first use.
    fn shard(&self, gate: GateId) -> Arc<Mutex<ShardState>> {
        if let Some(s) = self.shards.read().get(&gate) {
            return Arc::clone(s);
        }
        Arc::clone(self.shards.write().entry(gate).or_default())
    }

    /// Post a receive for `(gate, tag)`; consumes and returns a queued
    /// unexpected message if one is waiting.
    pub fn post_recv(&self, gate: GateId, tag: u64, req: RecvReqId) -> Option<Unexpected> {
        let shard = self.shard(gate);
        let mut st = shard.lock();
        if let Some(q) = st.unexpected.get_mut(&tag) {
            if let Some((_, msg)) = q.pop_front() {
                if q.is_empty() {
                    st.unexpected.remove(&tag);
                }
                self.unexpected_live.fetch_sub(1, Ordering::Relaxed);
                st.check_order(gate, tag, msg.seq());
                return Some(msg);
            }
        }
        st.posted.entry(tag).or_default().push_back(req);
        self.posted_live.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// An arrival from `(gate, tag)`: match a posted receive or store the
    /// message unexpected.
    pub fn arrived(&self, gate: GateId, tag: u64, msg: Unexpected) -> Option<RecvReqId> {
        if let Some(req) = self.try_match_arrival(gate, tag, msg.seq()) {
            return Some(req);
        }
        self.store_unexpected(gate, tag, msg);
        None
    }

    /// First phase of an arrival: pop a posted receive if one is waiting.
    pub fn try_match_arrival(&self, gate: GateId, tag: u64, seq: u64) -> Option<RecvReqId> {
        let shard = self.shard(gate);
        let mut st = shard.lock();
        if let Some(q) = st.posted.get_mut(&tag) {
            if let Some(req) = q.pop_front() {
                if q.is_empty() {
                    st.posted.remove(&tag);
                }
                self.posted_live.fetch_sub(1, Ordering::Relaxed);
                st.check_order(gate, tag, seq);
                return Some(req);
            }
        }
        None
    }

    /// Second phase of an arrival: keep the message in the gate's
    /// unexpected queue, stamped with the global arrival ticket.
    pub fn store_unexpected(&self, gate: GateId, tag: u64, msg: Unexpected) {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard(gate);
        let mut st = shard.lock();
        st.unexpected.entry(tag).or_default().push_back((ticket, msg));
        self.unexpected_live.fetch_add(1, Ordering::Relaxed);
    }

    /// Is an unexpected message from `(gate, tag)` queued? (Peek only.)
    pub fn probe(&self, gate: GateId, tag: u64) -> bool {
        let shard = self.shard(gate);
        let st = shard.lock();
        st.unexpected.get(&tag).is_some_and(|q| !q.is_empty())
    }

    /// The gate of the earliest-arrived unexpected message with `tag`
    /// across every gate: minimum arrival ticket across shards.
    pub fn probe_tag(&self, tag: u64) -> Option<GateId> {
        self.probe_tag_info(tag).map(|(g, _)| g)
    }

    /// Like [`ShardedMatchEngine::probe_tag`] with the payload length.
    pub fn probe_tag_info(&self, tag: u64) -> Option<(GateId, usize)> {
        let shards = self.shards.read();
        let mut best: Option<(u64, GateId, usize)> = None;
        for (&gate, shard) in shards.iter() {
            let st = shard.lock();
            if let Some((ticket, msg)) = st.unexpected.get(&tag).and_then(|q| q.front()) {
                if best.is_none_or(|(t, _, _)| *ticket < t) {
                    best = Some((*ticket, gate, Self::msg_len(msg)));
                }
            }
        }
        best.map(|(_, g, len)| (g, len))
    }

    /// Payload length of the earliest unexpected message from `(gate, tag)`.
    pub fn probe_info(&self, gate: GateId, tag: u64) -> Option<usize> {
        let shard = self.shard(gate);
        let st = shard.lock();
        st.unexpected
            .get(&tag)
            .and_then(|q| q.front())
            .map(|(_, msg)| Self::msg_len(msg))
    }

    fn msg_len(msg: &Unexpected) -> usize {
        match msg {
            Unexpected::Eager { data, .. } => data.len(),
            Unexpected::Rts { len, .. } => *len,
        }
    }

    /// Number of live unexpected messages (diagnostics).
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_live.load(Ordering::Relaxed)
    }

    /// Number of posted receives still waiting (diagnostics).
    pub fn posted_len(&self) -> usize {
        self.posted_live.load(Ordering::Relaxed)
    }

    /// Gates with at least one posted receive waiting (sorted, deduped).
    pub fn posted_gates(&self) -> Vec<GateId> {
        let shards = self.shards.read();
        shards
            .iter()
            .filter(|(_, shard)| shard.lock().posted.values().any(|q| !q.is_empty()))
            .map(|(&g, _)| g)
            .collect()
    }

    /// Membership drain: remove every posted receive and unexpected
    /// message belonging to `gate`. Returns the orphaned receives (with
    /// tags) and the eager payload bytes dropped.
    pub fn purge_gate(&self, gate: GateId) -> (Vec<(RecvReqId, u64)>, usize) {
        let shard = {
            let mut shards = self.shards.write();
            shards.remove(&gate)
        };
        let Some(shard) = shard else {
            return (Vec::new(), 0);
        };
        let mut st = shard.lock();
        let mut orphans: Vec<(RecvReqId, u64)> = Vec::new();
        let mut tags: Vec<u64> = st.posted.keys().copied().collect();
        tags.sort_unstable();
        for tag in tags {
            if let Some(q) = st.posted.remove(&tag) {
                self.posted_live.fetch_sub(q.len(), Ordering::Relaxed);
                for req in q {
                    orphans.push((req, tag));
                }
            }
        }
        let mut dropped_bytes = 0usize;
        for (_, q) in st.unexpected.drain() {
            self.unexpected_live.fetch_sub(q.len(), Ordering::Relaxed);
            for (_, msg) in q {
                if let Unexpected::Eager { data, .. } = &msg {
                    dropped_bytes += data.len();
                }
            }
        }
        st.last_matched_seq.clear();
        (orphans, dropped_bytes)
    }

    /// Epoch quiesce: remove every posted receive and unexpected message
    /// whose *tag* satisfies `pred`, across all gates. Orphans are
    /// returned in `(gate, tag)` order, matching the single-queue engine.
    pub fn purge_keys<F: Fn(u64) -> bool>(
        &self,
        pred: F,
    ) -> (Vec<(RecvReqId, GateId, u64)>, usize, usize) {
        let shards = self.shards.read();
        let mut orphans: Vec<(RecvReqId, GateId, u64)> = Vec::new();
        let mut dropped = 0usize;
        let mut dropped_bytes = 0usize;
        // BTreeMap iteration gives ascending gates; tags sorted per gate,
        // so the orphan list comes out in global (gate, tag) order.
        for (&gate, shard) in shards.iter() {
            let mut st = shard.lock();
            let mut tags: Vec<u64> = st.posted.keys().copied().filter(|&t| pred(t)).collect();
            tags.sort_unstable();
            for tag in tags {
                if let Some(q) = st.posted.remove(&tag) {
                    self.posted_live.fetch_sub(q.len(), Ordering::Relaxed);
                    for req in q {
                        orphans.push((req, gate, tag));
                    }
                }
            }
            let doomed: Vec<u64> = st.unexpected.keys().copied().filter(|&t| pred(t)).collect();
            for tag in doomed {
                if let Some(q) = st.unexpected.remove(&tag) {
                    self.unexpected_live.fetch_sub(q.len(), Ordering::Relaxed);
                    dropped += q.len();
                    for (_, msg) in q {
                        if let Unexpected::Eager { data, .. } = &msg {
                            dropped_bytes += data.len();
                        }
                    }
                }
            }
            st.last_matched_seq.retain(|&tag, _| !pred(tag));
        }
        (orphans, dropped, dropped_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NmBuf;

    fn eager(seq: u64) -> Unexpected {
        Unexpected::Eager {
            seq,
            data: NmBuf::from(vec![seq as u8]),
        }
    }

    #[test]
    fn any_source_arbitration_is_global_fifo() {
        let m = ShardedMatchEngine::new();
        m.arrived(GateId(3), 7, eager(0));
        m.arrived(GateId(1), 7, eager(0));
        // Gate 3's arrival holds the lower ticket.
        assert_eq!(m.probe_tag(7), Some(GateId(3)));
        m.post_recv(GateId(3), 7, RecvReqId(0));
        assert_eq!(m.probe_tag(7), Some(GateId(1)));
        m.post_recv(GateId(1), 7, RecvReqId(1));
        assert_eq!(m.probe_tag(7), None);
    }

    #[test]
    fn shards_do_not_cross_match() {
        let m = ShardedMatchEngine::new();
        m.post_recv(GateId(1), 7, RecvReqId(0));
        assert!(m.arrived(GateId(1), 8, eager(0)).is_none());
        assert!(m.arrived(GateId(2), 7, eager(0)).is_none());
        assert_eq!(m.posted_len(), 1);
        assert_eq!(m.unexpected_len(), 2);
    }

    #[test]
    fn purge_gate_reports_orphans_and_bytes() {
        let m = ShardedMatchEngine::new();
        m.post_recv(GateId(1), 9, RecvReqId(0));
        m.post_recv(GateId(1), 3, RecvReqId(1));
        m.arrived(GateId(1), 5, eager(0));
        m.arrived(GateId(2), 5, eager(0));
        let (orphans, bytes) = m.purge_gate(GateId(1));
        // Tag-sorted, like the single-queue engine's key sort.
        assert_eq!(orphans, vec![(RecvReqId(1), 3), (RecvReqId(0), 9)]);
        assert_eq!(bytes, 1);
        assert_eq!(m.posted_len(), 0);
        assert_eq!(m.unexpected_len(), 1);
        assert!(m.probe(GateId(2), 5));
    }

    #[test]
    fn purge_keys_spans_gates_in_order() {
        let m = ShardedMatchEngine::new();
        m.post_recv(GateId(2), 100, RecvReqId(1));
        m.post_recv(GateId(1), 100, RecvReqId(0));
        m.post_recv(GateId(1), 7, RecvReqId(2));
        m.arrived(GateId(3), 100, eager(0));
        let (orphans, dropped, bytes) = m.purge_keys(|t| t == 100);
        assert_eq!(
            orphans,
            vec![
                (RecvReqId(0), GateId(1), 100),
                (RecvReqId(1), GateId(2), 100)
            ]
        );
        assert_eq!((dropped, bytes), (1, 1));
        assert_eq!(m.posted_len(), 1);
    }

    #[test]
    fn concurrent_gates_match_each_message_once() {
        // One gate per thread, all on one tag, so every ANY_SOURCE probe
        // scans shards other threads are mutating. Each thread interleaves
        // posts and arrivals on its own gate in a pseudo-random order:
        // sometimes the receive is posted first, sometimes the message
        // waits unexpected, while first contact, the global ticket and the
        // live counters are contended by everyone.
        const THREADS: usize = 16;
        const MSGS: u64 = 2_000;
        const TAG: u64 = 42;
        let m = Arc::new(ShardedMatchEngine::new());
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|k| {
                let (m, start) = (Arc::clone(&m), Arc::clone(&start));
                std::thread::spawn(move || {
                    let gate = GateId(k);
                    // Payload length names the gate, so a probe answer
                    // must pair a gate with its own message.
                    let len_of = |g: GateId| g.0 + 1;
                    let (mut posts, mut arrivals) = (0u64, 0u64);
                    let mut matched = 0u64;
                    let mut lcg = 0x9e37_79b9_7f4a_7c15u64 ^ k as u64;
                    start.wait();
                    while posts < MSGS || arrivals < MSGS {
                        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let post = arrivals == MSGS || (posts < MSGS && lcg >> 63 == 1);
                        if post {
                            let req = RecvReqId(posts as u32);
                            match m.post_recv(gate, TAG, req) {
                                Some(msg) => {
                                    // FIFO pairing: receive n takes message n.
                                    assert_eq!(msg.seq(), posts, "gate {k}");
                                    matched += 1;
                                }
                                None => {
                                    assert!(posts >= arrivals, "gate {k}: missed a waiting message")
                                }
                            }
                            posts += 1;
                        } else {
                            let msg = Unexpected::Eager {
                                seq: arrivals,
                                data: NmBuf::from(vec![0u8; len_of(gate)]),
                            };
                            match m.arrived(gate, TAG, msg) {
                                Some(req) => {
                                    assert_eq!(req, RecvReqId(arrivals as u32), "gate {k}");
                                    matched += 1;
                                }
                                None => {
                                    assert!(arrivals >= posts, "gate {k}: missed a posted receive")
                                }
                            }
                            arrivals += 1;
                        }
                        // Only this thread touches its gate, so whether the
                        // gate holds a live arrival is known exactly here.
                        let live = arrivals > posts;
                        assert_eq!(m.probe(gate, TAG), live, "gate {k}");
                        assert_eq!(m.probe_info(gate, TAG), live.then(|| len_of(gate)));
                        match m.probe_tag_info(TAG) {
                            Some((g, len)) => {
                                assert_eq!(len, len_of(g), "probe mixed up gates");
                                assert!(
                                    g != gate || live,
                                    "gate {k}: probe named a consumed message"
                                );
                            }
                            None => assert!(!live, "gate {k}: probe missed a live arrival"),
                        }
                    }
                    matched
                })
            })
            .collect();
        let matched: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(
            matched,
            THREADS as u64 * MSGS,
            "a message matched twice or never"
        );
        assert_eq!(m.posted_len(), 0);
        assert_eq!(m.unexpected_len(), 0);
        assert_eq!(m.probe_tag(TAG), None);
    }
}
