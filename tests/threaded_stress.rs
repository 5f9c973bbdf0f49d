//! Real-thread stress of the lock-free components composed on one hot
//! path: producers → per-VC [`NemQueue`]s → [`ShardedMatchEngine`], with
//! per-gate [`CreditPool`]s for eager flow control and one shared
//! [`StatsCells`] for the counters.
//!
//! Each component has its own concurrent unit test; this file checks that
//! they still hold together when every one of them is contended at once.
//! Producer `p` owns a private window of cells and is pinned to VC
//! `p % vcs`; each VC has exactly one consumer thread (the Nemesis
//! contract), which checks the payload, runs tag matching, returns the
//! eager credit and recycles the cell to the producer's free queue.
//!
//! What must hold in every run (scheduling is the OS's, not ours):
//!
//! * the run terminates — no deadlock between window backpressure, credit
//!   stalls, and queue handoff;
//! * per-sender FIFO: each producer's sequence numbers arrive dense and in
//!   order at its VC's consumer;
//! * credit conservation: every per-gate eager pool is back at capacity
//!   after the drain;
//! * every message is matched exactly once, through the posted-first path
//!   (even sequence numbers) or the unexpected-first path plus the
//!   ANY_SOURCE ticket arbitration (odd ones);
//! * the merged striped-counter [`NmStats`] snapshot equals a
//!   single-threaded oracle running the identical per-message logic
//!   (modulo the schedule-dependent stall counter);
//! * no payload drops: every eager payload crossed the queues intact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use nemesis::{CellPool, NemQueue};
use nmad::credit::CreditPool;
use nmad::matching::Unexpected;
use nmad::sharded::ShardedMatchEngine;
use nmad::stats::{stat, StatsCells};
use nmad::{GateId, NmStats, RecvReqId};
use simnet::NmBuf;

/// Packet type carried in the cell header: a whole eager message.
const PKT_EAGER: u32 = 1;
/// Packet type carried in the cell header: a rendezvous RTS (header only;
/// the matcher sees it as [`Unexpected::Rts`]).
const PKT_RTS: u32 = 2;

#[derive(Clone, Copy, Debug)]
struct StressConfig {
    producers: usize,
    vcs: usize,
    /// Cells in each producer's private window (its in-flight bound).
    window: usize,
    msgs_per_producer: u64,
    payload_bytes: usize,
    /// Every `rdv_every`-th message goes rendezvous (0 = all eager).
    rdv_every: u64,
    /// Per-gate eager credits (0 = flow control off).
    eager_credits: u32,
}

impl StressConfig {
    /// One tag per producer, so the ANY_SOURCE probe has a unique answer.
    fn tag_of(&self, p: usize) -> u64 {
        1_000 + p as u64
    }

    fn expected_on_vc(&self, c: usize) -> u64 {
        let pinned = (0..self.producers).filter(|p| p % self.vcs == c).count() as u64;
        pinned * self.msgs_per_producer
    }

    fn is_rdv(&self, m: u64) -> bool {
        self.rdv_every > 0 && (m + 1).is_multiple_of(self.rdv_every)
    }

    /// Deterministic payload: a function of `(p, m)` only.
    fn payload(&self, p: usize, m: u64) -> Vec<u8> {
        let fill = (p as u8).wrapping_mul(31).wrapping_add(m as u8);
        vec![fill; self.payload_bytes]
    }
}

struct Report {
    total_msgs: u64,
    fifo_violations: u64,
    credit_intact: bool,
    matched_posted: u64,
    matched_unexpected: u64,
    stats: NmStats,
}

struct Stack {
    cfg: StressConfig,
    pool: std::sync::Arc<CellPool>,
    /// One multi-producer queue per VC; its consumer is the single dequeuer.
    vc_queues: Vec<NemQueue>,
    /// One free-cell queue per producer; consumers enqueue recycled cells,
    /// the owning producer is the single dequeuer.
    free_queues: Vec<NemQueue>,
    /// Eager credits per sending gate (gate = producer).
    credits: Vec<CreditPool>,
    matching: ShardedMatchEngine,
    stats: StatsCells,
    next_req: AtomicU64,
}

/// Consumer-thread-local delivery state.
#[derive(Default)]
struct ConsumerState {
    next_seq: HashMap<usize, u64>,
    received: u64,
    fifo_violations: u64,
    matched_posted: u64,
    matched_unexpected: u64,
}

impl Stack {
    fn new(cfg: StressConfig) -> Stack {
        assert!(cfg.producers > 0 && cfg.vcs > 0 && cfg.window > 0);
        let (pool, handles) = CellPool::new(cfg.producers, cfg.window);
        let free_queues: Vec<NemQueue> = (0..cfg.producers).map(|_| NemQueue::new()).collect();
        for (p, hs) in handles.into_iter().enumerate() {
            for h in hs {
                free_queues[p].enqueue(h);
            }
        }
        Stack {
            cfg,
            pool,
            vc_queues: (0..cfg.vcs).map(|_| NemQueue::new()).collect(),
            free_queues,
            credits: (0..cfg.producers)
                .map(|_| CreditPool::new(cfg.eager_credits))
                .collect(),
            matching: ShardedMatchEngine::new(),
            stats: StatsCells::new(),
            next_req: AtomicU64::new(0),
        }
    }

    /// Producer `p` injects message `m`: claim a window cell, take an eager
    /// credit if needed, enqueue on the pinned VC.
    fn produce_one(&self, p: usize, m: u64) {
        let cfg = &self.cfg;
        let mut cell = loop {
            match self.free_queues[p].dequeue(&self.pool) {
                Some(h) => break h,
                None => std::thread::yield_now(),
            }
        };
        cell.header.src_rank = p;
        cell.header.tag = cfg.tag_of(p);
        cell.header.seq = m;
        cell.header.total_len = cfg.payload_bytes;
        if cfg.is_rdv(m) {
            cell.header.packet_type = PKT_RTS;
            cell.fill(&[]);
            self.stats.add(stat::rdv_sends, 1);
        } else {
            // The stall counter records messages that had to wait, not spin
            // iterations (spin counts are schedule noise).
            if cfg.eager_credits > 0 {
                let mut stalled = false;
                while !self.credits[p].try_acquire() {
                    stalled = true;
                    std::thread::yield_now();
                }
                if stalled {
                    self.stats.add(stat::fc_credit_stalls, 1);
                }
                self.stats.add(stat::fc_eager_admitted, 1);
            }
            cell.header.packet_type = PKT_EAGER;
            cell.fill(&cfg.payload(p, m));
            self.stats.add(stat::eager_sends, 1);
            self.stats.add(stat::send_completions, 1);
        }
        self.stats.add(stat::packets_sent, 1);
        self.vc_queues[p % cfg.vcs].enqueue(cell);
    }

    /// VC `c`'s consumer processes at most one cell; `false` when the queue
    /// was momentarily empty.
    fn consume_one(&self, c: usize, state: &mut ConsumerState) -> bool {
        let Some(cell) = self.vc_queues[c].dequeue(&self.pool) else {
            return false;
        };
        let cfg = &self.cfg;
        let (src, seq, tag) = (cell.header.src_rank, cell.header.seq, cell.header.tag);
        let expect = state.next_seq.entry(src).or_insert(0);
        if seq != *expect {
            state.fifo_violations += 1;
        }
        *expect = seq + 1;

        match cell.header.packet_type {
            PKT_EAGER => {
                if cell.payload() != cfg.payload(src, seq).as_slice() {
                    self.stats.add(stat::crc_drops, 1);
                } else {
                    let data = NmBuf::from(cell.payload().to_vec());
                    self.deliver(src, tag, Unexpected::Eager { seq, data }, state);
                }
                if cfg.eager_credits > 0 {
                    self.credits[src].release(1);
                    self.stats.add(stat::fc_credits_returned, 1);
                }
            }
            PKT_RTS => {
                let rdv_id = ((src as u64) << 32) | seq;
                let len = cell.header.total_len;
                self.deliver(src, tag, Unexpected::Rts { seq, rdv_id, len }, state);
                self.stats.add(stat::send_completions, 1);
            }
            other => panic!("unknown packet type {other}"),
        }
        state.received += 1;
        self.free_queues[src].enqueue(cell);
        true
    }

    /// Run an arrival through the sharded matcher: even sequence numbers
    /// post the receive first, odd ones arrive first and are claimed via
    /// the ANY_SOURCE probe plus a posted receive.
    fn deliver(&self, src: usize, tag: u64, msg: Unexpected, state: &mut ConsumerState) {
        let gate = GateId(src);
        let seq = msg.seq();
        let req = || RecvReqId(self.next_req.fetch_add(1, Ordering::Relaxed) as u32);
        if seq.is_multiple_of(2) {
            let r = req();
            assert!(
                self.matching.post_recv(gate, tag, r).is_none(),
                "posted-first receive found a stale unexpected message"
            );
            assert_eq!(
                self.matching.arrived(gate, tag, msg),
                Some(r),
                "arrival missed the posted receive"
            );
            state.matched_posted += 1;
        } else {
            let len = match &msg {
                Unexpected::Eager { data, .. } => data.len(),
                Unexpected::Rts { len, .. } => *len,
            };
            assert!(
                self.matching.arrived(gate, tag, msg).is_none(),
                "unexpected-first arrival matched a phantom posted receive"
            );
            assert_eq!(
                self.matching.probe_tag_info(tag),
                Some((gate, len)),
                "ANY_SOURCE ticket arbitration pointed at the wrong gate"
            );
            let got = self
                .matching
                .post_recv(gate, tag, req())
                .expect("stored unexpected message vanished");
            assert_eq!(got.seq(), seq);
            state.matched_unexpected += 1;
        }
        self.stats.add(stat::recv_completions, 1);
    }

    fn report(&self, states: Vec<ConsumerState>) -> Report {
        let credit_intact = self.cfg.eager_credits == 0
            || self
                .credits
                .iter()
                .all(|c| c.available() == self.cfg.eager_credits);
        assert_eq!(self.matching.posted_len(), 0, "posted receive left behind");
        assert_eq!(self.matching.unexpected_len(), 0, "arrival left unmatched");
        Report {
            total_msgs: states.iter().map(|s| s.received).sum(),
            fifo_violations: states.iter().map(|s| s.fifo_violations).sum(),
            credit_intact,
            matched_posted: states.iter().map(|s| s.matched_posted).sum(),
            matched_unexpected: states.iter().map(|s| s.matched_unexpected).sum(),
            stats: self.stats.snapshot(),
        }
    }
}

/// One OS thread per producer and per VC consumer.
fn run_on_threads(cfg: StressConfig) -> Report {
    let stack = Stack::new(cfg);
    let states = std::thread::scope(|s| {
        for p in 0..cfg.producers {
            let stack = &stack;
            s.spawn(move || {
                for m in 0..cfg.msgs_per_producer {
                    stack.produce_one(p, m);
                }
            });
        }
        let consumers: Vec<_> = (0..cfg.vcs)
            .map(|c| {
                let stack = &stack;
                s.spawn(move || {
                    let mut st = ConsumerState::default();
                    while st.received < cfg.expected_on_vc(c) {
                        if !stack.consume_one(c, &mut st) {
                            std::thread::yield_now();
                        }
                    }
                    st
                })
            })
            .collect();
        consumers
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    stack.report(states)
}

/// The sequential oracle: the identical per-message logic on one thread,
/// each message consumed right after it is produced.
fn run_sequential(cfg: StressConfig) -> Report {
    let stack = Stack::new(cfg);
    let mut states: Vec<ConsumerState> = (0..cfg.vcs).map(|_| ConsumerState::default()).collect();
    for m in 0..cfg.msgs_per_producer {
        for p in 0..cfg.producers {
            stack.produce_one(p, m);
            let c = p % cfg.vcs;
            assert!(stack.consume_one(c, &mut states[c]));
        }
    }
    stack.report(states)
}

fn stress_cfg() -> StressConfig {
    StressConfig {
        producers: 16,
        vcs: 4,
        window: 16,
        msgs_per_producer: 500,
        payload_bytes: 200,
        rdv_every: 7,
        eager_credits: 8,
    }
}

#[test]
fn sixteen_producers_four_vcs_flow_controlled() {
    let cfg = stress_cfg();
    let r = run_on_threads(cfg);

    let total = cfg.producers as u64 * cfg.msgs_per_producer;
    assert_eq!(r.total_msgs, total, "messages were lost or duplicated");
    assert_eq!(r.fifo_violations, 0, "per-sender FIFO violated");
    assert!(r.credit_intact, "eager credits were minted or leaked");
    assert_eq!(r.stats.crc_drops, 0, "payload corrupted crossing the queues");

    // Both matcher paths saw traffic.
    assert!(r.matched_posted > 0 && r.matched_unexpected > 0);
    assert_eq!(r.matched_posted + r.matched_unexpected, total);

    // Protocol mix: every 7th message went rendezvous.
    let rdv = cfg.producers as u64 * (cfg.msgs_per_producer / cfg.rdv_every);
    assert_eq!(r.stats.rdv_sends, rdv);
    assert_eq!(r.stats.eager_sends, total - rdv);
    assert_eq!(r.stats.fc_eager_admitted, total - rdv);
    assert_eq!(r.stats.fc_credits_returned, total - rdv);
}

#[test]
fn merged_stats_equal_single_threaded_oracle() {
    let cfg = stress_cfg();
    let mut threaded = run_on_threads(cfg).stats;
    let mut oracle = run_sequential(cfg).stats;
    // The stall counter records "had to wait at least once", which depends
    // on the OS schedule; every other counter is a deterministic function
    // of the workload.
    threaded.fc_credit_stalls = 0;
    oracle.fc_credit_stalls = 0;
    assert_eq!(
        threaded, oracle,
        "merged striped counters diverged from the sequential oracle"
    );
}

#[test]
fn tiny_window_tiny_credits_still_drain() {
    // The nastiest backpressure corner: a 2-cell window and 1 credit per
    // gate force constant producer stalls; the run must still terminate
    // with everything delivered.
    let cfg = StressConfig {
        producers: 8,
        vcs: 2,
        window: 2,
        msgs_per_producer: 300,
        payload_bytes: 64,
        rdv_every: 3,
        eager_credits: 1,
    };
    let r = run_on_threads(cfg);
    assert_eq!(r.total_msgs, 8 * 300);
    assert_eq!(r.fifo_violations, 0);
    assert!(r.credit_intact);
    assert_eq!(r.stats.crc_drops, 0);
}

#[test]
fn producers_outnumbering_vcs_and_vcs_outnumbering_producers() {
    for (producers, vcs) in [(16usize, 1usize), (2, 4)] {
        let cfg = StressConfig {
            producers,
            vcs,
            window: 8,
            msgs_per_producer: 200,
            payload_bytes: 32,
            rdv_every: 5,
            eager_credits: 4,
        };
        let r = run_on_threads(cfg);
        assert_eq!(r.total_msgs, producers as u64 * 200);
        assert_eq!(r.fifo_violations, 0);
        assert!(r.credit_intact);
    }
}
