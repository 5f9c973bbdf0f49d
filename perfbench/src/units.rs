//! Unit-cost micro-benchmarks: the host cost of one step of each layer,
//! measured by calling the layer's public functions directly in this
//! (pinned) process. Each one is sized to the workload it explains, and
//! reports the median of a few repetitions.

use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use mpi_ch3::anysource::AnySourceLists;
use mpi_ch3::Req;
use nemesis::{CellPool, NemQueue};
use nmad::matching::{GateId, Unexpected};
use nmad::sharded::ShardedMatchEngine;
use nmad::{NmWire, RecvReqId, WirePayload};
use simnet::{BufOrigin, NmBuf, Scheduler, SimBuilder, SimDuration};

use crate::report::median;
use crate::workload::Kind;

const REPS: usize = 5;

/// Per-step host costs, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct UnitCosts {
    /// One rank-thread handoff (park + grant) at the workload's rank count.
    pub handoff_ns: f64,
    /// One inline callback dispatch of the event loop.
    pub dispatch_ns: f64,
    /// `NmWire::new` + `crc_ok` on an 8 B eager packet.
    pub seal_small_ns: f64,
    /// `NmWire::new` + `crc_ok` per KiB of a 1 MiB payload.
    pub seal_ns_per_kib: f64,
    /// One message through `ShardedMatchEngine` (arrival + post).
    pub match_ns: f64,
    /// One ANY_SOURCE receive through `AnySourceLists` (register, probe,
    /// mark, complete).
    pub anysource_ns: f64,
    /// One `NemQueue` enqueue + dequeue.
    pub queue_ns: f64,
}

/// Queue depths the workload runs at.
struct Sizing {
    ranks: usize,
    match_depth: usize,
    queue_depth: usize,
}

fn sizing(kind: Kind) -> Sizing {
    match kind {
        Kind::PingpongSmall | Kind::PingpongBulk => Sizing {
            ranks: 2,
            match_depth: 1,
            queue_depth: 1,
        },
        // 63 senders into rank 0; 7 of them share its node.
        Kind::FaninAllreduce => Sizing {
            ranks: 64,
            match_depth: 63,
            queue_depth: 7,
        },
    }
}

/// Median over `REPS` runs of `f`, in ns per step; `f` returns its step
/// count.
fn per_step(mut f: impl FnMut() -> u64) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let steps = f();
            t0.elapsed().as_nanos() as f64 / steps as f64
        })
        .collect();
    median(&times)
}

/// `ranks` rank threads round-robin through `RankCtx::advance`: every
/// event is a park/grant handoff.
fn handoff_ns(ranks: usize) -> f64 {
    const HANDOFFS: usize = 8_000;
    per_step(|| {
        let mut sim = SimBuilder::new().build();
        let per = HANDOFFS / ranks;
        for r in 0..ranks {
            sim.spawn_rank(format!("h{r}"), move |ctx| {
                for _ in 0..per {
                    ctx.advance(SimDuration::nanos(100));
                }
            });
        }
        sim.run().expect("handoff micro-benchmark").wakes
    })
}

fn chain(s: &Scheduler, left: u64) {
    if left > 0 {
        s.schedule_in(SimDuration::nanos(10), move |s| chain(s, left - 1));
    }
}

/// A `Scheduler::schedule_in` chain with no rank threads: every event is
/// an inline callback.
fn dispatch_ns() -> f64 {
    const EVENTS: u64 = 100_000;
    per_step(|| {
        let sim = SimBuilder::new().build();
        chain(&sim.scheduler(), EVENTS);
        sim.run().expect("dispatch micro-benchmark").events
    })
}

fn seal_ns(len: usize, reps: u64) -> f64 {
    let data = NmBuf::from_bytes(Bytes::from(vec![0xA5u8; len]), BufOrigin::App);
    per_step(|| {
        for seq in 0..reps {
            let wire = NmWire::new(
                0,
                1,
                WirePayload::Eager {
                    tag: 7,
                    seq,
                    data: data.share(),
                },
            );
            assert!(black_box(&wire).crc_ok());
        }
        reps
    })
}

/// `depth` messages per round. Depth 1 is the ping-pong order (receive
/// posted, then the arrival matches it); a deeper round is the fan-in
/// order (every sender's message arrives unexpected, then rank 0 finds
/// each by an ANY_SOURCE probe and posts for its gate).
fn match_ns(depth: usize) -> f64 {
    const MESSAGES: usize = 20_000;
    let rounds = MESSAGES / depth;
    per_step(|| {
        let eng = ShardedMatchEngine::new();
        let mut seq = 0u64;
        for round in 0..rounds {
            if depth == 1 {
                eng.post_recv(GateId(1), 7, RecvReqId(round as u32));
                black_box(eng.try_match_arrival(GateId(1), 7, seq));
                seq += 1;
                continue;
            }
            for g in 1..=depth {
                let msg = Unexpected::Rts {
                    seq,
                    rdv_id: seq,
                    len: 1,
                };
                assert!(eng.arrived(GateId(g), 7, msg).is_none());
            }
            seq += 1;
            for i in 0..depth {
                let (gate, _) = eng.probe_tag_info(7).expect("queued arrival");
                let req = RecvReqId((round * depth + i) as u32);
                assert!(black_box(eng.post_recv(gate, 7, req)).is_some());
            }
        }
        (rounds * depth) as u64
    })
}

/// `depth` ANY_SOURCE receives queued on one tag, then each probed,
/// marked and completed in order (§3.2's lifecycle of the list head).
fn anysource_ns(depth: usize) -> f64 {
    const RECEIVES: usize = 20_000;
    let rounds = RECEIVES / depth;
    per_step(|| {
        let lists = AnySourceLists::new();
        let flag = Arc::new(AtomicBool::new(true));
        for round in 0..rounds {
            let base = (round * depth) as u32;
            for i in 0..depth as u32 {
                lists.register_any(7, Req(base + i), Arc::clone(&flag));
            }
            for i in 0..depth as u32 {
                assert_eq!(black_box(lists.heads_to_probe()).len(), 1);
                lists.mark_posted(7, 1 + i as usize);
                assert!(lists.on_complete(Req(base + i)).is_empty());
            }
        }
        (rounds * depth) as u64
    })
}

/// `depth` cells enqueued, then all dequeued.
fn queue_ns(depth: usize) -> f64 {
    const CELLS: usize = 50_000;
    let rounds = CELLS / depth;
    let (pool, mut handles) = CellPool::new(1, depth);
    let mut free = handles.pop().expect("one rank's cells");
    per_step(|| {
        let q = NemQueue::new();
        for _ in 0..rounds {
            for cell in free.drain(..) {
                q.enqueue(cell);
            }
            while let Some(cell) = q.dequeue(&pool) {
                free.push(cell);
            }
        }
        (rounds * depth) as u64
    })
}

pub fn measure(kind: Kind) -> UnitCosts {
    let s = sizing(kind);
    UnitCosts {
        handoff_ns: handoff_ns(s.ranks),
        dispatch_ns: dispatch_ns(),
        seal_small_ns: seal_ns(8, 20_000),
        seal_ns_per_kib: seal_ns(1 << 20, 8) / 1024.0,
        match_ns: match_ns(s.match_depth),
        anysource_ns: anysource_ns(s.match_depth),
        queue_ns: queue_ns(s.queue_depth),
    }
}

/// The handoff floor for the workload's rank count: printed beside every
/// host time as this host's calibration.
pub fn calibration_handoff_ns(kind: Kind) -> f64 {
    handoff_ns(sizing(kind).ranks)
}
