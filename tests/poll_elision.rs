//! Referee for event-driven polling: the engine runs idle poll ticks itself
//! instead of waking the rank, and that must not move anything simulated.
//!
//! Every case below but `fanin_allreduce` is an app-polling run (the mode
//! whose busy-wait loops the engine elides). Those golden rows were
//! captured before elision existed, when every poll tick was a rank
//! handoff; each case must still reproduce, bit for bit:
//!
//! * the final simulated time and the dispatched event count;
//! * the rank wake events, `wakes + polls_elided` (the old `wakes`);
//! * every per-rank NewMadeleine counter (hashed);
//! * the job-wide copy accounting;
//! * the traced event stream in append order and the metric counters
//!   (hashed) — `mpi.progress_cycles` included, since elided ticks still
//!   count as the empty progress cycles they stand for.
//!
//! A mismatch prints the observed row in the table's own syntax.
//!
//! `pingpong_small_work_counts` is the work-count gate of the
//! `pingpong_small` benchmark configuration, and the `fanin_allreduce`
//! case that of the `fanin_allreduce` one (64 ranks, PIOMan, bounded
//! credits).

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, RunOutcome, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{Comm, MpiHandle, Src};
use mpich2_nmad_repro::nmad::{FlowConfig, MembershipConfig, RetryConfig};
use mpich2_nmad_repro::obs::{ObsConfig, Report};
use mpich2_nmad_repro::sim_harness::{Fingerprint, Scenario, Workload};
use mpich2_nmad_repro::simnet::{
    Cluster, CopySnapshot, FaultPlan, FaultSpec, NicModel, NodeWindow, OverloadPlan, Placement,
    SimDuration, SimTime,
};

/// What one case must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Golden {
    final_ns: u64,
    events: u64,
    rank_wakes: u64,
    nm_hash: u64,
    copy: [u64; 4],
    trace_hash: u64,
    counters_hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fnv_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, s.as_bytes());
    h
}

fn observe(
    final_ns: u64,
    events: u64,
    rank_wakes: u64,
    nm_stats: &impl std::fmt::Debug,
    copy: CopySnapshot,
    report: &Report,
) -> Golden {
    let mut counters: Vec<(&str, u64)> = report.metrics.counters().collect();
    counters.sort_unstable();
    Golden {
        final_ns,
        events,
        rank_wakes,
        nm_hash: fnv_str(&format!("{nm_stats:?}")),
        copy: [
            copy.bytes_copied,
            copy.memcpy_calls,
            copy.allocations,
            copy.slice_refs,
        ],
        trace_hash: fnv_str(&report.to_jsonl()),
        counters_hash: fnv_str(&format!("{counters:?}")),
    }
}

fn from_outcome(o: &RunOutcome) -> Golden {
    observe(
        o.sim.final_time.as_nanos(),
        o.sim.events,
        o.sim.wakes + o.sim.polls_elided,
        &o.nm_stats,
        o.copy,
        o.obs.as_ref().expect("referee cases run traced"),
    )
}

fn from_fingerprint((fp, report): (Fingerprint, Report)) -> Golden {
    observe(
        fp.final_time_nanos,
        fp.events,
        fp.rank_wakes,
        &fp.nm_stats,
        fp.copy,
        &report,
    )
}

fn check(case: &str, got: Golden, want: Golden) {
    assert_eq!(
        got, want,
        "{case}: simulated result moved; observed row:\n    (\"{case}\", Golden {{ final_ns: {}, events: {}, rank_wakes: {}, \
         nm_hash: {:#018x}, copy: {:?}, trace_hash: {:#018x}, counters_hash: {:#018x} }}),",
        got.final_ns,
        got.events,
        got.rank_wakes,
        got.nm_hash,
        got.copy,
        got.trace_hash,
        got.counters_hash
    );
}

fn fill(src: usize, round: usize, len: usize) -> Vec<u8> {
    let mut x = 0x9E11_u64 ^ ((src as u64 + 1) << 32) ^ ((round as u64 + 1) * 0x9E37_79B9);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

fn traced(stack: StackConfig) -> StackConfig {
    stack.with_obs(ObsConfig::full())
}

fn micros(t: u64) -> SimTime {
    SimTime::ZERO + SimDuration::micros(t)
}

/// Simulated compute until `t` µs, probing in between so the rank keeps
/// acking while it waits.
fn wait_until(mpi: &MpiHandle, t: u64) {
    while mpi.now() < micros(t) {
        let left = micros(t).as_nanos() - mpi.now().as_nanos();
        mpi.compute(SimDuration::nanos(left.min(5_000)));
        let _ = mpi.iprobe(Src::Any, u32::MAX);
    }
}

// ---------------------------------------------------------------------
// Point-to-point cases
// ---------------------------------------------------------------------

const TAG: u32 = 5;

fn pingpong_rank(mpi: &MpiHandle, len: usize, rounds: usize) {
    let me = mpi.rank();
    let peer = 1 - me;
    for round in 0..rounds {
        if me == 0 {
            mpi.send(peer, TAG, &fill(me, round, len));
            let (data, _) = mpi.recv(Src::Rank(peer), TAG);
            assert_eq!(&data[..], &fill(peer, round, len)[..]);
        } else {
            let (data, _) = mpi.recv(Src::Rank(peer), TAG);
            assert_eq!(&data[..], &fill(peer, round, len)[..]);
            mpi.send(peer, TAG, &fill(me, round, len));
        }
    }
}

fn pingpong(stack: StackConfig, len: usize, rounds: usize) -> RunOutcome {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    run_mpi_collect(&cluster, &placement, &traced(stack), 2, move |mpi| {
        pingpong_rank(mpi, len, rounds)
    })
    .0
}

/// Rank 0 receives ANY_SOURCE from a co-located rank (shared memory) and
/// from two remote ones; two ranks per node.
fn intra_any_source() -> RunOutcome {
    let cluster = Cluster::new(2, 2, vec![NicModel::connectx_ib()]);
    let placement = Placement::block(4, &cluster);
    let stack = traced(StackConfig::mpich2_nmad(false));
    run_mpi_collect(&cluster, &placement, &stack, 4, |mpi| {
        let me = mpi.rank();
        if me == 0 {
            let mut seen = [0usize; 4];
            for _ in 0..9 {
                let (data, st) = mpi.recv(Src::Any, TAG);
                let i = seen[st.source];
                assert_eq!(&data[..], &fill(st.source, i, 96 + 512 * i)[..]);
                seen[st.source] += 1;
            }
            assert_eq!(seen, [0, 3, 3, 3]);
        } else {
            for i in 0..3 {
                mpi.compute(SimDuration::nanos(700 * me as u64));
                mpi.send(0, TAG, &fill(me, i, 96 + 512 * i));
            }
        }
        mpi.barrier();
    })
    .0
}

/// The netmod's nested rendezvous: rank 0's program returns while the
/// DATA halves of its 64 KiB sends still owe the network a handshake, so
/// the MPI_Finalize drain has work to do.
fn nested_rdv_finalize() -> RunOutcome {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let stack = traced(StackConfig::mpich2_nmad_netmod(0));
    run_mpi_collect(&cluster, &placement, &stack, 2, |mpi| {
        if mpi.rank() == 0 {
            for round in 0..2 {
                mpi.send(1, TAG, &fill(0, round, 64 * 1024));
            }
        } else {
            mpi.compute(SimDuration::micros(40));
            for round in 0..2 {
                let (data, _) = mpi.recv(Src::Rank(0), TAG);
                assert_eq!(&data[..], &fill(0, round, 64 * 1024)[..]);
            }
        }
    })
    .0
}

/// MPI_Probe, specific and wildcard, against senders that show up late.
fn probe() -> RunOutcome {
    let cluster = Cluster::grid5000_opteron();
    let placement = Placement::one_per_node(3, &cluster);
    let stack = traced(StackConfig::mpich2_nmad(false));
    run_mpi_collect(&cluster, &placement, &stack, 3, |mpi| {
        let me = mpi.rank();
        if me == 0 {
            let st = mpi.probe(Src::Rank(2), TAG);
            assert_eq!((st.source, st.len), (2, 300));
            let _ = mpi.recv(Src::Rank(2), TAG);
            let st = mpi.probe(Src::Any, TAG);
            assert_eq!((st.source, st.len), (1, 20 * 1024));
            let (data, _) = mpi.recv(Src::Rank(1), TAG);
            assert_eq!(&data[..], &fill(1, 0, 20 * 1024)[..]);
        } else {
            mpi.compute(SimDuration::micros(3 + 9 * (2 - me as u64)));
            let len = if me == 1 { 20 * 1024 } else { 300 };
            mpi.send(0, TAG, &fill(me, 0, len));
        }
    })
    .0
}

// ---------------------------------------------------------------------
// Scale case: the `fanin_allreduce` benchmark configuration
// ---------------------------------------------------------------------

const FANIN_RANKS: usize = 64;
const FANIN_ROUNDS: usize = 3;

/// Bytes rank `src` sends to rank 0 in `round`: one sender in eight goes
/// rendezvous (above the 16 KiB eager threshold), the rest send up to
/// 4 KiB eager.
fn fanin_len(src: usize, round: usize) -> usize {
    let h = src * 389 + round * 71;
    if (src + round).is_multiple_of(8) {
        16 * 1024 + 1 + h % (32 * 1024)
    } else {
        1 + h % 4096
    }
}

/// 64 ranks on 8 nodes under PIOMan and bounded credits: each round every
/// rank sends to rank 0, which receives ANY_SOURCE after most messages
/// are already waiting, then everyone joins an allreduce.
fn fanin_allreduce() -> RunOutcome {
    let cluster = Cluster::new(8, 8, vec![NicModel::connectx_ib()]);
    let placement = Placement::block(FANIN_RANKS, &cluster);
    let stack = traced(
        StackConfig::mpich2_nmad(true)
            .with_flow(FlowConfig::bounded(4, 128 * 1024))
            .with_fabric_seed(1),
    );
    run_mpi_collect(&cluster, &placement, &stack, FANIN_RANKS, |mpi| {
        let me = mpi.rank();
        for round in 0..FANIN_ROUNDS {
            if me == 0 {
                mpi.compute(SimDuration::micros(30));
                let mut seen = [false; FANIN_RANKS];
                for _ in 1..FANIN_RANKS {
                    let (data, st) = mpi.recv(Src::Any, TAG);
                    let src = st.source;
                    assert!(!seen[src], "rank {src} delivered twice in round {round}");
                    seen[src] = true;
                    assert_eq!(&data[..], &fill(src, round, fanin_len(src, round))[..]);
                }
            } else {
                mpi.compute(SimDuration::nanos(
                    ((me * 7919 + round * 104_729) % 20_000) as u64,
                ));
                mpi.send(0, TAG, &fill(me, round, fanin_len(me, round)));
            }
            let contrib = [(1000 * round + me) as f64, 1.0];
            let n = FANIN_RANKS;
            let want = [(1000 * round * n + n * (n - 1) / 2) as f64, n as f64];
            assert_eq!(mpi.allreduce_sum(&contrib), want);
        }
    })
    .0
}

// ---------------------------------------------------------------------
// Fault, churn, overload and agreement cases
// ---------------------------------------------------------------------

/// Retry and membership tuned so a death verdict lands within ~100 µs.
fn elastic(stack: StackConfig, seed: u64, nodes: Vec<Vec<NodeWindow>>) -> StackConfig {
    let mut stack = stack;
    stack.nm.retry = Some(RetryConfig {
        timeout: SimDuration::micros(20),
        backoff: 2,
        max_timeout: SimDuration::micros(100),
        max_attempts: 6,
        ..RetryConfig::default()
    });
    stack
        .with_membership(MembershipConfig {
            suspect_after: 2,
            dead_after: 4,
            min_silence: SimDuration::micros(50),
            probe_interval: SimDuration::micros(25),
        })
        .with_faults(FaultPlan::with_nodes(
            seed,
            vec![FaultSpec::default()],
            Vec::new(),
            nodes,
        ))
}

const CHURN_RANKS: usize = 6;
const CHURN_DEAD: usize = 3;
const CHURN_SLOW: usize = 4;

/// Ring traffic across a node crash and a short hang: the rendezvous at
/// the corpse fails, the slow node is never declared dead, and the
/// survivors finish with a fault-tolerant barrier.
fn churn(seed: u64) -> RunOutcome {
    let cluster = Cluster::new(CHURN_RANKS, 1, vec![NicModel::connectx_ib()]);
    let placement = Placement::one_per_node(CHURN_RANKS, &cluster);
    let mut nodes = vec![Vec::new(); CHURN_RANKS];
    nodes[CHURN_DEAD] = vec![NodeWindow::crash(micros(60))];
    nodes[CHURN_SLOW] = vec![NodeWindow::hang(micros(150), micros(180))];
    let stack = traced(elastic(StackConfig::mpich2_nmad(false), seed, nodes));
    run_mpi_collect(&cluster, &placement, &stack, CHURN_RANKS, |mpi| {
        let me = mpi.rank();
        let all: Vec<usize> = (0..CHURN_RANKS).collect();
        let live: Vec<usize> = all.iter().copied().filter(|&r| r != CHURN_DEAD).collect();
        let ring = |group: &[usize], round: usize| {
            let pos = group.iter().position(|&r| r == me).unwrap();
            let n = group.len();
            let (right, left) = (group[(pos + 1) % n], group[(pos + n - 1) % n]);
            let (data, _) = mpi.sendrecv(right, TAG, &fill(me, round, 256), Src::Rank(left), TAG);
            assert_eq!(&data[..], &fill(left, round, 256)[..]);
        };
        for round in 0..2 {
            ring(&all, round);
        }
        if me == CHURN_DEAD {
            wait_until(mpi, 60);
            mpi.crash();
            return;
        }
        wait_until(mpi, 70);
        let s = mpi.isend(CHURN_DEAD, TAG + 1, &fill(me, 0, 64 * 1024));
        let err = mpi
            .wait_result(s)
            .expect_err("rendezvous at a corpse must fail");
        assert_eq!(err.peer, CHURN_DEAD);
        wait_until(mpi, 140);
        for round in 0..12 {
            ring(&live, 10 + round);
        }
        assert!(mpi.is_alive(CHURN_SLOW), "slow node falsely declared dead");
        assert_eq!(mpi.try_barrier(&live), Ok(()));
    })
    .0
}

/// A burst of eager traffic into one slow receiver under bounded credits.
fn overload(seed: u64) -> RunOutcome {
    const SENDERS: usize = 4;
    const MSGS: usize = 12;
    let cluster = Cluster::grid5000_opteron();
    let placement = Placement::one_per_node(1 + SENDERS, &cluster);
    let stack = traced(
        StackConfig::mpich2_nmad(false)
            .with_fabric_seed(seed)
            .with_flow(FlowConfig::bounded(2, 2 * SENDERS * 8 * 1024)),
    );
    let plan = OverloadPlan::new(
        seed,
        SENDERS,
        MSGS,
        (4 * 1024, 8 * 1024),
        SimDuration::micros(2),
    );
    run_mpi_collect(&cluster, &placement, &stack, 1 + SENDERS, move |mpi| {
        let me = mpi.rank();
        if me == 0 {
            mpi.compute(SimDuration::micros(100));
            for idx in 0..MSGS {
                for s in 1..=SENDERS {
                    let (data, _) = mpi.recv(Src::Rank(s), TAG);
                    let len = plan.schedule(s - 1)[idx].1;
                    assert_eq!(&data[..], &fill(s, idx, len)[..]);
                    mpi.compute(SimDuration::micros(3));
                }
            }
        } else {
            for (idx, &(gap, len)) in plan.schedule(me - 1).iter().enumerate() {
                mpi.compute(gap);
                mpi.send(0, TAG, &fill(me, idx, len));
            }
        }
    })
    .0
}

const AGREE_RANKS: usize = 6;
const AGREE_DEAD: usize = 2;

/// Revoke + shrink after a crash: the shrink's agreement runs its pass
/// rounds through the agreement's own poll loop.
fn agreement(seed: u64) -> RunOutcome {
    let cluster = Cluster::new(AGREE_RANKS, 1, vec![NicModel::connectx_ib()]);
    let placement = Placement::one_per_node(AGREE_RANKS, &cluster);
    let mut nodes = vec![Vec::new(); AGREE_RANKS];
    nodes[AGREE_DEAD] = vec![NodeWindow::crash(micros(50))];
    let stack = traced(elastic(StackConfig::mpich2_nmad(false), seed, nodes));
    run_mpi_collect(&cluster, &placement, &stack, AGREE_RANKS, |mpi| {
        let me = mpi.rank();
        let c0 = Comm::from_members(mpi, 0, (0..AGREE_RANKS).collect());
        mpi.comm_barrier(&c0);
        if me == AGREE_DEAD {
            wait_until(mpi, 50);
            mpi.crash();
            return;
        }
        wait_until(mpi, 60);
        if me == 0 {
            let s = mpi.isend(AGREE_DEAD, TAG, &fill(me, 0, 64 * 1024));
            assert!(
                mpi.wait_result(s).is_err(),
                "rendezvous at a corpse must fail"
            );
            mpi.comm_revoke(&c0);
        }
        let c1 = mpi.comm_shrink(&c0);
        assert_eq!(c1.members().len(), AGREE_RANKS - 1);
        mpi.comm_barrier(&c1);
    })
    .0
}

// ---------------------------------------------------------------------
// Goldens (captured with every poll tick a rank handoff)
// ---------------------------------------------------------------------

const GOLDEN: &[(&str, Golden)] = &[
    (
        "pingpong_8b",
        Golden {
            final_ns: 84600,
            events: 2930,
            rank_wakes: 2850,
            nm_hash: 0x895c2910e715f2e1,
            copy: [320, 40, 40, 0],
            trace_hash: 0x661decd680163467,
            counters_hash: 0xc1f146b6b1e27a49,
        },
    ),
    (
        "pingpong_64k",
        Golden {
            final_ns: 264032,
            events: 2025,
            rank_wakes: 1953,
            nm_hash: 0xed0d8a0f0807cbe1,
            copy: [1048576, 24, 16, 24],
            trace_hash: 0xc82fa07719a10c9c,
            counters_hash: 0xe2428fdb4d58e382,
        },
    ),
    (
        "netmod_pingpong",
        Golden {
            final_ns: 70014,
            events: 1360,
            rank_wakes: 1336,
            nm_hash: 0x3a53174f219cc491,
            copy: [98508, 24, 24, 12],
            trace_hash: 0xbc0999d061ff2d70,
            counters_hash: 0x5ca0c9b73604689e,
        },
    ),
    (
        "intra_any_source",
        Golden {
            final_ns: 14070,
            events: 560,
            rank_wakes: 531,
            nm_hash: 0xbead0106be02453a,
            copy: [9120, 19, 14, 5],
            trace_hash: 0x4229ff2f628bb8fc,
            counters_hash: 0x1573adc22d192cbc,
        },
    ),
    (
        "nested_rdv_finalize",
        Golden {
            final_ns: 158378,
            events: 690,
            rank_wakes: 668,
            nm_hash: 0x3ff7fa950fa6c658,
            copy: [524388, 8, 8, 6],
            trace_hash: 0x913e4cfa64e755c8,
            counters_hash: 0x2525d131754a66a1,
        },
    ),
    (
        "probe",
        Golden {
            final_ns: 35116,
            events: 464,
            rank_wakes: 455,
            nm_hash: 0xcaaacf4ceb2be55d,
            copy: [41260, 3, 3, 1],
            trace_hash: 0xb3e3bbef91966228,
            counters_hash: 0x6c8f3a28ea87aed2,
        },
    ),
    (
        "fault_drop_heavy",
        Golden {
            final_ns: 347432,
            events: 1402,
            rank_wakes: 1239,
            nm_hash: 0x617a8c0f9a4c72a1,
            copy: [577616, 30, 28, 40],
            trace_hash: 0x845f85fc9b7e4e6c,
            counters_hash: 0xfff9c2af3b385d43,
        },
    ),
    (
        "fault_mixed",
        Golden {
            final_ns: 841426,
            events: 5499,
            rank_wakes: 5186,
            nm_hash: 0xa2f1774e6b9a419c,
            copy: [307296, 32, 32, 56],
            trace_hash: 0x0cbcd44c6897632c,
            counters_hash: 0x9b947d8196410264,
        },
    ),
    (
        "churn",
        Golden {
            final_ns: 560424,
            events: 6107,
            rank_wakes: 5481,
            nm_hash: 0xb2955b782bb3cce3,
            copy: [346112, 77, 77, 137],
            trace_hash: 0x3e6c076243c65729,
            counters_hash: 0xd1adc966f60ea734,
        },
    ),
    (
        "overload",
        Golden {
            final_ns: 397859,
            events: 7127,
            rank_wakes: 6900,
            nm_hash: 0xaaa4882d56151eaa,
            copy: [387853, 61, 61, 13],
            trace_hash: 0x0d7a2073bfc8119d,
            counters_hash: 0xab1473faef501616,
        },
    ),
    (
        "agreement",
        Golden {
            final_ns: 335698,
            events: 4818,
            rank_wakes: 4196,
            nm_hash: 0xf04d4bb1239f9b14,
            copy: [65536, 1, 1, 109],
            trace_hash: 0x3c10ec8d32ab81b8,
            counters_hash: 0xaa66d25729a4453e,
        },
    ),
    (
        // Captured with elision in place: `rank_wakes` still counts the
        // elided ticks, so the row has the same meaning as the ones above.
        "fanin_allreduce",
        Golden {
            final_ns: 899354,
            events: 7943,
            rank_wakes: 1657,
            nm_hash: 0x69deebb9acf8a55f,
            copy: [1809839, 924, 567, 378],
            trace_hash: 0xd1ab3f0f1b3ac7a0,
            counters_hash: 0x739e068b985c5f32,
        },
    ),
];

fn golden(case: &str) -> Golden {
    GOLDEN
        .iter()
        .find(|(name, _)| *name == case)
        .unwrap_or_else(|| panic!("no golden row for {case}"))
        .1
}

fn run_case(case: &str) -> Golden {
    match case {
        "pingpong_8b" => from_outcome(&pingpong(StackConfig::mpich2_nmad(false), 8, 20)),
        "pingpong_64k" => from_outcome(&pingpong(StackConfig::mpich2_nmad(false), 64 * 1024, 4)),
        "netmod_pingpong" => from_outcome(&pingpong(StackConfig::mpich2_nmad_netmod(0), 4096, 6)),
        "intra_any_source" => from_outcome(&intra_any_source()),
        "nested_rdv_finalize" => from_outcome(&nested_rdv_finalize()),
        "probe" => from_outcome(&probe()),
        "fault_drop_heavy" => from_fingerprint(
            Scenario::new(3, FaultSpec::drop_heavy(), Workload::SendRecv, false).run_traced(),
        ),
        "fault_mixed" => from_fingerprint(
            Scenario::new(301, FaultSpec::mixed(), Workload::AnySource, false).run_traced(),
        ),
        "churn" => from_outcome(&churn(0xC4C4_0001)),
        "overload" => from_outcome(&overload(41)),
        "agreement" => from_outcome(&agreement(0xA57A_0001)),
        "fanin_allreduce" => from_outcome(&fanin_allreduce()),
        _ => unreachable!("unknown case {case}"),
    }
}

macro_rules! referee {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            let case = stringify!($name);
            super::check(case, super::run_case(case), super::golden(case));
        }
    )*};
}

mod referee {
    referee!(
        pingpong_8b,
        pingpong_64k,
        netmod_pingpong,
        intra_any_source,
        nested_rdv_finalize,
        probe,
        fault_drop_heavy,
        fault_mixed,
        churn,
        overload,
        agreement,
        fanin_allreduce,
    );
}

// ---------------------------------------------------------------------
// Work-count gate: the `pingpong_small` benchmark configuration
// ---------------------------------------------------------------------

/// `pingpong_small`'s dispatched events and rank wake events for 100
/// 8-byte round trips, captured with every poll tick a rank handoff.
const PINGPONG_SMALL_EVENTS: u64 = 14_770;
const PINGPONG_SMALL_RANK_WAKES: u64 = 14_370;

#[test]
fn pingpong_small_work_counts() {
    const ROUND_TRIPS: u64 = 100;
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let stack = StackConfig::mpich2_nmad(false);
    let (out, _) = run_mpi_collect(&cluster, &placement, &stack, 2, |mpi| {
        pingpong_rank(mpi, 8, ROUND_TRIPS as usize)
    });
    let sim = &out.sim;
    assert_eq!(sim.events, PINGPONG_SMALL_EVENTS, "dispatched events moved");
    assert_eq!(
        sim.wakes + sim.polls_elided,
        PINGPONG_SMALL_RANK_WAKES,
        "rank wake events moved"
    );
    let per_rt = sim.wakes as f64 / ROUND_TRIPS as f64;
    assert!(
        per_rt <= 24.0,
        "{per_rt:.2} rank handoffs per round trip (> 24): idle poll ticks are not being elided"
    );
}
