//! Work-count gate for the bulk byte path: once a job's first 1 MiB
//! round trip has filled the payload pool, later round trips make no
//! large heap allocation at all — the MPI ingress copies and the
//! rendezvous landing buffers all reuse recycled storage — while the
//! CopyMeter still records exactly the copies and allocations the stack
//! recorded before storage was recycled.
//!
//! A counting global allocator tallies every heap allocation of
//! [`LARGE`] bytes or more. Rank 0 reads the tally after each round trip;
//! the simulator runs one thread at a time, so the reads are
//! deterministic. The cases share one process-wide counter, so they run
//! one at a time under [`SERIAL`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::simnet::{Cluster, CopySnapshot, Placement};

/// Allocations at least this large are counted (the pool's size floor).
const LARGE: usize = 64 * 1024;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

const MIB: usize = 1 << 20;
const ROUNDS: usize = 20;

/// `ROUNDS` byte-checked 1 MiB round trips between ranks 0 and 1. Returns
/// the job's copy totals and the large-allocation tally rank 0 saw after
/// `k` round trips, for `k` in `0..=ROUNDS`.
fn pingpong(cfg: &StackConfig, placement: &Placement) -> (CopySnapshot, Vec<u64>) {
    let cluster = Cluster::xeon_pair();
    let ping: Arc<Vec<u8>> = Arc::new((0..MIB).map(|i| (i * 7 + 1) as u8).collect());
    let pong: Arc<Vec<u8>> = Arc::new((0..MIB).map(|i| (i * 13 + 5) as u8).collect());
    let (outcome, mut marks) =
        run_mpi_collect(&cluster, placement, cfg, 2, move |mpi: &MpiHandle| {
            let mut marks = Vec::with_capacity(ROUNDS + 1);
            marks.push(LARGE_ALLOCS.load(Ordering::Relaxed));
            for round in 0..ROUNDS {
                let tag = round as u32;
                if mpi.rank() == 0 {
                    mpi.send(1, tag, &ping);
                    let (data, st) = mpi.recv(Src::Rank(1), tag);
                    assert_eq!(st.len, MIB);
                    assert!(data[..] == pong[..], "round {round}: pong bytes differ");
                    drop(data);
                    marks.push(LARGE_ALLOCS.load(Ordering::Relaxed));
                } else {
                    let (data, st) = mpi.recv(Src::Rank(0), tag);
                    assert_eq!(st.len, MIB);
                    assert!(data[..] == ping[..], "round {round}: ping bytes differ");
                    drop(data);
                    mpi.send(0, tag, &pong);
                }
            }
            marks
        });
    (outcome.copy, marks.swap_remove(0))
}

/// Runs the ping-pong, checks the copy totals against `expect` (captured
/// before payload storage was recycled) and requires zero large heap
/// allocations in every round trip after the first `warm` ones. Returns
/// the per-round tally.
fn check(cfg: StackConfig, placement: Placement, warm: usize, expect: CopySnapshot) -> Vec<u64> {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (copy, marks) = pingpong(&cfg, &placement);
    assert_eq!(copy, expect, "{}: copy accounting moved", cfg.name);
    assert_eq!(
        marks[ROUNDS] - marks[warm],
        0,
        "{}: large heap allocations after round trip {warm} (tally per round: {marks:?})",
        cfg.name
    );
    marks
}

/// The benchmark's `pingpong_bulk` configuration: NewMadeleine bypass
/// with PIOMan, split over IB + MX.
#[test]
fn bulk_bypass_pioman_recycles_every_payload() {
    let cluster = Cluster::xeon_pair();
    check(
        StackConfig::mpich2_nmad(true),
        Placement::one_per_node(2, &cluster),
        1,
        CopySnapshot {
            bytes_copied: 83886080,
            memcpy_calls: 120,
            allocations: 80,
            slice_refs: 120,
        },
    );
}

/// The netmod tunnel: CH3's own rendezvous lands the payload.
#[test]
fn bulk_netmod_recycles_every_payload() {
    let cluster = Cluster::xeon_pair();
    check(
        StackConfig::mpich2_nmad_netmod(0),
        Placement::one_per_node(2, &cluster),
        1,
        CopySnapshot {
            bytes_copied: 167774160,
            memcpy_calls: 160,
            allocations: 160,
            slice_refs: 120,
        },
    );
}

/// Both ranks on one node: Nemesis multi-cell reassembly lands the
/// payload. Each Nemesis cell sizes its own 64 KiB payload the first
/// time it carries a fragment (cell.rs), and the free queues cycle all
/// 2 × 64 cells through the first 11 round trips; the gate starts once
/// the arena is warm, and bounds the warm-up by the arena itself.
#[test]
fn bulk_intra_node_recycles_every_payload() {
    let cluster = Cluster::xeon_pair();
    let cfg = StackConfig::mpich2_nmad(true);
    let cells = 2 * cfg.cells_per_rank as u64;
    let marks = check(
        cfg,
        Placement::block(2, &cluster),
        12,
        CopySnapshot {
            bytes_copied: 125829120,
            memcpy_calls: 1320,
            allocations: 80,
            slice_refs: 40,
        },
    );
    // Every cell once, plus a few pooled payload buffers.
    let total = marks[ROUNDS] - marks[0];
    assert!(
        total <= cells + 4,
        "{total} large allocations for {cells} cells"
    );
}
