//! `run_mpi` leaves nothing behind: the live heap after a job returns
//! does not depend on how much work the job did. A reference cycle
//! between a rank's progress state and the hooks or PIOMan ltasks wired
//! into it would keep every rank's state — and the job's copy meter with
//! its recycled payload storage — alive after the run, growing with the
//! work done.
//!
//! A counting global allocator tracks live heap bytes. The cases share
//! that process-wide count, so they run one at a time under [`SERIAL`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

use mpich2_nmad_repro::mpi_ch3::stack::{run_mpi_collect, StackConfig};
use mpich2_nmad_repro::mpi_ch3::{MpiHandle, Src};
use mpich2_nmad_repro::simnet::{Cluster, Placement};

static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// Live heap bytes `run_mpi` leaves behind after `rounds` ping-pong round
/// trips of `len` bytes between two nodes.
fn retained(cfg: &StackConfig, rounds: usize, len: usize) -> i64 {
    let cluster = Cluster::xeon_pair();
    let placement = Placement::one_per_node(2, &cluster);
    let before = LIVE.load(Ordering::Relaxed);
    let (outcome, _) = run_mpi_collect(&cluster, &placement, cfg, 2, move |mpi: &MpiHandle| {
        let payload = vec![0x3Cu8; len];
        for round in 0..rounds {
            let tag = round as u32;
            if mpi.rank() == 0 {
                mpi.send(1, tag, &payload);
                let (data, _) = mpi.recv(Src::Rank(1), tag);
                assert!(data[..] == payload[..]);
            } else {
                let (data, _) = mpi.recv(Src::Rank(0), tag);
                assert!(data[..] == payload[..]);
                mpi.send(0, tag, &payload);
            }
        }
    });
    drop(outcome);
    LIVE.load(Ordering::Relaxed) - before
}

fn check(cfg: StackConfig) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Eager and rendezvous traffic; 64 KiB payloads use recycled storage.
    for len in [8, 64 * 1024] {
        // Warm up once-per-process state (thread-local caches, lazies).
        retained(&cfg, 2, len);
        let few = retained(&cfg, 10, len);
        let many = retained(&cfg, 200, len);
        assert_eq!(
            few, many,
            "{} ({len} B): run_mpi retained {few} B after 10 round trips \
             but {many} B after 200",
            cfg.name
        );
    }
}

#[test]
fn polling_stack_releases_every_run() {
    check(StackConfig::mpich2_nmad(false));
}

#[test]
fn pioman_stack_releases_every_run() {
    check(StackConfig::mpich2_nmad(true));
}
