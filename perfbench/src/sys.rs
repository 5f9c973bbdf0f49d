//! Host facts the benchmark needs that `std` does not expose: CPU pinning,
//! per-thread and per-process CPU clocks, the memory high-water mark and a
//! host fingerprint. Linux/glibc only, through the C library `std` already
//! links; the only file read outside the working directory is
//! `/proc/self/status`.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t`: 1024 CPU bits.
const CPU_SET_BYTES: usize = 128;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_NPROCESSORS_ONLN: i32 = 84;

extern "C" {
    fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    fn pthread_self() -> u64;
    fn pthread_getcpuclockid(thread: u64, clk: *mut i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn read_clock(clk: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(clk, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// A handle on one thread's CPU clock that any other thread can read
/// (used to read the engine thread's CPU time from a rank thread).
#[derive(Clone, Copy, Debug)]
pub struct ThreadClock(i32);

impl ThreadClock {
    /// The calling thread's CPU clock.
    pub fn current() -> ThreadClock {
        let mut clk = 0i32;
        // SAFETY: pthread_self names the calling thread, which is alive;
        // `clk` is a valid out-pointer.
        let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut clk) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        ThreadClock(clk)
    }

    /// CPU time of the thread this clock names. That thread must still be
    /// running: here it is the thread blocked inside `run_mpi`.
    pub fn read(self) -> Duration {
        read_clock(self.0)
    }
}

fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is CPU_SET_BYTES long, the size passed.
    let rc = unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..CPU_SET_BYTES * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Pin the calling thread, and so every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on. Call before any thread starts.
/// Returns the CPU id.
pub fn pin_to_one_cpu() -> usize {
    let cpu = *allowed_cpus().last().expect("no CPU in the affinity mask");
    let mut mask = [0u8; CPU_SET_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is CPU_SET_BYTES long, the size passed.
    let rc = unsafe { sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity({cpu}) failed");
    cpu
}

/// Peak resident set size of this process, in MiB: `VmHWM` of
/// `/proc/self/status`. `getrusage`'s `ru_maxrss` would not do: Linux
/// carries the high-water mark of the process that ran `exec` (here cargo)
/// into it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Where a result was measured. Wall-clock numbers are only comparable
/// between runs with the same fingerprint.
pub struct Fingerprint {
    pub nproc: i64,
    pub cpu_model: String,
    pub pinned_cpu: usize,
    pub commit: String,
}

impl Fingerprint {
    pub fn take(pinned_cpu: usize) -> Fingerprint {
        Fingerprint {
            // SAFETY: sysconf has no memory preconditions.
            nproc: unsafe { sysconf(SC_NPROCESSORS_ONLN) },
            cpu_model: cpu_model(),
            pinned_cpu,
            commit: git_commit(),
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} cpu_model=\"{}\" pinned_cpu={} commit={}",
            self.nproc, self.cpu_model, self.pinned_cpu, self.commit
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf; the brand
    // string is in leaves 0x8000_0002..=0x8000_0004.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut brand = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            brand.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&brand)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
