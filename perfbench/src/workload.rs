//! The three workloads: their seeded inputs, the rank programs that run
//! them on the real stack through `run_mpi`, and the checks on every
//! output. One `run_mpi` call is a *batch* of a fixed number of ops; the
//! benchmark repeats batches until its time is up.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpi_ch3::stack::run_mpi;
use mpi_ch3::{MpiHandle, RunOutcome, Src, StackConfig};
use nmad::FlowConfig;
use obs::{EngineEvent, ObsConfig, PhaseBreakdown, Scope};
use simnet::{Cluster, CopySnapshot, NicModel, Placement, SimDuration};

use crate::alloc::{self, AllocSnapshot};
use crate::sys::{self, ThreadClock};

const TAG: u32 = 7;
/// Fan-in senders compute for up to this long before sending.
const MAX_GAP_NS: u64 = 20_000;
/// Rank 0 computes this long before receiving, so most of a round's
/// messages are already waiting (unexpected) when it posts.
const RANK0_DELAY: SimDuration = SimDuration::micros(30);
/// Fan-in messages above the 16 KiB eager threshold go rendezvous.
const FANIN_EAGER_MAX: usize = 4 * 1024;
const FANIN_RDV_MIN: usize = 16 * 1024 + 1;
const FANIN_RDV_MAX: usize = 48 * 1024;
/// One fan-in sender in this many sends a rendezvous message per round.
const FANIN_RDV_ONE_IN: u64 = 8;
const REDUCE_LEN: usize = 8;
/// Payloads are windows of one seeded pool; this much slack gives each
/// message its own offset.
const POOL_SLACK: usize = 64 * 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PingpongSmall,
    PingpongBulk,
    FaninAllreduce,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::PingpongSmall,
        Kind::PingpongBulk,
        Kind::FaninAllreduce,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PingpongSmall => "pingpong_small",
            Kind::PingpongBulk => "pingpong_bulk",
            Kind::FaninAllreduce => "fanin_allreduce",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn nranks(self) -> usize {
        match self {
            Kind::PingpongSmall | Kind::PingpongBulk => 2,
            Kind::FaninAllreduce => 64,
        }
    }

    /// Timed ops per batch: 0.1–0.2 s of host time each on a 2.x GHz Xeon
    /// core. Each batch sets the stack up once, and `setup_s` is the median
    /// over them: short batches spread the set-ups over the whole run,
    /// which evens out the host's slow and fast spells (a 2-rank set-up
    /// takes about 0.1 ms and shifts by half between them).
    pub fn batch_ops(self) -> usize {
        match self {
            Kind::PingpongSmall => 100,
            Kind::PingpongBulk => 60,
            Kind::FaninAllreduce => 20,
        }
    }

    fn cluster(self) -> Cluster {
        match self {
            Kind::PingpongSmall | Kind::PingpongBulk => Cluster::xeon_pair(),
            Kind::FaninAllreduce => Cluster::new(8, 8, vec![NicModel::connectx_ib()]),
        }
    }

    fn placement(self, cluster: &Cluster) -> Placement {
        match self {
            Kind::PingpongSmall | Kind::PingpongBulk => Placement::one_per_node(2, cluster),
            Kind::FaninAllreduce => Placement::block(64, cluster),
        }
    }

    fn config(self, seed: u64) -> StackConfig {
        match self {
            Kind::PingpongSmall => StackConfig::mpich2_nmad(false),
            Kind::PingpongBulk => StackConfig::mpich2_nmad(true),
            Kind::FaninAllreduce => {
                StackConfig::mpich2_nmad(true).with_flow(FlowConfig::bounded(4, 128 * 1024))
            }
        }
        .with_fabric_seed(seed)
    }
}

/// A deliberate fault, for the benchmark's own tests of its checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sabotage {
    None,
    /// In the first timed op, rank 1's message carries one flipped byte.
    CorruptPayload,
    /// Rank 0 contributes a wrong value to the first timed allreduce.
    WrongReduction,
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a workload sends, derived from its seed: payload bytes,
/// message sizes, compute gaps and reduction contributions.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pool: Vec<u8>,
}

impl Inputs {
    pub fn new(kind: Kind, seed: u64) -> Inputs {
        let max_len = match kind {
            Kind::PingpongSmall => 8,
            Kind::PingpongBulk => 1 << 20,
            Kind::FaninAllreduce => FANIN_RDV_MAX,
        };
        let words = (max_len + POOL_SLACK).div_ceil(8);
        let pool = (0..words as u64)
            .flat_map(|i| mix(seed ^ mix(i)).to_le_bytes())
            .collect();
        Inputs { kind, seed, pool }
    }

    /// Hash of (seed, op, rank, stream).
    fn draw(&self, op: usize, rank: usize, stream: u64) -> u64 {
        mix(self.seed ^ mix((op as u64) << 20 ^ (rank as u64) << 4 ^ stream))
    }

    /// Length of the message `src` sends in `op` (for a ping-pong, src 0
    /// is the ping and src 1 the pong).
    pub fn len(&self, op: usize, src: usize) -> usize {
        match self.kind {
            Kind::PingpongSmall => 8,
            Kind::PingpongBulk => 1 << 20,
            Kind::FaninAllreduce => {
                // A seeded one rank in eight goes rendezvous each round, so
                // every round (and seed) carries 7 or 8 of them.
                let rdv = (src as u64 + self.draw(op, 0, 5)).is_multiple_of(FANIN_RDV_ONE_IN);
                let h = self.draw(op, src, 1) as usize;
                if rdv {
                    FANIN_RDV_MIN + h % (FANIN_RDV_MAX - FANIN_RDV_MIN + 1)
                } else {
                    1 + h % FANIN_EAGER_MAX
                }
            }
        }
    }

    /// The bytes `src` sends in `op`.
    pub fn payload(&self, op: usize, src: usize) -> &[u8] {
        let len = self.len(op, src);
        let off = self.draw(op, src, 2) as usize % (self.pool.len() - len + 1);
        &self.pool[off..off + len]
    }

    fn outgoing(&self, op: usize, src: usize, sabotage: Sabotage) -> Cow<'_, [u8]> {
        let data = self.payload(op, src);
        if sabotage == Sabotage::CorruptPayload && op == 1 && src == 1 {
            let mut bad = data.to_vec();
            bad[0] ^= 0x5A;
            Cow::Owned(bad)
        } else {
            Cow::Borrowed(data)
        }
    }

    /// Simulated compute before fan-in sender `rank` sends in `op`.
    pub fn gap_ns(&self, op: usize, rank: usize) -> u64 {
        self.draw(op, rank, 3) % MAX_GAP_NS
    }

    /// Round `op`'s base value; rank `r` contributes `base + 8r + k` at
    /// index `k`, small integers whose sum is exact in f64.
    fn reduce_base(&self, op: usize) -> u64 {
        self.draw(op, 0, 4) % 1_000_000
    }

    pub fn contrib(&self, op: usize, rank: usize) -> [f64; REDUCE_LEN] {
        let base = self.reduce_base(op);
        std::array::from_fn(|k| (base + (REDUCE_LEN * rank + k) as u64) as f64)
    }

    pub fn expected_sum(&self, op: usize, nranks: usize) -> [f64; REDUCE_LEN] {
        let n = nranks as u64;
        let base = self.reduce_base(op);
        // Σ_r (base + 8r + k) = n·base + 8·n(n−1)/2 + n·k
        std::array::from_fn(|k| {
            (n * base + REDUCE_LEN as u64 * n * (n - 1) / 2 + n * k as u64) as f64
        })
    }
}

/// The `mpi` calls whose thread CPU time the traced run reports.
#[derive(Clone, Copy)]
pub enum Call {
    Send = 0,
    Recv = 1,
    RecvAny = 2,
    Allreduce = 3,
}

pub const CALL_NAMES: [&str; 4] = ["send", "recv", "recv_any", "allreduce"];

/// One instant on every clock the benchmark reads, taken on rank 0.
#[derive(Clone, Copy)]
struct Mark {
    wall: Instant,
    sim_ns: u64,
    engine_cpu: Duration,
    process_cpu: Duration,
    alloc: AllocSnapshot,
}

impl Mark {
    fn take(mpi: &MpiHandle, engine: ThreadClock) -> Mark {
        Mark {
            alloc: AllocSnapshot::now(),
            wall: Instant::now(),
            sim_ns: mpi.now().as_nanos(),
            engine_cpu: engine.read(),
            process_cpu: sys::process_cpu(),
        }
    }
}

/// What the rank programs record, shared with the thread calling
/// `run_mpi`.
struct Probe {
    nranks: usize,
    start: Instant,
    entered: AtomicUsize,
    all_entered: Mutex<Option<Instant>>,
    engine: ThreadClock,
    op_failed: Vec<AtomicBool>,
    samples_ns: Mutex<Vec<u64>>,
    timed: Mutex<Option<(Mark, Mark)>>,
    /// Per-call (total thread-CPU ns, calls); None leaves calls untimed.
    calls: Option<[(AtomicU64, AtomicU64); 4]>,
}

impl Probe {
    fn enter(&self) {
        if self.entered.fetch_add(1, Ordering::SeqCst) + 1 == self.nranks {
            *self.all_entered.lock().expect("probe lock") = Some(Instant::now());
        }
    }

    fn check(&self, op: usize, ok: bool) {
        if !ok {
            self.op_failed[op].store(true, Ordering::Relaxed);
        }
    }

    fn call<R>(&self, which: Call, f: impl FnOnce() -> R) -> R {
        let Some(calls) = &self.calls else {
            return f();
        };
        let t0 = sys::thread_cpu();
        let r = f();
        let (ns, n) = &calls[which as usize];
        ns.fetch_add(
            (sys::thread_cpu() - t0).as_nanos() as u64,
            Ordering::Relaxed,
        );
        n.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// Rank 0's clock bookkeeping around the timed ops (op 0 is a warm-up).
struct Timer {
    samples: Vec<u64>,
    start: Option<Mark>,
}

impl Timer {
    fn new(ops: usize) -> Timer {
        Timer {
            samples: Vec::with_capacity(ops),
            start: None,
        }
    }

    fn op_done(&mut self, op: usize, t0: Instant, mpi: &MpiHandle, probe: &Probe) {
        if op == 0 {
            self.start = Some(Mark::take(mpi, probe.engine));
        } else {
            self.samples.push(t0.elapsed().as_nanos() as u64);
        }
    }

    fn finish(self, mpi: &MpiHandle, probe: &Probe) {
        let end = Mark::take(mpi, probe.engine);
        let start = self.start.expect("warm-up op never completed");
        *probe.timed.lock().expect("probe lock") = Some((start, end));
        *probe.samples_ns.lock().expect("probe lock") = self.samples;
    }
}

fn pingpong(mpi: &MpiHandle, inp: &Inputs, probe: &Probe, ops: usize, sabotage: Sabotage) {
    let me = mpi.rank();
    let mut timer = (me == 0).then(|| Timer::new(ops));
    for op in 0..=ops {
        let t0 = Instant::now();
        if me == 0 {
            probe.call(Call::Send, || {
                mpi.send(1, TAG, &inp.outgoing(op, 0, Sabotage::None))
            });
            let (data, st) = probe.call(Call::Recv, || mpi.recv(Src::Rank(1), TAG));
            probe.check(op, st.source == 1 && data[..] == *inp.payload(op, 1));
        } else {
            let (data, st) = probe.call(Call::Recv, || mpi.recv(Src::Rank(0), TAG));
            probe.check(op, st.source == 0 && data[..] == *inp.payload(op, 0));
            probe.call(Call::Send, || {
                mpi.send(0, TAG, &inp.outgoing(op, 1, sabotage))
            });
        }
        if let Some(t) = timer.as_mut() {
            t.op_done(op, t0, mpi, probe);
        }
    }
    if let Some(t) = timer {
        t.finish(mpi, probe);
    }
}

fn fanin(mpi: &MpiHandle, inp: &Inputs, probe: &Probe, ops: usize, sabotage: Sabotage) {
    let (me, n) = (mpi.rank(), mpi.size());
    let mut timer = (me == 0).then(|| Timer::new(ops));
    let mut seen = vec![false; n];
    for op in 0..=ops {
        let t0 = Instant::now();
        if me != 0 {
            mpi.compute(SimDuration::nanos(inp.gap_ns(op, me)));
            probe.call(Call::Send, || {
                mpi.send(0, TAG, &inp.outgoing(op, me, sabotage))
            });
        } else {
            mpi.compute(RANK0_DELAY);
            seen.fill(false);
            for _ in 1..n {
                let (data, st) = probe.call(Call::RecvAny, || mpi.recv(Src::Any, TAG));
                let src = st.source;
                let ok = src != 0 && src < n && !seen[src] && data[..] == *inp.payload(op, src);
                if src < n {
                    seen[src] = true;
                }
                probe.check(op, ok);
            }
        }
        let mut contrib = inp.contrib(op, me);
        if sabotage == Sabotage::WrongReduction && op == 1 && me == 0 {
            contrib[0] += 1.0;
        }
        let sum = probe.call(Call::Allreduce, || mpi.allreduce_sum(&contrib));
        probe.check(op, sum[..] == inp.expected_sum(op, n)[..]);
        if let Some(t) = timer.as_mut() {
            t.op_done(op, t0, mpi, probe);
        }
    }
    if let Some(t) = timer {
        t.finish(mpi, probe);
    }
}

/// Work counts of one batch. Deterministic for a seed: every batch of a
/// run must report the same values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub final_ns: u64,
    pub timed_sim_ns: u64,
    pub events: u64,
    pub wakes: u64,
    pub copy: CopySnapshot,
    pub rail_msgs: u64,
    pub rail_bytes: u64,
    pub packets: u64,
    pub eager_sends: u64,
    pub rdv_sends: u64,
    pub chunks: u64,
    pub aggregates: u64,
    pub retries: u64,
    pub credits_withheld: u64,
    pub credit_stalls: u64,
    pub peak_unex_bytes: u64,
    pub recv_completions: u64,
    pub protocol_errors: u64,
    pub crc_drops: u64,
    pub piom_rekicks: u64,
}

impl Counts {
    fn of(out: &RunOutcome, timed_sim_ns: u64) -> Counts {
        let mut c = Counts {
            final_ns: out.sim.final_time.as_nanos(),
            timed_sim_ns,
            events: out.sim.events,
            wakes: out.sim.wakes,
            copy: out.copy,
            rail_msgs: out.rail_counters.iter().map(|r| r.0).sum(),
            rail_bytes: out.rail_counters.iter().map(|r| r.1).sum(),
            piom_rekicks: out.piom_rekicks,
            ..Counts::default()
        };
        for s in &out.nm_stats {
            c.packets += s.packets_sent;
            c.eager_sends += s.eager_sends;
            c.rdv_sends += s.rdv_sends;
            c.chunks += s.data_chunks_sent;
            c.aggregates += s.aggregates_sent;
            c.retries += s.eager_retries + s.rts_retries + s.cts_retries + s.data_retries;
            c.credits_withheld += s.fc_credits_withheld;
            c.credit_stalls += s.fc_credit_stalls;
            c.peak_unex_bytes = c.peak_unex_bytes.max(s.fc_peak_unex_bytes);
            c.recv_completions += s.recv_completions;
            c.protocol_errors += s.protocol_errors;
            c.crc_drops += s.crc_drops;
        }
        c
    }

    /// Problems a healthy run never shows.
    pub fn health_errors(&self) -> Vec<String> {
        [
            ("protocol_errors", self.protocol_errors),
            ("crc_drops", self.crc_drops),
            ("retries", self.retries),
        ]
        .into_iter()
        .filter(|&(_, v)| v != 0)
        .map(|(name, v)| format!("{name}={v}"))
        .collect()
    }
}

/// What only a traced batch can see: engine events and the sim-time
/// phase breakdown.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub piom_kicks: u64,
    pub shm_frag_copies: u64,
    pub shm_delivers: u64,
    pub breakdown: PhaseBreakdown,
}

impl Traced {
    fn of(report: &obs::Report) -> Traced {
        let mut t = Traced {
            breakdown: report.breakdown(),
            ..Traced::default()
        };
        for e in &report.events {
            let Scope::Engine { ev } = e.scope else {
                continue;
            };
            match ev {
                EngineEvent::PiomKick { .. } => t.piom_kicks += 1,
                EngineEvent::ShmFragCopy { .. } => t.shm_frag_copies += 1,
                EngineEvent::ShmDeliver { .. } => t.shm_delivers += 1,
                _ => {}
            }
        }
        t
    }
}

/// One `run_mpi` call.
pub struct Batch {
    pub ops: usize,
    pub setup: Duration,
    pub samples_ns: Vec<u64>,
    pub wall: Duration,
    pub engine_cpu: Duration,
    pub process_cpu: Duration,
    pub alloc: AllocSnapshot,
    /// Heap bytes still allocated after `run_mpi` returned that were not
    /// before it: memory the run never gave back.
    pub retained_bytes: i64,
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
    /// Per-call (thread-CPU ns, calls), when call timers were on.
    pub calls: [(u64, u64); 4],
    pub traced: Option<Traced>,
    /// Why the batch failed as a whole (a panic, a health counter).
    pub error: Option<String>,
}

#[derive(Clone, Copy)]
pub struct BatchOpts {
    pub ops: usize,
    pub traced: bool,
    pub call_timers: bool,
    pub sabotage: Sabotage,
}

pub fn run_batch(inputs: &Arc<Inputs>, opts: BatchOpts) -> Batch {
    let kind = inputs.kind;
    let nranks = kind.nranks();
    let cluster = kind.cluster();
    let placement = kind.placement(&cluster);
    let mut cfg = kind.config(inputs.seed);
    if opts.traced {
        cfg = cfg.with_obs(ObsConfig::full());
    }
    let ops = opts.ops;
    let probe = Arc::new(Probe {
        nranks,
        start: Instant::now(),
        entered: AtomicUsize::new(0),
        all_entered: Mutex::new(None),
        engine: ThreadClock::current(),
        op_failed: (0..=ops).map(|_| AtomicBool::new(false)).collect(),
        samples_ns: Mutex::new(Vec::new()),
        timed: Mutex::new(None),
        calls: opts.call_timers.then(Default::default),
    });
    let (p, inp, sabotage) = (Arc::clone(&probe), Arc::clone(inputs), opts.sabotage);
    let program = Arc::new(move |mpi: MpiHandle| {
        p.enter();
        match kind {
            Kind::PingpongSmall | Kind::PingpongBulk => pingpong(&mpi, &inp, &p, ops, sabotage),
            Kind::FaninAllreduce => fanin(&mpi, &inp, &p, ops, sabotage),
        }
    });
    let live_before = alloc::live_bytes();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_mpi(&cluster, &placement, &cfg, nranks, program)
    }));
    let attempted = ops as u64 + 1;
    let failed = probe
        .op_failed
        .iter()
        .filter(|f| f.load(Ordering::Relaxed))
        .count() as u64;
    let setup = probe
        .all_entered
        .lock()
        .expect("probe lock")
        .map_or(Duration::ZERO, |t| t - probe.start);
    let timed = *probe.timed.lock().expect("probe lock");
    let samples_ns = std::mem::take(&mut *probe.samples_ns.lock().expect("probe lock"));
    let calls = probe.calls.as_ref().map_or([(0, 0); 4], |c| {
        std::array::from_fn(|i| {
            (
                c[i].0.load(Ordering::Relaxed),
                c[i].1.load(Ordering::Relaxed),
            )
        })
    });
    let mut batch = Batch {
        ops,
        setup,
        samples_ns,
        wall: Duration::ZERO,
        engine_cpu: Duration::ZERO,
        process_cpu: Duration::ZERO,
        alloc: AllocSnapshot::default(),
        retained_bytes: 0,
        attempted,
        failed: attempted,
        counts: Counts::default(),
        calls,
        traced: None,
        error: None,
    };
    let out = match (result, timed) {
        (Ok(out), Some(timed)) => (out, timed),
        (Ok(_), None) => {
            batch.error = Some("rank 0 never finished its timed ops".into());
            return batch;
        }
        (Err(panic), _) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            batch.error = Some(format!("run_mpi panicked: {msg}"));
            return batch;
        }
    };
    let (outcome, (start, end)) = out;
    batch.wall = end.wall - start.wall;
    batch.engine_cpu = end.engine_cpu - start.engine_cpu;
    batch.process_cpu = end.process_cpu - start.process_cpu;
    batch.alloc = end.alloc.since(start.alloc);
    batch.counts = Counts::of(&outcome, end.sim_ns - start.sim_ns);
    batch.traced = outcome.obs.as_ref().map(Traced::of);
    drop(outcome);
    // What the batch keeps was allocated during the run too; it is not
    // memory the stack failed to return.
    let kept = batch.samples_ns.capacity() * std::mem::size_of::<u64>()
        + batch.traced.as_ref().map_or(0, |t| {
            t.breakdown.phases.capacity() * std::mem::size_of::<obs::export::PhaseRow>()
        });
    batch.retained_bytes = alloc::live_bytes() - live_before - kept as i64;
    let health = batch.counts.health_errors();
    if health.is_empty() {
        batch.failed = failed;
    } else {
        batch.error = Some(health.join(" "));
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs_equal(a: &Inputs, b: &Inputs, ops: usize) -> bool {
        (0..ops).all(|op| {
            (0..a.kind.nranks()).all(|r| {
                a.payload(op, r) == b.payload(op, r)
                    && a.gap_ns(op, r) == b.gap_ns(op, r)
                    && a.contrib(op, r) == b.contrib(op, r)
            })
        })
    }

    #[test]
    fn generator_is_deterministic_per_seed_and_differs_across_seeds() {
        for kind in Kind::ALL {
            let a = Inputs::new(kind, 11);
            let b = Inputs::new(kind, 11);
            let c = Inputs::new(kind, 12);
            assert!(
                inputs_equal(&a, &b, 20),
                "{}: same seed differs",
                kind.name()
            );
            assert!(!inputs_equal(&a, &c, 20), "{}: seeds agree", kind.name());
        }
    }

    #[test]
    fn fanin_rounds_mix_eager_and_rendezvous() {
        let inp = Inputs::new(Kind::FaninAllreduce, 3);
        for op in 0..50 {
            let lens: Vec<usize> = (1..64).map(|r| inp.len(op, r)).collect();
            assert!(lens
                .iter()
                .all(|&l| l <= FANIN_EAGER_MAX || l >= FANIN_RDV_MIN));
            let rdv = lens.iter().filter(|&&l| l >= FANIN_RDV_MIN).count();
            assert!(rdv == 7 || rdv == 8, "round {op}: {rdv} rendezvous");
        }
    }

    #[test]
    fn expected_sum_matches_the_contributions() {
        let inp = Inputs::new(Kind::FaninAllreduce, 5);
        for op in 0..4 {
            let mut sum = [0.0; REDUCE_LEN];
            for r in 0..64 {
                for (s, c) in sum.iter_mut().zip(inp.contrib(op, r)) {
                    *s += c;
                }
            }
            assert_eq!(sum, inp.expected_sum(op, 64));
        }
    }

    fn small_batch(kind: Kind, sabotage: Sabotage) -> Batch {
        let inputs = Arc::new(Inputs::new(kind, 9));
        run_batch(
            &inputs,
            BatchOpts {
                ops: 4,
                traced: false,
                call_timers: false,
                sabotage,
            },
        )
    }

    #[test]
    fn clean_batches_pass_every_check() {
        for kind in [Kind::PingpongSmall, Kind::FaninAllreduce] {
            let b = small_batch(kind, Sabotage::None);
            assert_eq!(b.error, None);
            assert_eq!((b.attempted, b.failed), (5, 0), "{}", kind.name());
            assert_eq!(b.samples_ns.len(), 4);
        }
    }

    #[test]
    fn corrupted_payload_is_counted_as_a_failure() {
        for kind in [Kind::PingpongSmall, Kind::FaninAllreduce] {
            let b = small_batch(kind, Sabotage::CorruptPayload);
            assert_eq!(b.failed, 1, "{}", kind.name());
        }
    }

    #[test]
    fn wrong_reduction_is_counted_as_a_failure() {
        let b = small_batch(Kind::FaninAllreduce, Sabotage::WrongReduction);
        assert_eq!(b.failed, 1);
    }
}
