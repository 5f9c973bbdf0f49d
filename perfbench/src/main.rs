//! Host-time benchmark of the MPICH2-NewMadeleine stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pingpong_small|pingpong_bulk|fanin_allreduce|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object; the lines
//! before it name every metric with its unit. The process pins itself to
//! one CPU before it starts any thread. See `perfbench/README.md`.

mod alloc;
mod report;
mod sys;
mod units;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use report::{median, percentile, phase_metric, Metrics, END_TO_END, PER_LAYER, PHASES};
use workload::{run_batch, Batch, BatchOpts, Call, Inputs, Kind, Sabotage, CALL_NAMES};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Repeat the stack set-up at least this often per measurement, so
/// `setup_s` is a median.
const MIN_BATCHES: usize = 3;
/// Each half of a traced run repeats at least this often.
const MIN_TRACE_BATCHES: usize = 2;
/// One-op batches run before any timed batch. The first two `run_mpi`
/// calls of a process run the 1 MiB ping-pong about 40% faster than every
/// later call; the warm-up carries the process past that.
const WARM_UP_BATCHES: usize = 5;
/// A p90 needs at least ten samples beyond it.
const MIN_SAMPLES: usize = 100;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <pingpong_small|pingpong_bulk|fanin_allreduce|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        kinds: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => out.kinds = Kind::ALL.to_vec(),
            "--workload" => {
                out.kinds = vec![Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?]
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(out)
}

/// Result of one workload.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
}

/// Run batches until `budget` has passed and at least `min` ran. A batch
/// that fails as a whole ends the measurement.
fn repeat(inputs: &Arc<Inputs>, budget: Duration, min: usize, opts: BatchOpts) -> Vec<Batch> {
    let t0 = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < min || t0.elapsed() < budget {
        let b = run_batch(inputs, opts);
        let stop = b.error.is_some();
        batches.push(b);
        if stop {
            break;
        }
    }
    batches
}

fn warm_up(inputs: &Arc<Inputs>, opts: BatchOpts) -> Vec<Batch> {
    let one_op = BatchOpts { ops: 1, ..opts };
    (0..WARM_UP_BATCHES)
        .map(|_| run_batch(inputs, one_op))
        .collect()
}

/// Failure accounting shared by both modes: batch errors, and counts that
/// differ between batches of one seed (replay must be deterministic).
fn tally(label: &str, batches: &mut [Batch], out: &mut Outcome) {
    let first = batches[0].counts;
    for (i, b) in batches.iter_mut().enumerate() {
        if let Some(e) = &b.error {
            out.problems.push(format!("{label} batch {i}: {e}"));
        } else if b.counts != first {
            out.problems.push(format!(
                "{label} batch {i}: counts {:?} differ from batch 0 {first:?}",
                b.counts
            ));
            b.failed = b.attempted;
        }
        out.attempted += b.attempted;
        out.failed += b.failed;
    }
}

fn all_samples(batches: &[Batch]) -> Vec<u64> {
    let mut s: Vec<u64> = batches
        .iter()
        .flat_map(|b| b.samples_ns.iter().copied())
        .collect();
    s.sort_unstable();
    s
}

fn sum_secs(batches: &[Batch], f: impl Fn(&Batch) -> Duration) -> f64 {
    batches.iter().map(|b| f(b).as_secs_f64()).sum()
}

fn total_ops(batches: &[Batch]) -> f64 {
    batches.iter().map(|b| b.ops as f64).sum()
}

fn end_to_end(kind: Kind, inputs: &Arc<Inputs>, seconds: u64) -> Outcome {
    let opts = BatchOpts {
        ops: kind.batch_ops(),
        traced: false,
        call_timers: false,
        sabotage: Sabotage::None,
    };
    let mut warm = warm_up(inputs, opts);
    let t0 = Instant::now();
    let mut batches = repeat(inputs, Duration::ZERO, MIN_BATCHES, opts);
    // Each run_mpi call leaves memory behind (see `Batch::retained_bytes`),
    // so the high-water mark is read after a fixed number of batches, not
    // after however many the time budget allowed.
    let peak_rss_mb = sys::peak_rss_mb();
    if batches.iter().all(|b| b.error.is_none()) {
        let left = Duration::from_secs(seconds).saturating_sub(t0.elapsed());
        let more = MIN_SAMPLES.div_ceil(opts.ops).saturating_sub(batches.len());
        batches.extend(repeat(inputs, left, more, opts));
    }
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Metrics::default(),
    };
    tally("untraced", &mut batches, &mut out);
    tally("warm-up", &mut warm, &mut out);
    let samples = all_samples(&batches);
    if samples.len() < MIN_SAMPLES {
        out.problems
            .push(format!("{} samples, too few for a p90", samples.len()));
        return out;
    }
    let ops = total_ops(&batches);
    let setups: Vec<f64> = batches.iter().map(|b| b.setup.as_secs_f64()).collect();
    let values = [
        percentile(&samples, 0.5) as f64 / 1e3,
        percentile(&samples, 0.9) as f64 / 1e3,
        ops / sum_secs(&batches, |b| b.wall),
        median(&setups),
        peak_rss_mb,
    ];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        out.metrics.push(*name, v, unit);
    }
    println!(
        "metric {} sim_us_per_op = {} sim_us",
        kind.name(),
        sim_us_per_op(&batches[0])
    );
    println!(
        "{} samples over {} batches of {} ops; {} beyond p90",
        samples.len(),
        batches.len(),
        kind.batch_ops(),
        samples.len() - (samples.len() as f64 * 0.9).ceil() as usize
    );
    println!(
        "each run_mpi call left {} bytes allocated (median of {} batches)",
        median(&retained(&batches)),
        batches.len()
    );
    println!(
        "calibration simnet.handoff_ns = {:.1} ns ({} ranks; this host's floor)",
        units::calibration_handoff_ns(kind),
        kind.nranks()
    );
    out
}

fn retained(batches: &[Batch]) -> Vec<f64> {
    batches.iter().map(|b| b.retained_bytes as f64).collect()
}

fn sim_us_per_op(b: &Batch) -> f64 {
    b.counts.timed_sim_ns as f64 / b.ops as f64 / 1e3
}

fn per_op(count: u64, b: &Batch) -> f64 {
    count as f64 / b.ops as f64
}

fn call_cpu_us(batches: &[Batch], call: Call) -> f64 {
    let (ns, n) = batches.iter().fold((0, 0), |acc, b| {
        let (ns, n) = b.calls[call as usize];
        (acc.0 + ns, acc.1 + n)
    });
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1e3
    }
}

fn traced(kind: Kind, inputs: &Arc<Inputs>, seconds: u64) -> Outcome {
    let half = Duration::from_millis(seconds * 500);
    let opts = BatchOpts {
        ops: kind.batch_ops(),
        traced: false,
        call_timers: true,
        sabotage: Sabotage::None,
    };
    let mut warm = warm_up(inputs, opts);
    let mut plain = repeat(inputs, half, MIN_TRACE_BATCHES, opts);
    let mut full = repeat(
        inputs,
        half,
        MIN_TRACE_BATCHES,
        BatchOpts {
            traced: true,
            ..opts
        },
    );
    let costs = units::measure(kind);
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Metrics::default(),
    };
    tally("warm-up", &mut warm, &mut out);
    tally("untraced", &mut plain, &mut out);
    tally("traced", &mut full, &mut out);
    if !out.problems.is_empty() {
        return out;
    }
    // Tracing is observational: the traced replay must do the same work.
    if full[0].counts != plain[0].counts {
        out.problems.push(format!(
            "traced counts {:?} differ from untraced {:?}",
            full[0].counts, plain[0].counts
        ));
        out.failed += full.iter().map(|b| b.attempted).sum::<u64>();
        return out;
    }
    let allocs: Vec<(u64, u64)> = plain
        .iter()
        .map(|b| (b.alloc.count, b.alloc.bytes))
        .collect();
    if allocs.iter().all(|a| *a == allocs[0]) {
        println!(
            "alloc counts repeat exactly across {} batches",
            allocs.len()
        );
    } else {
        println!("alloc counts differ across batches of one seed: (count, bytes) = {allocs:?}");
    }

    let b = &plain[0];
    let c = b.counts;
    let t = full[0].traced.clone().expect("traced batch has a report");
    let ops = total_ops(&plain);
    let host_ns = percentile(&all_samples(&plain), 0.5) as f64;
    let traced_ns = percentile(&all_samples(&full), 0.5) as f64;
    let wall = sum_secs(&plain, |b| b.wall);
    let engine = sum_secs(&plain, |b| b.engine_cpu);
    let process = sum_secs(&plain, |b| b.process_cpu);
    let recv_any_calls = plain
        .iter()
        .map(|b| b.calls[Call::RecvAny as usize].1)
        .sum::<u64>();
    let alloc_count: Vec<f64> = plain.iter().map(|b| per_op(b.alloc.count, b)).collect();
    let alloc_bytes: Vec<f64> = plain.iter().map(|b| per_op(b.alloc.bytes, b)).collect();

    let attribution = [
        per_op(c.wakes, b) * costs.handoff_ns,
        per_op(c.events - c.wakes, b) * costs.dispatch_ns,
        per_op(c.rail_msgs, b) * costs.seal_small_ns
            + per_op(c.rail_bytes, b) / 1024.0 * costs.seal_ns_per_kib,
        per_op(c.recv_completions, b) * costs.match_ns,
        recv_any_calls as f64 / ops * costs.anysource_ns,
        per_op(t.shm_delivers, b) * costs.queue_ns,
    ];
    let explained: f64 = attribution.iter().sum();
    let values = [
        ("sim_us_per_op", sim_us_per_op(b)),
        ("simnet.events_per_op", per_op(c.events, b)),
        ("simnet.wakes_per_op", per_op(c.wakes, b)),
        ("simnet.inline_events_per_op", per_op(c.events - c.wakes, b)),
        ("simnet.copy.bytes_per_op", per_op(c.copy.bytes_copied, b)),
        ("simnet.copy.memcpys_per_op", per_op(c.copy.memcpy_calls, b)),
        ("simnet.copy.allocs_per_op", per_op(c.copy.allocations, b)),
        ("simnet.engine_cpu_us_per_op", engine / ops * 1e6),
        ("simnet.idle_us_per_op", (wall - process) / ops * 1e6),
        ("simnet.handoff_ns", costs.handoff_ns),
        ("simnet.dispatch_ns", costs.dispatch_ns),
        ("nmad.packets_per_op", per_op(c.packets, b)),
        ("nmad.eager_sends_per_op", per_op(c.eager_sends, b)),
        ("nmad.rdv_sends_per_op", per_op(c.rdv_sends, b)),
        ("nmad.chunks_per_op", per_op(c.chunks, b)),
        ("nmad.aggregates_per_op", per_op(c.aggregates, b)),
        ("nmad.retries_per_op", per_op(c.retries, b)),
        (
            "nmad.fc.credits_withheld_per_op",
            per_op(c.credits_withheld, b),
        ),
        ("nmad.fc.credit_stalls_per_op", per_op(c.credit_stalls, b)),
        ("nmad.fc.peak_unex_bytes", c.peak_unex_bytes as f64),
        ("nmad.wire_seal_ns_per_kib", costs.seal_ns_per_kib),
        ("nmad.wire_seal_ns_small", costs.seal_small_ns),
        ("nmad.match_ns", costs.match_ns),
        (
            "nemesis.shm_frag_copies_per_op",
            per_op(t.shm_frag_copies, b),
        ),
        ("nemesis.queue_ns", costs.queue_ns),
        ("piom.kicks_per_op", per_op(t.piom_kicks, b)),
        ("piom.rekicks", c.piom_rekicks as f64),
        ("mpi.rank_cpu_us_per_op", (process - engine) / ops * 1e6),
        ("mpi.send.cpu_us", call_cpu_us(&plain, Call::Send)),
        ("mpi.recv.cpu_us", call_cpu_us(&plain, Call::Recv)),
        ("mpi.recv_any.cpu_us", call_cpu_us(&plain, Call::RecvAny)),
        ("mpi.allreduce.cpu_us", call_cpu_us(&plain, Call::Allreduce)),
        ("mpi.anysource_ns", costs.anysource_ns),
        ("obs.tracing_overhead", traced_ns / host_ns - 1.0),
        ("alloc.count_per_op", median(&alloc_count)),
        ("alloc.bytes_per_op", median(&alloc_bytes)),
        ("alloc.retained_bytes_per_run", median(&retained(&plain))),
        ("attribution.handoff_us_per_op", attribution[0] / 1e3),
        ("attribution.dispatch_us_per_op", attribution[1] / 1e3),
        ("attribution.wire_us_per_op", attribution[2] / 1e3),
        ("attribution.match_us_per_op", attribution[3] / 1e3),
        ("attribution.anysource_us_per_op", attribution[4] / 1e3),
        ("attribution.nemesis_us_per_op", attribution[5] / 1e3),
        ("attribution.residual_share", 1.0 - explained / host_ns),
    ];
    for ((name, unit), (computed, v)) in PER_LAYER.iter().zip(values) {
        assert_eq!(*name, computed, "PER_LAYER and the traced values disagree");
        out.metrics.push(*name, v, unit);
    }
    let msgs = t.breakdown.messages.max(1) as f64;
    for label in PHASES {
        let ns = t.breakdown.total_for(label) as f64 / msgs;
        out.metrics.push(phase_metric(label), ns, "ns");
    }

    let name = kind.name();
    println!(
        "host split {name} (untraced, call timers on): {:.2} us/op wall = engine {:.2} + ranks {:.2} + idle {:.2}",
        wall / ops * 1e6,
        engine / ops * 1e6,
        (process - engine) / ops * 1e6,
        (wall - process) / ops * 1e6
    );
    for (call, label) in CALL_NAMES.iter().enumerate() {
        let (ns, n) = plain.iter().fold((0, 0), |a, b| {
            (a.0 + b.calls[call].0, a.1 + b.calls[call].1)
        });
        if n > 0 {
            println!(
                "host mpi.{label}: {n} calls, {:.2} us thread CPU each",
                ns as f64 / n as f64 / 1e3
            );
        }
    }
    println!(
        "sim split {name}: {:.3} sim_us/op over {} traced messages ({:.1}% attributed)",
        sim_us_per_op(b),
        t.breakdown.messages,
        t.breakdown.coverage() * 100.0
    );
    for row in &t.breakdown.phases {
        println!(
            "sim phase {:<15} {:>10.1} ns/msg",
            row.label,
            row.total_ns as f64 / msgs
        );
    }
    println!(
        "attribution {name}: host {:.2} us/op; handoff {:.2} + dispatch {:.2} + wire {:.2} + match {:.2} \
         + anysource {:.2} + nemesis {:.2} = {:.2} us explained; residual {:.1}%",
        host_ns / 1e3,
        attribution[0] / 1e3,
        attribution[1] / 1e3,
        attribution[2] / 1e3,
        attribution[3] / 1e3,
        attribution[4] / 1e3,
        attribution[5] / 1e3,
        explained / 1e3,
        (1.0 - explained / host_ns) * 100.0
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists, so every rank thread inherits the mask.
    let cpu = sys::pin_to_one_cpu();
    println!("fingerprint {}", sys::Fingerprint::take(cpu));
    let prefix = args.kinds.len() > 1;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Metrics::default();
    for kind in &args.kinds {
        let inputs = Arc::new(Inputs::new(*kind, args.seed));
        let out = if args.trace {
            traced(*kind, &inputs, args.seconds)
        } else {
            end_to_end(*kind, &inputs, args.seconds)
        };
        let name = kind.name();
        let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
        for (metric, value, unit) in &out.metrics.0 {
            println!("metric {name} {metric} = {value} {unit}");
        }
        println!(
            "metric {name} error_rate = {error_rate} ratio ({} of {} ops failed)",
            out.failed, out.attempted
        );
        for p in &out.problems {
            println!("FAILED {name}: {p}");
        }
        let expected = if args.trace {
            PER_LAYER.len() + PHASES.len()
        } else {
            END_TO_END.len()
        };
        let finite = out.metrics.0.iter().all(|m| m.1.is_finite());
        correct &=
            out.problems.is_empty() && out.failed == 0 && finite && out.metrics.0.len() == expected;
        attempted += out.attempted;
        failed += out.failed;
        for (metric, value, unit) in out.metrics.0 {
            let metric = if prefix {
                format!("{name}.{metric}")
            } else {
                metric
            };
            metrics.push(metric, value, &unit);
        }
    }
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
