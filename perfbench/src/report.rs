//! Metric names, summary statistics and the result line.

use std::fmt::Write;

/// End-to-end metrics of the result line, measured with tracing off:
/// (name, unit). The untraced run also prints `sim_us_per_op` and
/// `error_rate`; they stay off the result line because they do not vary
/// from run to run (`error_rate` is 0, and a ping-pong's simulated time
/// does not depend on the seed), so they cannot carry a relative bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("host_us_per_op", "us"),
    ("host_us_per_op_p90", "us"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Sim-time phases a healthy run records (retry, reroute, abort and
/// revoke phases only appear under faults).
pub const PHASES: [&str; 14] = [
    "send_posted",
    "recv_posted",
    "matched",
    "eager_tx",
    "eager_rx",
    "rts_tx",
    "rts_rx",
    "cts_tx",
    "cts_rx",
    "chunk_tx",
    "chunk_rx",
    "completed_send",
    "completed_recv",
    "credit_stall",
];

/// Per-layer metrics of the traced run, apart from the `obs.phase.*`
/// family built from [`PHASES`]: (name, unit).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sim_us_per_op", "sim_us"),
    ("simnet.events_per_op", "count"),
    ("simnet.wakes_per_op", "count"),
    ("simnet.inline_events_per_op", "count"),
    ("simnet.copy.bytes_per_op", "bytes"),
    ("simnet.copy.memcpys_per_op", "count"),
    ("simnet.copy.allocs_per_op", "count"),
    ("simnet.engine_cpu_us_per_op", "us"),
    ("simnet.idle_us_per_op", "us"),
    ("simnet.handoff_ns", "ns"),
    ("simnet.dispatch_ns", "ns"),
    ("nmad.packets_per_op", "count"),
    ("nmad.eager_sends_per_op", "count"),
    ("nmad.rdv_sends_per_op", "count"),
    ("nmad.chunks_per_op", "count"),
    ("nmad.aggregates_per_op", "count"),
    ("nmad.retries_per_op", "count"),
    ("nmad.fc.credits_withheld_per_op", "count"),
    ("nmad.fc.credit_stalls_per_op", "count"),
    ("nmad.fc.peak_unex_bytes", "bytes"),
    ("nmad.wire_seal_ns_per_kib", "ns"),
    ("nmad.wire_seal_ns_small", "ns"),
    ("nmad.match_ns", "ns"),
    ("nemesis.shm_frag_copies_per_op", "count"),
    ("nemesis.queue_ns", "ns"),
    ("piom.kicks_per_op", "count"),
    ("piom.rekicks", "count"),
    ("mpi.rank_cpu_us_per_op", "us"),
    ("mpi.send.cpu_us", "us"),
    ("mpi.recv.cpu_us", "us"),
    ("mpi.recv_any.cpu_us", "us"),
    ("mpi.allreduce.cpu_us", "us"),
    ("mpi.anysource_ns", "ns"),
    ("obs.tracing_overhead", "ratio"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    ("alloc.retained_bytes_per_run", "bytes"),
    ("attribution.handoff_us_per_op", "us"),
    ("attribution.dispatch_us_per_op", "us"),
    ("attribution.wire_us_per_op", "us"),
    ("attribution.match_us_per_op", "us"),
    ("attribution.anysource_us_per_op", "us"),
    ("attribution.nemesis_us_per_op", "us"),
    ("attribution.residual_share", "ratio"),
];

pub fn phase_metric(label: &str) -> String {
    format!("obs.phase.{label}_ns_per_msg")
}

/// Every per-layer metric name, in output order.
#[cfg(test)]
pub fn per_layer_names() -> Vec<String> {
    PER_LAYER
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(PHASES.iter().map(|p| phase_metric(p)))
        .collect()
}

#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in (0, 1].
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Named metric values in output order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.push((name.into(), value, unit.to_string()));
    }
}

/// The last line of the output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        // JSON has no NaN or infinity; a non-finite value is a bug upstream
        // and the caller has already marked the result incorrect.
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, r#"{sep}"{name}": {{"value": {v}, "unit": "{unit}"}}"#);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed in BENCHMARK.json, read with a minimal scanner.
    fn listed_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("name value") + 1..];
                s[..s.find('"').expect("name ends")].to_string()
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed() {
        for name in END_TO_END
            .iter()
            .map(|m| m.0.to_string())
            .chain(per_layer_names())
        {
            assert!(valid_name(&name), "bad metric name {name}");
        }
    }

    #[test]
    fn every_name_in_benchmark_json_is_emitted() {
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(listed_names("end_to_end"), e2e);
        assert_eq!(listed_names("per_layer"), per_layer_names());
        let workloads: Vec<String> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        assert_eq!(listed_names("workloads"), workloads);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.25, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }
}
