//! # obs — structured message-lifecycle observability
//!
//! The observability substrate of the stack: typed per-message lifecycle
//! **spans**, a deterministic **metrics registry** (counters + log2
//! histograms), and **exporters** (JSONL, Chrome trace-event format, a
//! per-phase latency breakdown). It replaces the simulator's ad-hoc string
//! [`Tracer`](../simnet/trace/index.html) entries with typed events that
//! trace-driven invariant tests can assert on.
//!
//! ## Span model
//!
//! Every MPI message on the NewMadeleine bypass path is identified by a
//! [`MsgKey`] — `(src, dst, tag, seq)`, where `seq` is the sender-assigned
//! per-`(dst, tag)` sequence number (the same number the reorder buffer
//! matches on, so both ends agree on it). A message's *span* is the set of
//! [`Event`]s carrying its key, ordered by simulated time:
//!
//! ```text
//! posted → matched → eager_tx → eager_rx → completed            (eager)
//! posted → matched → rts_tx → rts_rx → cts_tx → cts_rx
//!        → chunk_tx[rail]* → chunk_rx* → fin_tx → fin_rx → completed  (rdv)
//! ```
//!
//! plus retry / reroute / credit-stall annotations. Events that belong to
//! the machinery rather than one message — NIC transfers, PIOMan kicks,
//! shared-memory fragment copies, credit debits/refills, engine dispatch —
//! are [`EngineEvent`]s in the same stream.
//!
//! ## Determinism rules
//!
//! The simulation is logically single-threaded (one execution token), so
//! the recorder's append order is itself deterministic: the same seed must
//! produce a bit-identical event stream. Exporters additionally sort
//! canonically (by `(time, rank, scope)`) before hashing so the golden-
//! trace tests do not depend on incidental append order. Recording is
//! strictly observational: enabling or disabling the recorder must never
//! change protocol behaviour, and every instrumentation site is guarded so
//! the disabled path allocates nothing.
//!
//! This crate sits at the bottom of the dependency stack (below `simnet`)
//! and therefore speaks raw `u64` nanoseconds rather than `SimTime`.

pub mod export;
pub mod metrics;
pub mod span;
pub mod striped;

pub use export::{trace_hash, PhaseBreakdown, Report};
pub use metrics::{Histogram, MetricsRegistry, HIST_BUCKETS};
pub use striped::{stripe_id, StripedCells, STRIPES};
pub use span::{
    EngineEvent, Event, MsgKey, Phase, RankRec, Recorder, RetryKind, Scope, Side, Validator,
    ENGINE_RANK,
};

/// Observability configuration — off by default, zero-allocation when off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record per-message lifecycle spans and engine events.
    pub spans: bool,
    /// Maintain the metrics registry (counters + histograms).
    pub metrics: bool,
    /// Conformance mode: feed every recorded span event through an
    /// installed validator (see [`Recorder::set_validator`]) that checks
    /// the transition against the protocol state table. Requires `spans`.
    /// Validation is strictly observational — it never changes protocol
    /// behaviour — but a violation is collected and surfaced at the end
    /// of the run, so every traced seed sweep doubles as a conformance
    /// test of the table the model explorer proves.
    pub conformance: bool,
}

impl ObsConfig {
    /// Everything on, including table-conformance validation.
    pub fn full() -> ObsConfig {
        ObsConfig {
            spans: true,
            metrics: true,
            conformance: true,
        }
    }

    /// Spans and metrics without conformance validation.
    pub fn recording_only() -> ObsConfig {
        ObsConfig {
            spans: true,
            metrics: true,
            conformance: false,
        }
    }

    /// Is any recording requested at all?
    pub fn enabled(&self) -> bool {
        self.spans || self.metrics
    }
}
