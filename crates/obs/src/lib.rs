//! Observability layer for the BubbleZERO reproduction.
//!
//! `bz-obs` provides three pieces, all addressed by [`MetricKey`]s — a
//! `&'static str` literal for fixed instrumentation points or an owned
//! `String` for per-entity keys like `wsn.node.21.sent` — and all keyed to
//! the deterministic millisecond simulation clock rather than wall time:
//!
//! 1. **Spans** — [`Handle::span`] returns a guard; closing it with
//!    [`SpanGuard::exit`] records both the simulated duration (exported,
//!    deterministic) and the wall-clock duration (summary table only).
//!    Spans nest; each records its depth at entry.
//! 2. **Metrics registry** — saturating [counters](Handle::counter_add),
//!    last-value [gauges](Handle::gauge_set), and fixed-bucket
//!    [histograms](Handle::observe) borrowing the `bz-wsn` bucketing
//!    idiom. Hot counters and histograms are slot-indexed: a
//!    [`CounterKey`] or [`HistogramKey`] resolves its name once per
//!    registry and then updates dense storage directly.
//! 3. **Exporters** — [`Handle::write_jsonl`] / [`Handle::write_csv`] for
//!    machines (rendered without per-line allocation and handed to the
//!    writer in 64 KiB chunks) plus a human [`Handle::summary_table`];
//!    long runs can switch to streaming export with [`Handle::stream_to`]
//!    (events are written through as they happen, unbounded by
//!    [`MAX_EVENTS`]), and
//!    [`flame::collapsed_stacks`] folds the span stream into
//!    flamegraph-ready collapsed stacks; formats are documented in
//!    `docs/OBSERVABILITY.md`.
//!
//! The API is **instance-first**: all state lives behind a [`Handle`], and
//! instrumented components (the event queue, the channel, the controllers,
//! the plant) carry the handle they record against. A component built
//! without one gets a private, disabled handle, so it records nothing and
//! shares nothing. Every run that exports telemetry — a `bzctl` command, a
//! sweep run, a served tenant, a figure harness — creates its own handle
//! and threads it through what it builds; [`Handle::isolated`] is the
//! enabled form.
//!
//! Collection is off by default and gated behind one relaxed atomic load,
//! so fully instrumented hot paths cost nothing measurable when telemetry
//! is disabled.
//!
//! # Example
//!
//! ```
//! let obs = bz_obs::Handle::isolated();
//!
//! let tick = obs.span("core.control_tick", 5_000);
//! obs.counter_inc("wsn.packets.sent");
//! obs.gauge_set("thermal.chiller.radiant_w", 5_000, 142.5);
//! obs.observe("wsn.btadpt.send_period_s", 2.0);
//! tick.exit(5_010);
//!
//! let snapshot = obs.snapshot();
//! assert_eq!(snapshot.counters["wsn.packets.sent"], 1);
//! assert_eq!(snapshot.spans["core.control_tick"].sim_ms_total, 10);
//! ```
//!
//! # The global facade
//!
//! [`Handle::global`] and the five free functions [`enable`], [`disable`],
//! [`reset`], [`record_counters`] and [`write_jsonl`] remain only for the
//! out-of-workspace benchmark package (`perfbench/`), which drives the
//! library trial against them. Nothing in the workspace records into the
//! global handle; a workspace `clippy.toml` lint keeps it that way.
//!
//! ```
//! bz_obs::enable();
//! bz_obs::reset();
//! bz_obs::Handle::global().counter_inc("wsn.packets.sent");
//! bz_obs::record_counters(60_000);
//! bz_obs::disable();
//! let mut export = Vec::new();
//! bz_obs::write_jsonl(&mut export).unwrap();
//! let export = String::from_utf8(export).unwrap();
//! assert!(export.contains(r#""t_ms":60000"#));
//! // Every other handle has a registry of its own.
//! assert!(!bz_obs::Handle::global().same_registry(&bz_obs::Handle::isolated()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
pub mod flame;
mod handle;
mod hist;
mod key;
mod registry;
mod slot;
mod span;

pub use flame::collapsed_stacks;
pub use handle::Handle;
pub use hist::{FixedHistogram, DEFAULT_BUCKETS};
pub use key::MetricKey;
pub use registry::{Event, Registry, Snapshot, SpanStats, MAX_EVENTS};
pub use slot::{CounterKey, HistogramKey};
pub use span::SpanGuard;

use std::io::{self, Write};

// The facade below is the one place allowed to reach the global handle
// (see the workspace `clippy.toml`).

/// Turns metric collection on for the global handle.
#[allow(clippy::disallowed_methods)]
pub fn enable() {
    Handle::global().enable();
}

/// Turns global metric collection off (already-recorded data is kept).
#[allow(clippy::disallowed_methods)]
pub fn disable() {
    Handle::global().disable();
}

/// Clears the global registry's metrics and events (the enabled flag is
/// untouched).
#[allow(clippy::disallowed_methods)]
pub fn reset() {
    Handle::global().reset();
}

/// Samples every global counter as a timestamped event at simulation time
/// `t_ms` (see [`Handle::record_counters`]).
#[allow(clippy::disallowed_methods)]
pub fn record_counters(t_ms: u64) {
    Handle::global().record_counters(t_ms);
}

/// Writes the global registry as JSONL (see [`Registry::write_jsonl`]).
///
/// # Errors
///
/// Returns any I/O error from `out`.
#[allow(clippy::disallowed_methods)]
pub fn write_jsonl<W: Write>(out: W) -> io::Result<()> {
    Handle::global().write_jsonl(out)
}
