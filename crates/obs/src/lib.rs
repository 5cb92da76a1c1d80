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
//! the plant) carry the handle they record against. [`Handle::isolated`]
//! gives embedders — parallel sweep runs, unit tests — a private registry
//! with no shared mutable state. The crate-level free functions below are
//! a thin convenience wrapper over the process-global [`Handle::global`],
//! which is what components use when no handle is supplied.
//!
//! Collection is off by default and gated behind one relaxed atomic load,
//! so fully instrumented hot paths cost nothing measurable when telemetry
//! is disabled.
//!
//! # Example (global facade)
//!
//! ```
//! bz_obs::enable();
//! bz_obs::reset();
//!
//! let tick = bz_obs::span("core.control_tick", 5_000);
//! bz_obs::counter_inc("wsn.packets.sent");
//! bz_obs::gauge_set("thermal.chiller.radiant_w", 5_000, 142.5);
//! bz_obs::observe("wsn.btadpt.send_period_s", 2.0);
//! tick.exit(5_010);
//!
//! let snapshot = bz_obs::snapshot();
//! assert_eq!(snapshot.counters["wsn.packets.sent"], 1);
//! assert_eq!(snapshot.spans["core.control_tick"].sim_ms_total, 10);
//! bz_obs::disable();
//! ```
//!
//! # Example (isolated handle)
//!
//! ```
//! let obs = bz_obs::Handle::isolated();
//! obs.counter_inc("wsn.packets.sent");
//! assert_eq!(obs.snapshot().counters["wsn.packets.sent"], 1);
//! // The global registry is untouched.
//! assert!(!bz_obs::Handle::global().same_registry(&obs));
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

/// Turns metric collection on for the global handle.
pub fn enable() {
    Handle::global().enable();
}

/// Turns global metric collection off (already-recorded data is kept).
pub fn disable() {
    Handle::global().disable();
}

/// Whether global collection is currently on.
#[must_use]
pub fn is_enabled() -> bool {
    Handle::global().is_enabled()
}

/// Clears the global registry's metrics and events (the enabled flag is
/// untouched).
pub fn reset() {
    Handle::global().reset();
}

/// Adds `delta` to the global counter `name` (saturating).
pub fn counter_add(name: impl Into<MetricKey>, delta: u64) {
    Handle::global().counter_add(name, delta);
}

/// Adds one to the global counter `name`.
pub fn counter_inc(name: impl Into<MetricKey>) {
    Handle::global().counter_inc(name);
}

/// Sets the global gauge `name` to `value` at simulation time `t_ms`.
pub fn gauge_set(name: impl Into<MetricKey>, t_ms: u64, value: f64) {
    Handle::global().gauge_set(name, t_ms, value);
}

/// Observes `value` into the global histogram `name` over
/// [`DEFAULT_BUCKETS`].
pub fn observe(name: impl Into<MetricKey>, value: f64) {
    Handle::global().observe(name, value);
}

/// Observes `value` into the global histogram `name`, creating it over
/// `buckets` on first use (later calls keep the original buckets).
pub fn observe_in(name: impl Into<MetricKey>, buckets: &'static [f64], value: f64) {
    Handle::global().observe_in(name, buckets, value);
}

/// Samples every global counter as a timestamped event at simulation time
/// `t_ms`. Call at a fixed simulated cadence (e.g. once per simulated
/// minute) to put counter trajectories, not just totals, in the export.
pub fn record_counters(t_ms: u64) {
    Handle::global().record_counters(t_ms);
}

/// Opens a span named `name` at simulation time `sim_now_ms` against the
/// global registry. Close it with [`SpanGuard::exit`]; see [`SpanGuard`]
/// for drop semantics.
#[must_use]
pub fn span(name: impl Into<MetricKey>, sim_now_ms: u64) -> SpanGuard {
    Handle::global().span(name, sim_now_ms)
}

/// An owned copy of the global registry state.
#[must_use]
pub fn snapshot() -> Snapshot {
    Handle::global().snapshot()
}

/// Writes the global registry as JSONL (see [`Registry::write_jsonl`]).
///
/// # Errors
///
/// Returns any I/O error from `out`.
pub fn write_jsonl<W: Write>(out: W) -> io::Result<()> {
    Handle::global().write_jsonl(out)
}

/// Writes the global registry's event stream as CSV (see
/// [`Registry::write_csv`]).
///
/// # Errors
///
/// Returns any I/O error from `out`.
pub fn write_csv<W: Write>(out: W) -> io::Result<()> {
    Handle::global().write_csv(out)
}

/// Switches the global registry to streaming JSONL export (see
/// [`Registry::stream_to`]): events are written to `sink` as they are
/// recorded instead of being buffered against [`MAX_EVENTS`].
pub fn stream_to(sink: Box<dyn Write + Send>) {
    Handle::global().stream_to(sink);
}

/// Ends global streaming and writes the totals tail (see
/// [`Registry::finish_stream`]).
///
/// # Errors
///
/// Returns the first error hit while streaming, or any tail-write error.
pub fn finish_stream() -> io::Result<()> {
    Handle::global().finish_stream()
}

/// Renders the human-readable end-of-run summary of the global registry.
#[must_use]
pub fn summary_table() -> String {
    Handle::global().summary_table()
}

/// Serializes the global registry state for checkpointing (see
/// [`Handle::save_state`]).
///
/// # Panics
///
/// Panics if the global registry is streaming.
pub fn save_state(w: &mut bz_state::Writer) {
    Handle::global().save_state(w);
}

/// Replaces the global registry contents with previously saved state (see
/// [`Handle::load_state`]).
///
/// # Errors
///
/// Returns a decode error if the bytes do not parse.
pub fn load_state(r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
    Handle::global().load_state(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The global registry is shared across the test binary, so every
    /// facade test runs under this lock and restores the disabled state.
    fn with_exclusive_global(test: impl FnOnce()) {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        enable();
        reset();
        test();
        disable();
        reset();
    }

    #[test]
    fn disabled_facade_records_nothing() {
        with_exclusive_global(|| {
            disable();
            counter_inc("c");
            gauge_set("g", 0, 1.0);
            observe("h", 1.0);
            span("s", 0).exit(10);
            let snapshot = snapshot();
            assert!(snapshot.counters.is_empty());
            assert!(snapshot.gauges.is_empty());
            assert!(snapshot.histograms.is_empty());
            assert!(snapshot.spans.is_empty());
            assert!(snapshot.events.is_empty());
        });
    }

    #[test]
    fn facade_operates_on_the_global_handle() {
        with_exclusive_global(|| {
            counter_inc("c");
            assert_eq!(Handle::global().snapshot().counters["c"], 1);
        });
    }

    #[test]
    fn spans_nest_and_record_depth_and_sim_duration() {
        with_exclusive_global(|| {
            let outer = span("outer", 1_000);
            let inner = span("inner", 1_200);
            inner.exit(1_300);
            outer.exit(2_000);

            let snapshot = snapshot();
            assert_eq!(snapshot.spans["outer"].sim_ms_total, 1_000);
            assert_eq!(snapshot.spans["inner"].sim_ms_total, 100);
            let depths: Vec<(&str, u32)> = snapshot
                .events
                .iter()
                .filter_map(|event| match event {
                    Event::Span { name, depth, .. } => Some((name.as_str(), *depth)),
                    _ => None,
                })
                .collect();
            // Inner exits first, at depth 1; outer carries depth 0.
            assert_eq!(depths, vec![("inner", 1), ("outer", 0)]);
        });
    }

    #[test]
    fn dropped_guard_still_counts_the_span() {
        with_exclusive_global(|| {
            {
                let _guard = span("dropped", 500);
                // Early exit without `exit()`.
            }
            let stats = snapshot().spans["dropped"];
            assert_eq!(stats.count, 1);
            assert_eq!(stats.sim_ms_total, 0);
        });
    }

    #[test]
    fn exit_before_entry_time_saturates_to_zero() {
        with_exclusive_global(|| {
            span("backwards", 1_000).exit(400);
            assert_eq!(snapshot().spans["backwards"].sim_ms_total, 0);
        });
    }

    #[test]
    fn facade_histogram_uses_default_buckets() {
        with_exclusive_global(|| {
            observe("h", 3.0);
            let snapshot = snapshot();
            assert_eq!(snapshot.histograms["h"].edges(), DEFAULT_BUCKETS);
            assert_eq!(snapshot.histograms["h"].count(), 1);
        });
    }
}
