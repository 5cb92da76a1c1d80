//! The metrics registry: named counters, gauges, histograms, span
//! aggregates, and the timestamped event stream behind the exporters.

use std::collections::BTreeMap;
use std::io::{self, Write};

use bz_state::Persist as _;

use crate::export::{self, Chunked};
use crate::hist::FixedHistogram;
use crate::key::MetricKey;
use crate::slot::{next_generation, CounterKey, HistogramKey, Slots};

/// Hard cap on buffered events; beyond it events are counted but dropped,
/// so a runaway run degrades to totals-only instead of exhausting memory.
pub const MAX_EVENTS: usize = 2_000_000;

/// One timestamped entry in the exported stream. All fields are functions
/// of the deterministic simulation alone — never of wall-clock time — so a
/// seeded run exports byte-identical events every time.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A counter's value sampled at a sim instant (see
    /// [`Registry::record_counters`]).
    Counter {
        /// Metric key.
        name: MetricKey,
        /// Simulation time of the sample, ms.
        t_ms: u64,
        /// Counter value at that instant.
        value: u64,
    },
    /// A gauge update.
    Gauge {
        /// Metric key.
        name: MetricKey,
        /// Simulation time of the update, ms.
        t_ms: u64,
        /// The new gauge value.
        value: f64,
    },
    /// A completed span.
    Span {
        /// Span key.
        name: MetricKey,
        /// Simulation time at span entry, ms.
        t_ms: u64,
        /// Simulated duration covered by the span, ms.
        sim_ms: u64,
        /// Nesting depth at entry (0 = outermost).
        depth: u32,
    },
}

/// Aggregate statistics of one span key.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total simulated time covered, ms.
    pub sim_ms_total: u64,
    /// Total wall-clock time spent, ns. **Not exported to JSONL/CSV** —
    /// wall time is nondeterministic and lives only in the summary table.
    pub wall_ns_total: u128,
    /// Largest single wall-clock duration, ns.
    pub wall_ns_max: u128,
}

/// An owned, inspectable copy of the registry state (see
/// [`Handle::snapshot`](crate::Handle::snapshot)).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals by key.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Last-set gauge values by key.
    pub gauges: BTreeMap<MetricKey, f64>,
    /// Histograms by key.
    pub histograms: BTreeMap<MetricKey, FixedHistogram>,
    /// Span aggregates by key.
    pub spans: BTreeMap<MetricKey, SpanStats>,
    /// Buffered events in record order.
    pub events: Vec<Event>,
    /// Events discarded after [`MAX_EVENTS`] was reached.
    pub dropped_events: u64,
}

/// An open streaming JSONL destination (see [`Registry::stream_to`]).
struct StreamSink {
    out: Chunked<Box<dyn Write + Send>>,
    /// First write error, reported back at [`Registry::finish_stream`];
    /// once set, further event writes are skipped.
    error: Option<io::Error>,
}

impl StreamSink {
    fn push(&mut self, event: &Event) {
        if self.error.is_none() {
            if let Err(e) = self.out.line(|buf| export::event_line(buf, event)) {
                self.error = Some(e);
            }
        }
    }
}

impl Drop for StreamSink {
    /// A stream dropped unfinished (by [`Registry::reset`] or
    /// [`Registry::load_state`]) still hands over the lines it buffered,
    /// as an unbuffered sink would already have them.
    fn drop(&mut self) {
        if self.error.is_none() {
            let _ = self.out.spill();
        }
    }
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// The event stream: buffered up to [`MAX_EVENTS`], or written through to
/// an open stream.
#[derive(Debug, Default)]
struct EventLog {
    events: Vec<Event>,
    dropped: u64,
    stream: Option<StreamSink>,
}

impl EventLog {
    fn push(&mut self, event: Event) {
        if let Some(stream) = &mut self.stream {
            stream.push(&event);
        } else if self.events.len() < MAX_EVENTS {
            self.events.push(event);
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }
}

/// The mutable store behind each [`Handle`](crate::Handle). It is a
/// plain struct so unit tests (and alternative embeddings) can drive one
/// directly, without a handle's lock or enabled flag.
///
/// Counters and histograms are slot-indexed (see [`CounterKey`]): their
/// values sit in dense storage that cached keys index directly, and a
/// sorted key index serves name lookups, exports and snapshots.
#[derive(Debug)]
pub struct Registry {
    /// Identity of the current counter/histogram storage; cached key
    /// slots are honoured only while it matches.
    generation: u64,
    counters: Slots<u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: Slots<FixedHistogram>,
    spans: BTreeMap<MetricKey, SpanStats>,
    log: EventLog,
}

impl Default for Registry {
    fn default() -> Self {
        Self {
            generation: next_generation(),
            counters: Slots::default(),
            gauges: BTreeMap::new(),
            histograms: Slots::default(),
            spans: BTreeMap::new(),
            log: EventLog::default(),
        }
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the registry to streaming export: every event recorded
    /// from now on is rendered as a JSONL line and written to `sink` in
    /// 64 KiB chunks instead of being buffered (so long endurance runs
    /// are not bounded by [`MAX_EVENTS`]). Any events already buffered
    /// go to the sink first, in record order. Close with
    /// [`Registry::finish_stream`], which appends the same totals tail
    /// [`Registry::write_jsonl`] produces — a streamed export of a
    /// deterministic run is byte-identical to the buffered one.
    pub fn stream_to(&mut self, sink: Box<dyn Write + Send>) {
        let mut stream = StreamSink {
            out: Chunked::new(sink),
            error: None,
        };
        for event in self.log.events.drain(..) {
            stream.push(&event);
        }
        self.log.stream = Some(stream);
    }

    /// Whether the registry is currently streaming events to a sink.
    #[must_use]
    pub fn is_streaming(&self) -> bool {
        self.log.stream.is_some()
    }

    /// Ends streaming: writes the totals tail (counter/gauge/histogram/
    /// span totals and the meta line), flushes, and drops the sink. The
    /// registry reverts to buffered recording.
    ///
    /// # Errors
    ///
    /// Returns the first error hit while streaming events, or any error
    /// from writing the tail. A no-op `Ok(())` if no stream was open.
    pub fn finish_stream(&mut self) -> io::Result<()> {
        let Some(mut stream) = self.log.stream.take() else {
            return Ok(());
        };
        if let Some(error) = stream.error.take() {
            return Err(error);
        }
        // A failed write empties the buffer too, so the dropped stream
        // has nothing left to hand over either way.
        self.write_totals(&mut stream.out)?;
        stream.out.flush()
    }

    /// Adds `delta` to the counter `name`, saturating at `u64::MAX`.
    pub fn counter_add(&mut self, name: impl Into<MetricKey>, delta: u64) {
        let value = self.counters.get_or_insert(name.into(), || 0);
        *value = value.saturating_add(delta);
    }

    /// [`counter_add`](Self::counter_add) through a [`CounterKey`]: after
    /// the key's first update in this registry, the update indexes the
    /// counter's slot directly instead of looking up its name.
    pub fn counter_add_key(&mut self, key: &CounterKey, delta: u64) {
        let value = self.counters.counter(self.generation, key);
        *value = value.saturating_add(delta);
    }

    /// Sets gauge `name` to `value` and records a timestamped event.
    pub fn gauge_set(&mut self, name: impl Into<MetricKey>, t_ms: u64, value: f64) {
        let name = name.into();
        self.gauges.insert(name.clone(), value);
        self.log.push(Event::Gauge { name, t_ms, value });
    }

    /// Observes `value` into histogram `name`, creating it over `buckets`
    /// on first use. Later calls keep the original buckets.
    pub fn observe(&mut self, name: impl Into<MetricKey>, buckets: &'static [f64], value: f64) {
        self.histograms
            .get_or_insert(name.into(), || FixedHistogram::new(buckets))
            .observe(value);
    }

    /// [`observe`](Self::observe) over
    /// [`DEFAULT_BUCKETS`](crate::DEFAULT_BUCKETS) through a
    /// [`HistogramKey`] (see [`Registry::counter_add_key`]).
    pub fn observe_key(&mut self, key: &HistogramKey, value: f64) {
        self.histograms
            .histogram(self.generation, key)
            .observe(value);
    }

    /// Records a completed span occurrence.
    pub fn span_complete(
        &mut self,
        name: impl Into<MetricKey>,
        t_ms: u64,
        sim_ms: u64,
        depth: u32,
        wall_ns: u128,
    ) {
        let name = name.into();
        let stats = self.spans.entry(name.clone()).or_default();
        stats.count = stats.count.saturating_add(1);
        stats.sim_ms_total = stats.sim_ms_total.saturating_add(sim_ms);
        stats.wall_ns_total = stats.wall_ns_total.saturating_add(wall_ns);
        stats.wall_ns_max = stats.wall_ns_max.max(wall_ns);
        self.log.push(Event::Span {
            name,
            t_ms,
            sim_ms,
            depth,
        });
    }

    /// Samples every counter as a timestamped event (call this at a fixed
    /// simulated cadence to put counter trajectories in the export).
    pub fn record_counters(&mut self, t_ms: u64) {
        for (name, &value) in self.counters.iter() {
            self.log.push(Event::Counter {
                name: name.clone(),
                t_ms,
                value,
            });
        }
    }

    /// Number of events currently buffered. Together with
    /// [`Registry::append_events_from`] this is the cursor space of the
    /// incremental tap: a reader that saw `events_len()` events is fully
    /// caught up.
    #[must_use]
    pub fn events_len(&self) -> usize {
        self.log.events.len()
    }

    /// Appends the buffered events starting at index `from` to `out` as
    /// JSONL lines (the same bytes [`Registry::write_jsonl`] would emit
    /// for them), rendered in place, and returns the new cursor — the
    /// index just past the last event written. A `from` beyond the buffer
    /// appends nothing and returns the current length, so a reader can
    /// poll with its last cursor unconditionally. This is the incremental
    /// per-tenant telemetry tap behind `bzctl serve`.
    pub fn append_events_from(&self, from: usize, out: &mut Vec<u8>) -> usize {
        for event in self.log.events.iter().skip(from) {
            export::event_line(out, event);
        }
        self.log.events.len()
    }

    /// An owned copy of everything the registry holds.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.to_map(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.to_map(),
            spans: self.spans.clone(),
            events: self.log.events.clone(),
            dropped_events: self.log.dropped,
        }
    }

    /// Clears all metrics, events, and drop counts. Every cached key slot
    /// is invalidated with the old storage.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Writes the JSONL export: one JSON object per line — the event
    /// stream in record order, then per-key totals in sorted key order.
    /// Lines are handed to `out` in 64 KiB chunks, so `out` needs no
    /// buffering of its own.
    ///
    /// Everything written is deterministic for a seeded run; wall-clock
    /// span timings are deliberately excluded (see
    /// `docs/OBSERVABILITY.md`).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_jsonl<W: Write>(&self, out: W) -> io::Result<()> {
        let mut out = Chunked::new(out);
        for event in &self.log.events {
            out.line(|buf| export::event_line(buf, event))?;
        }
        self.write_totals(&mut out)?;
        out.spill()
    }

    /// The per-key totals tail shared by [`Registry::write_jsonl`] and
    /// [`Registry::finish_stream`], in sorted key order.
    fn write_totals<W: Write>(&self, out: &mut Chunked<W>) -> io::Result<()> {
        for (name, &value) in self.counters.iter() {
            out.line(|buf| export::counter_total_line(buf, name, value))?;
        }
        for (name, &value) in &self.gauges {
            out.line(|buf| export::gauge_last_line(buf, name, value))?;
        }
        for (name, hist) in self.histograms.iter() {
            out.line(|buf| export::histogram_line(buf, name, hist))?;
        }
        for (name, stats) in &self.spans {
            out.line(|buf| export::span_total_line(buf, name, stats))?;
        }
        out.line(|buf| export::meta_line(buf, self.log.dropped))
    }

    /// Writes the event stream as CSV with the columns
    /// `t_ms,kind,name,value,sim_ms,depth` (blank where not applicable),
    /// in 64 KiB chunks like [`Registry::write_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_csv<W: Write>(&self, out: W) -> io::Result<()> {
        let mut out = Chunked::new(out);
        out.line(|buf| buf.extend_from_slice(b"t_ms,kind,name,value,sim_ms,depth\n"))?;
        for event in &self.log.events {
            out.line(|buf| export::csv_line(buf, event))?;
        }
        out.spill()
    }

    /// Renders the human-readable end-of-run summary. This is the one
    /// place wall-clock span timings appear; it is intended for stderr /
    /// stdout, not for files that get diffed across runs.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out += "spans (per-stage timing):\n";
            out += &format!(
                "  {:<34} {:>9} {:>12} {:>12} {:>12}\n",
                "name", "count", "sim total s", "wall mean µs", "wall max µs"
            );
            for (name, s) in &self.spans {
                let mean_us = if s.count == 0 {
                    0.0
                } else {
                    s.wall_ns_total as f64 / s.count as f64 / 1_000.0
                };
                out += &format!(
                    "  {:<34} {:>9} {:>12.1} {:>12.2} {:>12.2}\n",
                    name,
                    s.count,
                    s.sim_ms_total as f64 / 1_000.0,
                    mean_us,
                    s.wall_ns_max as f64 / 1_000.0,
                );
            }
        }
        if !self.counters.is_empty() {
            out += "counters:\n";
            for (name, value) in self.counters.iter() {
                out += &format!("  {name:<34} {value:>12}\n");
            }
        }
        if !self.gauges.is_empty() {
            out += "gauges (last value):\n";
            for (name, value) in &self.gauges {
                out += &format!("  {name:<34} {value:>12.3}\n");
            }
        }
        if !self.histograms.is_empty() {
            out += "histograms:\n";
            for (name, hist) in self.histograms.iter() {
                out += &format!(
                    "  {:<34} count {} mean {:.3} min {:.3} max {:.3}\n",
                    name,
                    hist.count(),
                    hist.mean().unwrap_or(0.0),
                    hist.min(),
                    hist.max()
                );
            }
        }
        if self.log.dropped > 0 {
            out += &format!("dropped events: {}\n", self.log.dropped);
        }
        out
    }
}

impl bz_state::Persist for Event {
    fn save(&self, w: &mut bz_state::Writer) {
        match self {
            Event::Counter { name, t_ms, value } => {
                w.put_u8(0);
                name.save(w);
                w.put_u64(*t_ms);
                w.put_u64(*value);
            }
            Event::Gauge { name, t_ms, value } => {
                w.put_u8(1);
                name.save(w);
                w.put_u64(*t_ms);
                w.put_f64(*value);
            }
            Event::Span {
                name,
                t_ms,
                sim_ms,
                depth,
            } => {
                w.put_u8(2);
                name.save(w);
                w.put_u64(*t_ms);
                w.put_u64(*sim_ms);
                w.put_u32(*depth);
            }
        }
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        match r.take_u8()? {
            0 => Ok(Event::Counter {
                name: MetricKey::load(r)?,
                t_ms: r.take_u64()?,
                value: r.take_u64()?,
            }),
            1 => Ok(Event::Gauge {
                name: MetricKey::load(r)?,
                t_ms: r.take_u64()?,
                value: r.take_f64()?,
            }),
            2 => Ok(Event::Span {
                name: MetricKey::load(r)?,
                t_ms: r.take_u64()?,
                sim_ms: r.take_u64()?,
                depth: r.take_u32()?,
            }),
            tag => Err(bz_state::StateError::BadTag {
                what: "obs::Event",
                tag: u64::from(tag),
            }),
        }
    }
}

/// Only the deterministic aggregates are checkpointed. Wall-clock
/// timing is process-local diagnostics (it never reaches JSONL/CSV
/// exports) and including it would make same-seed checkpoints
/// byte-unequal; a restored process starts its wall totals at zero.
impl bz_state::Persist for SpanStats {
    fn save(&self, w: &mut bz_state::Writer) {
        w.put_u64(self.count);
        w.put_u64(self.sim_ms_total);
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        Ok(Self {
            count: r.take_u64()?,
            sim_ms_total: r.take_u64()?,
            wall_ns_total: 0,
            wall_ns_max: 0,
        })
    }
}

impl Registry {
    /// Serializes every metric, buffered event, and drop count. The open
    /// stream (if any) is *not* part of the state — checkpointing a
    /// streaming registry is rejected because the streamed bytes are
    /// already on disk and replaying them after a resume would duplicate
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if the registry is currently streaming (see
    /// [`Registry::is_streaming`]); callers gate that combination up
    /// front.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        assert!(
            self.log.stream.is_none(),
            "cannot checkpoint a streaming registry"
        );
        self.counters.save(w);
        self.gauges.save(w);
        self.histograms.save(w);
        self.spans.save(w);
        self.log.events.save(w);
        w.put_u64(self.log.dropped);
    }

    /// Replaces this registry's contents with previously saved state. Any
    /// open stream is dropped unfinished, and every cached key slot is
    /// invalidated with the old storage.
    ///
    /// # Errors
    ///
    /// Returns a decode error (and leaves the registry unchanged) if the
    /// bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        let counters = Slots::load(r)?;
        let gauges = BTreeMap::load(r)?;
        let histograms = Slots::load(r)?;
        let spans = BTreeMap::load(r)?;
        let events = Vec::load(r)?;
        let dropped = r.take_u64()?;
        *self = Self {
            generation: next_generation(),
            counters,
            gauges,
            histograms,
            spans,
            log: EventLog {
                events,
                dropped,
                stream: None,
            },
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::DEFAULT_BUCKETS;

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let mut registry = Registry::new();
        registry.counter_add("c", u64::MAX - 1);
        registry.counter_add("c", 5);
        assert_eq!(registry.snapshot().counters["c"], u64::MAX);
    }

    #[test]
    fn record_counters_snapshots_all_keys_in_order() {
        let mut registry = Registry::new();
        registry.counter_add("b", 2);
        registry.counter_add("a", 1);
        registry.record_counters(1_000);
        let events = registry.snapshot().events;
        assert_eq!(
            events,
            vec![
                Event::Counter {
                    name: "a".into(),
                    t_ms: 1_000,
                    value: 1
                },
                Event::Counter {
                    name: "b".into(),
                    t_ms: 1_000,
                    value: 2
                },
            ]
        );
    }

    #[test]
    fn jsonl_round_trips_through_a_parser() {
        let mut registry = Registry::new();
        registry.counter_add("wsn.packets.sent", 3);
        registry.gauge_set("thermal.chiller.radiant_w", 2_000, 145.25);
        registry.observe("wsn.btadpt.send_period_s", DEFAULT_BUCKETS, 2.0);
        registry.span_complete("core.control_tick", 5_000, 0, 1, 12_345);
        registry.record_counters(60_000);

        let mut bytes = Vec::new();
        registry.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();

        let mut kinds = std::collections::BTreeMap::new();
        for line in text.lines() {
            let object = parse_json_object(line)
                .unwrap_or_else(|| panic!("line is not a flat JSON object: {line}"));
            *kinds.entry(object["kind"].clone()).or_insert(0u32) += 1;
            if object["kind"] == "counter_total" && object["name"] == "wsn.packets.sent" {
                assert_eq!(object["value"], "3");
            }
            if object["kind"] == "gauge" {
                assert_eq!(object["t_ms"], "2000");
                assert_eq!(object["value"], "145.25");
            }
        }
        for expected in [
            "counter",
            "gauge",
            "span",
            "counter_total",
            "gauge_last",
            "histogram",
            "span_total",
            "meta",
        ] {
            assert!(kinds.contains_key(expected), "missing kind {expected}");
        }
    }

    #[test]
    fn csv_has_one_row_per_event_plus_header() {
        let mut registry = Registry::new();
        registry.gauge_set("g", 1, 0.5);
        registry.span_complete("s", 2, 1_000, 0, 1);
        let mut bytes = Vec::new();
        registry.write_csv(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "t_ms,kind,name,value,sim_ms,depth");
        assert_eq!(lines[2], "2,span,s,,1000,0");
    }

    /// A cloneable byte sink for inspecting what a stream wrote.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn record_sample(registry: &mut Registry) {
        registry.counter_add("wsn.packets.sent", 3);
        registry.gauge_set("thermal.chiller.radiant_w", 2_000, 145.25);
        registry.observe("wsn.btadpt.send_period_s", DEFAULT_BUCKETS, 2.0);
        registry.span_complete("core.control_tick", 5_000, 10, 1, 12_345);
        registry.record_counters(60_000);
    }

    #[test]
    fn streamed_export_matches_the_buffered_bytes() {
        let mut buffered = Registry::new();
        record_sample(&mut buffered);
        let mut expected = Vec::new();
        buffered.write_jsonl(&mut expected).unwrap();

        let sink = SharedBuf::default();
        let mut streaming = Registry::new();
        streaming.stream_to(Box::new(sink.clone()));
        assert!(streaming.is_streaming());
        record_sample(&mut streaming);
        // Streamed events are written through, not buffered.
        assert!(streaming.snapshot().events.is_empty());
        streaming.finish_stream().unwrap();
        assert!(!streaming.is_streaming());
        assert_eq!(sink.bytes(), expected);
    }

    #[test]
    fn stream_to_flushes_already_buffered_events_first() {
        let mut buffered = Registry::new();
        record_sample(&mut buffered);
        buffered.gauge_set("late", 70_000, 1.0);
        let mut expected = Vec::new();
        buffered.write_jsonl(&mut expected).unwrap();

        let sink = SharedBuf::default();
        let mut registry = Registry::new();
        record_sample(&mut registry);
        registry.stream_to(Box::new(sink.clone()));
        registry.gauge_set("late", 70_000, 1.0);
        registry.finish_stream().unwrap();
        assert_eq!(sink.bytes(), expected);
    }

    #[test]
    fn finish_stream_reports_the_first_write_error() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut registry = Registry::new();
        registry.stream_to(Box::new(Failing));
        registry.gauge_set("g", 0, 1.0);
        registry.gauge_set("g", 1, 2.0);
        let err = registry.finish_stream().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        // And the registry is usable (buffered) again afterwards.
        registry.gauge_set("g", 2, 3.0);
        assert_eq!(registry.snapshot().events.len(), 1);
    }

    #[test]
    fn a_stream_dropped_unfinished_hands_over_its_buffered_lines() {
        let sink = SharedBuf::default();
        let mut registry = Registry::new();
        registry.stream_to(Box::new(sink.clone()));
        registry.gauge_set("g", 0, 1.0);
        assert!(sink.bytes().is_empty(), "a short stream stays buffered");
        registry.reset();
        assert_eq!(
            sink.bytes(),
            b"{\"kind\":\"gauge\",\"name\":\"g\",\"t_ms\":0,\"value\":1}\n"
        );
    }

    #[test]
    fn saved_state_restores_to_byte_identical_exports() {
        let mut original = Registry::new();
        record_sample(&mut original);
        original.observe("custom.buckets", &[1.0, 2.0], 1.5);
        original.log.dropped = 3;

        let mut w = bz_state::Writer::new();
        original.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Registry::new();
        restored.gauge_set("stale", 1, 9.9); // must be wiped by the load
        restored
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap();

        let export = |registry: &Registry| {
            let mut out = Vec::new();
            registry.write_jsonl(&mut out).unwrap();
            out
        };
        assert_eq!(export(&restored), export(&original));
        let mut csv_original = Vec::new();
        original.write_csv(&mut csv_original).unwrap();
        let mut csv_restored = Vec::new();
        restored.write_csv(&mut csv_restored).unwrap();
        assert_eq!(csv_restored, csv_original);
        let histograms = restored.snapshot().histograms;
        assert_eq!(
            histograms["wsn.btadpt.send_period_s"].edges(),
            DEFAULT_BUCKETS
        );
        assert_eq!(histograms["custom.buckets"].edges(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "streaming")]
    fn checkpointing_a_streaming_registry_is_rejected() {
        let mut registry = Registry::new();
        registry.stream_to(Box::new(Vec::new()));
        registry.save_state(&mut bz_state::Writer::new());
    }

    #[test]
    fn incremental_tap_reassembles_the_event_stream() {
        let mut registry = Registry::new();
        record_sample(&mut registry);
        let cursor = registry.events_len();
        let mut first = Vec::new();
        assert_eq!(registry.append_events_from(0, &mut first), cursor);
        registry.gauge_set("late", 70_000, 1.0);
        let mut second = Vec::new();
        let next = registry.append_events_from(cursor, &mut second);
        assert_eq!(next, cursor + 1);
        // Catching up past the end is a clean no-op.
        let mut empty = Vec::new();
        assert_eq!(registry.append_events_from(next, &mut empty), next);
        assert!(empty.is_empty());
        // The tapped chunks concatenate to exactly the buffered event
        // lines of the full export.
        let mut full = Vec::new();
        registry.write_jsonl(&mut full).unwrap();
        let tapped = [first, second].concat();
        assert!(full.starts_with(&tapped));
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut registry = Registry::new();
        for _ in 0..MAX_EVENTS + 10 {
            registry.gauge_set("g", 0, 0.0);
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.events.len(), MAX_EVENTS);
        assert_eq!(snapshot.dropped_events, 10);
    }

    #[test]
    fn summary_mentions_every_section() {
        let mut registry = Registry::new();
        registry.counter_add("c", 1);
        registry.gauge_set("g", 0, 1.0);
        registry.observe("h", DEFAULT_BUCKETS, 1.0);
        registry.span_complete("s", 0, 1_000, 0, 500);
        let summary = registry.summary_table();
        for section in ["spans", "counters", "gauges", "histograms"] {
            assert!(summary.contains(section), "missing {section}:\n{summary}");
        }
    }

    /// Minimal flat-object JSON parser for round-trip checking: returns
    /// key → raw value text. Good enough for the exporter's own output.
    fn parse_json_object(line: &str) -> Option<std::collections::BTreeMap<String, String>> {
        let inner = line.strip_prefix('{')?.strip_suffix('}')?;
        let mut map = std::collections::BTreeMap::new();
        let mut rest = inner;
        while !rest.is_empty() {
            rest = rest.strip_prefix('"')?;
            let key_end = rest.find('"')?;
            let key = rest[..key_end].to_owned();
            rest = rest[key_end + 1..].strip_prefix(':')?;
            let value_end = if let Some(quoted) = rest.strip_prefix('"') {
                quoted.find('"').map(|i| i + 2)?
            } else if rest.starts_with('[') {
                rest.find(']').map(|i| i + 1)?
            } else {
                rest.find(',').unwrap_or(rest.len())
            };
            let value = rest[..value_end].trim_matches('"').to_owned();
            map.insert(key, value);
            rest = rest[value_end..]
                .strip_prefix(',')
                .unwrap_or(&rest[value_end..]);
        }
        Some(map)
    }
}
