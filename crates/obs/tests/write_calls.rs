//! The exporters hand their writer large chunks, whatever the writer:
//! the number of `write` calls stays O(bytes / 64 KiB) for a buffered
//! export and a streamed run alike. (The incremental tap renders into a
//! `Vec` and makes no write calls.)

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use bz_obs::{Registry, DEFAULT_BUCKETS};

/// Events each export below carries (well past one chunk of lines).
const EVENTS: u64 = 30_000;

/// Counts the `write` calls and bytes it receives.
#[derive(Clone, Default)]
struct Counting(Arc<Mutex<(u64, u64)>>);

impl Counting {
    fn calls_and_bytes(&self) -> (u64, u64) {
        *self.0.lock().unwrap()
    }

    /// Asserts the chunking bound: at most one call per 8 KiB, plus a few.
    fn assert_chunked(&self) {
        let (calls, bytes) = self.calls_and_bytes();
        assert!(bytes > 1_000_000, "export too small to test: {bytes} B");
        assert!(
            calls <= bytes / 8192 + 4,
            "{calls} write calls for {bytes} B"
        );
    }
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut counts = self.0.lock().unwrap();
        counts.0 += 1;
        counts.1 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Records `EVENTS` events of every kind plus per-minute counter samples.
fn record(registry: &mut Registry) {
    for second in 0..EVENTS / 3 {
        let t_ms = second * 1_000;
        registry.counter_add("wsn.packets.sent", 3);
        registry.observe("wsn.delivery_delay_ms", DEFAULT_BUCKETS, 7.0);
        registry.gauge_set("thermal.chiller.radiant_w", t_ms, 145.25);
        registry.span_complete("core.step_second", t_ms, 1_000, 0, 500);
        registry.span_complete("thermal.plant.step", t_ms, 1_000, 1, 200);
        if second % 60 == 59 {
            registry.record_counters(t_ms);
        }
    }
}

fn recorded() -> Registry {
    let mut registry = Registry::new();
    record(&mut registry);
    assert!(registry.events_len() as u64 >= EVENTS);
    registry
}

#[test]
fn jsonl_export_writes_in_chunks() {
    let sink = Counting::default();
    recorded().write_jsonl(sink.clone()).unwrap();
    sink.assert_chunked();
}

#[test]
fn csv_export_writes_in_chunks() {
    let sink = Counting::default();
    recorded().write_csv(sink.clone()).unwrap();
    sink.assert_chunked();
}

#[test]
fn streamed_run_writes_in_chunks() {
    let sink = Counting::default();
    let mut registry = Registry::new();
    registry.stream_to(Box::new(sink.clone()));
    record(&mut registry);
    registry.finish_stream().unwrap();
    sink.assert_chunked();
}
