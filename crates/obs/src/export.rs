//! Line rendering for the JSONL and CSV exporters, and the chunked
//! hand-off of rendered lines to the caller's writer.
//!
//! Every line is rendered straight into a byte buffer: keys that need no
//! JSON escaping are borrowed, numbers are formatted in place, and no
//! line allocates. [`Chunked`] passes that buffer on in chunks of about
//! [`CHUNK`] bytes, so an export makes O(bytes / 64 KiB) write calls on
//! whatever writer it is given.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::{self, Write};

use crate::hist::FixedHistogram;
use crate::registry::{Event, SpanStats};

/// Bytes an exporter buffers before handing them to its writer.
pub(crate) const CHUNK: usize = 64 * 1024;

/// Buffers rendered lines and writes them to `sink` a chunk at a time.
pub(crate) struct Chunked<W: Write> {
    sink: W,
    buf: Vec<u8>,
}

impl<W: Write> Chunked<W> {
    pub(crate) fn new(sink: W) -> Self {
        Self {
            sink,
            buf: Vec::new(),
        }
    }

    /// Renders one line into the buffer, passing the buffer on once it
    /// holds a full chunk.
    pub(crate) fn line(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        render(&mut self.buf);
        if self.buf.len() >= CHUNK {
            self.spill()?;
        }
        Ok(())
    }

    /// Hands everything buffered to the sink. The buffer is emptied even
    /// when the write fails.
    pub(crate) fn spill(&mut self) -> io::Result<()> {
        let written = self.sink.write_all(&self.buf);
        self.buf.clear();
        written
    }

    /// Hands everything buffered to the sink and flushes it.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        self.spill()?;
        self.sink.flush()
    }
}

/// Appends formatted text to `buf`.
fn put(buf: &mut Vec<u8>, args: fmt::Arguments<'_>) {
    // Writing into a `Vec` cannot fail, and nothing rendered here has a
    // fallible `Display`.
    let _ = buf.write_fmt(args);
}

/// Renders one event as its JSONL line (shared by the buffered exporter,
/// the incremental tap and the streaming path, so all emit identical
/// bytes).
pub(crate) fn event_line(buf: &mut Vec<u8>, event: &Event) {
    match event {
        Event::Counter { name, t_ms, value } => put(
            buf,
            format_args!(
                "{{\"kind\":\"counter\",\"name\":\"{}\",\"t_ms\":{t_ms},\"value\":{value}}}\n",
                escape(name)
            ),
        ),
        Event::Gauge { name, t_ms, value } => put(
            buf,
            format_args!(
                "{{\"kind\":\"gauge\",\"name\":\"{}\",\"t_ms\":{t_ms},\"value\":{}}}\n",
                escape(name),
                JsonF64(*value)
            ),
        ),
        Event::Span {
            name,
            t_ms,
            sim_ms,
            depth,
        } => put(
            buf,
            format_args!(
                "{{\"kind\":\"span\",\"name\":\"{}\",\"t_ms\":{t_ms},\"sim_ms\":{sim_ms},\"depth\":{depth}}}\n",
                escape(name)
            ),
        ),
    }
}

/// Renders one event as its CSV row (`t_ms,kind,name,value,sim_ms,depth`).
pub(crate) fn csv_line(buf: &mut Vec<u8>, event: &Event) {
    match event {
        Event::Counter { name, t_ms, value } => {
            put(buf, format_args!("{t_ms},counter,{name},{value},,\n"));
        }
        Event::Gauge { name, t_ms, value } => {
            put(
                buf,
                format_args!("{t_ms},gauge,{name},{},,\n", JsonF64(*value)),
            );
        }
        Event::Span {
            name,
            t_ms,
            sim_ms,
            depth,
        } => put(buf, format_args!("{t_ms},span,{name},,{sim_ms},{depth}\n")),
    }
}

pub(crate) fn counter_total_line(buf: &mut Vec<u8>, name: &str, value: u64) {
    put(
        buf,
        format_args!(
            "{{\"kind\":\"counter_total\",\"name\":\"{}\",\"value\":{value}}}\n",
            escape(name)
        ),
    );
}

pub(crate) fn gauge_last_line(buf: &mut Vec<u8>, name: &str, value: f64) {
    put(
        buf,
        format_args!(
            "{{\"kind\":\"gauge_last\",\"name\":\"{}\",\"value\":{}}}\n",
            escape(name),
            JsonF64(value)
        ),
    );
}

pub(crate) fn histogram_line(buf: &mut Vec<u8>, name: &str, hist: &FixedHistogram) {
    put(
        buf,
        format_args!(
            "{{\"kind\":\"histogram\",\"name\":\"{}\",\"edges\":[",
            escape(name)
        ),
    );
    for (i, edge) in hist.edges().iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        put(buf, format_args!("{}", JsonF64(*edge)));
    }
    buf.extend_from_slice(b"],\"counts\":[");
    for (i, count) in hist.counts().iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        put(buf, format_args!("{count}"));
    }
    put(
        buf,
        format_args!(
            "],\"count\":{},\"sum\":{}}}\n",
            hist.count(),
            JsonF64(hist.sum())
        ),
    );
}

pub(crate) fn span_total_line(buf: &mut Vec<u8>, name: &str, stats: &SpanStats) {
    put(
        buf,
        format_args!(
            "{{\"kind\":\"span_total\",\"name\":\"{}\",\"count\":{},\"sim_ms_total\":{}}}\n",
            escape(name),
            stats.count,
            stats.sim_ms_total
        ),
    );
}

pub(crate) fn meta_line(buf: &mut Vec<u8>, dropped_events: u64) {
    put(
        buf,
        format_args!("{{\"kind\":\"meta\",\"dropped_events\":{dropped_events}}}\n"),
    );
}

/// Escapes a metric key for embedding in a JSON string literal, borrowing
/// keys that need no escaping.
fn escape(name: &str) -> Cow<'_, str> {
    if name
        .chars()
        .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\')
    {
        return Cow::Borrowed(name);
    }
    let mut escaped = String::with_capacity(name.len() + 4);
    for c in name.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(escaped, "\\u{:04x}", c as u32);
            }
            c => escaped.push(c),
        }
    }
    Cow::Owned(escaped)
}

/// An `f64` as a JSON number: `{}` formatting (which never emits an
/// exponent, so the text is always a valid JSON number), or `null` for
/// non-finite values.
struct JsonF64(f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}
