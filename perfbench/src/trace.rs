//! Spans around the benchmark's own calls into each crate's public
//! functions, kept in memory and written out when the run ends.
//!
//! A span records its name, layer (the crate whose function it times),
//! start, end, parent span and request id. A layer's self time is the
//! time its spans cover minus the part of that time their child spans
//! cover.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one run.
    pub id: u64,
    /// The span that was open on the same tracer when this one began.
    pub parent: Option<u64>,
    /// Shared by every span of one request: a span opened with
    /// [`Tracer::begin_request`] or with no open parent starts a request,
    /// any other span belongs to its parent's.
    pub request: u64,
    /// The crate whose function the span times, e.g. `core`.
    pub layer: &'static str,
    /// What was called, e.g. `core.step_second`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers, nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread. A span begun while another is open
/// becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    requests: u64,
}

impl Tracer {
    /// A recorder whose span and request ids start at `thread << 40`, so
    /// tracers of different threads sharing `epoch` never collide.
    #[must_use]
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Self {
            epoch,
            id_base: thread << 40,
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span in the open span's request (a new request when no
    /// span is open); close it with [`Tracer::end`].
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> usize {
        self.open_span(layer, name, false)
    }

    /// Opens a span that starts a new request, nested or not.
    pub fn begin_request(&mut self, layer: &'static str, name: &'static str) -> usize {
        self.open_span(layer, name, true)
    }

    fn open_span(&mut self, layer: &'static str, name: &'static str, new_request: bool) -> usize {
        let index = self.spans.len();
        let parent = self.open.last().map(|&i| &self.spans[i]);
        let request = match parent {
            Some(p) if !new_request => p.request,
            _ => {
                self.requests += 1;
                self.id_base + self.requests
            }
        };
        let parent = parent.map(|p| p.id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.id_base + index as u64,
            parent,
            request,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn end(&mut self, index: usize) {
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index].end_ns = self.now_ns();
    }

    /// Times `f` as a leaf span and returns its result.
    pub fn leaf<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(layer, name);
        let out = f();
        self.end(span);
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations of every span named `name`, microseconds.
#[must_use]
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Self time per layer, seconds: each span's duration minus the union
/// of its children's intervals (clipped to the span), summed by layer.
#[must_use]
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&span.id) {
            kids.sort_unstable();
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
        }
        *by_layer.entry(span.layer).or_default() +=
            span.duration_ns().saturating_sub(covered) as f64 / 1e9;
    }
    by_layer
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Returns write errors from `out`.
pub fn write_jsonl<W: Write>(spans: &[Span], mut out: W) -> io::Result<()> {
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) holds overlapping children [10,40) and [30,60);
        // the first child holds a grandchild [15,25).
        let spans = vec![
            span(1, None, "cli", 0, 100),
            span(2, Some(1), "core", 10, 40),
            span(3, Some(1), "core", 30, 60),
            span(4, Some(2), "thermal", 15, 25),
        ];
        let by_layer = self_seconds_by_layer(&spans);
        assert_eq!(by_layer["cli"], 50e-9); // 100 - union(10..60)
        assert_eq!(by_layer["core"], (20e-9 + 30e-9)); // (30-10) + 30
        assert_eq!(by_layer["thermal"], 10e-9);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, None, "serve", 100, 200),
            span(2, Some(1), "obs", 50, 150),
        ];
        let by_layer = self_seconds_by_layer(&spans);
        assert_eq!(by_layer["serve"], 50e-9);
        assert_eq!(by_layer["obs"], 100e-9);
    }

    #[test]
    fn tracer_links_parents_and_keeps_ids_apart_per_thread() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        let outer = a.begin("cli", "cli.trial");
        a.leaf("core", "core.step_second", || ());
        let call = a.begin_request("serve", "serve.step");
        a.end(call);
        a.end(outer);
        a.leaf("core", "core.build", || ());
        let spans = a.into_spans();
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].request, spans[0].request);
        assert_eq!(spans[2].parent, Some(spans[0].id));
        assert_ne!(spans[2].request, spans[0].request);
        assert_ne!(spans[3].request, spans[0].request);
        assert_ne!(spans[3].request, spans[2].request);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut b = Tracer::new(epoch, 1);
        b.leaf("serve", "serve.step", || ());
        assert_ne!(b.spans()[0].id, spans[0].id);
        assert_ne!(b.spans()[0].request, spans[0].request);
        assert_eq!(durations_us(&spans, "core.step_second").len(), 1);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_is_a_bug() {
        let mut t = Tracer::new(Instant::now(), 0);
        let outer = t.begin("a", "a");
        let _inner = t.begin("b", "b");
        t.end(outer);
    }
}
