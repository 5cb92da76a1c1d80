//! Pins the exact bytes of the JSONL and CSV exporters.
//!
//! Keys that need JSON escaping and gauge values at the edges of `f64`
//! formatting go through `write_jsonl`, `write_csv` and a streamed
//! export. The expected output is written out here line by line, so any
//! change to the exporters' rendering shows up as a byte difference.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use bz_obs::Registry;

/// `5e-324`, the smallest subnormal, as `{}` prints it: no exponent.
const TINY: &str = "0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005";

/// `1e300` as `{}` prints it.
const HUGE: &str = "1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000";

const KEYS: [&str; 7] = [
    "quote\"d",
    "back\\slash",
    "new\nline",
    "tab\tbed",
    "ctl\u{1}x",
    "with space",
    "café",
];

const EDGES: &[f64] = &[0.1, 145.25, 1e300];

fn record(registry: &mut Registry) {
    for (i, key) in KEYS.iter().enumerate() {
        registry.counter_add(*key, i as u64 + 1);
    }
    let values = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
        1e300,
        0.1 + 0.2,
        145.25,
    ];
    for (t_ms, value) in values.into_iter().enumerate() {
        registry.gauge_set("g", t_ms as u64, value);
    }
    registry.gauge_set("café", 9, 1.5);
    registry.observe("h", EDGES, 0.1);
    registry.observe("h", EDGES, 0.2);
    registry.observe("h", EDGES, f64::NAN);
    registry.span_complete("tab\tbed", 10, 5, 1, 99);
    registry.record_counters(60_000);
}

fn expected_jsonl() -> String {
    let lines = [
        r#"{"kind":"gauge","name":"g","t_ms":0,"value":null}"#.to_owned(),
        r#"{"kind":"gauge","name":"g","t_ms":1,"value":null}"#.to_owned(),
        r#"{"kind":"gauge","name":"g","t_ms":2,"value":null}"#.to_owned(),
        r#"{"kind":"gauge","name":"g","t_ms":3,"value":-0}"#.to_owned(),
        format!(r#"{{"kind":"gauge","name":"g","t_ms":4,"value":{TINY}}}"#),
        format!(r#"{{"kind":"gauge","name":"g","t_ms":5,"value":{HUGE}}}"#),
        r#"{"kind":"gauge","name":"g","t_ms":6,"value":0.30000000000000004}"#.to_owned(),
        r#"{"kind":"gauge","name":"g","t_ms":7,"value":145.25}"#.to_owned(),
        r#"{"kind":"gauge","name":"café","t_ms":9,"value":1.5}"#.to_owned(),
        r#"{"kind":"span","name":"tab\tbed","t_ms":10,"sim_ms":5,"depth":1}"#.to_owned(),
        r#"{"kind":"counter","name":"back\\slash","t_ms":60000,"value":2}"#.to_owned(),
        r#"{"kind":"counter","name":"café","t_ms":60000,"value":7}"#.to_owned(),
        r#"{"kind":"counter","name":"ctl\u0001x","t_ms":60000,"value":5}"#.to_owned(),
        r#"{"kind":"counter","name":"new\nline","t_ms":60000,"value":3}"#.to_owned(),
        r#"{"kind":"counter","name":"quote\"d","t_ms":60000,"value":1}"#.to_owned(),
        r#"{"kind":"counter","name":"tab\tbed","t_ms":60000,"value":4}"#.to_owned(),
        r#"{"kind":"counter","name":"with space","t_ms":60000,"value":6}"#.to_owned(),
        r#"{"kind":"counter_total","name":"back\\slash","value":2}"#.to_owned(),
        r#"{"kind":"counter_total","name":"café","value":7}"#.to_owned(),
        r#"{"kind":"counter_total","name":"ctl\u0001x","value":5}"#.to_owned(),
        r#"{"kind":"counter_total","name":"new\nline","value":3}"#.to_owned(),
        r#"{"kind":"counter_total","name":"quote\"d","value":1}"#.to_owned(),
        r#"{"kind":"counter_total","name":"tab\tbed","value":4}"#.to_owned(),
        r#"{"kind":"counter_total","name":"with space","value":6}"#.to_owned(),
        r#"{"kind":"gauge_last","name":"café","value":1.5}"#.to_owned(),
        r#"{"kind":"gauge_last","name":"g","value":145.25}"#.to_owned(),
        format!(
            r#"{{"kind":"histogram","name":"h","edges":[0.1,145.25,{HUGE}],"counts":[1,1,0,1],"count":3,"sum":0.30000000000000004}}"#
        ),
        r#"{"kind":"span_total","name":"tab\tbed","count":1,"sim_ms_total":5}"#.to_owned(),
        r#"{"kind":"meta","dropped_events":0}"#.to_owned(),
    ];
    lines.map(|line| line + "\n").concat()
}

fn expected_csv() -> String {
    // CSV names are written raw: a key's control characters reach the
    // file as they are.
    let lines = [
        "t_ms,kind,name,value,sim_ms,depth".to_owned(),
        "0,gauge,g,null,,".to_owned(),
        "1,gauge,g,null,,".to_owned(),
        "2,gauge,g,null,,".to_owned(),
        "3,gauge,g,-0,,".to_owned(),
        format!("4,gauge,g,{TINY},,"),
        format!("5,gauge,g,{HUGE},,"),
        "6,gauge,g,0.30000000000000004,,".to_owned(),
        "7,gauge,g,145.25,,".to_owned(),
        "9,gauge,café,1.5,,".to_owned(),
        "10,span,tab\tbed,,5,1".to_owned(),
        "60000,counter,back\\slash,2,,".to_owned(),
        "60000,counter,café,7,,".to_owned(),
        "60000,counter,ctl\u{1}x,5,,".to_owned(),
        "60000,counter,new\nline,3,,".to_owned(),
        "60000,counter,quote\"d,1,,".to_owned(),
        "60000,counter,tab\tbed,4,,".to_owned(),
        "60000,counter,with space,6,,".to_owned(),
    ];
    lines.map(|line| line + "\n").concat()
}

/// A cloneable byte sink for inspecting what a stream wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_bytes_are_pinned() {
    let mut registry = Registry::new();
    record(&mut registry);
    let mut out = Vec::new();
    registry.write_jsonl(&mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), expected_jsonl());
}

#[test]
fn csv_bytes_are_pinned() {
    let mut registry = Registry::new();
    record(&mut registry);
    let mut out = Vec::new();
    registry.write_csv(&mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), expected_csv());
}

#[test]
fn streamed_bytes_are_pinned() {
    let sink = SharedBuf::default();
    let mut registry = Registry::new();
    registry.stream_to(Box::new(sink.clone()));
    record(&mut registry);
    registry.finish_stream().unwrap();
    let streamed = sink.0.lock().unwrap().clone();
    assert_eq!(String::from_utf8(streamed).unwrap(), expected_jsonl());
}
