//! The repository benchmark: three workloads, one command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload trial_plain|trial_metered|serve_fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a
//! traced run (`--trace 1`) prints every per-layer metric. The last line
//! of standard output is the result object; the line before it records
//! the host and the run. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod fleet;
mod host;
mod metrics;
mod report;
mod stats;
mod trace;
mod trial;

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;

/// Where runs leave their files, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

/// Correctness checks of one run; each failure counts into `failed`.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    /// Records a failure.
    pub fn fail(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("check failed: {message}");
        self.failures.push(message);
    }

    /// A result with `attempted` operations of which `failed_ops` failed;
    /// each failed check adds one more failure.
    #[must_use]
    pub fn into_outcome(self, attempted: u64, failed_ops: u64) -> Outcome {
        Outcome {
            correct: self.failures.is_empty() && failed_ops == 0,
            attempted: attempted.max(1),
            failed: failed_ops + self.failures.len() as u64,
            metrics: Default::default(),
        }
    }
}

/// SplitMix64 of `seed` and `stream`, cut to 52 bits so it survives a
/// JSON number exactly: the only way a workload's inputs depend on
/// `--seed`.
#[must_use]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 12
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: --workload trial_plain|trial_metered|serve_fleet --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(
        workload.as_str(),
        "trial_plain" | "trial_metered" | "serve_fleet"
    ) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let record = host::record(&args.workload, args.seed, args.seconds, args.trace);
    let epoch = Instant::now();
    let trial_seed = derive_seed(args.seed, 1);
    let metered = args.workload == "trial_metered";
    let seconds = args.seconds as f64;

    let (mut outcome, phases, spans) = match (args.workload.as_str(), args.trace) {
        ("serve_fleet", false) => {
            let (outcome, phases) = fleet::run(args.seed, seconds, out_dir);
            (outcome, phases, None)
        }
        ("serve_fleet", true) => {
            let (outcome, phases, spans) = fleet::traced(args.seed, out_dir, epoch);
            (outcome, phases, Some(spans))
        }
        (_, false) => (
            trial::run(metered, trial_seed, seconds, out_dir),
            "{}".to_owned(),
            None,
        ),
        (_, true) => {
            let mut tracer = trace::Tracer::new(epoch, 0);
            let outcome = trial::traced(metered, trial_seed, out_dir, &mut tracer);
            (outcome, "{}".to_owned(), Some(tracer.into_spans()))
        }
    };
    let error_rate = outcome.failed as f64 / outcome.attempted as f64;
    if let Some(spans) = spans {
        for (layer, seconds) in trace::self_seconds_by_layer(&spans) {
            outcome.put(&format!("{layer}.self_s"), seconds, "s");
        }
        outcome.put("trace.spans", spans.len() as f64, "count");
        outcome.put("error_rate", error_rate, "ratio");
        metrics::zero_absent_layers(&mut outcome);
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let written = fs::File::create(&path)
            .and_then(|f| trace::write_jsonl(&spans, std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    metrics::assert_complete(&outcome, args.trace);
    let details =
        format!("{{\"record\":{record},\"error_rate\":{error_rate},\"phases\":{phases}}}");
    let result = outcome.to_json();
    let path = out_dir.join(format!(
        "result-{}-{}-{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = fs::write(&path, format!("{details}\n{result}\n")) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    for (name, metric) in &outcome.metrics {
        eprintln!("{name:<40} {:>16.6} {}", metric.value, metric.unit);
    }
    if !args.trace {
        eprintln!("{:<40} {error_rate:>16.6} ratio", "error_rate");
    }
    println!("{details}");
    println!("{result}");
    ExitCode::SUCCESS
}
