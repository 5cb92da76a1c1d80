//! `trial_plain` and `trial_metered`: `bzctl trial --quiet` through
//! bz-cli's public `commands::run` on one thread, without and with
//! `--metrics-out`. Only that flag differs between the two, so the pair
//! isolates the telemetry tax.
//!
//! The traced run times `commands::run` trials against the same trial
//! made through the library's public functions, for the CLI's own
//! share, then replays the trial through the library with a span around
//! each call. Odd minutes step second by second under spans
//! (with a shadow plant and a batched RH pass beside each second); even
//! minutes run as one untraced `run_seconds(60)`, which gives the
//! tracing overhead from the same trial.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use bz_bench::sweep::{self, RunSpec, Scenario};
use bz_core::system::BubbleZeroSystem;
use bz_simcore::{SimDuration, SimTime, TraceRecorder};
use bz_thermal::plant::ThermalPlant;
use bz_thermal::zone::SubspaceId;

use crate::report::Outcome;
use crate::stats::{mean, median, percentile};
use crate::trace::{durations_us, Tracer};
use crate::{host, Checks};

/// Simulated minutes per trial: 8 h of the afternoon trial, long enough
/// for the telemetry buffers to grow well past their first pages.
pub const MINUTES: u64 = 240;

/// System builds timed before each trial for `setup_s`. Spreading the
/// builds over the run, as the trials are, keeps their median from
/// hanging on one moment of the host's load.
const BUILDS_PER_TRIAL: usize = 5;

/// Trials measured at least once per run, however short `--seconds` is.
const MIN_TRIALS: usize = 3;

/// Interleaved pairs of a `commands::run` trial and the same trial made
/// through the library, for `cli.trial_s` and `cli.unattributed_s`.
const CLI_PAIRS: usize = 7;

/// The paper trial's end state: T1 about 25 °C, dew1 about 18 °C,
/// delivery at least 95 %.
const T1_BAND: (f64, f64) = (24.0, 26.0);
const DEW1_BAND: (f64, f64) = (17.0, 19.0);
const MIN_DELIVERY_PCT: f64 = 95.0;

fn cli_args(seed: u64, export: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "--minutes".to_owned(),
        MINUTES.to_string(),
        "--seed".to_owned(),
        seed.to_string(),
        "--quiet".to_owned(),
    ]
    .into();
    if let Some(path) = export {
        args.push("--metrics-out".to_owned());
        args.push(path.display().to_string());
    }
    args
}

/// Builds the trial system exactly as `bzctl trial` does.
fn build(seed: u64) -> BubbleZeroSystem {
    let spec = RunSpec {
        index: 0,
        scenario: Scenario::Trial,
        seed,
        minutes: MINUTES,
        params: Vec::new(),
    };
    sweep::build_system(&spec, bz_obs::Handle::global()).expect("the trial recipe has no params")
}

/// Records the zone trajectories `bzctl trial` keeps each minute.
fn record_zones(trace: &mut TraceRecorder, system: &BubbleZeroSystem) {
    let (now, plant) = (system.now(), system.plant());
    for id in SubspaceId::ALL {
        trace.record(
            &format!("{}.temperature", id.label()),
            now,
            plant.zone_temperature(id).get(),
        );
        trace.record(
            &format!("{}.dew_point", id.label()),
            now,
            plant.zone_dew_point(id).get(),
        );
    }
}

/// The `final:` line `bzctl trial` prints for `system`.
fn final_line_of(system: &BubbleZeroSystem) -> String {
    let plant = system.plant();
    format!(
        "final: T1 {:.2} °C, dew1 {:.2} °C, condensate {:.6} kg, delivery {:.1}%",
        plant.zone_temperature(SubspaceId::S1).get(),
        plant.zone_dew_point(SubspaceId::S1).get(),
        plant.panel_condensate_total(),
        100.0 * system.network().stats().delivery_ratio(),
    )
}

/// The `final:` line of a trial summary.
fn final_line(summary: &str) -> Option<&str> {
    summary.lines().find(|l| l.starts_with("final: "))
}

/// Checks the final T1, dew1 and delivery against the paper trial.
fn check_band(summary: &str, checks: &mut Checks) {
    let Some(line) = final_line(summary) else {
        checks.fail("trial summary has no final line");
        return;
    };
    let number_after = |key: &str| -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    let in_band = |v: Option<f64>, (lo, hi): (f64, f64)| v.is_some_and(|v| (lo..=hi).contains(&v));
    checks.expect(in_band(number_after("T1 "), T1_BAND), || {
        format!("T1 outside {T1_BAND:?}: {line}")
    });
    checks.expect(in_band(number_after("dew1 "), DEW1_BAND), || {
        format!("dew1 outside {DEW1_BAND:?}: {line}")
    });
    checks.expect(
        number_after("delivery ").is_some_and(|d| d >= MIN_DELIVERY_PCT),
        || format!("delivery below {MIN_DELIVERY_PCT}%: {line}"),
    );
}

/// Where a metered summary's lines about metrics begin (their table
/// holds wall-clock figures, so they differ between runs).
const METRICS_LINES: &str = "\nmetrics written to ";

/// The trial summary without the lines about metrics.
fn trial_summary(out: &str) -> &str {
    out.find(METRICS_LINES).map_or(out, |at| &out[..at])
}

/// A metered summary must be the plain summary followed by the lines
/// about metrics.
fn check_same_summary(plain: &str, metered: &str, checks: &mut Checks) {
    let same = metered.len() > plain.len() && trial_summary(metered) == plain;
    checks.expect(same, || {
        format!("metered summary differs from the plain one:\n{plain}\n---\n{metered}")
    });
}

fn run_cli(seed: u64, export: Option<&Path>) -> Result<String, String> {
    bz_cli::commands::run("trial", cli_args(seed, export)).map_err(|e| e.to_string())
}

fn file_crc(path: &Path) -> u64 {
    fs::read(path).map_or(0, |bytes| bz_state::crc64::checksum(&bytes))
}

/// The untraced run: time back-to-back trials for `seconds`.
pub fn run(metered: bool, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let export_path = out_dir.join("trial.jsonl");
    let export = metered.then_some(export_path.as_path());
    let mut checks = Checks::default();

    // One warm-up trial fixes the reference output every measured trial
    // of the same seed must reproduce byte for byte.
    let reference = run_cli(seed, export).unwrap_or_else(|e| {
        checks.fail(format!("warm-up trial failed: {e}"));
        String::new()
    });
    check_band(&reference, &mut checks);
    let reference_crc = export.map(file_crc);
    let export_bytes = export.map_or(0, |p| fs::metadata(p).map_or(0, |m| m.len()));

    let (mut setup, mut walls) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let started = Instant::now();
    while walls.len() < MIN_TRIALS || started.elapsed().as_secs_f64() < seconds {
        for _ in 0..BUILDS_PER_TRIAL {
            let begin = Instant::now();
            let system = black_box(build(seed));
            setup.push(begin.elapsed().as_secs_f64());
            drop(system);
        }
        let begin = Instant::now();
        let result = run_cli(seed, export);
        walls.push(begin.elapsed().as_secs_f64());
        match result {
            Ok(out) => {
                checks.expect(trial_summary(&out) == trial_summary(&reference), || {
                    "trial summary changed between runs".into()
                });
                if let Some(expected) = reference_crc {
                    checks.expect(file_crc(&export_path) == expected, || {
                        "metrics export changed between runs".into()
                    });
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("trial failed: {e}");
            }
        }
    }
    let peak_rss_mb = host::peak_rss_mb();

    if metered {
        match run_cli(seed, None) {
            Ok(plain) => check_same_summary(&plain, &reference, &mut checks),
            Err(e) => checks.fail(format!("plain trial failed: {e}")),
        }
        let _ = fs::remove_file(&export_path);
    }

    let trials = walls.len() as u64;
    let sim_days = MINUTES as f64 / 1440.0;
    let mut outcome = checks.into_outcome(trials, failed);
    outcome.put("setup_s", median(&setup), "s");
    outcome.put(
        "sim_s_per_wall_s",
        (MINUTES * 60) as f64 / median(&walls),
        "s/s",
    );
    outcome.put("peak_rss_mb", peak_rss_mb, "MB");
    outcome.put(
        "export_bytes_per_sim_day",
        (reference.len() as u64 + export_bytes) as f64 / sim_days,
        "B/day",
    );
    outcome.put(
        "req_per_s",
        trials as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    outcome.put("step_p50_ms", 1e3 * median(&walls), "ms");
    outcome.put("step_p90_ms", 1e3 * percentile(&walls, 90.0), "ms");
    outcome
}

/// A writer that counts the `write` calls it forwards.
struct CountingWriter<W> {
    inner: W,
    calls: u64,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What one traced replay measured.
struct Replay {
    final_line: String,
    step_p50_us: f64,
    export_crc: u64,
}

/// The trial `bzctl trial` makes, through the library calls it makes,
/// without spans: everything `commands::run` does but parse its
/// arguments and format its summary. Returns the final line.
fn library_trial(metered: bool, seed: u64, export: &Path) -> io::Result<String> {
    if metered {
        bz_obs::enable();
        bz_obs::reset();
    }
    let mut system = build(seed);
    let mut trace = TraceRecorder::new();
    for _ in 0..MINUTES {
        system.run_seconds(60);
        bz_obs::record_counters(system.now().as_millis());
        record_zones(&mut trace, &system);
    }
    black_box(&trace);
    let final_line = final_line_of(&system);
    if metered {
        bz_obs::disable();
        bz_obs::write_jsonl(File::create(export)?)?;
    }
    Ok(final_line)
}

/// Replays the trial through the library under spans, recording the
/// per-layer metrics of the tick loop into `outcome`.
fn replay(
    metered: bool,
    seed: u64,
    tracer: &mut Tracer,
    export: &Path,
    outcome: Option<&mut Outcome>,
    checks: &mut Checks,
) -> Replay {
    if metered {
        bz_obs::enable();
        bz_obs::reset();
    }
    let first_span = tracer.spans().len();
    let root = tracer.begin("bench", "bench.trial_replay");
    let mut system = tracer.leaf("core", "core.build", || build(seed));
    let mut shadow =
        ThermalPlant::new(system.config().plant.clone()).with_obs(bz_obs::Handle::new());
    let period = system.config().control_period;
    let mut next_control = SimTime::ZERO;
    let mut trace = TraceRecorder::new();
    let (mut control_us, mut idle_us, mut pending) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_minute_s, mut untraced_minute_s) = (Vec::new(), Vec::new());
    let mut rh = [0.0; 4];

    for minute in 1..=MINUTES {
        let start = system.now();
        // Mirrors the system's control-cycle rule: a second runs the
        // control tick when its end reaches the next control time.
        let mut control_at = |second: u64| {
            let now = start + SimDuration::from_secs(second);
            let control = now >= next_control;
            if control {
                next_control = now + period;
            }
            control
        };
        if minute % 2 == 0 {
            let span = tracer.begin("core", "core.run_seconds");
            system.run_seconds(60);
            tracer.end(span);
            untraced_minute_s.push(tracer.spans()[span].duration_ns() as f64 / 1e9);
            (1..=60).for_each(|second| {
                control_at(second);
            });
        } else {
            let minute_span = tracer.begin("bench", "bench.traced_minute");
            let mut probe_ns = 0;
            for second in 1..=60 {
                let control = control_at(second);
                let span = tracer.begin("core", "core.step_second");
                system.step_second();
                tracer.end(span);
                let us = tracer.spans()[span].duration_ns() as f64 / 1e3;
                if control {
                    &mut control_us
                } else {
                    &mut idle_us
                }
                .push(us);
                pending.push(system.pending_events() as f64);

                let shadow_span = tracer.begin("thermal", "thermal.plant_step");
                shadow.step(SimDuration::from_secs(1), system.commands());
                tracer.end(shadow_span);
                let plant = system.plant();
                let states = SubspaceId::ALL.map(|id| plant.zone_state(id));
                let temps = states.map(|s| s.temperature.get());
                let ratios = states.map(|s| s.humidity_ratio.get());
                let rh_span = tracer.begin("psychro", "psychro.rh_batch");
                bz_psychro::batch::relative_humidity_batch(&temps, &ratios, &mut rh);
                tracer.end(rh_span);
                black_box(&rh);
                let spans = tracer.spans();
                probe_ns += spans[rh_span].end_ns - spans[shadow_span].start_ns;
            }
            tracer.end(minute_span);
            let minute_ns = tracer.spans()[minute_span].duration_ns();
            traced_minute_s.push(minute_ns.saturating_sub(probe_ns) as f64 / 1e9);
        }
        // As in `bzctl trial`: a no-op while telemetry is off.
        let now = system.now();
        tracer.leaf("obs", "obs.record_counters", || {
            bz_obs::record_counters(now.as_millis());
        });
        tracer.leaf("simcore", "simcore.trace_record", || {
            record_zones(&mut trace, &system);
        });
    }
    let final_line = final_line_of(&system);

    bz_obs::disable();
    let events = bz_obs::Handle::global().events_len();
    let mut export_crc = 0;
    let (mut export_bytes, mut export_s, mut write_calls) = (0, 0.0, 0);
    if metered {
        let span = tracer.begin("obs", "obs.export");
        let written = File::create(export).and_then(|file| {
            let mut counter = CountingWriter {
                inner: file,
                calls: 0,
                bytes: 0,
            };
            bz_obs::write_jsonl(&mut counter)?;
            Ok((counter.calls, counter.bytes))
        });
        tracer.end(span);
        match written {
            Ok((calls, bytes)) => (write_calls, export_bytes) = (calls, bytes),
            Err(e) => checks.fail(format!("replay export failed: {e}")),
        }
        export_s = tracer.spans()[span].duration_ns() as f64 / 1e9;
        export_crc = file_crc(export);
    }

    let save = tracer.begin("state", "state.save");
    let mut writer = bz_state::Writer::new();
    system.save_state(&mut writer);
    let wire = bz_state::Checkpoint {
        meta: bz_state::CheckpointMeta {
            kind: "trial".to_owned(),
            tick_ms: system.now().as_millis(),
            config_crc: 0,
            label: format!("trial seed={seed} minutes={MINUTES}"),
        },
        payload: writer.into_bytes(),
    }
    .to_wire_bytes();
    tracer.end(save);
    let mut restored = build(seed);
    let load = tracer.begin("state", "state.load");
    let loaded = bz_state::Checkpoint::from_wire_bytes(&wire)
        .map_err(|e| e.to_string())
        .and_then(|ck| {
            restored
                .load_state(&mut bz_state::Reader::new(&ck.payload))
                .map_err(|e| e.to_string())
        });
    tracer.end(load);
    checks.expect(loaded.is_ok() && restored.now() == system.now(), || {
        format!("trial state did not round-trip: {loaded:?}")
    });
    tracer.end(root);

    let spans = &tracer.spans()[first_span..];
    let step_us: Vec<f64> = control_us.iter().chain(&idle_us).copied().collect();
    let step_p50_us = median(&step_us);
    if let Some(outcome) = outcome {
        let span_ms = |name| durations_us(spans, name).iter().sum::<f64>() / 1e3;
        outcome.put("core.step_second_us.p50", step_p50_us, "us");
        outcome.put("core.step_second_us.p99", percentile(&step_us, 99.0), "us");
        outcome.put("core.control_second_us.p50", median(&control_us), "us");
        outcome.put("core.idle_second_us.p50", median(&idle_us), "us");
        outcome.put(
            "core.supervisor.detections",
            system.supervisor().detections().len() as f64,
            "count",
        );
        outcome.put(
            "thermal.plant_step_us.p50",
            median(&durations_us(spans, "thermal.plant_step")),
            "us",
        );
        outcome.put(
            "psychro.rh_batch_ns.p50",
            1e3 * median(&durations_us(spans, "psychro.rh_batch")),
            "ns",
        );
        outcome.put("simcore.pending_events.mean", mean(&pending), "count");
        let net = system.network().stats();
        outcome.put("wsn.offered", net.offered as f64, "count");
        outcome.put("wsn.delivered", net.delivered as f64, "count");
        outcome.put("wsn.collided", net.collided as f64, "count");
        outcome.put("wsn.busy_drops", net.busy_drops as f64, "count");
        outcome.put("wsn.backoffs", net.backoffs as f64, "count");
        outcome.put("wsn.delivery_ratio", net.delivery_ratio(), "ratio");
        outcome.put("obs.events", events as f64, "count");
        outcome.put("obs.export_bytes", export_bytes as f64, "B");
        outcome.put("obs.export_s", export_s, "s");
        outcome.put("obs.export.write_calls", write_calls as f64, "count");
        outcome.put("state.save_ms", span_ms("state.save"), "ms");
        outcome.put("state.save_bytes", wire.len() as f64, "B");
        outcome.put("state.load_ms", span_ms("state.load"), "ms");
        outcome.put(
            "trace.overhead_pct",
            100.0 * (median(&traced_minute_s) / median(&untraced_minute_s) - 1.0),
            "%",
        );
    }
    Replay {
        final_line,
        step_p50_us,
        export_crc,
    }
}

/// The traced run: `CLI_PAIRS` interleaved pairs of a `commands::run`
/// trial and the same trial made through the library, then the library
/// replay under spans (preceded, when metered, by a plain replay that
/// gives the recording overhead its baseline).
pub fn traced(metered: bool, seed: u64, out_dir: &Path, tracer: &mut Tracer) -> Outcome {
    let cli_export = out_dir.join("trial.jsonl");
    let replay_export = out_dir.join("replay.jsonl");
    let export = metered.then_some(cli_export.as_path());
    let mut checks = Checks::default();

    // The CLI's own share is a difference of two trials of the same
    // work. Pairing them, with the order alternating, lets both see the
    // same host load; the median over pairs drops the odd slow trial.
    let (mut summary, mut cli_crc) = (None, None);
    let (mut trial_s, mut unattributed_s) = (Vec::new(), Vec::new());
    for pair in 0..CLI_PAIRS {
        let (mut cli_s, mut library_s) = (0.0, 0.0);
        for cli_turn in [pair % 2 == 0, pair % 2 == 1] {
            if cli_turn {
                let cli = tracer.begin("cli", "cli.trial");
                let result = run_cli(seed, export);
                tracer.end(cli);
                cli_s = tracer.spans()[cli].duration_ns() as f64 / 1e9;
                match (result, &summary) {
                    (Ok(out), None) => summary = Some(out),
                    (Ok(out), Some(first)) => checks
                        .expect(trial_summary(&out) == trial_summary(first), || {
                            "trial summary changed between runs".into()
                        }),
                    (Err(e), _) => checks.fail(format!("trial failed: {e}")),
                }
                let crc = export.map(file_crc);
                checks.expect(cli_crc.is_none() || crc == cli_crc, || {
                    "metrics export changed between runs".into()
                });
                cli_crc = crc;
            } else {
                let begin = Instant::now();
                let result = library_trial(metered, seed, &replay_export);
                library_s = begin.elapsed().as_secs_f64();
                match result {
                    Ok(line) => checks.expect(
                        summary
                            .as_deref()
                            .and_then(final_line)
                            .is_none_or(|f| f == line),
                        || format!("library trial ended elsewhere than the CLI trial: {line}"),
                    ),
                    Err(e) => checks.fail(format!("library trial failed: {e}")),
                }
                if let Some(crc) = cli_crc.filter(|_| metered) {
                    checks.expect(file_crc(&replay_export) == crc, || {
                        "library trial export differs from the CLI export".into()
                    });
                }
            }
        }
        trial_s.push(cli_s);
        unattributed_s.push(cli_s - library_s);
    }
    let summary = summary.unwrap_or_default();
    check_band(&summary, &mut checks);

    let plain_p50_us =
        metered.then(|| replay(false, seed, tracer, &replay_export, None, &mut checks).step_p50_us);
    let mut outcome = Outcome::default();
    let replayed = replay(
        metered,
        seed,
        tracer,
        &replay_export,
        Some(&mut outcome),
        &mut checks,
    );
    checks.expect(
        Some(replayed.final_line.as_str()) == final_line(&summary),
        || {
            format!(
                "library replay ended elsewhere than the CLI trial: {} vs {:?}",
                replayed.final_line,
                final_line(&summary)
            )
        },
    );
    if let Some(crc) = cli_crc {
        checks.expect(replayed.export_crc == crc, || {
            "library replay export differs from the CLI export".into()
        });
    }
    let _ = fs::remove_file(&cli_export);
    let _ = fs::remove_file(&replay_export);

    outcome.put("cli.trial_s", median(&trial_s), "s");
    outcome.put("cli.unattributed_s", median(&unattributed_s), "s");
    outcome.put(
        "obs.record_overhead_us.p50",
        plain_p50_us.map_or(0.0, |plain| replayed.step_p50_us - plain),
        "us",
    );
    let replays = 1 + u64::from(metered);
    let checked = checks.into_outcome(2 * CLI_PAIRS as u64 + replays, 0);
    Outcome {
        metrics: outcome.metrics,
        ..checked
    }
}
