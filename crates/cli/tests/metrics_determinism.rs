//! The telemetry export must be a pure function of the seed: two
//! identically-seeded `bzctl trial --metrics-out` runs write
//! byte-identical files, and the export contains no wall-clock fields.
//! Each command records into a handle of its own, so this holds for runs
//! made concurrently in one process too.

use std::fs;
use std::path::Path;

use bz_cli::commands::run;

fn run_trial_with_metrics(path: &Path) -> String {
    run(
        "trial",
        vec![
            "--minutes".into(),
            "5".into(),
            "--quiet".into(),
            "--metrics-out".into(),
            path.display().to_string(),
        ],
    )
    .expect("trial runs")
}

#[test]
fn seeded_trial_emits_byte_identical_metrics() {
    let dir = std::env::temp_dir();
    let first = dir.join(format!("bz_metrics_{}_a.jsonl", std::process::id()));
    let second = dir.join(format!("bz_metrics_{}_b.jsonl", std::process::id()));

    let out_a = run_trial_with_metrics(&first);
    let out_b = run_trial_with_metrics(&second);
    assert!(out_a.contains("metrics written to"), "{out_a}");
    assert!(out_b.contains("spans (per-stage timing)"), "{out_b}");

    let bytes_a = fs::read(&first).expect("first export readable");
    let bytes_b = fs::read(&second).expect("second export readable");
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "same seed must export identical metrics");

    let text = String::from_utf8(bytes_a).expect("export is UTF-8");
    for required in [
        "\"kind\":\"span\",\"name\":\"core.control_tick\"",
        "\"name\":\"wsn.packets.sent\"",
        "\"name\":\"wsn.packets.delivered\"",
        "\"name\":\"thermal.chiller.radiant_w\"",
        "\"name\":\"simcore.event_queue.depth\"",
        "\"kind\":\"meta\"",
    ] {
        assert!(text.contains(required), "export lacks {required}");
    }
    // Wall-clock durations are nondeterministic and must stay out of the
    // machine export (they live only in the summary table).
    assert!(!text.contains("wall"), "export leaked wall-clock fields");

    let _ = fs::remove_file(&first);
    let _ = fs::remove_file(&second);
}

#[test]
fn concurrent_trials_export_the_serial_bytes() {
    let dir = std::env::temp_dir();
    let path = |name: &str| dir.join(format!("bz_metrics_{}_{name}.jsonl", std::process::id()));
    let serial = path("serial");
    run_trial_with_metrics(&serial);
    let expected = fs::read(&serial).expect("serial export readable");

    let parallel = [path("thread_a"), path("thread_b")];
    std::thread::scope(|scope| {
        for file in &parallel {
            scope.spawn(move || run_trial_with_metrics(file));
        }
    });
    for file in &parallel {
        let bytes = fs::read(file).expect("concurrent export readable");
        assert!(
            bytes == expected,
            "{} differs from the serial export",
            file.display()
        );
    }

    let _ = fs::remove_file(&serial);
    for file in &parallel {
        let _ = fs::remove_file(file);
    }
}
