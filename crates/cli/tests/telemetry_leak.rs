//! A `bzctl` command records into a telemetry handle of its own, so one
//! that is refused or crashes after reading `--metrics-out` leaves
//! nothing behind in the process: the process-global bz-obs registry
//! stays off.
//!
//! This file holds a single test so it runs in a process of its own,
//! where nothing else could have turned that registry on.

use bz_cli::commands::run;

fn argv(flags: &[&str]) -> Vec<String> {
    flags.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
// Reading the global handle is the point of this test.
#[allow(clippy::disallowed_methods)]
fn failed_commands_leave_global_telemetry_off() {
    let global = bz_obs::Handle::global();
    let dir = std::env::temp_dir().join(format!("bz_telemetry_leak_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("x.csv");
    let err = run(
        "endurance",
        argv(&["--stream", "--metrics-out", csv.to_str().unwrap()]),
    )
    .unwrap_err();
    assert!(err.to_string().contains("must not end in .csv"), "{err}");
    assert!(
        !global.is_enabled(),
        "a refused endurance --stream left process telemetry on"
    );

    let err = run(
        "trial",
        argv(&[
            "--minutes",
            "2",
            "--quiet",
            "--metrics-out",
            dir.join("t.jsonl").to_str().unwrap(),
            "--checkpoint-dir",
            dir.join("ckpt").to_str().unwrap(),
            "--checkpoint-every",
            "60",
            "--crash-at",
            "60",
        ]),
    )
    .unwrap_err();
    assert!(err.to_string().contains("crash injected"), "{err}");
    assert!(
        !global.is_enabled(),
        "a crashed trial left process telemetry on"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
