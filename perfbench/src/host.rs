//! The host and run record printed with every result, and the process
//! memory readings.
//!
//! Host facts come from the kernel's `/proc` and `/sys` interfaces; the
//! commit comes from `.git` when the run starts in a git checkout, and a
//! CRC of the sources identifies the program either way.

use std::fs;
use std::path::Path;

use bz_serve::http::json_escape;
use bz_simcore::NoiseKernel;
use bz_thermal::plant::scalar_reference_default;

/// Environment variables that silently change which program is measured.
const PROGRAM_SWITCHES: [&str; 2] = ["BZ_NOISE", "BZ_SCALAR_REFERENCE"];

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path).map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Worker threads the host offers.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in the current directory, if it is a git
/// work tree.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return hash.trim().to_owned();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// CRC-64 over the path and contents of every file under `crates/`
/// plus the root manifest and lock file, in path order: the identity of
/// the measured program where no commit is available.
fn source_crc() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut digest = Vec::new();
    for path in files {
        let contents = fs::read(&path).unwrap_or_default();
        digest.extend_from_slice(path.to_string_lossy().as_bytes());
        digest.extend_from_slice(&bz_state::crc64::checksum(&contents).to_le_bytes());
    }
    bz_state::crc64::checksum(&digest)
}

/// `{"host":{…},"run":{…}}` for this process.
#[must_use]
pub fn record(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let switches: Vec<String> = PROGRAM_SWITCHES
        .iter()
        .filter_map(|name| {
            std::env::var_os(name)
                .map(|v| format!("\"{name}={}\"", json_escape(&v.to_string_lossy())))
        })
        .collect();
    let noise = NoiseKernel::from_env();
    format!(
        "{{\"host\":{{\"nproc\":{},\"cpu_model\":\"{}\",\"clocksource\":\"{}\",\"kernel\":\"{}\"}},\
         \"run\":{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"noise_kernel\":\"{}\",\"commit\":\"{}\",\"source_crc\":\"{:016x}\",\
         \"non_default_program\":{},\"program_switches\":[{}]}}}}",
        nproc(),
        json_escape(&cpu_model()),
        json_escape(&read_trimmed(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource"
        )),
        json_escape(&read_trimmed("/proc/sys/kernel/osrelease")),
        json_escape(workload),
        noise,
        json_escape(&commit()),
        source_crc(),
        noise != NoiseKernel::default() || scalar_reference_default(),
        switches.join(","),
    )
}

fn status_kib(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix(field)
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set of this process, MiB.
#[must_use]
pub fn rss_mb() -> f64 {
    status_kib("VmRSS:") / 1024.0
}
