//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Each `fig1x` binary reruns the corresponding experiment of the paper's
//! §V evaluation, prints the paper's rows/series to stdout, and writes the
//! full series as CSV under [`output_dir`] for plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod sweep;
pub mod throughput;

use std::fs;
use std::path::PathBuf;

/// Directory figure CSVs are written to: `$BZ_FIG_OUT` or
/// `target/figures`. Created on first use.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn output_dir() -> PathBuf {
    let dir = std::env::var_os("BZ_FIG_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures"));
    fs::create_dir_all(&dir).expect("create figure output directory");
    dir
}

/// Prints a section header in a consistent style.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints one `label: value` row, aligned.
pub fn row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<46} {value}");
}

/// Prints a paper-vs-measured comparison row.
pub fn compare(label: &str, paper: impl std::fmt::Display, measured: impl std::fmt::Display) {
    println!("  {label:<38} paper: {paper:<12} measured: {measured}");
}

/// Runs a fig/ablation harness body under the standard profiling hook.
/// `body` gets the telemetry handle to build its runs with. It is enabled
/// only when `$BZ_METRICS_OUT` is set; the collected metrics are then
/// written there (JSONL, or CSV when the path ends in `.csv`) and the
/// summary table is printed. Every `bz-bench` binary `main` is one call
/// to this.
///
/// # Panics
///
/// Panics if the export file cannot be written.
pub fn harness(body: impl FnOnce(&bz_obs::Handle)) {
    let sink = std::env::var_os("BZ_METRICS_OUT").map(PathBuf::from);
    let obs = bz_obs::Handle::new();
    if sink.is_some() {
        obs.enable();
    }
    body(&obs);
    let Some(path) = sink else { return };
    obs.disable();
    let file = fs::File::create(&path).expect("create metrics output file");
    if path.extension().is_some_and(|e| e == "csv") {
        obs.write_csv(file).expect("write metrics CSV");
    } else {
        obs.write_jsonl(file).expect("write metrics JSONL");
    }
    header("profiling metrics");
    println!("{}", obs.summary_table());
    println!("  metrics written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dir_is_created() {
        let dir = output_dir();
        assert!(dir.is_dir());
    }
}
