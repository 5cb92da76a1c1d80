//! Simulation-throughput benchmark: sim-seconds per wall-second.
//!
//! ROADMAP item 3 targets ≥10k× real time per core; this module is the
//! measuring stick. It runs the `trial` scenario as
//! `sweep::build_system` builds it (the program `bzctl trial` runs) with
//! telemetry disabled — the configuration campus-scale batch studies
//! would run in — times it against the wall clock, and renders the
//! result as a `BENCH_*.json` record so CI can hold a regression floor.
//! Claims of a speedup come from perfbench's interleaved pairs, not
//! from this single timed pass.
//!
//! The measured simulation is bit-identical to the metered one: the
//! speed knobs this crate benchmarks (batched psychrometric kernels,
//! buffer reuse, batched event pops) never change what the simulation
//! computes, only how fast it computes it.

use std::path::Path;
use std::time::Instant;

use bz_core::system::BubbleZeroSystem;
use bz_state::{Checkpointer, Identity};

use crate::sweep::{build_system, RunSpec, Scenario};

/// Default simulated minutes for one measured pass. Long enough that a
/// release build takes several hundred milliseconds of wall time, so
/// timer noise and CPU frequency ramp-up stay small against the run.
pub const DEFAULT_SIM_MINUTES: u64 = 1_920;

/// Default seed; matches the `bzctl trial` default so the measured run
/// is the bundled trial scenario.
pub const DEFAULT_SEED: u64 = 0x5EED_0001;

/// One measured throughput result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Seed the scenario ran with.
    pub seed: u64,
    /// Simulated seconds advanced during the measured pass.
    pub sim_seconds: u64,
    /// Wall-clock seconds the measured pass took.
    pub wall_seconds: f64,
    /// The headline number: simulated seconds per wall second.
    pub sim_per_wall: f64,
}

impl ThroughputReport {
    /// Renders the report as the `BENCH_0007.json` record. `baseline`
    /// is the pre-optimization sim-per-wall measured with this same
    /// harness, when known; the speedup field is derived from it.
    #[must_use]
    pub fn to_json(&self, baseline: Option<f64>) -> String {
        let mut json = format!(
            "{{\n  \"bench\": \"throughput\",\n  \"scenario\": \"trial\",\n  \
             \"seed\": {},\n  \"sim_seconds\": {},\n  \"wall_seconds\": {:.6},\n  \
             \"sim_per_wall\": {:.1}",
            self.seed, self.sim_seconds, self.wall_seconds, self.sim_per_wall,
        );
        if let Some(baseline) = baseline {
            json += &format!(
                ",\n  \"baseline_sim_per_wall\": {:.1},\n  \"speedup_vs_baseline\": {:.2}",
                baseline,
                self.sim_per_wall / baseline,
            );
        }
        json += "\n}\n";
        json
    }

    /// The one-line summary the CLI prints and CI greps.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "throughput: {} sim-seconds in {:.3} wall-seconds = {:.0} sim-s/wall-s",
            self.sim_seconds, self.wall_seconds, self.sim_per_wall,
        )
    }
}

/// Runs the `trial` scenario for `sim_minutes` simulated minutes and
/// reports sim-seconds per wall-second, with telemetry off.
#[must_use]
pub fn measure_trial(sim_minutes: u64, seed: u64) -> ThroughputReport {
    warm_then_time(sim_minutes, seed, |system, sim_seconds| {
        system.run_seconds(sim_seconds);
        Ok(())
    })
    .expect("a plain pass has nothing that can fail")
}

/// Like [`measure_trial`], but with crash-safe checkpointing in the
/// timed loop: every `every_s` simulated seconds the full system state
/// is snapshotted and written atomically into `dir`, exactly as `bzctl
/// trial --checkpoint-every` does. Comparing this against the plain
/// measurement puts a number on the checkpointing tax.
///
/// # Errors
///
/// Returns a message when a checkpoint cannot be written.
pub fn measure_trial_with_checkpoints(
    sim_minutes: u64,
    seed: u64,
    every_s: u64,
    dir: &Path,
) -> Result<ThroughputReport, String> {
    let every_s = every_s.max(1);
    let mut checkpointer = Checkpointer::new(
        dir,
        Identity::new("bench", format!("bench seed={seed}")),
        Some(every_s * 1_000),
        None,
        false,
    )?;
    warm_then_time(sim_minutes, seed, |system, sim_seconds| {
        let mut done = 0;
        while done < sim_seconds {
            let step = every_s.min(sim_seconds - done);
            system.run_seconds(step);
            done += step;
            checkpointer.after_step(system.now().as_millis(), |w| system.save_state(w))?;
        }
        Ok(())
    })
}

/// Times `pass` driving a fresh trial system through `sim_minutes`
/// simulated minutes. An untimed warmup of the same length (on a
/// throwaway system) pages code and allocator state in and lets the CPU
/// reach its sustained frequency before the clock starts — without it,
/// short passes mostly time the frequency governor, not the simulator.
///
/// Both systems are the one `sweep::build_system` returns for the
/// `trial` scenario, the recipe `bzctl trial`, the sweep, serve and
/// perfbench share, so the floor measures the program they run.
fn warm_then_time(
    sim_minutes: u64,
    seed: u64,
    pass: impl FnOnce(&mut BubbleZeroSystem, u64) -> Result<(), String>,
) -> Result<ThroughputReport, String> {
    let spec = RunSpec {
        index: 0,
        scenario: Scenario::Trial,
        seed,
        minutes: sim_minutes,
        params: Vec::new(),
    };
    let build = || build_system(&spec, bz_obs::Handle::default());
    let mut warmup = build()?;
    warmup.run_seconds((sim_minutes * 60).max(120));
    std::hint::black_box(warmup.now());

    let mut system = build()?;
    let sim_seconds = sim_minutes * 60;
    let start = Instant::now();
    pass(&mut system, sim_seconds)?;
    let wall_seconds = start.elapsed().as_secs_f64().max(1e-9);
    // Keep the run observable so the optimizer cannot discard it.
    std::hint::black_box(system.now());
    Ok(ThroughputReport {
        seed,
        sim_seconds,
        wall_seconds,
        sim_per_wall: sim_seconds as f64 / wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_short_run() {
        let report = measure_trial(1, DEFAULT_SEED);
        assert_eq!(report.sim_seconds, 60);
        assert!(report.wall_seconds > 0.0);
        assert!(report.sim_per_wall > 0.0);
    }

    #[test]
    fn json_carries_the_headline_fields() {
        let report = ThroughputReport {
            seed: 7,
            sim_seconds: 600,
            wall_seconds: 0.05,
            sim_per_wall: 12_000.0,
        };
        let json = report.to_json(None);
        assert!(json.contains("\"bench\": \"throughput\""));
        assert!(json.contains("\"sim_per_wall\": 12000.0"));
        assert!(!json.contains("baseline"));
        let with_base = report.to_json(Some(4_000.0));
        assert!(with_base.contains("\"baseline_sim_per_wall\": 4000.0"));
        assert!(with_base.contains("\"speedup_vs_baseline\": 3.00"));
    }

    #[test]
    fn checkpointed_measurement_leaves_a_restorable_file_behind() {
        let dir = std::env::temp_dir().join("bz-bench-ckpt-measure");
        std::fs::remove_dir_all(&dir).ok();
        let report = measure_trial_with_checkpoints(2, DEFAULT_SEED, 60, &dir).unwrap();
        assert_eq!(report.sim_seconds, 120);
        let scan = bz_state::CheckpointDir::open(&dir).latest_good().unwrap();
        let (_, checkpoint) = scan.best.expect("a checkpoint was written");
        assert_eq!(checkpoint.meta.kind, "bench");
        assert_eq!(checkpoint.meta.tick_ms, 120_000);
        let spec = RunSpec {
            index: 0,
            scenario: Scenario::Trial,
            seed: DEFAULT_SEED,
            minutes: 2,
            params: Vec::new(),
        };
        let mut restored = build_system(&spec, bz_obs::Handle::default()).unwrap();
        restored
            .load_state(&mut bz_state::Reader::new(&checkpoint.payload))
            .unwrap();
        assert_eq!(restored.now().as_millis(), 120_000);
    }

    #[test]
    fn summary_line_is_greppable() {
        let report = ThroughputReport {
            seed: 7,
            sim_seconds: 600,
            wall_seconds: 0.05,
            sim_per_wall: 12_000.0,
        };
        assert!(report
            .summary_line()
            .starts_with("throughput: 600 sim-seconds"));
    }
}
