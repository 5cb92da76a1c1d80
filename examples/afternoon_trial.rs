//! The paper's §V-A afternoon trial, end to end: boot at 13:00 from
//! outdoor conditions, converge, then ride out two scripted door openings
//! (15 s at 14:05, 2 min at 14:25) and report the COP accounting.
//!
//! ```sh
//! cargo run --release --example afternoon_trial
//! ```

use bubblezero::core::metrics::convergence_minutes;
use bubblezero::core::scenario::{AfternoonTrial, TRIAL_START_HOUR};
use bubblezero::simcore::{SimDuration, SimTime};
use bubblezero::thermal::zone::SubspaceId;

fn main() {
    println!("running the 13:00-14:45 trial...");
    let outcome = AfternoonTrial::paper_setup().run(bubblezero::obs::Handle::default());

    println!();
    println!("timeline (subspace 1):");
    for minute in (0..=105).step_by(15) {
        let at = SimTime::from_mins(minute);
        let temp = outcome
            .trace
            .series("Subsp1.temperature")
            .and_then(|s| s.value_at(at))
            .unwrap_or(f64::NAN);
        let dew = outcome
            .trace
            .series("Subsp1.dew_point")
            .and_then(|s| s.value_at(at))
            .unwrap_or(f64::NAN);
        let note = match minute {
            0 => "boot from outdoor conditions",
            60 => "holding the targets",
            75 => "after the 15 s door opening",
            90 => "recovering from the 2 min opening",
            _ => "",
        };
        println!(
            "  {}  T={temp:>6.2} °C  dew={dew:>6.2} °C  {note}",
            at.as_clock_label(TRIAL_START_HOUR)
        );
    }

    println!();
    println!("convergence (into target ± tolerance, 8 min dwell):");
    for id in SubspaceId::ALL {
        let series = outcome
            .trace
            .series(&format!("{}.temperature", id.label()))
            .expect("recorded");
        let minutes = convergence_minutes(series, 25.0, 0.6, SimDuration::from_mins(8));
        println!(
            "  {}: {}",
            id.label(),
            minutes.map_or("never".into(), |m| format!("{m:.1} min"))
        );
    }

    println!();
    println!("steady-state energy accounting (13:40-14:02 window):");
    println!(
        "  radiant module: {:.0} W removed / {:.0} W consumed -> COP {:.2}",
        outcome.cop.radiant_removed_w,
        outcome.cop.radiant_electrical_w,
        outcome.cop.cop_radiant()
    );
    println!(
        "  ventilation:    {:.0} W removed / {:.0} W consumed -> COP {:.2}",
        outcome.cop.vent_removed_w,
        outcome.cop.vent_electrical_w,
        outcome.cop.cop_ventilation()
    );
    println!(
        "  overall COP: {:.2} (paper: 4.07)",
        outcome.cop.cop_overall()
    );
    println!(
        "  improvement over a conventional 2.8-COP AirCon: {:.1}%",
        100.0 * outcome.cop.improvement_over(2.8)
    );
    println!("  panel condensate: {:.6} kg", outcome.panel_condensate_kg);
}
