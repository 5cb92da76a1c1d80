//! Cross-crate integration tests of the wireless side: message flow into
//! the controllers, adaptive-vs-fixed traffic, and event detection.

use bubblezero::core::scenario::{NetworkTrial, VarianceReplay};
use bubblezero::core::system::{BtMode, BubbleZeroSystem, SystemConfig};
use bubblezero::obs::Handle;
use bubblezero::simcore::SimDuration;
use bubblezero::thermal::plant::PlantConfig;
use bubblezero::wsn::message::DataType;

fn short_trial() -> bubblezero::core::scenario::NetworkTrialOutcome {
    NetworkTrial::paper_setup()
        .with_duration(SimDuration::from_mins(45))
        .run(Handle::default())
}

#[test]
fn controllers_only_see_the_airwaves() {
    // Every control decision must be reachable from delivered packets:
    // after a short run, decisions exist and the channel has traffic in
    // every control-relevant type.
    let mut system = BubbleZeroSystem::new(SystemConfig::paper_deployment(
        PlantConfig::bubble_zero_lab(),
    ));
    system.run_seconds(60);
    let stats = system.network().stats();
    assert!(stats.delivered > 100, "expected traffic, got {stats:?}");
    for decision in system.last_ventilation_decisions() {
        assert!(decision.expect("decided").room_dew.is_some());
    }
    for decision in system.last_radiant_decisions() {
        assert!(decision.expect("decided").ceiling_dew.is_some());
    }
}

#[test]
fn channel_stays_healthy_under_deployment_load() {
    let outcome = short_trial();
    assert!(
        outcome.channel.delivery_ratio() > 0.95,
        "delivery ratio {:.3}",
        outcome.channel.delivery_ratio()
    );
    assert!(
        outcome.channel.mean_delay_ms() < 50.0,
        "mean delay {:.1} ms",
        outcome.channel.mean_delay_ms()
    );
}

#[test]
fn adaptive_traffic_is_a_fraction_of_fixed() {
    let adaptive = short_trial();
    let fixed = NetworkTrial::with_mode(BtMode::Fixed)
        .with_duration(SimDuration::from_mins(45))
        .run(Handle::default());
    let tx_adaptive: u64 = adaptive.reports.iter().map(|r| r.transmissions).sum();
    let tx_fixed: u64 = fixed.reports.iter().map(|r| r.transmissions).sum();
    assert!(
        (tx_adaptive as f64) < 0.6 * tx_fixed as f64,
        "adaptive {tx_adaptive} vs fixed {tx_fixed}"
    );
}

#[test]
fn send_periods_respect_the_paper_bounds() {
    let outcome = short_trial();
    for data_type in [DataType::Temperature, DataType::Humidity] {
        let periods = outcome.send_periods_s(data_type);
        assert!(!periods.is_empty());
        // Temperature is overridden to 2 s in the networking trial;
        // humidity samples at 2 s by default.
        let sampling = 2.0;
        for &p in &periods {
            assert!(p >= sampling - 1e-9, "{data_type}: period {p}");
            assert!(p <= 32.0 * sampling + 1e-9, "{data_type}: period {p}");
        }
    }
}

#[test]
fn door_events_reach_the_subspace_one_stream() {
    let outcome = short_trial();
    let stream = outcome
        .s1_temperature_stream
        .expect("subspace 1 temperature stream");
    let delays = outcome.door_detection_delays_s(stream, SimDuration::from_mins(3));
    let detected = delays.iter().flatten().count();
    assert!(
        detected >= 1,
        "at least one door event should trigger a transition ({delays:?})"
    );
}

#[test]
fn histogram_accuracy_is_high_even_in_warmup() {
    let outcome = short_trial();
    let replay =
        VarianceReplay::from_decisions(&outcome.decisions, outcome.stream_types.len(), 100);
    let accuracy = replay.accuracy_for_histogram_size(40);
    assert!(accuracy > 0.80, "N=40 warm-up accuracy {accuracy}");
    // Tiny histograms lose accuracy relative to large ones over a long
    // enough horizon; in the warm-up window we only require sanity.
    let coarse = replay.accuracy_for_histogram_size(4);
    assert!(coarse > 0.5, "N=4 accuracy {coarse}");
}

#[test]
fn battery_reports_are_consistent() {
    let outcome = short_trial();
    for report in &outcome.reports {
        assert!(report.samples > 0);
        assert!(report.transmissions <= report.samples);
        assert!(report.consumed_j > 0.0);
        let lifetime = report.lifetime_years.expect("time has passed");
        assert!(lifetime > 0.05 && lifetime < 50.0, "lifetime {lifetime}");
    }
}
