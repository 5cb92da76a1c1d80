//! Byte-identity regression gate for the hot-path optimizations.
//!
//! The fast path (batched zone stepping, single-channel sensor reads,
//! batched event drains, allocation-free counters) must be *invisible* in
//! every export: a trial driven through the optimized code produces
//! metric JSONL and CSV files and per-minute S1–S4 temperature and
//! dew-point series (the wide CSV `bzctl trial --csv` writes)
//! byte-identical to the scalar reference path, and leaves the plant in
//! a bit-identical physical state. The reference path is the
//! pre-optimization code, reached only through
//! `PlantConfig::with_scalar_reference(true)`.
//!
//! The contract is *per noise version*: V1 and V2 emit different bit
//! streams by design, but within each kernel the scalar and fast paths
//! must agree bytewise, so the parity trial runs once per kernel.

use bz_core::system::{BubbleZeroSystem, SystemConfig};
use bz_obs::Handle;
use bz_simcore::{NoiseKernel, TraceRecorder};
use bz_thermal::disturbance::DisturbanceSchedule;
use bz_thermal::plant::PlantConfig;
use bz_thermal::zone::SubspaceId;

const SEED: u64 = 0x5EED_0001;
const MINUTES: u64 = 20;

/// Bit patterns of the end-of-run physical state.
fn plant_fingerprint(system: &BubbleZeroSystem) -> Vec<u64> {
    let plant = system.plant();
    let mut bits = Vec::new();
    for s in 0..4 {
        let state = plant.zone_state(SubspaceId::from_index(s));
        bits.push(state.temperature.get().to_bits());
        bits.push(state.humidity_ratio.get().to_bits());
        bits.push(state.co2.get().to_bits());
    }
    for panel in 0..2 {
        bits.push(plant.panel_surface(panel).get().to_bits());
        bits.push(plant.loop_mixed_temp(panel).get().to_bits());
    }
    bits.push(plant.radiant_tank_temperature().get().to_bits());
    bits.push(plant.vent_tank_temperature().get().to_bits());
    let meters = plant.meters();
    bits.push(meters.radiant_chiller.get().to_bits());
    bits.push(meters.vent_chiller.get().to_bits());
    bits.push(meters.pumps.get().to_bits());
    bits.push(meters.fans.get().to_bits());
    bits
}

/// One trial's outputs: metric JSONL and CSV, the per-minute series CSV
/// and the end-of-run state bits.
struct TrialOutputs {
    jsonl: Vec<u8>,
    csv: Vec<u8>,
    series: Vec<u8>,
    bits: Vec<u64>,
}

/// Runs the bundled trial scenario and collects its outputs.
fn run_trial(scalar_reference: bool, noise: NoiseKernel) -> TrialOutputs {
    let plant = PlantConfig::bubble_zero_lab()
        .with_seed(SEED ^ 0x9E37)
        .with_noise(noise)
        .with_disturbances(DisturbanceSchedule::figure10_afternoon())
        .with_scalar_reference(scalar_reference);
    let config = SystemConfig {
        seed: SEED,
        ..SystemConfig::paper_deployment(plant)
    };
    let obs = Handle::isolated();
    let mut system = BubbleZeroSystem::with_obs(config, obs.clone());
    let names: Vec<String> = SubspaceId::ALL
        .iter()
        .flat_map(|id| {
            [
                format!("{}.temperature", id.label()),
                format!("{}.dew_point", id.label()),
            ]
        })
        .collect();
    let mut trace = TraceRecorder::new();
    for minute in 1..=MINUTES {
        system.run_seconds(60);
        obs.record_counters(minute * 60_000);
        let plant = system.plant();
        for id in SubspaceId::ALL {
            let (temperature, dew_point) = (plant.zone_temperature(id), plant.zone_dew_point(id));
            trace.record(&names[2 * id.index()], system.now(), temperature.get());
            trace.record(&names[2 * id.index() + 1], system.now(), dew_point.get());
        }
    }
    let mut jsonl = Vec::new();
    obs.write_jsonl(&mut jsonl).expect("jsonl export");
    let mut csv = Vec::new();
    obs.write_csv(&mut csv).expect("csv export");
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut series = Vec::new();
    trace
        .write_wide_csv(&refs, &mut series)
        .expect("series csv");
    TrialOutputs {
        jsonl,
        csv,
        series,
        bits: plant_fingerprint(&system),
    }
}

fn assert_parity(noise: NoiseKernel) {
    let reference = run_trial(true, noise);
    let fast = run_trial(false, noise);

    assert!(
        !reference.jsonl.is_empty(),
        "reference export must not be empty"
    );
    assert!(
        reference.jsonl.len() > 1_000,
        "export suspiciously small: {} bytes",
        reference.jsonl.len()
    );
    // A header plus one row per simulated minute.
    assert_eq!(
        reference.series.iter().filter(|&&b| b == b'\n').count() as u64,
        MINUTES + 1,
        "series CSV must hold one row per minute"
    );
    assert_eq!(
        reference.jsonl, fast.jsonl,
        "{noise} fast-path JSONL export diverged from the scalar reference"
    );
    assert_eq!(
        reference.csv, fast.csv,
        "{noise} fast-path CSV export diverged from the scalar reference"
    );
    assert_eq!(
        reference.series, fast.series,
        "{noise} fast-path S1-S4 temperature/dew-point series diverged from the scalar reference"
    );
    assert_eq!(
        reference.bits, fast.bits,
        "{noise} fast-path plant state diverged from the scalar reference"
    );
}

#[test]
fn fast_path_exports_are_byte_identical_to_the_scalar_reference_under_v1() {
    assert_parity(NoiseKernel::V1);
}

#[test]
fn fast_path_exports_are_byte_identical_to_the_scalar_reference_under_v2() {
    assert_parity(NoiseKernel::V2);
}
