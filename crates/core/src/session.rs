//! Externally-paced driving of a [`BubbleZeroSystem`]: the [`Run`]
//! trait every minute-stepped run implements, and [`TenantSession`],
//! the run of a bare sweep-family system.
//!
//! The batch runners (`bzctl trial`, the sweep executor) own their step
//! loop: they advance the system minute by minute until the scenario
//! duration is spent. A control-plane service cannot — each tenant is
//! stepped on demand by whatever requests arrive over the wire. A
//! [`TenantSession`] packages the exact per-minute cadence those runners
//! use (60 simulated seconds, then a counter sample into the session's
//! isolated `bz_obs` registry) behind an externally-paced API, so a
//! tenant driven one request at a time exports **byte-identical** JSONL
//! to the same scenario run offline.
//!
//! Every [`Run`] is checkpointable through the same `bz-state` seam as
//! the system itself: [`Run::save_state`] round-trips through
//! [`Run::load_state`] into a byte-identical continuation.

use bz_thermal::airbox::FanLevel;
use bz_thermal::zone::SubspaceId;

use crate::system::BubbleZeroSystem;

/// A closed-loop run stepped from the outside one simulated minute at a
/// time: the sweep-family [`TenantSession`], the chaos run and the
/// strategy (reactive or MPC) run. `bzctl` drives one to its end under
/// the checkpointer; `bzctl serve` hosts one per tenant.
pub trait Run {
    /// Simulated milliseconds completed so far.
    fn now_ms(&self) -> u64;

    /// True once the scenario duration has fully run.
    fn is_done(&self) -> bool;

    /// Advances one simulated minute (less at the end of the run) and
    /// samples the per-minute counters. A no-op once [`is_done`](Self::is_done).
    fn step_minute(&mut self);

    /// Serializes the dynamic run state for checkpointing.
    fn save_state(&self, w: &mut bz_state::Writer);

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// run freshly built from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`bz_state::StateError`] for truncated or corrupt
    /// payloads, or a snapshot that does not fit this run's duration.
    fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError>;

    /// The run's metrics handle.
    fn obs(&self) -> &bz_obs::Handle;

    /// The setpoint/actuation readback, for runs that expose one.
    fn readback(&self) -> Option<SetpointReadback> {
        None
    }

    /// Records an externally observed sensor reading as the gauge
    /// `ingest.<name>` at the current simulated time. Ingest is
    /// telemetry-only: it never perturbs the control loop, so a run that
    /// receives no observations stays byte-identical to the offline run,
    /// and one that does is deterministic given the same observations at
    /// the same simulated instants.
    fn ingest(&mut self, name: &str, value: f64) {
        self.obs()
            .gauge_set(format!("ingest.{name}"), self.now_ms(), value);
    }
}

/// Readback of one airbox / CO₂flap actuation pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirboxReadback {
    /// Coil water pump voltage, V.
    pub coil_pump_v: f64,
    /// Fan speed setting label (`off`, `l1` … `l4`).
    pub fan: &'static str,
    /// Whether the CO₂flap is driven open.
    pub flap_open: bool,
}

/// A point-in-time setpoint/actuation readback for a tenant: the zone
/// conditions the controllers are reacting to and the actuator commands
/// they most recently issued. Everything here is a deterministic function
/// of the simulation state.
#[derive(Debug, Clone, PartialEq)]
pub struct SetpointReadback {
    /// Simulation time of the readback, ms.
    pub now_ms: u64,
    /// Per-subspace zone temperature, °C (S1..S4 order).
    pub zone_temp_c: [f64; 4],
    /// Per-subspace zone dew point, °C (S1..S4 order).
    pub zone_dew_c: [f64; 4],
    /// Per-loop radiant pump voltages `(supply, recycle)`, V.
    pub radiant_v: [(f64, f64); 2],
    /// Per-subspace airbox actuation.
    pub airboxes: [AirboxReadback; 4],
    /// Name of the active control strategy.
    pub strategy: &'static str,
}

/// A closed-loop system plus its scenario duration, stepped from the
/// outside one minute (or one batch of minutes) at a time.
#[derive(Debug)]
pub struct TenantSession {
    system: BubbleZeroSystem,
    obs: bz_obs::Handle,
    total_minutes: u64,
}

impl TenantSession {
    /// Wraps a freshly built system. `obs` must be the handle the system
    /// records into (the one passed to `BubbleZeroSystem::with_obs` /
    /// `with_strategy`) — the session samples counters through it at the
    /// per-minute cadence the offline runners use.
    #[must_use]
    pub fn new(system: BubbleZeroSystem, obs: bz_obs::Handle, total_minutes: u64) -> Self {
        Self {
            system,
            obs,
            total_minutes,
        }
    }

    /// Whole simulated minutes completed so far.
    #[must_use]
    pub fn minute(&self) -> u64 {
        self.now_ms() / 60_000
    }

    /// The scenario duration, minutes.
    #[must_use]
    pub fn total_minutes(&self) -> u64 {
        self.total_minutes
    }

    /// The wrapped system (read-only).
    #[must_use]
    pub fn system(&self) -> &BubbleZeroSystem {
        &self.system
    }

    /// Steps until minute `target` (clamped to the scenario duration) and
    /// returns how many minutes were actually advanced.
    pub fn advance_to_minute(&mut self, target: u64) -> u64 {
        let target = target.min(self.total_minutes);
        let before = self.minute();
        while self.minute() < target {
            self.step_minute();
        }
        self.minute() - before
    }
}

impl Run for TenantSession {
    fn now_ms(&self) -> u64 {
        self.system.now().as_millis()
    }

    fn is_done(&self) -> bool {
        self.minute() >= self.total_minutes
    }

    /// 60 one-second steps, then the per-minute counter sample that puts
    /// trajectories (not just totals) in the export, exactly as `bzctl
    /// trial` and the sweep runner do.
    fn step_minute(&mut self) {
        if self.is_done() {
            return;
        }
        self.system.run_seconds(60);
        self.obs.record_counters(self.system.now().as_millis());
    }

    /// The system snapshot already carries the obs registry, so the
    /// metrics trajectory survives a restore.
    fn save_state(&self, w: &mut bz_state::Writer) {
        self.system.save_state(w);
        w.put_u64(self.total_minutes);
    }

    fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        self.system.load_state(r)?;
        let total_minutes = r.take_u64()?;
        if total_minutes != self.total_minutes {
            return Err(bz_state::StateError::Invalid {
                what: "TenantSession",
                reason: format!(
                    "snapshot is of a {total_minutes}-minute run, this session runs {} minutes",
                    self.total_minutes
                ),
            });
        }
        if self.minute() > self.total_minutes {
            return Err(bz_state::StateError::Invalid {
                what: "TenantSession",
                reason: format!(
                    "snapshot is {} minute(s) into a run of only {} minute(s)",
                    self.minute(),
                    self.total_minutes
                ),
            });
        }
        Ok(())
    }

    fn obs(&self) -> &bz_obs::Handle {
        &self.obs
    }

    fn readback(&self) -> Option<SetpointReadback> {
        let plant = self.system.plant();
        let commands = self.system.commands();
        let mut zone_temp_c = [0.0; 4];
        let mut zone_dew_c = [0.0; 4];
        for (i, id) in SubspaceId::ALL.iter().enumerate() {
            zone_temp_c[i] = plant.zone_temperature(*id).get();
            zone_dew_c[i] = plant.zone_dew_point(*id).get();
        }
        let radiant_v = [
            (
                commands.radiant[0].supply_voltage.get(),
                commands.radiant[0].recycle_voltage.get(),
            ),
            (
                commands.radiant[1].supply_voltage.get(),
                commands.radiant[1].recycle_voltage.get(),
            ),
        ];
        let airboxes = commands.airboxes.map(|airbox| AirboxReadback {
            coil_pump_v: airbox.coil_pump_voltage.get(),
            fan: fan_label(airbox.fan),
            flap_open: airbox.flap_open,
        });
        Some(SetpointReadback {
            now_ms: self.now_ms(),
            zone_temp_c,
            zone_dew_c,
            radiant_v,
            airboxes,
            strategy: self.system.strategy_name(),
        })
    }
}

/// The wire label of a fan level.
fn fan_label(level: FanLevel) -> &'static str {
    match level {
        FanLevel::Off => "off",
        FanLevel::L1 => "l1",
        FanLevel::L2 => "l2",
        FanLevel::L3 => "l3",
        FanLevel::L4 => "l4",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use bz_thermal::plant::PlantConfig;

    fn session(seed: u64, minutes: u64) -> TenantSession {
        let obs = bz_obs::Handle::isolated();
        let plant = PlantConfig::bubble_zero_lab().with_seed(seed ^ 0x9E37);
        let config = SystemConfig {
            seed,
            ..SystemConfig::paper_deployment(plant)
        };
        let system = BubbleZeroSystem::with_obs(config, obs.clone());
        TenantSession::new(system, obs, minutes)
    }

    fn export(session: &TenantSession) -> Vec<u8> {
        let mut bytes = Vec::new();
        session.obs().write_jsonl(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn externally_paced_stepping_matches_the_offline_loop() {
        // The offline cadence: run_seconds(60) + record_counters, 3 times.
        let offline = session(7, 3);
        let (mut system, obs) = (offline.system, offline.obs);
        for _ in 0..3 {
            system.run_seconds(60);
            obs.record_counters(system.now().as_millis());
        }
        let mut expected = Vec::new();
        obs.write_jsonl(&mut expected).unwrap();

        // The same scenario driven through the session API, mixed paces.
        let mut paced = session(7, 3);
        paced.step_minute();
        assert_eq!(paced.minute(), 1);
        assert_eq!(paced.advance_to_minute(3), 2);
        assert!(paced.is_done());
        // Further steps past the end are no-ops.
        paced.step_minute();
        assert_eq!(paced.advance_to_minute(99), 0);
        assert_eq!(paced.minute(), 3);
        assert_eq!(export(&paced), expected);
    }

    #[test]
    fn save_restore_continues_byte_identically() {
        let mut uninterrupted = session(11, 4);
        uninterrupted.advance_to_minute(4);
        let expected = export(&uninterrupted);

        let mut first = session(11, 4);
        first.advance_to_minute(2);
        let mut w = bz_state::Writer::new();
        first.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = session(11, 4);
        restored
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap();
        assert_eq!(restored.minute(), 2);
        restored.advance_to_minute(4);
        assert_eq!(export(&restored), expected);
    }

    #[test]
    fn load_rejects_a_snapshot_of_a_different_duration() {
        let mut donor = session(5, 8);
        donor.step_minute();
        let mut w = bz_state::Writer::new();
        donor.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut other = session(5, 4);
        let err = other
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap_err();
        assert!(err.to_string().contains("8-minute"), "{err}");
    }

    #[test]
    fn readback_reports_all_zones_and_actuators() {
        let mut s = session(3, 2);
        s.step_minute();
        let readback = s.readback().expect("a session exposes its setpoints");
        assert_eq!(readback.now_ms, 60_000);
        assert_eq!(readback.strategy, "reactive");
        assert!(readback.zone_temp_c.iter().all(|t| (0.0..60.0).contains(t)));
        assert!(readback.airboxes.iter().all(|a| a.coil_pump_v >= 0.0));
    }

    #[test]
    fn ingest_lands_in_the_export_as_a_gauge() {
        let mut s = session(3, 2);
        s.step_minute();
        s.ingest("room.temp_c", 24.5);
        let snapshot = s.obs().snapshot();
        assert_eq!(snapshot.gauges["ingest.room.temp_c"], 24.5);
    }
}
