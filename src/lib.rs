//! # BubbleZERO — energy-efficient HVAC with distributed sensing and control
//!
//! A complete Rust reproduction of *"Energy Efficient HVAC System with
//! Distributed Sensing and Control"* (ICDCS 2014): the low-exergy
//! BubbleZERO laboratory, its decomposed radiant-cooling and distributed
//! ventilation controllers, and the 802.15.4 wireless sensor network with
//! adaptive duty-cycled transmission — all running against a calibrated
//! building-physics simulation instead of the original hardware.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! - [`psychro`] — psychrometrics (Magnus dew point, moist-air relations),
//!   unit newtypes, exergy/Carnot math;
//! - [`simcore`] — the deterministic simulation kernel (clock, events,
//!   seedable RNG, traces, streaming statistics);
//! - [`thermal`] — the laboratory: zones, radiant panels, hydronic mixing
//!   loops, airboxes, chillers, weather, disturbances, sensors;
//! - [`wsn`] — the network: typed broadcast over CSMA/CA, BT-ADPT adaptive
//!   transmission, histogram-based λ clustering, energy accounting;
//! - [`core`] — the paper's contribution: the two control modules, the
//!   closed-loop system, the AirCon baseline, COP metrics, and the
//!   experiment scenarios behind every figure;
//! - [`obs`] — the observability layer: sim-clock spans, a metrics
//!   registry, and deterministic JSONL/CSV exporters (see
//!   `docs/OBSERVABILITY.md`).
//!
//! # Quickstart
//!
//! Run the paper's afternoon trial and check the headline claims:
//!
//! ```no_run
//! use bubblezero::core::scenario::AfternoonTrial;
//!
//! let outcome = AfternoonTrial::paper_setup().run(bubblezero::obs::Handle::default());
//! println!("overall COP: {:.2}", outcome.cop.cop_overall());
//! assert!(outcome.panel_condensate_kg < 1e-6, "no condensation allowed");
//! ```
//!
//! # A minimal closed loop
//!
//! Everything advances on the deterministic millisecond clock: the plant
//! steps once per second under actuator commands, battery motes sample
//! and push typed broadcasts through the contention-faithful CSMA/CA
//! channel, and the controllers consume only what arrives over the
//! simulated air:
//!
//! ```
//! use bubblezero::core::system::{BubbleZeroSystem, SystemConfig};
//! use bubblezero::thermal::plant::PlantConfig;
//!
//! let config = SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab());
//! let mut system = BubbleZeroSystem::new(config.clone());
//! system.run_seconds(30);
//!
//! // Within 30 simulated seconds the radiant controller has computed a
//! // ceiling dew point purely from wireless sensor deliveries…
//! let decision = system.last_radiant_decisions()[0].expect("controller ran");
//! assert!(decision.ceiling_dew.is_some(), "over-the-air data arrived");
//!
//! // …and determinism is total: a run is a pure function of its seeds.
//! let mut twin = BubbleZeroSystem::new(config);
//! twin.run_seconds(30);
//! assert_eq!(system.network().stats(), twin.network().stats());
//! ```
//!
//! # The paper's Magnus dew point
//!
//! The dew-point computation every controller leans on is the paper's
//! Magnus formula (§III-B), exposed directly:
//!
//! ```
//! use bubblezero::psychro::{dew_point, Celsius, Percent};
//!
//! let dew = dew_point(Celsius::new(25.0), Percent::new(60.0));
//! assert!((dew.get() - 16.7).abs() < 0.2, "dew {dew:?}");
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the per-figure reproduction harnesses (`fig10` … `fig15`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bz_core as core;
pub use bz_obs as obs;
pub use bz_psychro as psychro;
pub use bz_simcore as simcore;
pub use bz_thermal as thermal;
pub use bz_wsn as wsn;
