//! The metric tables: every run prints each end-to-end metric (untraced)
//! or each per-layer metric (traced), by name and with its unit.

use crate::report::Outcome;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_s_per_wall_s", "s/s"),
    ("peak_rss_mb", "MB"),
    ("export_bytes_per_sim_day", "B/day"),
    ("req_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
];

/// The serve routes the fleet drives, named as their spans and metrics.
pub const ROUTES: [&str; 7] = [
    "serve.create",
    "serve.step",
    "serve.observe",
    "serve.telemetry",
    "serve.setpoints",
    "serve.snapshot",
    "serve.restore",
];

/// Layers that own spans; each reports `<layer>.self_s`.
pub const SPAN_LAYERS: [&str; 10] = [
    "bench", "cli", "core", "thermal", "psychro", "simcore", "obs", "state", "predict", "serve",
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run. A
/// layer the workload does not call reports 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &'static str); 42] = [
        ("core.step_second_us.p50", "us"),
        ("core.step_second_us.p99", "us"),
        ("core.control_second_us.p50", "us"),
        ("core.idle_second_us.p50", "us"),
        ("core.supervisor.detections", "count"),
        ("thermal.plant_step_us.p50", "us"),
        ("psychro.rh_batch_ns.p50", "ns"),
        ("simcore.pending_events.mean", "count"),
        ("wsn.offered", "count"),
        ("wsn.delivered", "count"),
        ("wsn.collided", "count"),
        ("wsn.busy_drops", "count"),
        ("wsn.backoffs", "count"),
        ("wsn.delivery_ratio", "ratio"),
        ("obs.events", "count"),
        ("obs.export_bytes", "B"),
        ("obs.export_s", "s"),
        ("obs.export.write_calls", "count"),
        ("obs.record_overhead_us.p50", "us"),
        ("obs.tenant_events_per_sim_day", "count/day"),
        ("state.save_ms", "ms"),
        ("state.save_bytes", "B"),
        ("state.load_ms", "ms"),
        ("predict.mpc_minute_ms.p50", "ms"),
        ("serve.step.max_ms", "ms"),
        ("serve.read.p50_ms", "ms"),
        ("serve.read.p90_ms", "ms"),
        ("serve.read.p99_ms", "ms"),
        ("serve.read.max_ms", "ms"),
        ("serve.tenant_step_ms.p50", "ms"),
        ("serve.wire_ms.p50", "ms"),
        ("serve.build_tenant_ms.p50", "ms"),
        ("serve.http.read_request_us.p50", "us"),
        ("serve.http.write_response_us.p50", "us"),
        ("serve.stats.requests", "count"),
        ("serve.stats.shed", "count"),
        ("serve.rss_growth_mb_per_tenant_sim_day", "MB/day"),
        ("cli.trial_s", "s"),
        ("cli.unattributed_s", "s"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
        ("error_rate", "ratio"),
    ];
    let mut all: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for route in ROUTES {
        for (suffix, unit) in [
            ("p50_ms", "ms"),
            ("p99_ms", "ms"),
            ("count", "count"),
            ("failed", "count"),
        ] {
            all.push((format!("{route}.{suffix}"), unit));
        }
    }
    for layer in SPAN_LAYERS {
        all.push((format!("{layer}.self_s"), "s"));
    }
    all
}

/// Records 0 for every per-layer metric the traced run did not reach.
pub fn zero_absent_layers(outcome: &mut Outcome) {
    for (name, unit) in per_layer() {
        if !outcome.metrics.contains_key(&name) {
            outcome.put(&name, 0.0, unit);
        }
    }
}

/// Panics unless the run reports exactly the metrics its kind declares:
/// a missing or extra metric is a bug in the benchmark.
pub fn assert_complete(outcome: &Outcome, traced: bool) {
    let mut expected: Vec<String> = if traced {
        per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|&(n, _)| n.to_owned()).collect()
    };
    expected.sort();
    let reported: Vec<&String> = outcome.metrics.keys().collect();
    assert_eq!(reported, expected.iter().collect::<Vec<_>>(), "metric set");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;
    use bz_core::json::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = Json::parse(&text).expect("BENCHMARK.json parses");
        root.field(section)
            .and_then(Json::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| {
                (
                    m.field("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned(),
                    m.field("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn tables_match_the_benchmark_declaration() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn every_name_is_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.to_owned()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
