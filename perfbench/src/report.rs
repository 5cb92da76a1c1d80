//! The result line every run prints last:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

use std::collections::BTreeMap;

use bz_serve::http::json_escape;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured, all digits kept.
    pub value: f64,
    /// Unit label, e.g. `ms`.
    pub unit: String,
}

/// A run's result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Every correctness check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (trials, or HTTP requests).
    pub attempted: u64,
    /// Failed operations + shed requests + failed correctness checks.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// Whether `name` is a legal metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Outcome {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on an illegal name, a duplicate, or a non-finite value:
    /// each is a bug in the benchmark, not in the measured program.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_name(name), "illegal metric name '{name}'");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit: unit.to_owned(),
            },
        );
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// The one-line JSON form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.value,
                    json_escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Parses the form [`Outcome::to_json`] writes, rejecting missing or
    /// extra keys and illegal metric names.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first problem found.
    #[cfg(test)]
    pub fn from_json(text: &str) -> Result<Self, String> {
        use bz_core::json::Json;

        let root = Json::parse(text).map_err(|e| e.to_string())?;
        let Json::Obj(fields) = &root else {
            return Err("result is not an object".to_owned());
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let count = |key: &str| -> Result<u64, String> {
            match root.field(key).and_then(Json::as_f64) {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
                _ => Err(format!("'{key}' must be a whole number")),
            }
        };
        let correct = match root.field("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("'correct' must be a boolean".to_owned()),
        };
        let mut outcome = Self {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: BTreeMap::new(),
        };
        let Some(Json::Obj(metrics)) = root.field("metrics") else {
            return Err("'metrics' must be an object".to_owned());
        };
        for (name, metric) in metrics {
            if !valid_name(name) {
                return Err(format!("illegal metric name '{name}'"));
            }
            let value = metric
                .field("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            let unit = metric
                .field("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric {name} has no unit"))?;
            outcome.put(name, value, unit);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "core.step_second_us.p50",
            "serve.wire_ms.p50",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "sla/sh",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn result_round_trips_through_json() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 1234,
            failed: 2,
            metrics: BTreeMap::new(),
        };
        outcome.put("latency_ms", 1.203_412_345_678_9, "ms");
        outcome.put("setup_s", 0.000_812_7, "s");
        outcome.put("wsn.offered", 98_765.0, "count");
        outcome.put("rate", 325_123.456, "1/s");
        let text = outcome.to_json();
        assert!(text.starts_with("{\"correct\":true,\"attempted\":1234,\"failed\":2,\"metrics\":{"));
        assert_eq!(Outcome::from_json(&text), Ok(outcome));
    }

    #[test]
    fn parser_rejects_schema_drift() {
        let good = "{\"correct\":false,\"attempted\":1,\"failed\":0,\"metrics\":{}}";
        assert!(Outcome::from_json(good).is_ok());
        for bad in [
            "{\"correct\":true,\"attempted\":1,\"failed\":0}",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{},\"extra\":1}",
            "{\"correct\":1,\"attempted\":1,\"failed\":0,\"metrics\":{}}",
            "{\"correct\":true,\"attempted\":1.5,\"failed\":0,\"metrics\":{}}",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"a b\":{\"value\":1,\"unit\":\"s\"}}}",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"a\":{\"unit\":\"s\"}}}",
        ] {
            assert!(Outcome::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metric_is_a_bug() {
        let mut outcome = Outcome::default();
        outcome.put("a", 1.0, "s");
        outcome.put("a", 2.0, "s");
    }
}
