//! The run's report: a human-readable table with units and sample
//! counts, then the one-line JSON result.

use std::fmt::Write as _;

use crate::floor::StageFloor;
use crate::layers::{LayerValues, PER_LAYER};
use crate::record::Tally;
use crate::stats::{median, p90_if_measured, quantile};

/// The end-to-end metrics every untraced run puts in its JSON result
/// (name, unit): the ones `BENCHMARK.json` bounds. The others are
/// printed in the table only: `fail_ratio` reads 0 on a clean
/// workload, `key_ms.p90` is not measured on runs of fewer than 100
/// keys, and the key-time quantiles, `keys_per_s` and `peak_rss_mb`
/// swing from run to run on a contended host (see the README).
pub const END_TO_END: [(&str, &str); 3] =
    [("key_ms.floor", "ms"), ("loads_per_key", "count"), ("setup_s", "s")];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value, when measured.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// The end-to-end metrics of an untraced run.
#[must_use]
pub fn end_to_end(
    tally: &Tally,
    floor: &StageFloor,
    measured_s: f64,
    setup_s: &[f64],
    rss_mb: f64,
) -> Vec<Metric> {
    let keys = tally.key_ms.len();
    let attempted = tally.attempted as usize;
    let floor = floor.value();
    vec![
        Metric {
            name: "key_ms.floor",
            value: floor.map(|(ms, _)| ms),
            unit: "ms",
            samples: floor.map_or(0, |(_, sessions)| sessions),
        },
        Metric {
            name: "key_ms.p10",
            value: quantile(&tally.key_ms, 0.1),
            unit: "ms",
            samples: keys,
        },
        Metric { name: "key_ms.p50", value: median(&tally.key_ms), unit: "ms", samples: keys },
        Metric {
            name: "key_ms.p90",
            value: p90_if_measured(&tally.key_ms),
            unit: "ms",
            samples: keys,
        },
        Metric {
            name: "keys_per_s",
            value: (measured_s > 0.0).then(|| tally.recovered as f64 / measured_s),
            unit: "1/s",
            samples: keys,
        },
        Metric {
            name: "fail_ratio",
            value: Some(tally.fail_ratio()),
            unit: "ratio",
            samples: attempted,
        },
        Metric {
            name: "loads_per_key",
            value: tally.loads_per_key(),
            unit: "count",
            samples: attempted,
        },
        Metric { name: "setup_s", value: median(setup_s), unit: "s", samples: setup_s.len() },
        Metric { name: "peak_rss_mb", value: Some(rss_mb), unit: "MiB", samples: 1 },
    ]
}

/// The per-layer metrics of a traced run, every one of [`PER_LAYER`].
#[must_use]
pub fn per_layer(values: &LayerValues, samples: usize) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: Some(values.get(name).copied().unwrap_or(0.0)),
            unit,
            samples,
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!("{:<34} {:>16} {:<6} {:>7}\n", "metric", "value", "unit", "samples");
    for m in metrics {
        let value = match m.value {
            Some(v) => format!("{v:.4}"),
            None => "unmeasured".to_string(),
        };
        let _ = writeln!(out, "{:<34} {value:>16} {:<6} {:>7}", m.name, m.unit, m.samples);
    }
    out
}

/// Renders the one-line JSON result with the metrics named in `keep`.
///
/// # Errors
///
/// The name of a kept metric that has no value.
pub fn json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    keep: &[(&str, &str)],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(keep.len());
    for (name, unit) in keep {
        let m = metrics.iter().find(|m| m.name == *name).ok_or(*name)?;
        let value = m.value.filter(|v| v.is_finite()).ok_or_else(|| name.to_string())?;
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_named_metrics_and_refuses_unmeasured_ones() {
        let metrics = [
            Metric { name: "setup_s", value: Some(0.25), unit: "s", samples: 3 },
            Metric { name: "key_ms.p90", value: None, unit: "ms", samples: 40 },
        ];
        let line = json(true, 7, 1, &metrics, &[("setup_s", "s")]).expect("measured");
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 7, "failed": 1, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
        assert_eq!(json(true, 7, 1, &metrics, &[("key_ms.p90", "ms")]), Err("key_ms.p90".into()));
    }
}
