//! Metric names, units, aggregation across rounds, and the result line.

use std::collections::BTreeMap;

use crate::measure::{mean, median, peak_rss_mb, quantile, sorted};

/// The end-to-end metrics, in output order. Every run prints all ten.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("late_query_mean_us", "us"),
    ("update_p50_us", "us"),
    ("update_p90_us", "us"),
    ("recover_s", "s"),
    ("disk_bytes_per_value", "B/value"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run. Every traced run prints all
/// of them; a layer the workload never calls reads 0 and is reported as
/// bypassed. The `overhead.*` rows are appended from [`END_TO_END`].
pub const PER_LAYER: [(&str, &str); 31] = [
    ("cracking.select_us", "us"),
    ("cracking.pieces", "count"),
    ("cracking.cracks", "count"),
    ("cracking.piece_bytes_per_value", "B/value"),
    ("cracking.kernel_branchy", "count"),
    ("cracking.kernel_predicated", "count"),
    ("cracking.zero_read_ratio", "ratio"),
    ("cracking.scanned_per_query", "values"),
    ("cracking.shards", "count"),
    ("cracking.min_shard_values", "values"),
    ("cracking.ripple_insert_us", "us"),
    ("cracking.ripple_delete_us", "us"),
    ("storage.remove_first_us", "us"),
    ("storage.append_us", "us"),
    ("engine.crack_call_us", "us"),
    ("engine.resolved_call_us", "us"),
    ("engine.batch_size_mean", "queries"),
    ("engine.query_time_s", "s"),
    ("idle.busy_us", "us"),
    ("idle.effective_ratio", "ratio"),
    ("background.actions", "count"),
    ("server.peak_queue_depth", "count"),
    ("server.shed_ratio", "ratio"),
    ("server.degraded_ratio", "ratio"),
    ("server.saturation_entries", "count"),
    ("persist.io_ops_per_commit", "count"),
    ("persist.snapshot_ms", "ms"),
    ("persist.snapshot_bytes", "B"),
    ("persist.write_amp", "ratio"),
    ("persist.replayed_records", "count"),
    ("persist.commits", "count"),
];

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count, base of a ratio, or why the value is 0.
    pub note: String,
}

/// Per-layer values of one workload, keyed by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Samples behind the end-to-end metrics, one entry per round. Every
/// metric is the median of its per-round values (for a latency, of the
/// per-round percentile).
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub query_us: Vec<Vec<f64>>,
    pub queries_per_s: Vec<f64>,
    pub late_query_mean_us: Vec<f64>,
    /// Mean over the first eighth of each round's queries: the baseline
    /// `late_query_mean_us` is compared against.
    pub first_query_mean_us: Vec<f64>,
    pub update_us: Vec<Vec<f64>>,
    pub recover_s: Vec<f64>,
    pub disk_bytes_per_value: Vec<f64>,
}

/// Means over the first and the last eighth of one round's latencies.
pub fn first_and_last_eighth(latencies_us: &[f64]) -> (f64, f64) {
    let eighth = (latencies_us.len() / 8).max(1).min(latencies_us.len());
    (
        mean(&latencies_us[..eighth]),
        mean(&latencies_us[latencies_us.len() - eighth..]),
    )
}

/// The median over rounds of each round's `q` quantile, so that a round
/// disturbed by the machine does not move it. The note gives the smallest
/// round's sample count and how many of its samples lie beyond the
/// quantile.
fn percentile_metric(name: &str, unit: &'static str, rounds: &[Vec<f64>], q: f64) -> Metric {
    let per_round: Vec<f64> = rounds.iter().map(|r| quantile(&sorted(r), q)).collect();
    let n = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let beyond = n - ((q * n as f64).ceil() as usize).min(n);
    Metric {
        name: name.to_string(),
        unit,
        value: median(&per_round),
        note: format!("median of rounds {per_round:.1?}; n>={n} per round ({beyond} beyond)"),
    }
}

fn median_metric(name: &str, unit: &'static str, rounds: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: median(rounds),
        note: format!("median of {} rounds {:.4?}", rounds.len(), rounds),
    }
}

impl E2e {
    /// All ten end-to-end metrics, in [`END_TO_END`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut late = median_metric("late_query_mean_us", "us", &self.late_query_mean_us);
        late.note = format!(
            "{}; first-eighth mean {:.1} us",
            late.note,
            median(&self.first_query_mean_us)
        );
        let rss = peak_rss_mb();
        vec![
            median_metric("setup_s", "s", &self.setup_s),
            percentile_metric("query_p50_us", "us", &self.query_us, 0.50),
            percentile_metric("query_p99_us", "us", &self.query_us, 0.99),
            median_metric("queries_per_s", "1/s", &self.queries_per_s),
            late,
            percentile_metric("update_p50_us", "us", &self.update_us, 0.50),
            percentile_metric("update_p90_us", "us", &self.update_us, 0.90),
            median_metric("recover_s", "s", &self.recover_s),
            median_metric(
                "disk_bytes_per_value",
                "B/value",
                &self.disk_bytes_per_value,
            ),
            Metric {
                name: "peak_rss_mb".into(),
                unit: "MiB",
                value: rss,
                note: "VmHWM of this process".into(),
            },
        ]
    }
}

/// Lower median, per key, of per-round layer values: always one round's
/// own value, so counts stay exact.
pub fn median_layers(rounds: &[Layers]) -> Layers {
    let mut keys: Vec<&'static str> = rounds.iter().flat_map(|r| r.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(k).copied()).collect();
            (k, sorted(&values)[(values.len() - 1) / 2])
        })
        .collect()
}

/// The per-layer metrics in [`PER_LAYER`] order, then the tracing
/// overhead (traced minus untraced) of every end-to-end metric.
pub fn layer_metrics(
    layers: &Layers,
    traced: &[Metric],
    untraced: &[(String, f64)],
) -> Vec<Metric> {
    for key in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(name, _)| name == key),
            "per-layer metric {key} is not declared"
        );
    }
    let mut out: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layers.get(name).copied();
            Metric {
                name: name.to_string(),
                unit,
                value: value.unwrap_or(0.0),
                note: if value.is_some() {
                    String::new()
                } else {
                    "bypassed".into()
                },
            }
        })
        .collect();
    for m in traced {
        let base = untraced.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
        out.push(Metric {
            name: format!("overhead.{}", m.name),
            unit: m.unit,
            value: base.map_or(0.0, |b| m.value - b),
            note: match base {
                Some(b) => format!("traced {} - untraced {b}", m.value),
                None => "untraced value missing".into(),
            },
        });
    }
    out
}

/// A finite JSON number with every digit of the value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line the benchmark ends its standard output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads `"<name>": {"value": <v>` pairs back out of a result line.
pub fn parse_values(line: &str, names: &[&str]) -> Vec<(String, f64)> {
    names
        .iter()
        .filter_map(|&name| {
            let key = format!("\"{name}\": {{\"value\": ");
            let rest = &line[line.find(&key)? + key.len()..];
            let end = rest.find(',')?;
            Some((name.to_string(), rest[..end].trim().parse().ok()?))
        })
        .collect()
}

/// Prints the human-readable table (name, value, unit, note).
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "#   {:<34} {:>16.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_values() {
        let metrics = vec![Metric {
            name: "query_p50_us".into(),
            unit: "us",
            value: 12.345678,
            note: String::new(),
        }];
        let line = result_line(true, 3, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert_eq!(
            parse_values(&line, &["query_p50_us"]),
            vec![("query_p50_us".into(), 12.345678)]
        );
    }

    #[test]
    fn every_end_to_end_metric_is_emitted_in_order() {
        let names: Vec<String> = E2e::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
    }
}
