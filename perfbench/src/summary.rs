//! Order statistics and the named, unit-tagged metric table a run
//! prints.

use zssd_metrics::Json;

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q` quantile of `sorted`, smoothed: the mean of the samples whose
/// rank lies within 1% of the sample count of rank `q·(n−1)`. Host
/// times come in whole nanoseconds and cluster on a few values, so a
/// plain order statistic would often repeat exactly between runs; the
/// smoothed one keeps every digit it measures. `None` when there are no
/// samples.
pub fn smoothed_quantile(sorted: &[u64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let last = sorted.len() - 1;
    let center = (q * last as f64).round() as usize;
    let half = sorted.len() / 100;
    let window = &sorted[center.saturating_sub(half)..=(center + half).min(last)];
    Some(window.iter().map(|&ns| ns as f64).sum::<f64>() / window.len() as f64)
}

/// Metric samples collected over the repetitions of one run, in the
/// order they were first recorded.
#[derive(Debug, Default)]
pub struct Table {
    rows: Vec<Row>,
}

#[derive(Debug)]
struct Row {
    name: String,
    unit: &'static str,
    /// One entry per repetition; `None` where the quantity is undefined
    /// (a percentile of a class with no calls).
    samples: Vec<Option<f64>>,
}

impl Table {
    /// Records one repetition's value of metric `name`.
    pub fn record(&mut self, name: impl Into<String>, unit: &'static str, value: Option<f64>) {
        let name = name.into();
        match self.rows.iter_mut().find(|row| row.name == name) {
            Some(row) => row.samples.push(value),
            None => self.rows.push(Row {
                name,
                unit,
                samples: vec![value],
            }),
        }
    }

    /// Records a value that is always defined.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.record(name, unit, Some(value));
    }

    /// `(name, unit, median over repetitions)`, `None` when any
    /// repetition left the metric undefined.
    pub fn medians(&self) -> impl Iterator<Item = (&str, &'static str, Option<f64>)> {
        self.rows.iter().map(|row| {
            let defined: Option<Vec<f64>> = row.samples.iter().copied().collect();
            (row.name.as_str(), row.unit, defined.map(|v| median(&v)))
        })
    }

    /// The medians as the result line's `metrics` object:
    /// `{name: {"value": v, "unit": u}}`, with `null` for an undefined
    /// value.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.medians()
                .map(|(name, unit, value)| {
                    (
                        name.to_owned(),
                        Json::Obj(vec![
                            ("value".into(), value.map_or(Json::Null, Json::F64)),
                            ("unit".into(), Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// A human-readable listing: name, unit, median, and the range over
    /// repetitions.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (row, (name, unit, median)) in self.rows.iter().zip(self.medians()) {
            let defined: Vec<f64> = row.samples.iter().flatten().copied().collect();
            let shown = median.map_or_else(|| "n/a".to_owned(), |m| format!("{m:.6}"));
            let range = match (
                defined.iter().copied().reduce(f64::min),
                defined.iter().copied().reduce(f64::max),
            ) {
                (Some(lo), Some(hi)) if defined.len() > 1 => format!("  [{lo:.6} .. {hi:.6}]"),
                _ => String::new(),
            };
            out.push_str(&format!("  {name:<34} {unit:>8}  {shown:>18}{range}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn smoothed_quantile_averages_a_window_around_the_rank() {
        assert_eq!(smoothed_quantile(&[], 0.5), None);
        assert_eq!(smoothed_quantile(&[7], 0.99), Some(7.0));
        let sorted: Vec<u64> = (0..10_001).collect();
        // Window of ±100 ranks around rank 5000.
        assert_eq!(smoothed_quantile(&sorted, 0.5), Some(5000.0));
        assert_eq!(smoothed_quantile(&sorted, 1.0), Some(9950.0));
    }

    #[test]
    fn undefined_samples_make_an_undefined_median() {
        let mut table = Table::default();
        table.put("a", "s", 1.0);
        table.put("a", "s", 3.0);
        table.record("b", "ns", None);
        table.record("b", "ns", Some(2.0));
        let medians: Vec<_> = table.medians().collect();
        assert_eq!(medians, vec![("a", "s", Some(2.0)), ("b", "ns", None)]);
        let json = table.to_json().to_string();
        assert!(json.contains(r#""a":{"value":2,"unit":"s"}"#), "{json}");
        assert!(json.contains(r#""b":{"value":null,"unit":"ns"}"#), "{json}");
    }
}
