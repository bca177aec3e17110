//! Percentiles, metric names and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// One percentile read off a sample: the value, the percentile actually
/// used, and how many samples it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub q: f64,
    pub n: usize,
}

/// Nearest-rank percentile `q` of `xs`; `None` for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> Option<Pct> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).map(|&value| Pct { value, q, n })
}

/// The highest percentile up to `target` that keeps at least
/// [`TAIL_SAMPLES`] samples beyond it; `None` when the sample is too
/// small for any.
pub fn tail_percentile(xs: &[f64], target: f64) -> Option<Pct> {
    let n = xs.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    // nearest-rank index of the target, pulled down until TAIL_SAMPLES
    // samples remain above it
    let wanted = ((target * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = wanted.min(n - 1 - TAIL_SAMPLES);
    Some(Pct {
        value: sorted[index],
        q: (index + 1) as f64 / n as f64,
        n,
    })
}

/// Interquartile mean: the mean of the middle half of the sorted
/// sample (a quarter trimmed from each end; for fewer than four samples,
/// the plain mean). It moves smoothly when the sample is a mix of two
/// modes, where a median jumps from one mode to the other, and a few
/// stalls at either end do not move it.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let trim = sorted.len() / 4;
    mean(&sorted[trim..sorted.len() - trim])
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A metric name built from an engine label such as `JoinMatch/DM` or
/// `BFS+memo`: every character outside `[A-Za-z0-9_.-]` becomes `_`.
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The naming rule of the benchmark manifest: starts with a letter or
/// digit, at most 64 characters from `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metrics in the order they were added, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number as JSON, with every digit `f64` carries.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// Quote a string for JSON (the benchmark only emits names and labels,
/// so escaping quotes, backslashes and control characters suffices).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p95 of 1000 samples has 50 beyond it: used as is
        let p = tail_percentile(&xs, 0.95).unwrap();
        assert_eq!(p.value, 950.0);
        assert_eq!(p.q, 0.95);
        assert_eq!(p.n, 1000);

        // 100 samples: p95 would leave 5 beyond, so it drops to p89
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = tail_percentile(&xs, 0.95).unwrap();
        assert_eq!(p.value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > p.value).count(), TAIL_SAMPLES);
        assert!((p.q - 0.90).abs() < 1e-12);

        // order of the input does not matter
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail_percentile(&rev, 0.95), Some(p));

        // too few samples for any tail percentile
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.95), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.95).unwrap().value, 1.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5).unwrap().value, 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5).unwrap().value, 2.0);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_each_side() {
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        // 3, 4, 5, 6 remain
        assert_eq!(interquartile_mean(&xs), 4.5);
        let mut stalled = xs.clone();
        stalled[7] = 1e6;
        stalled.reverse();
        assert_eq!(interquartile_mean(&stalled), 4.5);
        // two modes: the value moves with the mix, not at one threshold
        let mix = |slow: usize| {
            let xs: Vec<f64> = (0..100)
                .map(|i| if i < slow { 80.0 } else { 50.0 })
                .collect();
            interquartile_mean(&xs)
        };
        assert_eq!(mix(0), 50.0);
        assert!(mix(40) > mix(30) && mix(50) > mix(40) && mix(60) > mix(50));
        assert_eq!(interquartile_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn sanitized_labels_are_metric_names() {
        assert_eq!(sanitize("JoinMatch/DM"), "JoinMatch_DM");
        assert_eq!(sanitize("BFS+memo"), "BFS_memo");
        assert!(valid_metric_name("plan.JoinMatch_DM"));
        assert!(!valid_metric_name("plan.JoinMatch/DM"));
        assert!(!valid_metric_name(".plan"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.add("read_ms.p50", 1.25, "ms");
        assert_eq!(
            m.result_line(3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"read_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(m.result_line(3, 1).starts_with("{\"correct\": false"));
    }
}
