//! Sample summaries: medians, nearest-rank percentiles and the metric
//! records the benchmark prints.

use std::time::Instant;

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank `q`-quantile of `values`, or `None` when fewer than ten
/// samples lie beyond it (the rule for printing a percentile).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n < rank + 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A shape line listing each unit of work's wall time.
pub fn unit_line(secs: &[f64]) -> String {
    let times: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    format!("unit of work wall times (s): {}", times.join(" "))
}

/// One reported number: name, value, unit, and the sample count behind it
/// (0 for counts and for values derived from other metrics).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// An ordered list of metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Median of `values`, labelled with their count.
    pub fn put_median(&mut self, name: &'static str, values: &[f64], unit: &'static str) {
        self.put(name, median(values), unit, values.len());
    }

    /// `trace.overhead_pct`: the median traced unit's wall time against the
    /// median untraced unit's, from `(traced, seconds)` pairs.
    pub fn put_overhead(&mut self, units: impl Iterator<Item = (bool, f64)>) {
        let (traced, plain): (Vec<_>, Vec<_>) = units.partition(|(t, _)| *t);
        let secs = |v: Vec<(bool, f64)>| -> Vec<f64> { v.into_iter().map(|(_, s)| s).collect() };
        let (traced, plain) = (secs(traced), secs(plain));
        let pct = (median(&traced) / median(&plain) - 1.0) * 100.0;
        self.put(
            "trace.overhead_pct",
            pct,
            "%",
            traced.len().min(plain.len()),
        );
    }

    /// The `q`-quantile of operation latencies grouped by unit of work: the
    /// median over units of each unit's quantile, which a few slow units
    /// cannot drag, or the quantile of all samples pooled when some unit is
    /// too small to support it.
    pub fn put_unit_percentile(
        &mut self,
        name: &'static str,
        units: &[Vec<f64>],
        q: f64,
        unit: &'static str,
    ) {
        let per_unit: Option<Vec<f64>> = units.iter().map(|u| percentile(u, q)).collect();
        let samples = units.iter().map(Vec::len).sum();
        match per_unit {
            Some(values) if !values.is_empty() => self.put(name, median(&values), unit, samples),
            _ => {
                let pooled: Vec<f64> = units.iter().flatten().copied().collect();
                self.put_percentile(name, &pooled, q, unit);
            }
        }
    }

    /// The `q`-quantile of `values` when the sample supports it, else the
    /// largest sample, with a warning on stderr so a too-short run is
    /// visible rather than silent.
    pub fn put_percentile(
        &mut self,
        name: &'static str,
        values: &[f64],
        q: f64,
        unit: &'static str,
    ) {
        match percentile(values, q) {
            Some(v) => self.put(name, v, unit, values.len()),
            None => {
                eprintln!(
                    "perfbench: {name}: only {} sample(s), too few for p{}; reporting the maximum",
                    values.len(),
                    (q * 100.0).round()
                );
                let max = values.iter().copied().fold(0.0, f64::max);
                self.put(name, max, unit, values.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
    }
}
