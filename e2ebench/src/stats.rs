//! The benchmark's own arithmetic: percentiles under the sample-count
//! rule, and failure accounting. Kept free of I/O so the unit tests pin it.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a percentile read off fewer tail samples is one or two
/// observations dressed up as a statistic.
pub const TAIL_SAMPLES: usize = 10;

/// Smallest sample count that supports percentile `q` (0 < q < 1): the
/// count `n` with at least [`TAIL_SAMPLES`] samples beyond the `q`
/// quantile, i.e. `n * (1 - q) >= TAIL_SAMPLES`. The median needs 20,
/// p90 needs 100, p99 needs 1000.
pub fn samples_needed(q: f64) -> usize {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    // Round before ceil so 10 / 0.1 lands on 100, not 100.000000000001.
    let exact = TAIL_SAMPLES as f64 / (1.0 - q);
    ((exact * 1e9).round() / 1e9).ceil() as usize
}

/// The `q` quantile of `values` by linear interpolation between the two
/// nearest order statistics (the "inclusive" definition: the minimum is
/// q = 0, the maximum q = 1). `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median, or 0 for no samples (callers count a missing sample as a
/// failed operation, so a 0 never reaches a result unflagged).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest tail percentile, p99 or p90, that `n` samples support,
/// as `(q, label)`.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    [(0.99, "p99"), (0.9, "p90")]
        .into_iter()
        .find(|&(q, _)| n >= samples_needed(q))
}

/// One timing series summarized the way the benchmark reports it: the
/// median, plus the highest percentile its sample count supports.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(label, value)` of the highest supported tail percentile.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Self {
        Self {
            n: values.len(),
            p50: median(values),
            tail: highest_supported(values.len())
                .map(|(q, label)| (label, quantile(values, q).unwrap_or(0.0))),
        }
    }

    /// One-line rendering with the sample count and what it supports.
    pub fn render(&self, scale: f64, unit: &str) -> String {
        let mut s = format!(
            "p50={:.4}{unit} (n={}; p50 needs n>={}, p90 n>={})",
            self.p50 * scale,
            self.n,
            samples_needed(0.5),
            samples_needed(0.9)
        );
        match self.tail {
            Some((label, v)) => s.push_str(&format!(" {label}={:.4}{unit}", v * scale)),
            None => s.push_str(" no tail percentile supported"),
        }
        s
    }
}

/// Attempted/failed operation accounting behind `error_rate`. An
/// operation is one tested run, one request or one campaign round; it
/// fails when it errors, is refused, or produces an output a check
/// rejects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// failed / attempted; a run that attempted nothing counts as fully
    /// failed, never as error-free.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_sample_counts() {
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.75), 40);
        assert_eq!(highest_supported(20), None);
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100).map(|x| x.1), Some("p90"));
        assert_eq!(highest_supported(1000).map(|x| x.1), Some("p99"));
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(quantile(&[], 0.5), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // pos = 0.9 * 99 = 89.1 -> 90 + 0.1 * (91 - 90)
        assert!((quantile(&hundred, 0.9).unwrap() - 90.1).abs() < 1e-9);
    }

    #[test]
    fn summary_reports_only_supported_tails() {
        let small: Vec<f64> = (0..10).map(f64::from).collect();
        let s = Summary::of(&small);
        assert_eq!((s.n, s.p50, s.tail), (10, 4.5, None));
        let big: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&big);
        assert_eq!(s.tail.map(|t| t.0), Some("p90"));
        assert!(s.render(1.0, "s").contains("p90=90.1000s"));
    }

    #[test]
    fn error_rate_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 1.0, "nothing attempted is not success");
        t.record(true);
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.error_rate(), 0.25);
        t.record(false);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert!((t.error_rate() - 0.4).abs() < 1e-12);
    }
}
