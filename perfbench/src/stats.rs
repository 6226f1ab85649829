//! Percentiles and the metric list a run prints.

/// The `q`-quantile of `values` (linear interpolation between the closest
/// ranks); `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail percentile: the highest of p99.9, p99, p90 and p50 with at
/// least ten samples beyond it. Returns the percentile's label with the
/// value.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    let n = values.len() as f64;
    for (label, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
        if n * (1.0 - q) >= 10.0 {
            return (label, quantile(values, q));
        }
    }
    ("p50", quantile(values, 0.5))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in the order they were added, plus the
/// human-readable lines explaining them (percentile labels, sample
/// counts).
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.values.push((name.to_string(), value, unit)),
        }
    }

    /// Records `name.p50` and `name.tail` of a latency sample, the tail
    /// being the workload's fixed `tail_q` quantile. `tail_q` was chosen
    /// by the rule of [`tail`] for the sample count the workload gets on
    /// the defining host; it stays fixed so that a faster program, which
    /// fits more samples in the window, is compared at the same percentile.
    pub fn latency(&mut self, name: &str, samples: &[f64], tail_q: f64) {
        let tail = quantile(samples, tail_q);
        let beyond = samples.len() as f64 * (1.0 - tail_q);
        self.set(&format!("{name}.p50"), quantile(samples, 0.5), "ms");
        self.set(&format!("{name}.tail"), tail, "ms");
        self.notes.push(format!(
            "{name}: p50 {:.3} ms, tail = p{} {tail:.3} ms over {} samples{}",
            quantile(samples, 0.5),
            tail_q * 100.0,
            samples.len(),
            if beyond < 10.0 {
                " (FEWER THAN TEN BEYOND THE TAIL)"
            } else {
                ""
            }
        ));
    }

    /// The metrics in `names`, in that order, as the JSON object the
    /// runner prints. A name never set reads 0 (a layer the workload does
    /// not reach).
    pub fn render(&self, names: &[(&str, &'static str)]) -> String {
        let fields: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let (value, unit) = self
                    .values
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or((0.0, unit), |(_, v, u)| (*v, *u));
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(tail(&values).0, "p90");
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&values).0, "p99");
        assert_eq!(tail(&values[..40]).0, "p50");
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
