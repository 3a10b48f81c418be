//! Order statistics used by every workload: medians over in-run repeats
//! and nearest-rank percentiles over per-job samples.

/// Sort `values` in place and return the nearest-rank percentile (`q` in
/// `[0, 1]`); 0.0 for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentile of `(value, weight)` samples: the smallest value at which
/// the cumulative weight reaches `q` of the total. Used where one
/// measurement stands for several jobs (a scheduler wave).
pub fn weighted_percentile(samples: &mut [(f64, u64)], q: f64) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (value, weight) in samples.iter() {
        seen += weight;
        if seen >= target {
            return *value;
        }
    }
    samples.last().map_or(0.0, |s| s.0)
}

/// Median, minimum, maximum and count of one metric's in-run samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}
