//! Descriptive statistics used across the experiment harness.
//!
//! Figure 4 needs bucketed histograms of normalized performance, Table 2
//! needs means and standard deviations over the initial oscillation window,
//! and the websim/DES agreement test needs rank correlation. All of that
//! lives here.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0.0 for slices shorter than 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Minimum; `None` for an empty slice or if any element is NaN-incomparable.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(a) => Some(a.min(x)),
    })
}

/// Maximum; `None` for an empty slice.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| match acc {
        None => Some(x),
        Some(a) => Some(a.max(x)),
    })
}

/// Linear-interpolated percentile, `q` in `[0, 1]`. `None` on empty input.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(v[lo])
    } else {
        let frac = pos - lo as f64;
        Some(v[lo] * (1.0 - frac) + v[hi] * frac)
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// Normalize values linearly onto `[lo, hi]` (the paper normalizes
/// performance onto 1..50 for Figure 4). Constant inputs map to the
/// midpoint.
pub fn normalize_to_range(xs: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    let (mn, mx) = match (min(xs), max(xs)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Vec::new(),
    };
    if (mx - mn).abs() < f64::EPSILON {
        return vec![(lo + hi) / 2.0; xs.len()];
    }
    xs.iter()
        .map(|x| lo + (x - mn) / (mx - mn) * (hi - lo))
        .collect()
}

/// A fixed-width histogram over `[lo, hi]` with `buckets` bins.
///
/// Values outside the range are clamped into the first/last bucket, so the
/// counts always sum to the number of observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create an empty histogram. `buckets` must be ≥ 1 and `hi > lo`.
    ///
    /// # Panics
    /// Panics on zero buckets or an empty range.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets >= 1, "Histogram: need at least one bucket");
        assert!(hi > lo, "Histogram: empty range");
        Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        let b = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64).floor();
        let idx = (b as i64).clamp(0, self.counts.len() as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Add many observations.
    pub fn add_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bucket shares as fractions of the total (all zero if empty).
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// `(low, high)` bounds of bucket `i`.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }
}

/// Spearman rank correlation between two equal-length samples.
///
/// Used to assert that the analytical queueing model ranks configurations
/// the same way the discrete-event simulator does. Returns `None` on
/// mismatched or too-short input.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

/// Pearson correlation coefficient. `None` on mismatched/degenerate input.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut num = 0.0;
    let mut dx2 = 0.0;
    let mut dy2 = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        num += dx * dy;
        dx2 += dx * dx;
        dy2 += dy * dy;
    }
    if dx2 == 0.0 || dy2 == 0.0 {
        return None;
    }
    Some(num / (dx2 * dy2).sqrt())
}

/// Average ranks (ties get the mean of their rank range), 1-based.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in rank input"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j+1 share the same value: assign the average.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Euclidean distance between two equal-length vectors.
///
/// This is the workload-characteristic distance of §4.2 / Figure 7.
///
/// # Panics
/// Panics if lengths differ.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Squared Euclidean distance (the paper's classification minimizes
/// `Σ (c_jk − c_ok)²` directly, without the square root).
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean_sq: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_percentile() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(3.0));
        assert_eq!(median(&xs), Some(2.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
        // interpolation: quartile of [1,2,3] at q=0.25 is 1.5
        assert!((percentile(&xs, 0.25).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn normalization_to_paper_range() {
        let v = normalize_to_range(&[0.0, 5.0, 10.0], 1.0, 50.0);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 25.5).abs() < 1e-12);
        assert!((v[2] - 50.0).abs() < 1e-12);
        // Constant input maps to midpoint.
        let c = normalize_to_range(&[7.0, 7.0], 1.0, 50.0);
        assert!((c[0] - 25.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_clamping() {
        let mut h = Histogram::new(1.0, 50.0, 10);
        h.add_all(&[1.0, 25.0, 50.0, -3.0, 99.0]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts().iter().sum::<u64>(), 5);
        // -3 clamps into bucket 0, 99 and 50.0 into the last one.
        assert!(h.counts()[0] >= 2);
        assert!(h.counts()[9] >= 2);
        let fr = h.fractions();
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bounds() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bucket_bounds(0), (0.0, 2.0));
        assert_eq!(h.bucket_bounds(4), (8.0, 10.0));
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let inc = [10.0, 20.0, 30.0, 40.0];
        let dec = [9.0, 7.0, 5.0, 1.0];
        assert!((spearman(&xs, &inc).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &dec).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 6.0, 7.0];
        let r = spearman(&xs, &ys).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_is_none() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None);
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[2.0]), None);
    }

    #[test]
    fn distances() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((euclidean_sq(&[0.0, 0.0], &[3.0, 4.0]) - 25.0).abs() < 1e-12);
    }
}
