//! Per-call latency histogram with 1 ns buckets, and quantiles of plain
//! samples.

/// Intervals at or above this many nanoseconds land in the last bucket.
const RANGE_NS: usize = 1 << 16;

/// Per-call timings: 1 ns buckets up to 65.5 µs, so recording is one
/// increment and never allocates.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; RANGE_NS],
            n: 0,
        }
    }
}

impl Hist {
    /// Record one interval.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[(ns as usize).min(RANGE_NS - 1)] += 1;
        self.n += 1;
    }

    /// Add another histogram's samples.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.n += other.n;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile, interpolated inside its 1 ns bucket so that
    /// the value keeps the sub-nanosecond digits that tell runs apart.
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let target = q * self.n as f64;
        let mut below = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upto = below + u64::from(c);
            if upto as f64 >= target {
                return ns as f64 + (target - below as f64) / f64::from(c);
            }
            below = upto;
        }
        0.0
    }
}

/// The `q`-quantile of `samples`, interpolating between order
/// statistics. 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median over consecutive blocks of `block` samples of each
/// block's `q`-quantile; samples past the last whole block are left
/// out. A tail taken per block and then its median repeats from run to
/// run, where a whole-run tail is a few extreme samples. The whole-run
/// quantile when there is less than one block.
pub fn block_quantile(samples: &[f64], block: usize, q: f64) -> f64 {
    let tails: Vec<f64> = samples
        .chunks_exact(block)
        .map(|b| quantile(b, q))
        .collect();
    if tails.is_empty() {
        quantile(samples, q)
    } else {
        median(&tails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_quantile_takes_the_median_block_tail() {
        let samples: Vec<f64> = (0..30).map(f64::from).collect();
        // Blocks 0..10, 10..20, 20..30: maxima 9, 19, 29.
        assert_eq!(block_quantile(&samples, 10, 1.0), 19.0);
        assert_eq!(block_quantile(&samples[..5], 10, 1.0), 4.0);
    }

    #[test]
    fn hist_quantile_interpolates_inside_a_bucket() {
        let mut h = Hist::default();
        for ns in [10, 10, 20, 20] {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.25), 10.5);
        assert_eq!(h.quantile(0.5), 11.0);
        assert_eq!(h.quantile(0.75), 20.5);
    }

    #[test]
    fn sample_quantile_matches_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(median(&[]), 0.0);
    }
}
