//! Log2 (power-of-two bucket) time histograms.
//!
//! Means hide everything interesting about blocking behaviour: a lock
//! with a 50 ns average wait and a 10 ms tail is a different beast from
//! one that always waits 60 ns. The registry therefore keeps full
//! log2-bucket distributions of wait and hold times, updated with one
//! relaxed atomic increment per sample — the `lockstat -H` shape.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets. Bucket `i` (for `i ≥ 1`) holds samples `v` with
/// `2^(i-1) ≤ v < 2^i` nanoseconds; bucket 0 holds `v == 0`; the last
/// bucket additionally absorbs everything at or above `2^(BUCKETS-2)`
/// ns (≈ 1 s), which no sane lock wait should reach.
pub const BUCKETS: usize = 32;

/// Bucket index for a nanosecond sample.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` in nanoseconds.
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A lock-free log2 histogram: concurrent `record`s, snapshot reads.
#[derive(Debug)]
pub struct Log2Hist {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Log2Hist {
    /// An empty histogram.
    pub const fn new() -> Log2Hist {
        Log2Hist {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one nanosecond sample.
    #[inline]
    pub fn record(&self, v: u64) {
        // relaxed: independent monotone counters; readers accept a
        // torn cross-field view (see `snapshot`).
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy. Cross-field consistency is not guaranteed
    /// while writers are active.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            // relaxed: advisory snapshot, per the method contract.
            *dst = src.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            // relaxed: same advisory-snapshot contract.
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket and counter.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed); // relaxed: advisory zeroing
        }
        // relaxed: advisory zeroing, like the reads.
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self::new()
    }
}

/// A plain-data copy of a [`Log2Hist`], with the derived statistics
/// reports need.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum: u64,
    /// Largest sample (ns).
    pub max: u64,
}

impl HistSnapshot {
    /// The serial reference: histogram a slice of samples directly.
    /// The property tests assert the concurrent atomic histogram
    /// equals this for the same multiset of samples.
    pub fn from_values(values: &[u64]) -> HistSnapshot {
        let mut s = HistSnapshot::default();
        for &v in values {
            s.buckets[bucket_of(v)] += 1;
            s.count += 1;
            // The atomic histogram's sum wraps (fetch_add semantics);
            // the reference must agree on pathological inputs.
            s.sum = s.sum.wrapping_add(v);
            s.max = s.max.max(v);
        }
        s
    }

    /// Merge another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean sample in ns (0 for an empty histogram).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (exclusive, in ns) of the bucket containing the
    /// p-th percentile sample, `p` in 0..=100. An approximation with
    /// log2 resolution, which is all a distribution report needs.
    pub fn percentile(&self, p: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (u128::from(self.count) * u128::from(p.min(100)) / 100).max(1) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_floor(i + 1).max(1);
            }
        }
        self.max
    }

    /// Render as an ASCII bar chart, one row per non-empty bucket
    /// range, `width` columns for the largest bucket.
    pub fn render(&self, indent: &str, width: usize) -> String {
        let mut out = String::new();
        if self.count == 0 {
            out.push_str(indent);
            out.push_str("(no samples)\n");
            return out;
        }
        let lo = self.buckets.iter().position(|&b| b > 0).unwrap_or(0);
        let hi = BUCKETS - 1 - self.buckets.iter().rev().position(|&b| b > 0).unwrap_or(0);
        let peak = *self.buckets.iter().max().unwrap();
        for i in lo..=hi {
            let bar = (self.buckets[i] as u128 * width as u128 / peak as u128) as usize;
            out.push_str(&format!(
                "{indent}{:>9} | {:<width$} {}\n",
                fmt_ns(bucket_floor(i)),
                "#".repeat(bar),
                self.buckets[i],
            ));
        }
        out
    }
}

/// Human formatting for a nanosecond figure (`640ns`, `2.1µs`, `3.4ms`).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Floor of bucket i contains itself.
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_floor(i)), i);
        }
    }

    #[test]
    fn atomic_matches_serial_reference() {
        let values = [0u64, 1, 1, 7, 64, 65, 1_000_000, u64::MAX];
        let h = Log2Hist::new();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.snapshot(), HistSnapshot::from_values(&values));
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = [1u64, 5, 9];
        let b = [2u64, 1024, 0];
        let mut m = HistSnapshot::from_values(&a);
        m.merge(&HistSnapshot::from_values(&b));
        let mut all = a.to_vec();
        all.extend(b);
        assert_eq!(m, HistSnapshot::from_values(&all));
    }

    #[test]
    fn percentile_and_mean() {
        let h = Log2Hist::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.mean(), (99 * 10 + 1_000_000) / 100);
        assert!(s.percentile(50) <= 16, "p50 in the 10ns bucket");
        assert!(s.percentile(100) >= 1_000_000 / 2, "p100 sees the tail");
        assert_eq!(HistSnapshot::default().percentile(99), 0);
    }

    #[test]
    fn reset_zeroes() {
        let h = Log2Hist::new();
        h.record(5);
        h.reset();
        assert_eq!(h.snapshot(), HistSnapshot::default());
    }

    #[test]
    fn render_is_nonempty_and_scaled() {
        let s = HistSnapshot::from_values(&[4, 4, 4, 4, 100]);
        let r = s.render("  ", 20);
        assert!(
            r.contains("####################"),
            "peak bucket at full width:\n{r}"
        );
        assert!(HistSnapshot::default()
            .render("", 10)
            .contains("no samples"));
    }
}
