//! Timing, thread sweeps, and table formatting for the experiments.
//!
//! Every host throughput figure goes through one sampler: a workload's
//! workers start together behind [`run_concurrent`]'s start barrier,
//! and [`sample`] repeats the call to report a median and its spread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Thread counts to sweep: 1, 2, 4, … up to at least 4 *concurrent*
/// threads (capped at 8).
///
/// Deliberately not capped at `available_parallelism`: the experiments
/// measure *coordination* under concurrency, which exists when threads
/// outnumber CPUs too (contention there shows as preemption-and-yield
/// rather than cache-line traffic — EXPERIMENTS.md discusses the
/// difference).
pub fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 8);
    let mut v = vec![1];
    while *v.last().unwrap() * 2 <= max {
        v.push(v.last().unwrap() * 2);
    }
    if *v.last().unwrap() != max {
        v.push(max);
    }
    v
}

/// [`thread_sweep`] extended to at least 8 threads, for experiments
/// whose subject is *contention* itself (E1's queued-policy comparison):
/// queued locks only separate from word-spinning ones once enough
/// waiters pile up, which requires oversubscription on small hosts.
pub fn contention_sweep() -> Vec<usize> {
    let mut v = thread_sweep();
    while *v.last().unwrap() < 8 {
        let next = v.last().unwrap() * 2;
        v.push(next);
    }
    v
}

/// Run `threads` copies of `work` concurrently (each gets its thread
/// index) and return the wall-clock time from the moment every worker
/// is running to the moment the last one finishes.
///
/// The workers park behind a start barrier: each bumps an arrival
/// count, and the last to arrive starts the clock and opens the gate.
/// Thread spawn and join are never timed, and every worker's work
/// overlaps every other's from its first iteration.
pub fn run_concurrent<F>(threads: usize, work: F) -> Duration
where
    F: Fn(usize) + Sync,
{
    run_gated(threads, &AtomicUsize::new(0), work)
}

/// [`run_concurrent`] with a caller-supplied arrival count, so a test
/// can watch the barrier.
fn run_gated<F>(threads: usize, arrived: &AtomicUsize, work: F) -> Duration
where
    F: Fn(usize) + Sync,
{
    let start = OnceLock::new();
    let end = OnceLock::new();
    let finished = AtomicUsize::new(0);
    // While every worker can have a CPU of its own, waiters spin. With
    // yielding waiters, two workers on a 2-CPU host ran by turns on one
    // CPU for whole runs; spinning keeps the waiter's CPU busy until the
    // scheduler spreads them. Once workers outnumber CPUs they share
    // anyway, and spinning would only delay the last arrival.
    let spin = threads <= std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (work, start, end, finished) = (&work, &start, &end, &finished);
            s.spawn(move || {
                if arrived.fetch_add(1, Ordering::AcqRel) + 1 == threads {
                    let _ = start.set(Instant::now());
                }
                while start.get().is_none() {
                    if spin {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
                work(t);
                if finished.fetch_add(1, Ordering::AcqRel) + 1 == threads {
                    let _ = end.set(Instant::now());
                }
            });
        }
    });
    let start = start
        .get()
        .expect("the last worker to arrive started the clock");
    let end = end
        .get()
        .expect("the last worker to finish stopped the clock");
    end.duration_since(*start)
}

/// Per-sample target time and sample count in quick mode.
const QUICK_SAMPLING: (Duration, usize) = (Duration::from_millis(10), 5);

/// Per-sample target time and sample count in full mode.
const FULL_SAMPLING: (Duration, usize) = (Duration::from_millis(20), 15);

/// Iterations per worker of the first warm-up call.
const WARMUP_ITERS: u64 = 1_000;

/// The median of repeated host throughput samples and their median
/// absolute deviation (MAD), both in the samples' unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// The median sample.
    pub median: f64,
    /// The median of the samples' distances from [`Sample::median`].
    pub mad: f64,
}

impl Sample {
    /// The median and MAD of `samples` (reordered in place).
    pub fn of(samples: &mut [f64]) -> Sample {
        fn median(v: &mut [f64]) -> f64 {
            v.sort_by(f64::total_cmp);
            let n = v.len();
            if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            }
        }
        let m = median(samples);
        let mut dev: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
        Sample {
            median: m,
            mad: median(&mut dev),
        }
    }

    /// Table cell: the median as a rate and the MAD as a percentage of
    /// it (`12.30M ±1.5%`).
    pub fn cell(&self) -> String {
        format!(
            "{} ±{:.1}%",
            fmt_rate(self.median),
            100.0 * self.mad / self.median
        )
    }
}

/// Sample a host throughput figure. `run(iters)` makes each of
/// `workers` workers do `iters` operations and returns the aggregate
/// rate (operations per second, timed behind [`run_concurrent`]'s start
/// barrier).
///
/// The warm-up doubles `iters` from 1 000 until one call lasts at
/// least half the target time, so the rate that sizes the samples
/// comes from a run long enough to show the workload's steady state
/// (an oversubscribed queued lock only collapses once its waiters are
/// preempted). Each sample then lasts about the target time. Target
/// and sample count are constants chosen by `quick`.
pub fn sample(quick: bool, workers: usize, mut run: impl FnMut(u64) -> f64) -> Sample {
    let (target, n) = if quick { QUICK_SAMPLING } else { FULL_SAMPLING };
    let target = target.as_secs_f64();
    let mut iters = WARMUP_ITERS;
    let rate = loop {
        let rate = run(iters);
        if (workers as u64 * iters) as f64 / rate >= target / 2.0 {
            break rate;
        }
        iters *= 2;
    };
    let iters = (target * rate / workers as f64).max(1.0) as u64;
    let mut rates: Vec<f64> = (0..n).map(|_| run(iters)).collect();
    Sample::of(&mut rates)
}

/// Throughput in operations per second.
pub fn ops_per_sec(total_ops: u64, elapsed: Duration) -> f64 {
    total_ops as f64 / elapsed.as_secs_f64()
}

/// Human formatting for an ops/s figure (e.g. `12.3M`).
pub fn fmt_rate(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e9 {
        format!("{:.2}G", ops_per_sec / 1e9)
    } else if ops_per_sec >= 1e6 {
        format!("{:.2}M", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1}k", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0}")
    }
}

/// A plain-text table builder for experiment output.
pub struct Table {
    pub(crate) title: String,
    pub(crate) headers: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
    pub(crate) notes: Vec<String>,
}

impl Table {
    /// A table titled `title` with the given column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a data row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append a free-text note shown under the table.
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_string());
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("| ");
            for i in 0..ncols {
                s.push_str(&format!("{:<w$} ", cells[i], w = widths[i]));
                s.push_str("| ");
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&line(&sep, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_starts_at_one_and_is_increasing() {
        let s = thread_sweep();
        assert_eq!(s[0], 1);
        assert!(s.windows(2).all(|w| w[0] < w[1]) || s.len() == 1);
    }

    #[test]
    fn run_concurrent_runs_all_threads() {
        let hits = AtomicUsize::new(0);
        let d = run_concurrent(4, |_t| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn no_worker_starts_before_every_worker_is_spawned() {
        let threads = 4;
        let arrived = AtomicUsize::new(0);
        run_gated(threads, &arrived, |t| {
            assert_eq!(
                arrived.load(Ordering::SeqCst),
                threads,
                "worker {t} started before every worker arrived"
            );
        });
    }

    #[test]
    fn sample_median_and_mad_of_odd_and_even_lengths() {
        let odd = Sample::of(&mut [3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(
            odd,
            Sample {
                median: 3.0,
                mad: 1.0
            }
        );
        let even = Sample::of(&mut [10.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            even,
            Sample {
                median: 2.5,
                mad: 1.0
            }
        );
        assert_eq!(
            Sample::of(&mut [7.0]),
            Sample {
                median: 7.0,
                mad: 0.0
            }
        );
    }

    #[test]
    fn sample_sizes_iterations_to_the_target_time() {
        // Two workers, 1 µs per iteration each: 2 M ops/s at any size.
        // The warm-up doubles from 1 000 iterations (1 ms) until a call
        // lasts half the 10 ms target; each sample then lasts 10 ms.
        let mut calls = Vec::new();
        let s = sample(true, 2, |iters| {
            calls.push(iters);
            2e6
        });
        let (target, n) = QUICK_SAMPLING;
        assert_eq!(target, Duration::from_millis(10));
        let mut expected = vec![1_000, 2_000, 4_000, 8_000];
        expected.extend(vec![10_000; n]);
        assert_eq!(calls, expected);
        assert_eq!(
            s,
            Sample {
                median: 2e6,
                mad: 0.0
            }
        );
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(1_500.0), "1.5k");
        assert_eq!(fmt_rate(2_500_000.0), "2.50M");
        assert_eq!(fmt_rate(3_000_000_000.0), "3.00G");
        assert_eq!(fmt_rate(12.0), "12");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-header"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_row() {
        let mut t = Table::new("demo", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
