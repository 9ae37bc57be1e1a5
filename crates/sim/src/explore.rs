//! Schedule exploration: seeded random walks and bounded-exhaustive DFS.
//!
//! Two complementary strategies over the same deterministic scheduler:
//!
//! * **Random walks** ([`random_walks`]): each run draws a fresh seed
//!   from the base seed's stream and schedules uniformly at random over
//!   the runnable set at every step. Cheap, covers long interleavings,
//!   finds "needs many threads" bugs.
//! * **Bounded-exhaustive DFS** ([`dfs`]): systematic enumeration with
//!   *iterative context bounding* (the CHESS insight): the scheduler's
//!   default tail is non-preemptive (keep running the current thread),
//!   and the explorer injects divergences only through a forced choice
//!   prefix, bounded in depth and in the number of *preemptive* choices.
//!   Most concurrency bugs need very few preemptions, so a small bound
//!   covers the interesting space exhaustively.
//!
//! Both record every distinct schedule (by trace hash) and carry each
//! failure's [`ReplayToken`](crate::ReplayToken), so any hit reproduces
//! byte-for-byte.

use std::collections::HashSet;

use machk_fault::plan::stream_seed;

use crate::config::{SchedMode, SimConfig, NOT_RUNNABLE};
use crate::sched::{run_inner, SimError};

/// Bounds for [`dfs`] exploration.
#[derive(Clone, Copy, Debug)]
pub struct DfsBounds {
    /// Only branch on scheduling decisions earlier than this step.
    pub depth: usize,
    /// Maximum preemptive choices per schedule (context bound).
    pub max_preemptions: u32,
    /// Hard cap on total runs (the bounded tree can still be large).
    pub max_runs: usize,
}

impl DfsBounds {
    /// Modest defaults: branch within the first 40 steps, at most two
    /// preemptions, at most 2000 runs.
    pub const DEFAULT: DfsBounds = DfsBounds {
        depth: 40,
        max_preemptions: 2,
        max_runs: 2000,
    };
}

impl Default for DfsBounds {
    fn default() -> Self {
        DfsBounds::DEFAULT
    }
}

/// Aggregate results of an exploration campaign.
#[derive(Debug, Default)]
pub struct ExploreStats {
    /// Runs executed.
    pub runs: usize,
    /// Distinct schedules seen (by chosen-thread-sequence hash).
    pub distinct: usize,
    /// Deadlocks + step-limit hits (a real host would have hung).
    pub hangs: usize,
    /// Scenario panics (assertion failures under some schedule).
    pub panics: usize,
    /// Total scheduling steps across all runs.
    pub steps_total: u64,
    /// Total virtual nanoseconds across all runs.
    pub virtual_ns_total: u64,
    /// First few failures, each replayable from its token.
    pub failures: Vec<SimError>,
    seen: HashSet<u64>,
}

/// How many failures [`ExploreStats::failures`] retains.
const KEEP_FAILURES: usize = 8;

impl ExploreStats {
    fn absorb<R>(&mut self, outcome: &Result<crate::sched::SimReport<R>, SimError>) {
        self.runs += 1;
        match outcome {
            Ok(report) => {
                if self.seen.insert(report.trace.hash()) {
                    self.distinct += 1;
                }
                self.steps_total += report.steps;
                self.virtual_ns_total += report.clock_ns;
            }
            Err(err) => {
                if self.seen.insert(err.trace().hash()) {
                    self.distinct += 1;
                }
                match err {
                    SimError::Deadlock { .. } | SimError::StepLimit { .. } => self.hangs += 1,
                    SimError::Panicked { .. } => self.panics += 1,
                }
                if self.failures.len() < KEEP_FAILURES {
                    self.failures.push(err.clone());
                }
            }
        }
    }

    /// Merge another campaign's stats into this one (distinct-schedule
    /// sets union, so shared schedules are not double counted).
    pub fn merge(&mut self, other: ExploreStats) {
        self.runs += other.runs;
        self.hangs += other.hangs;
        self.panics += other.panics;
        self.steps_total += other.steps_total;
        self.virtual_ns_total += other.virtual_ns_total;
        for h in other.seen {
            if self.seen.insert(h) {
                self.distinct += 1;
            }
        }
        for f in other.failures {
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(f);
            }
        }
    }

    /// True when no schedule hung or panicked.
    pub fn clean(&self) -> bool {
        self.hangs == 0 && self.panics == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "runs={} distinct={} hangs={} panics={} steps={} virtual={}us",
            self.runs,
            self.distinct,
            self.hangs,
            self.panics,
            self.steps_total,
            self.virtual_ns_total / 1_000
        )
    }
}

/// Run `walks` seeded random-walk schedules of the scenario built by
/// `mk` (called once per run with the walk index; it must return a
/// fresh, self-contained scenario closure).
pub fn random_walks<G, F>(cfg: &SimConfig, walks: usize, mut mk: G) -> ExploreStats
where
    G: FnMut(usize) -> F,
    F: FnOnce() + Send + 'static,
{
    let mut stats = ExploreStats::default();
    for i in 0..walks {
        let seed = stream_seed(cfg.seed, i as u32);
        let cfg_i = cfg.with_seed(if seed == 0 { 1 } else { seed });
        let outcome = run_inner(&cfg_i, SchedMode::Random, Vec::new(), mk(i));
        stats.absorb(&outcome);
    }
    stats
}

/// Bounded-exhaustive DFS over schedules of the scenario built by `mk`,
/// within `bounds`. The scheduler runs non-preemptively beyond each
/// forced prefix, so the tree enumerated is exactly "schedules with at
/// most `max_preemptions` preemptions among the first `depth` choices".
pub fn dfs<G, F>(cfg: &SimConfig, bounds: DfsBounds, mut mk: G) -> ExploreStats
where
    G: FnMut(usize) -> F,
    F: FnOnce() + Send + 'static,
{
    let mut stats = ExploreStats::default();
    // LIFO work stack of forced prefixes — deepest-first, like the call
    // stack of a recursive DFS.
    let mut work: Vec<Vec<u8>> = vec![Vec::new()];
    while let Some(prefix) = work.pop() {
        if stats.runs >= bounds.max_runs {
            break;
        }
        let outcome = run_inner(cfg, SchedMode::Dfs, prefix.clone(), mk(stats.runs));
        stats.absorb(&outcome);
        let trace = match &outcome {
            Ok(report) => &report.trace,
            Err(err) => err.trace(),
        };
        // Branch at every decision at or beyond this prefix (earlier
        // positions were branched by ancestors), within the depth bound.
        let horizon = trace.choices.len().min(bounds.depth);
        // Preemptions inside the prefix itself, accumulated as we sweep.
        let mut preempt_before: u32 = trace
            .choices
            .iter()
            .zip(&trace.prev_index)
            .take(prefix.len())
            .filter(|&(&c, &p)| p != NOT_RUNNABLE && c != p)
            .count() as u32;
        for p in prefix.len()..horizon {
            let width = trace.widths[p];
            let taken = trace.choices[p];
            let prev = trace.prev_index[p];
            for alt in 0..width {
                if alt == taken {
                    continue;
                }
                let is_preempt = prev != NOT_RUNNABLE && alt != prev;
                if preempt_before + u32::from(is_preempt) > bounds.max_preemptions {
                    continue;
                }
                let mut next = Vec::with_capacity(p + 1);
                next.extend_from_slice(&trace.choices[..p]);
                next.push(alt);
                work.push(next);
            }
            preempt_before += u32::from(prev != NOT_RUNNABLE && taken != prev);
            if preempt_before > bounds.max_preemptions {
                break;
            }
        }
    }
    stats
}
