//! Simulation configuration, schedule traces, and replay tokens.

use core::fmt;
use std::str::FromStr;

/// Cost model for the simulated N-core machine, in virtual nanoseconds.
///
/// The model captures the two cache effects the paper's section 2 turns
/// on: word-spinning policies pay a coherence surcharge proportional to
/// how many *other* CPUs are concurrently spinning on the same line
/// (bounded by `cores - 1`, so a uniprocessor pays none), while local
/// spins (MCS nodes) stay flat. Charges are divided by the machine's
/// effective parallelism (`min(cores, runnable threads)`), so the same
/// step stream takes 8× less virtual wall time on 8 simulated cores —
/// that division is what makes contention *scaling* observable on a
/// host with fewer CPUs than the simulated machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Baseline charge for any scheduling step.
    pub step_ns: u64,
    /// Extra charge per concurrent same-line spinner for one shared-line
    /// spin step (coherence traffic of TAS/TTAS/ticket spinning).
    pub coherence_ns: u64,
    /// Extra charge per concurrent same-line spinner when a contended
    /// shared-line acquisition completes (the release invalidates the
    /// line in every spinner's cache).
    pub acquire_ns: u64,
    /// Charge per park/unpark transition (context-switch cost).
    pub park_ns: u64,
}

impl CostModel {
    /// Defaults loosely calibrated to 1991-vintage shared-bus ratios:
    /// a cache hit ~1 step, a coherence miss tens of ns.
    pub const DEFAULT: CostModel = CostModel {
        step_ns: 10,
        coherence_ns: 30,
        acquire_ns: 60,
        park_ns: 100,
    };
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::DEFAULT
    }
}

/// Configuration for one simulated host.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Scheduler seed: every scheduling decision derives from it.
    pub seed: u64,
    /// Number of simulated CPUs (8/32/64 all run on any box).
    pub cores: usize,
    /// Scheduling-step budget: a run exceeding it fails with
    /// [`crate::SimError::StepLimit`] instead of hanging (livelock backstop).
    pub max_steps: u64,
    /// Virtual-machine cost model.
    pub cost: CostModel,
    /// How many trailing schedule choices [`crate::SimHost`] includes in
    /// its watchdog description.
    pub trace_tail: usize,
}

impl SimConfig {
    /// Default: 8 simulated cores, seed `0x6d61_6368` (`"mach"`).
    pub const DEFAULT: SimConfig = SimConfig {
        seed: 0x6d61_6368,
        cores: 8,
        max_steps: 1_000_000,
        cost: CostModel::DEFAULT,
        trace_tail: 32,
    };

    /// This configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// This configuration with a different core count.
    pub fn with_cores(mut self, cores: usize) -> SimConfig {
        self.cores = cores.max(1);
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::DEFAULT
    }
}

/// How the scheduler fills choices beyond a forced prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedMode {
    /// Seeded uniform choice over the runnable set (random walks).
    Random,
    /// Non-preemptive default: keep running the previous thread while it
    /// is runnable, else take the lowest-numbered runnable thread. The
    /// DFS explorer injects preemptions only through its forced prefix
    /// (iterative context bounding).
    Dfs,
}

impl SchedMode {
    fn tag(self) -> char {
        match self {
            SchedMode::Random => 'r',
            SchedMode::Dfs => 'd',
        }
    }
}

/// The complete record of one run's scheduling decisions.
///
/// `tids` is the sequence of chosen thread ids — the canonical identity
/// of a schedule (two runs are "the same schedule" iff their `tids`
/// match). `choices`/`widths` record each decision as an index into the
/// runnable set of that step, which is what the DFS explorer backtracks
/// over, and `continuable` records whether the previously running thread
/// was still runnable (so preemptions can be counted).
#[derive(Clone, Debug, Default)]
pub struct ScheduleTrace {
    /// Chosen thread id per step.
    pub tids: Vec<u8>,
    /// Chosen index into the runnable set per step.
    pub choices: Vec<u8>,
    /// Size of the runnable set per step.
    pub widths: Vec<u8>,
    /// Index of the previously-running thread within the runnable set,
    /// `0xFF` when it was not runnable (blocked or finished).
    pub prev_index: Vec<u8>,
}

impl ScheduleTrace {
    /// FNV-1a hash of the chosen-thread sequence; used to count distinct
    /// schedules during exploration.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &t in &self.tids {
            h ^= u64::from(t);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= self.tids.len() as u64;
        h.wrapping_mul(0x100_0000_01b3)
    }

    /// Number of preemptive choices (previous thread runnable, someone
    /// else chosen).
    pub fn preemptions(&self) -> u32 {
        self.choices
            .iter()
            .zip(&self.prev_index)
            .filter(|&(&c, &p)| p != NOT_RUNNABLE && c != p)
            .count() as u32
    }

    /// The trailing `n` chosen thread ids, rendered compactly.
    pub fn tail(&self, n: usize) -> String {
        let start = self.tids.len().saturating_sub(n);
        let mut s = String::new();
        if start > 0 {
            s.push('…');
        }
        for &t in &self.tids[start..] {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&t.to_string());
        }
        s
    }
}

/// Sentinel in [`ScheduleTrace::prev_index`]: previous thread not runnable.
pub const NOT_RUNNABLE: u8 = 0xFF;

/// Everything needed to replay a run byte-for-byte: seed, core count,
/// scheduling mode, and (for DFS runs) the forced choice prefix.
///
/// Round-trips through `Display`/`FromStr`, so a token printed in a
/// watchdog report or experiment table can be pasted back into
/// [`crate::replay`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayToken {
    /// Scheduler seed.
    pub seed: u64,
    /// Simulated core count.
    pub cores: usize,
    /// Scheduling mode for choices beyond the prefix.
    pub mode: SchedMode,
    /// Forced choice prefix (indices into each step's runnable set).
    pub forced: Vec<u8>,
}

impl fmt::Display for ReplayToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sim:v1:{:016x}:{}:{}:",
            self.seed,
            self.cores,
            self.mode.tag()
        )?;
        for &c in &self.forced {
            write!(f, "{c:02x}")?;
        }
        Ok(())
    }
}

/// Error parsing a [`ReplayToken`] from its printed form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadReplayToken(pub String);

impl fmt::Display for BadReplayToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed replay token: {}", self.0)
    }
}

impl std::error::Error for BadReplayToken {}

impl FromStr for ReplayToken {
    type Err = BadReplayToken;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || BadReplayToken(s.to_string());
        let mut parts = s.split(':');
        if parts.next() != Some("sim") || parts.next() != Some("v1") {
            return Err(bad());
        }
        let seed = u64::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
        let cores: usize = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let mode = match parts.next() {
            Some("r") => SchedMode::Random,
            Some("d") => SchedMode::Dfs,
            _ => return Err(bad()),
        };
        let hex = parts.next().ok_or_else(bad)?;
        if parts.next().is_some() || hex.len() % 2 != 0 {
            return Err(bad());
        }
        let forced = (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).map_err(|_| bad()))
            .collect::<Result<Vec<u8>, _>>()?;
        Ok(ReplayToken {
            seed,
            cores,
            mode,
            forced,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_token_roundtrips() {
        let t = ReplayToken {
            seed: 0xDEAD_BEEF_0123_4567,
            cores: 8,
            mode: SchedMode::Dfs,
            forced: vec![0, 2, 1, 255],
        };
        let s = t.to_string();
        assert_eq!(s.parse::<ReplayToken>().unwrap(), t);
        let empty = ReplayToken {
            seed: 1,
            cores: 64,
            mode: SchedMode::Random,
            forced: vec![],
        };
        assert_eq!(empty.to_string().parse::<ReplayToken>().unwrap(), empty);
    }

    #[test]
    fn malformed_tokens_rejected() {
        for bad in [
            "",
            "sim:v2:0:8:r:",
            "sim:v1:zz:8:r:",
            "sim:v1:0:8:x:",
            "sim:v1:0:8:r:abc",
        ] {
            assert!(bad.parse::<ReplayToken>().is_err(), "{bad}");
        }
    }

    #[test]
    fn trace_hash_distinguishes_orders() {
        let a = ScheduleTrace {
            tids: vec![0, 1, 0],
            ..Default::default()
        };
        let b = ScheduleTrace {
            tids: vec![1, 0, 0],
            ..Default::default()
        };
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn preemption_count() {
        let t = ScheduleTrace {
            tids: vec![0, 1, 1],
            choices: vec![0, 1, 0],
            widths: vec![2, 2, 1],
            prev_index: vec![NOT_RUNNABLE, 0, 0],
        };
        // Step 1: thread 0 still runnable at index 0, chose index 1.
        assert_eq!(t.preemptions(), 1);
    }
}
