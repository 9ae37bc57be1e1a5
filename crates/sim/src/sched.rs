//! The deterministic virtual-time scheduler.
//!
//! # How it works
//!
//! Simulated threads are real OS threads, but **exactly one runs at a
//! time**: every host operation (spin hint, yield, sleep, park, spawn …)
//! is a *scheduling point* where the running thread enters the scheduler,
//! charges virtual time to the global clock, picks the next thread to run
//! (seeded PRNG or a forced replay prefix), wakes that thread's condvar,
//! and blocks on its own until chosen again. Serialization plus
//! seed-derived choices make a run a pure function of
//! `(seed, cores, forced prefix, program)` — which is what lets any
//! failing interleaving be replayed byte-for-byte from its
//! [`ReplayToken`].
//!
//! # Virtual time
//!
//! The clock only moves at scheduling points. Each step charges a
//! [`crate::config::CostModel`] amount divided by the machine's effective parallelism
//! (`min(cores, runnable)`): with 8 runnable threads on 8 simulated
//! cores a step costs ⅛ of its serial time, which is how a host with
//! fewer CPUs than the simulated machine exhibits 8-core scaling
//! behaviour. When nothing is runnable the clock
//! jumps to the earliest sleeper/timeout — virtual sleeps are free, so
//! watchdog deadlines measured in virtual seconds expire in microseconds
//! of real time.
//!
//! # Hangs cannot hang
//!
//! A state with no runnable thread and no timer is reported as
//! [`SimError::Deadlock`]; a run that exceeds its step budget (pure
//! spin livelock) is reported as [`SimError::StepLimit`]. Both carry the
//! schedule trace and replay token.

// `SimError` embeds the full schedule trace so failures replay from the
// error alone; the Err path is terminal per run, so its size is fine.
#![allow(clippy::result_large_err)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

use machk_fault::plan::{splitmix64, stream_seed};
use machk_sync::host::{self, Host, SpinSite};

use crate::config::{ReplayToken, SchedMode, ScheduleTrace, SimConfig, NOT_RUNNABLE};

thread_local! {
    /// Sim thread id of the calling OS thread (None on unmanaged threads).
    static SIM_TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Panic payload used to unwind simulated threads after a run-level
/// failure; recognized (and swallowed) by the thread wrapper.
struct Abort;

/// A simulation failure. Every variant carries the replay token and the
/// schedule trace, so the failing interleaving can be re-run exactly.
#[derive(Clone, Debug)]
pub enum SimError {
    /// No thread runnable and no timer pending: a true deadlock.
    Deadlock {
        /// Scheduling step at which the deadlock was detected.
        step: u64,
        /// Virtual time of detection.
        clock_ns: u64,
        /// Status of every blocked thread, for diagnosis.
        blocked: Vec<String>,
        /// Replay token reproducing this exact run.
        token: ReplayToken,
        /// The schedule that led here.
        trace: ScheduleTrace,
    },
    /// The step budget was exhausted (spin livelock backstop).
    StepLimit {
        /// The configured budget that was exceeded.
        max_steps: u64,
        /// Virtual time when the budget ran out.
        clock_ns: u64,
        /// Replay token reproducing this exact run.
        token: ReplayToken,
        /// The schedule that led here.
        trace: ScheduleTrace,
    },
    /// A simulated thread panicked (scenario assertion failure).
    Panicked {
        /// Sim thread id of the panicking thread.
        tid: usize,
        /// Rendered panic payload.
        message: String,
        /// Replay token reproducing this exact run.
        token: ReplayToken,
        /// The schedule that led here.
        trace: ScheduleTrace,
    },
}

impl SimError {
    /// The replay token reproducing the failing run.
    pub fn token(&self) -> &ReplayToken {
        match self {
            SimError::Deadlock { token, .. }
            | SimError::StepLimit { token, .. }
            | SimError::Panicked { token, .. } => token,
        }
    }

    /// The schedule trace of the failing run.
    pub fn trace(&self) -> &ScheduleTrace {
        match self {
            SimError::Deadlock { trace, .. }
            | SimError::StepLimit { trace, .. }
            | SimError::Panicked { trace, .. } => trace,
        }
    }

    /// Short classification for tables: `deadlock`, `step-limit`, `panic`.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::StepLimit { .. } => "step-limit",
            SimError::Panicked { .. } => "panic",
        }
    }
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Deadlock {
                step,
                clock_ns,
                blocked,
                token,
                ..
            } => write!(
                f,
                "simulated deadlock at step {step} (t={clock_ns}ns): all live threads blocked \
                 [{}]; replay={token}",
                blocked.join(", ")
            ),
            SimError::StepLimit {
                max_steps,
                clock_ns,
                token,
                ..
            } => write!(
                f,
                "step budget {max_steps} exhausted (t={clock_ns}ns): livelock suspected; \
                 replay={token}"
            ),
            SimError::Panicked {
                tid,
                message,
                token,
                ..
            } => write!(
                f,
                "simulated thread {tid} panicked: {message}; replay={token}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A completed run: the root closure's value plus schedule/clock facts.
#[derive(Debug)]
pub struct SimReport<R> {
    /// What the root closure returned.
    pub value: R,
    /// Total scheduling steps taken.
    pub steps: u64,
    /// Final virtual time.
    pub clock_ns: u64,
    /// The full schedule.
    pub trace: ScheduleTrace,
    /// Token replaying this run.
    pub token: ReplayToken,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    /// Runnable (includes "currently running").
    Ready,
    /// In `park`/`park_timeout`; woken by `unpark` or the timer.
    Parked { until: Option<u64> },
    /// In `sleep`; woken only by the timer (`unpark` stores a permit).
    Sleeping { until: u64 },
    /// In `join(on)`; woken when thread `on` finishes.
    JoinWait { on: usize },
    /// Finished (normally or by abort).
    Done,
}

struct Th {
    status: Status,
    /// `unpark` arrived while not parked; consumed by the next `park`.
    permit: bool,
    /// Shared line this thread is currently spinning on, if any.
    spin_line: Option<usize>,
    /// Wakes this thread when the scheduler picks it.
    cv: Arc<Condvar>,
}

impl Th {
    fn new() -> Th {
        Th {
            status: Status::Ready,
            permit: false,
            spin_line: None,
            cv: Arc::new(Condvar::new()),
        }
    }
}

struct Sched {
    threads: Vec<Th>,
    running: Option<usize>,
    clock: u64,
    steps: u64,
    rng: u64,
    mode: SchedMode,
    forced: Vec<u8>,
    forced_pos: usize,
    trace: ScheduleTrace,
    /// Threads not yet `Done`.
    live: usize,
    failure: Option<SimError>,
    /// OS handles of every spawned thread, joined by `run`.
    os_handles: Vec<std::thread::JoinHandle<()>>,
    started: bool,
}

/// What a scheduling point reports about the thread entering it.
enum Ev {
    Spin(SpinSite),
    SpinBatch(u32),
    Yield,
    Advance(u64),
    Sleep(u64),
    Park { until: Option<u64> },
    JoinOn(usize),
}

/// A simulated N-core host. Implements [`Host`]; created and driven by
/// [`crate::run`] / [`crate::replay`].
pub struct SimHost {
    cfg: SimConfig,
    mode: SchedMode,
    /// Self-reference so `Host::spawn` (which only gets `&self`) can hand
    /// an `Arc<SimHost>` to carrier threads.
    me: Weak<SimHost>,
    st: Mutex<Sched>,
    /// Wakes the (non-simulated) `run` caller when the run completes.
    done_cv: Condvar,
}

impl SimHost {
    fn new(cfg: SimConfig, mode: SchedMode, forced: Vec<u8>, me: Weak<SimHost>) -> SimHost {
        SimHost {
            cfg,
            mode,
            me,
            st: Mutex::new(Sched {
                threads: Vec::new(),
                running: None,
                clock: 0,
                steps: 0,
                rng: if cfg.seed == 0 { 0x9E37_79B9 } else { cfg.seed },
                mode,
                forced,
                forced_pos: 0,
                trace: ScheduleTrace::default(),
                live: 0,
                failure: None,
                os_handles: Vec::new(),
                started: false,
            }),
            done_cv: Condvar::new(),
        }
    }

    /// The configuration this host was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The replay token for this host's schedule source.
    pub fn replay_token(&self) -> ReplayToken {
        let st = self.lock_st();
        ReplayToken {
            seed: self.cfg.seed,
            cores: self.cfg.cores,
            mode: self.mode,
            forced: st.forced.clone(),
        }
    }

    fn lock_st(&self) -> MutexGuard<'_, Sched> {
        // A thread aborted by a run-level failure may unwind while the
        // lock is momentarily held elsewhere; the state is still
        // consistent (failure path only reads), so ignore poisoning.
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn my_tid(&self) -> usize {
        SIM_TID.with(|t| t.get()).expect(
            "machk-sim host operation from a thread the simulator does not manage \
             (spawn threads through the sim, not std::thread)",
        )
    }

    /// Abort the calling thread: unwind to the wrapper, which marks it
    /// Done without scheduling. Never returns.
    fn abort(&self) -> ! {
        std::panic::panic_any(Abort);
    }

    fn record_failure(&self, st: &mut Sched, err: SimError) {
        if st.failure.is_none() {
            st.failure = Some(err);
        }
        st.running = None;
        // Every simulated thread must wake, observe the failure, and
        // unwind; the run caller must wake to collect the verdict.
        for th in &st.threads {
            th.cv.notify_all();
        }
        self.done_cv.notify_all();
    }

    /// Count of Ready threads (effective-parallelism denominator).
    fn ready_count(st: &Sched) -> u64 {
        st.threads
            .iter()
            .filter(|t| t.status == Status::Ready)
            .count() as u64
    }

    /// Other Ready threads spinning on `line` right now, capped at
    /// `cores - 1` (at most that many other CPUs can be spinning).
    fn spinners_on(&self, st: &Sched, line: usize, me: usize) -> u64 {
        let n = st
            .threads
            .iter()
            .enumerate()
            .filter(|&(i, t)| i != me && t.status == Status::Ready && t.spin_line == Some(line))
            .count() as u64;
        n.min(self.cfg.cores as u64 - 1)
    }

    /// Charge `cost` virtual ns, divided by effective parallelism.
    fn charge(&self, st: &mut Sched, cost: u64) {
        let eff = Self::ready_count(st).clamp(1, self.cfg.cores as u64);
        st.clock += (cost / eff).max(1);
    }

    /// The heart: one scheduling point for the calling thread.
    fn switch(&self, ev: Ev) {
        let me = self.my_tid();
        let mut st = self.lock_st();
        if st.failure.is_some() {
            drop(st);
            self.abort();
        }
        let c = self.cfg.cost;
        // Charge the step and update the spin bookkeeping.
        match &ev {
            Ev::Spin(SpinSite::SharedLine(line)) => {
                let k = self.spinners_on(&st, *line, me);
                st.threads[me].spin_line = Some(*line);
                self.charge(&mut st, c.step_ns + c.coherence_ns * k);
            }
            Ev::Spin(_) => {
                st.threads[me].spin_line = None;
                self.charge(&mut st, c.step_ns);
            }
            Ev::SpinBatch(n) => {
                st.threads[me].spin_line = None;
                self.charge(&mut st, c.step_ns * u64::from(*n).max(1));
            }
            Ev::Yield | Ev::JoinOn(_) => {
                st.threads[me].spin_line = None;
                self.charge(&mut st, c.step_ns);
            }
            Ev::Advance(w) => {
                st.threads[me].spin_line = None;
                self.charge(&mut st, c.step_ns + w);
            }
            Ev::Sleep(_) | Ev::Park { .. } => {
                st.threads[me].spin_line = None;
                self.charge(&mut st, c.park_ns);
            }
        }
        // Transition the calling thread.
        let clock = st.clock;
        st.threads[me].status = match ev {
            Ev::Spin(_) | Ev::SpinBatch(_) | Ev::Yield | Ev::Advance(_) => Status::Ready,
            Ev::Sleep(d) => Status::Sleeping { until: clock + d },
            Ev::Park { until } => {
                if st.threads[me].permit {
                    st.threads[me].permit = false;
                    Status::Ready
                } else {
                    Status::Parked {
                        until: until.map(|d| clock + d),
                    }
                }
            }
            Ev::JoinOn(on) => {
                if st.threads[on].status == Status::Done {
                    Status::Ready
                } else {
                    Status::JoinWait { on }
                }
            }
        };
        st.steps += 1;
        if st.steps > self.cfg.max_steps {
            let err = SimError::StepLimit {
                max_steps: self.cfg.max_steps,
                clock_ns: st.clock,
                token: self.token_of(&st),
                trace: st.trace.clone(),
            };
            self.record_failure(&mut st, err);
            drop(st);
            self.abort();
        }
        st.running = None;
        self.pick_next(&mut st);
        self.wait_until_running(st, me);
    }

    fn token_of(&self, st: &Sched) -> ReplayToken {
        ReplayToken {
            seed: self.cfg.seed,
            cores: self.cfg.cores,
            mode: self.mode,
            forced: st.forced.clone(),
        }
    }

    /// Choose the next thread to run (and advance timers / detect
    /// deadlock when nothing is runnable). Notifies the chosen thread.
    fn pick_next(&self, st: &mut Sched) {
        if st.failure.is_some() {
            return;
        }
        let prev = st.trace.tids.last().map(|&t| t as usize);
        loop {
            let runnable: Vec<usize> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Ready)
                .map(|(i, _)| i)
                .collect();
            if !runnable.is_empty() {
                assert!(
                    runnable.len() <= usize::from(u8::MAX),
                    "machk-sim supports at most 255 concurrent threads"
                );
                let prev_index = prev
                    .and_then(|p| runnable.iter().position(|&r| r == p))
                    .map(|i| i as u8)
                    .unwrap_or(NOT_RUNNABLE);
                let idx = if st.forced_pos < st.forced.len() {
                    let f = st.forced[st.forced_pos];
                    st.forced_pos += 1;
                    usize::from(f) % runnable.len()
                } else {
                    match st.mode {
                        SchedMode::Random => {
                            (splitmix64(&mut st.rng) % runnable.len() as u64) as usize
                        }
                        // Non-preemptive default: stay on the previous
                        // thread when possible (the DFS prefix is the
                        // only source of preemptions).
                        SchedMode::Dfs => {
                            if prev_index != NOT_RUNNABLE {
                                usize::from(prev_index)
                            } else {
                                0
                            }
                        }
                    }
                };
                let chosen = runnable[idx];
                st.trace.tids.push(chosen as u8);
                st.trace.choices.push(idx as u8);
                st.trace.widths.push(runnable.len() as u8);
                st.trace.prev_index.push(prev_index);
                st.running = Some(chosen);
                st.threads[chosen].cv.notify_all();
                return;
            }
            // Nothing runnable: advance virtual time to the next timer.
            let next_timer = st
                .threads
                .iter()
                .filter_map(|t| match t.status {
                    Status::Parked { until: Some(u) } | Status::Sleeping { until: u } => Some(u),
                    _ => None,
                })
                .min();
            match next_timer {
                Some(u) => {
                    st.clock = st.clock.max(u);
                    let clock = st.clock;
                    for t in &mut st.threads {
                        match t.status {
                            Status::Parked { until: Some(when) }
                            | Status::Sleeping { until: when }
                                if when <= clock =>
                            {
                                t.status = Status::Ready;
                            }
                            _ => {}
                        }
                    }
                }
                None => {
                    if st.live == 0 {
                        self.done_cv.notify_all();
                        return;
                    }
                    let blocked: Vec<String> = st
                        .threads
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.status != Status::Done)
                        .map(|(i, t)| match t.status {
                            Status::Parked { .. } => format!("t{i}:parked"),
                            Status::JoinWait { on } => format!("t{i}:join(t{on})"),
                            _ => format!("t{i}:blocked"),
                        })
                        .collect();
                    let err = SimError::Deadlock {
                        step: st.steps,
                        clock_ns: st.clock,
                        blocked,
                        token: self.token_of(st),
                        trace: st.trace.clone(),
                    };
                    self.record_failure(st, err);
                    return;
                }
            }
        }
    }

    /// Block the calling thread until the scheduler picks it (or the run
    /// fails, in which case the thread aborts).
    fn wait_until_running(&self, mut st: MutexGuard<'_, Sched>, me: usize) {
        loop {
            if st.failure.is_some() {
                drop(st);
                self.abort();
            }
            if st.running == Some(me) {
                return;
            }
            let cv = Arc::clone(&st.threads[me].cv);
            st = cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Register a new simulated thread and start its OS carrier.
    fn spawn_thread(&self, body: Box<dyn FnOnce() + Send>) -> usize {
        let mut st = self.lock_st();
        let id = st.threads.len();
        assert!(id < usize::from(u8::MAX), "machk-sim thread id overflow");
        st.threads.push(Th::new());
        st.live += 1;
        let host: Arc<SimHost> = self.me.upgrade().expect("SimHost dropped while running");
        let handle = std::thread::Builder::new()
            .name(format!("sim-{id}"))
            .spawn(move || thread_main(host, id, body))
            .expect("spawn simulated thread carrier");
        st.os_handles.push(handle);
        drop(st);
        id
    }

    /// Called by the thread wrapper when its body ends (normally, by
    /// scenario panic, or by abort).
    fn finish(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.lock_st();
        st.threads[me].status = Status::Done;
        st.threads[me].spin_line = None;
        st.live -= 1;
        // Release joiners.
        for t in &mut st.threads {
            if t.status == (Status::JoinWait { on: me }) {
                t.status = Status::Ready;
            }
        }
        if let Some(message) = panic_msg {
            let err = SimError::Panicked {
                tid: me,
                message,
                token: self.token_of(&st),
                trace: st.trace.clone(),
            };
            self.record_failure(&mut st, err);
        }
        if st.failure.is_some() {
            // Failure path: no more scheduling; just let everyone drain.
            if st.live == 0 {
                self.done_cv.notify_all();
            }
            return;
        }
        if st.running == Some(me) {
            st.running = None;
        }
        st.steps += 1;
        if st.live == 0 {
            self.done_cv.notify_all();
            return;
        }
        self.pick_next(&mut st);
    }

    /// First gate: a fresh thread may not run until scheduled. Returns
    /// `false` if the run already failed (body must be skipped).
    fn wait_first_schedule(&self, me: usize) -> bool {
        let mut st = self.lock_st();
        loop {
            if st.failure.is_some() {
                return false;
            }
            if st.running == Some(me) {
                return true;
            }
            let cv = Arc::clone(&st.threads[me].cv);
            st = cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Kick off scheduling once the root thread is registered.
    fn start(&self) {
        let mut st = self.lock_st();
        if !st.started {
            st.started = true;
            self.pick_next(&mut st);
        }
    }

    /// Block the *run caller* (not a simulated thread) until every
    /// simulated thread is done, then return the verdict.
    fn wait_done(&self) -> Option<SimError> {
        let mut st = self.lock_st();
        while st.live > 0 {
            st = self.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.failure.clone()
    }

    fn take_handles(&self) -> Vec<std::thread::JoinHandle<()>> {
        std::mem::take(&mut self.lock_st().os_handles)
    }

    fn snapshot(&self) -> (u64, u64, ScheduleTrace) {
        let st = self.lock_st();
        (st.steps, st.clock, st.trace.clone())
    }
}

impl Host for SimHost {
    fn now(&self) -> u64 {
        self.lock_st().clock
    }

    fn cpu_id(&self) -> usize {
        self.my_tid() % self.cfg.cores
    }

    fn cores(&self) -> usize {
        self.cfg.cores
    }

    fn current_id(&self) -> u64 {
        self.my_tid() as u64
    }

    fn thread_seed(&self) -> u64 {
        let s = stream_seed(self.cfg.seed, self.my_tid() as u32 | 0x5150_0000);
        if s == 0 {
            0xA5A5_0001
        } else {
            s
        }
    }

    fn spin_hint(&self, site: SpinSite) {
        self.switch(Ev::Spin(site));
    }

    fn spin_batch(&self, hints: u32) {
        self.switch(Ev::SpinBatch(hints));
    }

    fn yield_now(&self) {
        self.switch(Ev::Yield);
    }

    fn sleep(&self, d: Duration) {
        self.switch(Ev::Sleep(d.as_nanos() as u64));
    }

    fn advance(&self, work_ns: u64) {
        self.switch(Ev::Advance(work_ns));
    }

    fn park(&self) {
        self.switch(Ev::Park { until: None });
    }

    fn park_timeout(&self, d: Duration) {
        self.switch(Ev::Park {
            until: Some(d.as_nanos() as u64),
        });
    }

    fn unpark(&self, id: u64) {
        let id = id as usize;
        {
            let mut st = self.lock_st();
            if st.failure.is_some() {
                return;
            }
            match st.threads.get_mut(id) {
                Some(t) => match t.status {
                    Status::Parked { .. } => t.status = Status::Ready,
                    Status::Done => {}
                    // Running/ready/sleeping/joining: store the permit,
                    // exactly like std's `Thread::unpark`.
                    _ => t.permit = true,
                },
                None => return,
            }
        }
        // If the *caller* is a simulated thread, the wakeup is also a
        // scheduling point — the scheduler may preempt the waker right
        // here, which is precisely the window lost-wakeup races live in.
        if SIM_TID.with(|t| t.get()).is_some() {
            self.switch(Ev::Yield);
        }
    }

    fn spawn(&self, body: Box<dyn FnOnce() + Send>) -> u64 {
        let id = self.spawn_thread(body);
        // Spawning is a scheduling point: the child may run first.
        self.switch(Ev::Yield);
        id as u64
    }

    fn join(&self, id: u64) {
        loop {
            {
                let st = self.lock_st();
                if st.failure.is_some() {
                    drop(st);
                    self.abort();
                }
                if st.threads[id as usize].status == Status::Done {
                    return;
                }
            }
            self.switch(Ev::JoinOn(id as usize));
        }
    }

    fn lock_acquired(&self, site: SpinSite) {
        // Cost-model hook only: charges the handoff invalidation for
        // shared-line locks, but is not a scheduling point (acquisition
        // already yielded while spinning).
        if let SpinSite::SharedLine(line) = site {
            let me = self.my_tid();
            let mut st = self.lock_st();
            if st.failure.is_some() {
                return;
            }
            let k = self.spinners_on(&st, line, me);
            st.threads[me].spin_line = None;
            let cost = self.cfg.cost.acquire_ns * k;
            if cost > 0 {
                self.charge(&mut st, cost);
            }
        } else {
            let me = self.my_tid();
            self.lock_st().threads[me].spin_line = None;
        }
    }

    fn describe(&self) -> String {
        let (steps, clock, trace) = self.snapshot();
        let token = self.replay_token();
        format!(
            "machk-sim host: cores={} seed={:#018x} step={} virtual-t={}ns\n\
             replay token: {}\n\
             schedule tail: [{}]",
            self.cfg.cores,
            self.cfg.seed,
            steps,
            clock,
            token,
            trace.tail(self.cfg.trace_tail),
        )
    }
}

/// Body wrapper run on every carrier OS thread.
fn thread_main(host: Arc<SimHost>, id: usize, body: Box<dyn FnOnce() + Send>) {
    host::set_thread_host(Some(host.clone() as Arc<dyn Host>));
    SIM_TID.with(|t| t.set(Some(id)));
    if !host.wait_first_schedule(id) {
        host.finish(id, None);
        return;
    }
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(()) => host.finish(id, None),
        Err(payload) => {
            if payload.is::<Abort>() {
                host.finish(id, None);
            } else {
                let msg = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                host.finish(id, Some(msg));
            }
        }
    }
}

/// Run `f` as the root thread of a fresh simulated host under `cfg`,
/// with seeded random scheduling.
pub fn run<R, F>(cfg: &SimConfig, f: F) -> Result<SimReport<R>, SimError>
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    run_inner(cfg, SchedMode::Random, Vec::new(), f)
}

/// Replay a previous run byte-for-byte from its token. `cfg` supplies
/// the cost model and step budget (which must match the original run's
/// for exact replay); seed, cores, mode, and the forced prefix come
/// from the token.
pub fn replay<R, F>(cfg: &SimConfig, token: &ReplayToken, f: F) -> Result<SimReport<R>, SimError>
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    let cfg = cfg.with_seed(token.seed).with_cores(token.cores);
    run_inner(&cfg, token.mode, token.forced.clone(), f)
}

/// Run with a forced choice prefix in a given mode (DFS exploration).
pub(crate) fn run_inner<R, F>(
    cfg: &SimConfig,
    mode: SchedMode,
    forced: Vec<u8>,
    f: F,
) -> Result<SimReport<R>, SimError>
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    let host = Arc::new_cyclic(|me| SimHost::new(*cfg, mode, forced, me.clone()));
    let value: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&value);
    host.spawn_thread(Box::new(move || {
        let r = f();
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
    }));
    host.start();
    let failure = host.wait_done();
    for handle in host.take_handles() {
        // Carrier threads never propagate panics (the wrapper catches
        // everything), so join cannot fail meaningfully.
        let _ = handle.join();
    }
    let (steps, clock_ns, trace) = host.snapshot();
    match failure {
        Some(err) => Err(err),
        None => {
            let value = value
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("root thread finished without storing its value");
            Ok(SimReport {
                value,
                steps,
                clock_ns,
                trace,
                token: host.replay_token(),
            })
        }
    }
}
