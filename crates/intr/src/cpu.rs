//! Simulated CPUs and the machine that owns them.
//!
//! A [`Cpu`] is a record an OS thread binds to with [`Cpu::enter`]; the
//! thread then *is* that processor for spl and interrupt purposes.
//! Interrupts posted to a CPU wait in a queue until the bound thread
//! reaches a delivery point ([`Cpu::poll`], an spl lowering, or an
//! interrupt-aware spin) with its spl below the interrupt's level.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use machk_sync::host;
use machk_sync::SimpleLocked;

use crate::spl::SplLevel;

/// A posted interrupt: a priority level and a handler to run on the
/// target CPU.
struct Pending {
    level: SplLevel,
    handler: Box<dyn FnOnce() + Send>,
}

/// One simulated processor.
pub struct Cpu {
    id: usize,
    spl: AtomicU8,
    queue: SimpleLocked<Vec<Pending>>,
    /// Count of interrupts taken (diagnostics / tests).
    taken: AtomicU64,
}

std::thread_local! {
    static CURRENT: RefCell<Option<Arc<Cpu>>> = const { RefCell::new(None) };
}

impl Cpu {
    fn new(id: usize) -> Arc<Cpu> {
        Arc::new(Cpu {
            id,
            spl: AtomicU8::new(SplLevel::Spl0 as u8),
            queue: SimpleLocked::new(Vec::new()),
            taken: AtomicU64::new(0),
        })
    }

    /// This CPU's index within its machine.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Bind the calling thread to this CPU until the guard drops.
    ///
    /// Panics if the thread is already bound (a thread is one processor
    /// at a time) — but note a CPU may only be driven by one thread at a
    /// time; binding the same CPU from two threads is a usage error the
    /// simulation does not police.
    pub fn enter(self: &Arc<Self>) -> CpuGuard {
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            assert!(cur.is_none(), "thread already bound to a CPU");
            *cur = Some(Arc::clone(self));
        });
        CpuGuard { _private: () }
    }

    /// Current spl level.
    pub fn spl(&self) -> SplLevel {
        // relaxed: the spl word is written only by the CPU's bound
        // thread; cross-thread readers get an advisory snapshot.
        SplLevel::from_u8(self.spl.load(Ordering::Relaxed))
    }

    pub(crate) fn raise_spl(&self, level: SplLevel) -> SplLevel {
        // relaxed: spl raise/restore is same-thread state — only the
        // bound thread mutates its own CPU's level, so program order
        // is the only ordering required.
        let old = SplLevel::from_u8(self.spl.load(Ordering::Relaxed));
        if level > old {
            self.spl.store(level as u8, Ordering::Relaxed); // relaxed: same-thread
        }
        old
    }

    pub(crate) fn set_spl(&self, level: SplLevel) {
        // relaxed: same-thread store, as in raise_spl.
        self.spl.store(level as u8, Ordering::Relaxed);
    }

    /// Number of interrupts this CPU has taken (diagnostics).
    pub fn interrupts_taken(&self) -> u64 {
        // relaxed: monotone diagnostics counter.
        self.taken.load(Ordering::Relaxed)
    }

    /// Post an interrupt to this CPU. Non-blocking; callable from any
    /// thread. The handler runs on the CPU's bound thread at the
    /// interrupt's level, when that thread next reaches a delivery point
    /// with spl below `level`.
    pub fn post_interrupt(&self, level: SplLevel, handler: impl FnOnce() + Send + 'static) {
        self.queue.lock().push(Pending {
            level,
            handler: Box::new(handler),
        });
    }

    /// Whether any posted interrupt is deliverable at the current spl.
    pub fn interrupt_pending(&self) -> bool {
        let cur = self.spl();
        self.queue.lock().iter().any(|p| p.level > cur)
    }

    /// Delivery point: take and run every deliverable interrupt
    /// (highest level first), each at its own level. Must be called by
    /// the bound thread.
    pub fn poll(&self) {
        loop {
            let cur = self.spl();
            let next = {
                let mut q = self.queue.lock();
                // Highest-priority deliverable interrupt first.
                let mut best: Option<usize> = None;
                for (i, p) in q.iter().enumerate() {
                    if p.level > cur && best.is_none_or(|b| p.level > q[b].level) {
                        best = Some(i);
                    }
                }
                best.map(|i| q.swap_remove(i))
            };
            let Some(p) = next else { return };
            // relaxed: diagnostics counter.
            self.taken.fetch_add(1, Ordering::Relaxed);
            // Run the handler with spl raised to the interrupt level, as
            // a real interrupt service routine would.
            // relaxed: the spl swap/restore pair is same-thread (poll
            // runs on the bound thread); the queue mutex ordered the
            // handoff of the pending interrupt itself.
            let old = self.spl.swap(p.level as u8, Ordering::Relaxed);
            (p.handler)();
            self.spl.store(old, Ordering::Relaxed); // relaxed: same-thread restore
        }
    }
}

impl core::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Cpu")
            .field("id", &self.id)
            .field("spl", &self.spl())
            .finish()
    }
}

/// Unbinds the thread from its CPU on drop.
pub struct CpuGuard {
    _private: (),
}

impl Drop for CpuGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = None;
        });
    }
}

/// The CPU the calling thread is bound to, if any.
pub fn current_cpu() -> Option<Arc<Cpu>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The id of the CPU the calling thread is bound to, if any.
pub fn current_cpu_id() -> Option<usize> {
    current_cpu().map(|c| c.id())
}

/// A simulated multiprocessor: a fixed set of CPUs.
pub struct Machine {
    cpus: Vec<Arc<Cpu>>,
}

impl Machine {
    /// A machine with `n` CPUs (n ≥ 1).
    pub fn new(n: usize) -> Machine {
        assert!(n >= 1, "a machine needs at least one CPU");
        Machine {
            cpus: (0..n).map(Cpu::new).collect(),
        }
    }

    /// Number of CPUs.
    pub fn ncpus(&self) -> usize {
        self.cpus.len()
    }

    /// CPU `i`.
    pub fn cpu(&self, i: usize) -> &Arc<Cpu> {
        &self.cpus[i]
    }

    /// All CPUs.
    pub fn cpus(&self) -> &[Arc<Cpu>] {
        &self.cpus
    }

    /// Run one closure per CPU, each on its own thread bound to that
    /// CPU, and join them all (convenience for tests and experiments).
    ///
    /// Threads come from the ambient [`machk_sync::host`]: with no host
    /// installed this is `std::thread::scope` on OS threads, unchanged;
    /// under a simulated host (machk-sim) the vCPU threads are spawned
    /// through [`host::spawn`], so the whole machine — barriers,
    /// shootdowns, interrupt storms — runs on the deterministic
    /// scheduler and replays from its seed.
    pub fn run<R: Send>(&self, f: impl Fn(&Arc<Cpu>) -> R + Sync) -> Vec<R> {
        if host::current_host().is_none() {
            return std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .cpus
                    .iter()
                    .map(|cpu| {
                        let f = &f;
                        s.spawn(move || {
                            let _g = cpu.enter();
                            f(cpu)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        }
        self.run_hosted(&f)
    }

    /// The hosted (simulated) spawn path of [`Machine::run`]: a
    /// hand-rolled scoped spawn, because [`host::spawn`] requires
    /// `'static` bodies while `run` deliberately accepts borrowing
    /// closures (every call site captures locks and flags by
    /// reference).
    fn run_hosted<R: Send>(&self, f: &(impl Fn(&Arc<Cpu>) -> R + Sync)) -> Vec<R> {
        type Slot<R> = Arc<std::sync::Mutex<Option<std::thread::Result<R>>>>;
        let slots: Vec<Slot<R>> = (0..self.cpus.len()).map(|_| Slot::default()).collect();
        let tokens: Vec<_> = self
            .cpus
            .iter()
            .zip(&slots)
            .map(|(cpu, slot)| {
                let cpu = Arc::clone(cpu);
                let slot = Arc::clone(slot);
                let body: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    // Panics are captured into the slot (never unwound
                    // into the host runtime) and re-thrown after every
                    // vCPU joined — the same semantics thread::scope
                    // gives the OS path.
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _g = cpu.enter();
                        f(&cpu)
                    }));
                    *slot.lock().unwrap() = Some(out);
                });
                // SAFETY: `body` borrows `f` (and `R` may borrow from
                // the caller), so its true lifetime is this stack
                // frame. Extending it to the `'static` that
                // `host::spawn` requires is sound because every token
                // is joined below before this frame returns: the body
                // has finished and been dropped while all its borrows
                // are still live. This is the classic scoped-spawn
                // contract, upheld manually.
                let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
                host::spawn(body)
            })
            .collect();
        for token in tokens {
            host::join(token);
        }
        slots
            .into_iter()
            .map(|slot| {
                match slot
                    .lock()
                    .unwrap()
                    .take()
                    .expect("joined vCPU left no result")
                {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            })
            .collect()
    }
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("ncpus", &self.ncpus())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn binding_and_unbinding() {
        let m = Machine::new(2);
        assert!(current_cpu().is_none());
        {
            let _g = m.cpu(1).enter();
            assert_eq!(current_cpu_id(), Some(1));
        }
        assert!(current_cpu().is_none());
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let m = Machine::new(2);
        let _g1 = m.cpu(0).enter();
        let _g2 = m.cpu(1).enter();
    }

    #[test]
    fn interrupt_delivery_at_poll() {
        let m = Machine::new(1);
        let cpu = m.cpu(0);
        let _g = cpu.enter();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        cpu.post_interrupt(SplLevel::SplClock, move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 0, "not delivered until poll");
        cpu.poll();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(cpu.interrupts_taken(), 1);
    }

    #[test]
    fn masked_interrupt_not_delivered() {
        let m = Machine::new(1);
        let cpu = m.cpu(0);
        let _g = cpu.enter();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        let tok = crate::spl::spl_raise(SplLevel::SplHigh);
        cpu.post_interrupt(SplLevel::SplClock, move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        cpu.poll();
        assert_eq!(fired.load(Ordering::SeqCst), 0, "masked at splhigh");
        assert!(!cpu.interrupt_pending(), "below current spl: not pending");
        // Lowering the level delivers it.
        crate::spl::spl_restore(tok);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn handler_runs_at_interrupt_level() {
        let m = Machine::new(1);
        let cpu = m.cpu(0);
        let _g = cpu.enter();
        let seen = Arc::new(AtomicU8::new(0xff));
        let s = Arc::clone(&seen);
        let c2 = Arc::clone(cpu);
        cpu.post_interrupt(SplLevel::SplNet, move || {
            s.store(c2.spl() as u8, Ordering::SeqCst);
        });
        cpu.poll();
        assert_eq!(seen.load(Ordering::SeqCst), SplLevel::SplNet as u8);
        assert_eq!(cpu.spl(), SplLevel::Spl0, "level restored after handler");
    }

    #[test]
    fn higher_level_interrupt_delivered_first() {
        let m = Machine::new(1);
        let cpu = m.cpu(0);
        let _g = cpu.enter();
        let order = Arc::new(SimpleLocked::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        cpu.post_interrupt(SplLevel::SplNet, move || o1.lock().push("net"));
        cpu.post_interrupt(SplLevel::SplClock, move || o2.lock().push("clock"));
        cpu.poll();
        assert_eq!(*order.lock(), vec!["clock", "net"]);
    }

    #[test]
    fn cross_thread_posting() {
        let m = Machine::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let results = m.run(|cpu| {
            if cpu.id() == 0 {
                // Post to CPU 1 from CPU 0.
                let h = Arc::clone(&hits);
                m.cpu(1).post_interrupt(SplLevel::SplClock, move || {
                    h.fetch_add(1, Ordering::SeqCst);
                });
                0
            } else {
                // CPU 1 polls until the interrupt arrives.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while hits.load(Ordering::SeqCst) == 0 {
                    assert!(std::time::Instant::now() < deadline);
                    cpu.poll();
                    std::hint::spin_loop();
                }
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn machine_run_binds_each_thread() {
        let m = Machine::new(4);
        let ids = m.run(|cpu| {
            assert_eq!(current_cpu_id(), Some(cpu.id()));
            cpu.id()
        });
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
