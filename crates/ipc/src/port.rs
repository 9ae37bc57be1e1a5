//! Ports.
//!
//! "A port is a protected communication channel with exactly one
//! receiver and one or more senders." A port is itself a
//! reference-counted kernel object (a [`Kobj`] whose one lock guards its
//! count, its active flag and its state, and whose data structure
//! survives while references exist), and — for kernel objects exported
//! via ports — it holds the counted object pointer that port-to-object
//! translation clones (section 10).
//!
//! ## Lock-free message queue (beyond the paper)
//!
//! The message queue itself is a bounded lock-free ring
//! ([`machk_core::sync::ring::MpscRing`]) rather than a `VecDeque` under the
//! port's simple lock: enqueue and dequeue are compare-exchange slot
//! claims, so senders on different cores never serialize on the port
//! lock just to move a message. The port lock still guards the *rarely
//! written* state (the kernel-object pointer and port-set membership),
//! preserving the paper's locking story where it matters.
//!
//! ## Lock order
//!
//! The port lock is also the lock of the port's reference count, so
//! every reference cloned under another lock orders that lock before
//! the port's: a name-space shard before the port (translation), a port
//! set before its members, a memory object before its name port. Port
//! translation in turn clones the kernel object's reference under the
//! port lock, so the port comes before the object it exports.
//!
//! The ring installs its message slots on the first queued message, so
//! a port that only serves RPCs (which dispatch without queueing) never
//! pays for them: a default port's 64 slots of `Message` are 2.5 KB,
//! most of what a port would otherwise cost. What every port does pay
//! is 56 bytes in a release build: the object header (the lock word and
//! a count word carrying the active flag, 8), the state under the lock
//! (the kernel-object pointer and the set event, 24) and the ring (its
//! slot pointer and four 32-bit words, 24).
//!
//! Blocking keeps the §6 split-wait protocol, with one twist: with no
//! queue lock, the classic "declare the wait while holding the lock"
//! window does not exist, so each blocking path re-validates its
//! condition *after* `assert_wait` and cancels its own wait
//! (`clear_wait`) if the condition already changed. That re-check is
//! what makes the lock-free queue race-free against lost wakeups.

use std::time::Duration;

use machk_core::sync::ring::MpscRing;
use machk_core::sync::Deadline;
use machk_core::{
    assert_wait, clear_wait, current_thread, thread_block, thread_block_until, thread_wakeup,
    Deactivated, Event, Kobj, ObjHeader, ObjRef, Refable, WaitResult,
};

use crate::message::Message;

/// Default bound on queued messages before senders block.
pub const DEFAULT_QUEUE_LIMIT: usize = 64;

/// Errors from port operations.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum PortError {
    /// The port has been destroyed (deactivated). Senders and receivers
    /// see this instead of blocking forever.
    Dead,
    /// A bounded receive timed out.
    TimedOut,
    /// The port has no kernel object attached (translation disabled or
    /// never enabled).
    NotAnObjectPort,
    /// The port is a member of a port set; its messages must be
    /// received through the set.
    InPortSet,
}

impl core::fmt::Display for PortError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PortError::Dead => f.write_str("port is dead"),
            PortError::TimedOut => f.write_str("receive timed out"),
            PortError::NotAnObjectPort => f.write_str("port has no kernel object"),
            PortError::InPortSet => f.write_str("port is in a port set"),
        }
    }
}

impl std::error::Error for PortError {}

impl From<Deactivated> for PortError {
    fn from(_: Deactivated) -> Self {
        PortError::Dead
    }
}

/// Rarely-written port state kept under the port lock: the message
/// queue does not live here (see the module docs).
struct PortState {
    /// The represented kernel object, if this port exports one.
    /// "If the abstraction is not a port, then the port data structure
    /// contains a pointer to the actual object" — with a reference.
    kernel_object: Option<ObjRef<dyn Refable>>,
    /// When the port belongs to a port set: the set's wakeup event
    /// (the set's address, never 0). Receives must then go through the
    /// set. [`Event::NULL`] when the port is in no set.
    pset_event: Event,
}

/// A Mach port.
///
/// # Examples
///
/// ```
/// use machk_ipc::{Message, Port};
///
/// let port = Port::create();
/// port.send(Message::new(1).with_int(10)).unwrap();
/// let msg = port.receive().unwrap();
/// assert_eq!(msg.int_at(0), Some(10));
/// ```
pub struct Port {
    /// The port lock, count and flag, with the state under the lock.
    obj: Kobj<PortState>,
    /// Lock-free bounded message ring; see the module docs.
    queue: MpscRing<Message>,
}

impl Refable for Port {
    fn header(&self) -> &ObjHeader {
        self.obj.header()
    }
}

// Release layout without probes: header 8 + state 24 (the object
// pointer 16, the set event 8) + ring 24.
#[cfg(not(debug_assertions))]
const _: () = assert!(machk_core::sync::probe::ENABLED || core::mem::size_of::<Port>() == 56);

impl Port {
    /// Create a port with the default queue limit, returning the
    /// creation reference (conventionally the receive right).
    pub fn create() -> ObjRef<Port> {
        Port::create_with_limit(DEFAULT_QUEUE_LIMIT)
    }

    /// Create a port with an explicit queue limit (1 to 2^31).
    pub fn create_with_limit(limit: usize) -> ObjRef<Port> {
        assert!(limit >= 1, "queue limit must be at least 1");
        ObjRef::new(Port {
            // One trace name for every port lock and every port queue:
            // the obs registry dedupes per name, so the lockstat report
            // and its flamegraph fold aggregate across all ports.
            obj: Kobj::named(
                "ipc.port.lock",
                PortState {
                    kernel_object: None,
                    pset_event: Event::NULL,
                },
            ),
            queue: MpscRing::with_limit_named(limit, "ipc.port.queue"),
        })
    }

    fn recv_event(&self) -> Event {
        Event::from_addr(self)
    }

    fn send_event(&self) -> Event {
        Event::from_addr(self).offset(1)
    }

    /// The set's event, or `None` when the port is in no set.
    fn pset_event(&self) -> Option<Event> {
        Some(self.obj.lock().pset_event).filter(|&ev| ev != Event::NULL)
    }

    /// Post-enqueue wakeups: a receiver (directly or through the port
    /// set) plus — after a destroy raced with the enqueue — the
    /// dead-port cleanup described in [`Port::send`].
    fn after_enqueue(&self) -> Result<(), PortError> {
        // SeqCst fence, pairing with the one in `destroy` between
        // deactivate and drain. In the single total order of SeqCst
        // fences either ours comes first — then our push is visible to
        // destroy's drain — or destroy's comes first — then the load
        // below observes the dead flag and we drain ourselves. Either
        // way no message survives destruction. Without the fences a
        // store→load reordering (legal even on x86: the push sits in
        // the store buffer while `active` is read early) lets the push
        // miss destroy's drain while we still read `active == true`.
        core::sync::atomic::fence(core::sync::atomic::Ordering::SeqCst);
        if !self.obj.is_active() {
            // A destroy ran concurrently with our push; its drain may
            // have missed our message, so drain again ourselves. Pops
            // are CAS claims, so racing with other cleaners is safe.
            while self.queue.pop().is_some() {}
            return Err(PortError::Dead);
        }
        thread_wakeup(self.recv_event());
        if let Some(ev) = self.pset_event() {
            thread_wakeup(ev);
        }
        Ok(())
    }

    /// Send a message, blocking while the queue is full.
    pub fn send(&self, msg: Message) -> Result<(), PortError> {
        let mut msg = msg;
        loop {
            self.header().check_active()?;
            match self.queue.push(msg) {
                Ok(()) => return self.after_enqueue(),
                Err(back) => {
                    msg = back;
                    // Queue full: the split-wait protocol — declare the
                    // wait, then re-validate (there is no lock to close
                    // the window, so the re-check after assert_wait is
                    // the §6 discipline's lock-free analogue).
                    assert_wait(self.send_event(), false);
                    if self.queue.len() < self.queue.limit() || !self.obj.is_active() {
                        clear_wait(&current_thread(), WaitResult::Awakened);
                    }
                    thread_block();
                }
            }
        }
    }

    /// Send without blocking.
    ///
    /// On failure the error carries the undelivered message back when
    /// it still exists: `Some(msg)` for a full queue
    /// ([`PortError::TimedOut`]) or a port observed dead before the
    /// enqueue. `None` means a destroy raced with the enqueue and the
    /// dead-port drain already consumed the message — its payload is
    /// gone and any rights it carried were released, exactly as
    /// [`Port::destroy`] promises for queued messages.
    pub fn try_send(&self, msg: Message) -> Result<(), (Option<Message>, PortError)> {
        if !self.obj.is_active() {
            return Err((Some(msg), PortError::Dead));
        }
        match self.queue.push(msg) {
            Ok(()) => self.after_enqueue().map_err(|e| {
                debug_assert_eq!(e, PortError::Dead);
                // Consumed by the dead-port drain: nothing to hand back.
                (None, e)
            }),
            Err(back) => Err((Some(back), PortError::TimedOut)),
        }
    }

    /// Receive a message, blocking while the queue is empty.
    pub fn receive(&self) -> Result<Message, PortError> {
        self.receive_until(None)
    }

    /// Receive with an upper bound on the wait.
    pub fn receive_timeout(&self, timeout: Duration) -> Result<Message, PortError> {
        self.receive_until(Some(Deadline::after(timeout)))
    }

    /// The one blocking receive: unbounded, or bounded by `deadline` on
    /// the host clock. A wakeup at the deadline loops back to the top,
    /// so a message that raced in is still taken.
    fn receive_until(&self, deadline: Option<Deadline>) -> Result<Message, PortError> {
        loop {
            match self.try_receive() {
                Err(PortError::TimedOut) => {}
                done => return done,
            }
            if deadline.is_some_and(|d| d.expired()) {
                return Err(PortError::TimedOut);
            }
            assert_wait(self.recv_event(), false);
            // Re-validate after declaring the wait: a sender (or a
            // destroy) that fired its wakeup before our assert_wait
            // must not strand us.
            if !self.queue.is_empty() || !self.obj.is_active() {
                clear_wait(&current_thread(), WaitResult::Awakened);
            }
            thread_block_until(deadline);
        }
    }

    /// Receive without blocking.
    pub fn try_receive(&self) -> Result<Message, PortError> {
        if self.pset_event().is_some() {
            return Err(PortError::InPortSet);
        }
        self.try_receive_for_set()
    }

    /// Batched non-blocking receive: dequeue up to `max` messages into
    /// `out` in one sweep, waking blocked senders once. Returns how many
    /// messages were taken. The dispatch loop's amortized dequeue path.
    pub fn receive_batch(&self, out: &mut Vec<Message>, max: usize) -> Result<usize, PortError> {
        if self.pset_event().is_some() {
            return Err(PortError::InPortSet);
        }
        if let Some(n) = self.dequeue(|q| Some(q.pop_batch(out, max)).filter(|&n| n > 0)) {
            return Ok(n);
        }
        self.header().check_active()?;
        Ok(0)
    }

    /// Take messages off the queue with `pop` and, if it took any,
    /// wake the senders blocked on the full queue.
    fn dequeue<T>(&self, pop: impl FnOnce(&MpscRing<Message>) -> Option<T>) -> Option<T> {
        let taken = pop(&self.queue)?;
        thread_wakeup(self.send_event());
        Some(taken)
    }

    /// Messages currently queued (racy; diagnostics).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The queue's message limit.
    pub fn queue_limit(&self) -> usize {
        self.queue.limit()
    }

    /// Join a port set (called by `PortSet::add` with the set lock
    /// held; lock order is set before port).
    pub(crate) fn join_set(&self, set_event: Event) -> Result<(), PortError> {
        debug_assert_ne!(set_event, Event::NULL, "NULL means no set");
        let mut s = self.obj.lock_active()?;
        if s.pset_event != Event::NULL {
            return Err(PortError::InPortSet);
        }
        s.pset_event = set_event;
        Ok(())
    }

    /// Leave the port set (called by `PortSet::remove`/`destroy`).
    pub(crate) fn leave_set(&self) {
        self.obj.lock().pset_event = Event::NULL;
    }

    /// Non-blocking dequeue on behalf of the containing port set (the
    /// set, not the port, refuses direct receives).
    pub(crate) fn try_receive_for_set(&self) -> Result<Message, PortError> {
        if let Some(m) = self.dequeue(MpscRing::pop) {
            return Ok(m);
        }
        self.header().check_active()?;
        Err(PortError::TimedOut)
    }

    /// Attach the kernel object this port represents. The port now owns
    /// the given reference.
    pub fn set_kernel_object(&self, obj: ObjRef<dyn Refable>) {
        let old = self.obj.lock().kernel_object.replace(obj);
        // Release any displaced reference outside the lock (the
        // section-8 release rule).
        drop(old);
    }

    /// Port-to-object translation: clone the represented object's
    /// reference (the step-2 translation of section 10). Fails once the
    /// pointer has been removed by shutdown.
    pub fn kernel_object(&self) -> Result<ObjRef<dyn Refable>, PortError> {
        let s = self.obj.lock();
        match &s.kernel_object {
            // Cloning takes a reference while the port lock preserves
            // the pointer — the "indirect reference" protocol. For a
            // plain object that locks it: port before object.
            Some(obj) => Ok(obj.clone()),
            None => Err(PortError::NotAnObjectPort),
        }
    }

    /// Shutdown step 2: "lock the corresponding port, remove the object
    /// pointer and reference from the port, and unlock the port. This
    /// disables port to object translation." Returns the removed
    /// reference for the caller to release (outside any lock).
    pub fn clear_kernel_object(&self) -> Option<ObjRef<dyn Refable>> {
        self.obj.lock().kernel_object.take()
    }

    /// Destroy the port: deactivate it and wake all blocked senders and
    /// receivers (they observe [`PortError::Dead`]). Queued messages are
    /// drained and dropped (releasing any port rights they carry).
    ///
    /// With the lock-free queue the deactivate/drain pair is not atomic;
    /// a sender whose push lands after our drain observes the dead
    /// header *after* its enqueue and runs the same drain itself
    /// (`Port::after_enqueue`), so no message survives destruction.
    pub fn destroy(&self) -> Result<(), PortError> {
        self.obj.deactivate()?;
        // SeqCst fence, pairing with the one in `after_enqueue` (see
        // there): orders the deactivation store against concurrent
        // push/is_active pairs so the drain below and the senders'
        // self-drains together cover every interleaving.
        core::sync::atomic::fence(core::sync::atomic::Ordering::SeqCst);
        // Drain outside any lock: messages may carry port rights whose
        // release could cascade into destruction.
        while let Some(m) = self.queue.pop() {
            drop(m);
        }
        thread_wakeup(self.recv_event());
        thread_wakeup(self.send_event());
        if let Some(ev) = self.pset_event() {
            thread_wakeup(ev);
        }
        Ok(())
    }

    /// Whether the port is still alive.
    pub fn is_alive(&self) -> bool {
        self.obj.is_active()
    }
}

impl core::fmt::Debug for Port {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Port")
            .field("alive", &self.is_alive())
            .field("queued", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn send_receive_fifo() {
        let port = Port::create();
        for i in 0..10 {
            port.send(Message::new(i)).unwrap();
        }
        for i in 0..10 {
            assert_eq!(port.receive().unwrap().id(), i);
        }
    }

    #[test]
    fn receive_blocks_until_send() {
        let port = Port::create();
        std::thread::scope(|s| {
            let t = s.spawn(|| port.receive().unwrap().int_at(0));
            std::thread::sleep(Duration::from_millis(10));
            port.send(Message::new(0).with_int(5)).unwrap();
            assert_eq!(t.join().unwrap(), Some(5));
        });
    }

    #[test]
    fn bounded_queue_blocks_sender() {
        let port = Port::create_with_limit(2);
        port.send(Message::new(0)).unwrap();
        port.send(Message::new(1)).unwrap();
        let sent_third = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                port.send(Message::new(2)).unwrap();
                sent_third.store(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(sent_third.load(Ordering::SeqCst), 0, "sender must block");
            assert_eq!(port.receive().unwrap().id(), 0);
            // Space freed: the sender completes.
            while sent_third.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        });
        assert_eq!(port.receive().unwrap().id(), 1);
        assert_eq!(port.receive().unwrap().id(), 2);
    }

    #[test]
    fn try_send_full_returns_message() {
        let port = Port::create_with_limit(1);
        port.send(Message::new(0)).unwrap();
        let (msg, err) = port.try_send(Message::new(1).with_int(9)).unwrap_err();
        assert_eq!(err, PortError::TimedOut);
        let msg = msg.expect("full-queue failure returns the message");
        assert_eq!(msg.int_at(0), Some(9), "message returned intact");
    }

    #[test]
    fn try_send_on_dead_port_returns_message() {
        let port = Port::create();
        port.destroy().unwrap();
        let (msg, err) = port.try_send(Message::new(3).with_int(7)).unwrap_err();
        assert_eq!(err, PortError::Dead);
        let msg = msg.expect("dead observed before enqueue: message intact");
        assert_eq!(msg.int_at(0), Some(7));
    }

    #[test]
    fn receive_timeout_expires_or_takes_a_late_message() {
        let port = Port::create();
        let r = port.receive_timeout(Duration::from_millis(10));
        assert_eq!(r.unwrap_err(), PortError::TimedOut);
        std::thread::scope(|s| {
            s.spawn(|| {
                while machk_core::event::waiters_on(port.recv_event()) == 0 {
                    std::thread::yield_now();
                }
                port.send(Message::new(0).with_int(3)).unwrap();
            });
            let m = port.receive_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(m.int_at(0), Some(3));
        });
    }

    #[test]
    fn destroy_wakes_blocked_receiver() {
        let port = Port::create();
        std::thread::scope(|s| {
            let t = s.spawn(|| port.receive());
            std::thread::sleep(Duration::from_millis(10));
            port.destroy().unwrap();
            assert_eq!(t.join().unwrap().unwrap_err(), PortError::Dead);
        });
    }

    #[test]
    fn destroy_wakes_blocked_sender() {
        let port = Port::create_with_limit(1);
        port.send(Message::new(0)).unwrap();
        std::thread::scope(|s| {
            let t = s.spawn(|| port.send(Message::new(1)));
            std::thread::sleep(Duration::from_millis(10));
            port.destroy().unwrap();
            assert_eq!(t.join().unwrap().unwrap_err(), PortError::Dead);
        });
    }

    #[test]
    fn dead_port_refuses_operations() {
        let port = Port::create();
        port.destroy().unwrap();
        assert_eq!(port.send(Message::new(0)).unwrap_err(), PortError::Dead);
        assert_eq!(port.receive().unwrap_err(), PortError::Dead);
        assert_eq!(port.destroy().unwrap_err(), PortError::Dead);
        assert!(!port.is_alive());
    }

    #[test]
    fn destroy_releases_queued_port_rights() {
        let inner = Port::create();
        let port = Port::create();
        port.send(Message::new(0).with_port_right(inner.clone()))
            .unwrap();
        assert_eq!(ObjRef::ref_count(&inner), 2);
        port.destroy().unwrap();
        assert_eq!(ObjRef::ref_count(&inner), 1, "queued right released");
    }

    #[test]
    fn send_racing_destroy_never_leaks_rights() {
        // Hammer the send-vs-destroy race: whatever interleaving occurs,
        // every queued right must be released by the time both sides are
        // done (destroy's drain or the sender's dead-port cleanup).
        for _ in 0..200 {
            let inner = Port::create();
            let port = Port::create();
            std::thread::scope(|s| {
                let p = &port;
                let i = &inner;
                s.spawn(move || {
                    let _ = p.send(Message::new(0).with_port_right(i.clone()));
                });
                s.spawn(move || {
                    let _ = p.destroy();
                });
            });
            let _ = port.destroy();
            assert_eq!(ObjRef::ref_count(&inner), 1, "right must not leak");
        }
    }

    #[test]
    fn receive_batch_drains_in_order() {
        let port = Port::create();
        for i in 0..10 {
            port.send(Message::new(i)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(port.receive_batch(&mut out, 4).unwrap(), 4);
        assert_eq!(port.receive_batch(&mut out, 100).unwrap(), 6);
        let ids: Vec<u32> = out.iter().map(|m| m.id()).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u32>>());
        assert_eq!(port.receive_batch(&mut out, 1).unwrap(), 0);
        port.destroy().unwrap();
        assert_eq!(
            port.receive_batch(&mut out, 1).unwrap_err(),
            PortError::Dead
        );
    }

    #[test]
    fn kernel_object_translation_clones_reference() {
        use machk_core::Kobj;
        let task = Kobj::create(0u32);
        let port = Port::create();
        port.set_kernel_object(task.clone().into_dyn());
        assert_eq!(ObjRef::ref_count(&task), 2);
        let translated = port.kernel_object().unwrap();
        assert_eq!(ObjRef::ref_count(&task), 3, "translation takes a reference");
        drop(translated);
        let removed = port.clear_kernel_object().expect("pointer present");
        drop(removed);
        assert_eq!(ObjRef::ref_count(&task), 1);
        match port.kernel_object() {
            Err(PortError::NotAnObjectPort) => {} // translation disabled after step 2
            other => panic!("expected NotAnObjectPort, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn many_producers_one_consumer() {
        const PRODUCERS: usize = 4;
        const PER: usize = 500;
        let port = Port::create_with_limit(8);
        let sum = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let port = &port;
                s.spawn(move || {
                    for i in 0..PER {
                        port.send(Message::new(0).with_int((p * PER + i) as u64))
                            .unwrap();
                    }
                });
            }
            for _ in 0..PRODUCERS * PER {
                let m = port.receive().unwrap();
                sum.fetch_add(m.int_at(0).unwrap() as usize, Ordering::Relaxed);
            }
        });
        let n = PRODUCERS * PER;
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}
