//! Port sets: receive from any of several ports.
//!
//! Mach lets a receiver service many ports through one blocking point
//! by collecting them into a *port set*. The set is itself a
//! reference-counted kernel object; member ports carry a back link so
//! a send to any member wakes the set's waiters. The lock ordering
//! convention (section 5, by object type) is **set before port**.
//!
//! Direct `receive` on a port that is in a set is refused
//! ([`crate::PortError::InPortSet`]) — in Mach the receive right
//! effectively moves to the set.

use std::time::Duration;

use machk_core::sync::Deadline;
use machk_core::{
    assert_wait, clear_wait, current_thread, thread_block_until, Event, Kobj, ObjHeader, ObjRef,
    Refable, WaitResult,
};

use crate::message::Message;
use crate::port::{Port, PortError};

struct PortSetState {
    members: Vec<ObjRef<Port>>,
    /// Round-robin start index so one busy port cannot starve the
    /// others.
    next: usize,
}

/// A set of ports with a single blocking receive point.
///
/// # Examples
///
/// ```
/// use machk_ipc::{Message, Port, PortSet};
///
/// let set = PortSet::create();
/// let a = Port::create();
/// let b = Port::create();
/// set.add(a.clone()).unwrap();
/// set.add(b.clone()).unwrap();
///
/// b.send(Message::new(7)).unwrap();
/// let (msg, from) = set.receive().unwrap();
/// assert_eq!(msg.id(), 7);
/// assert!(machk_core::ObjRef::ptr_eq(&from, &b));
/// ```
pub struct PortSet {
    obj: Kobj<PortSetState>,
}

impl Refable for PortSet {
    fn header(&self) -> &ObjHeader {
        self.obj.header()
    }
}

impl PortSet {
    /// Create an empty port set, returning the creation reference.
    pub fn create() -> ObjRef<PortSet> {
        ObjRef::new(PortSet {
            obj: Kobj::named(
                "ipc.port_set.lock",
                PortSetState {
                    members: Vec::new(),
                    next: 0,
                },
            ),
        })
    }

    fn event(&self) -> Event {
        Event::from_addr(self)
    }

    /// Add a port to the set. The set holds the given reference; the
    /// port's queue now wakes the set.
    ///
    /// Fails if the port is already in a set (Mach allows at most one)
    /// or if either object is dead.
    pub fn add(&self, port: ObjRef<Port>) -> Result<(), PortError> {
        // Lock order: set before port.
        let mut s = self.obj.lock_active()?;
        port.join_set(self.event())?;
        s.members.push(port);
        Ok(())
    }

    /// Remove a port from the set; returns the set's reference to it.
    pub fn remove(&self, port: &ObjRef<Port>) -> Option<ObjRef<Port>> {
        let mut s = self.obj.lock();
        let i = s.members.iter().position(|m| ObjRef::ptr_eq(m, port))?;
        let member = s.members.swap_remove(i);
        member.leave_set();
        drop(s);
        Some(member)
    }

    /// Number of member ports.
    pub fn len(&self) -> usize {
        self.obj.lock().members.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Try each member once (round-robin), without blocking.
    fn poll_members(&self) -> Option<(Message, ObjRef<Port>)> {
        let (members, start) = {
            let mut s = self.obj.lock();
            if s.members.is_empty() {
                return None;
            }
            s.next = (s.next + 1) % s.members.len();
            (s.members.clone(), s.next)
        };
        let n = members.len();
        for k in 0..n {
            let port = &members[(start + k) % n];
            if let Ok(msg) = port.try_receive_for_set() {
                return Some((msg, port.clone()));
            }
        }
        None
    }

    /// Receive from any member, blocking until a message arrives on
    /// one of them. Returns the message and the port it came from.
    pub fn receive(&self) -> Result<(Message, ObjRef<Port>), PortError> {
        self.receive_until(None)
    }

    /// Receive with a bound on the wait.
    pub fn receive_timeout(&self, timeout: Duration) -> Result<(Message, ObjRef<Port>), PortError> {
        self.receive_until(Some(Deadline::after(timeout)))
    }

    /// The one blocking receive: unbounded, or bounded by `deadline` on
    /// the host clock. A wakeup at the deadline loops back to the top,
    /// so a message that raced in is still taken.
    fn receive_until(
        &self,
        deadline: Option<Deadline>,
    ) -> Result<(Message, ObjRef<Port>), PortError> {
        loop {
            if let Some(hit) = self.poll_members() {
                return Ok(hit);
            }
            let s = self.obj.lock_active()?;
            if deadline.is_some_and(|d| d.expired()) {
                return Err(PortError::TimedOut);
            }
            // Declare before dropping the set lock (split-wait
            // protocol) — then re-validate: member queues are
            // lock-free, so a send may have enqueued and fired its
            // set wakeup between our poll and the assert_wait.
            assert_wait(self.event(), false);
            let pending = s.members.iter().any(|m| m.queued() > 0 || !m.is_alive());
            drop(s);
            if pending {
                clear_wait(&current_thread(), WaitResult::Awakened);
            }
            thread_block_until(deadline);
        }
    }

    /// Destroy the set: deactivate, detach all members (returning their
    /// references for release), wake blocked receivers.
    pub fn destroy(&self) -> Result<(), PortError> {
        let members = {
            let mut s = self.obj.lock();
            s.deactivate()?;
            for m in &s.members {
                m.leave_set();
            }
            core::mem::take(&mut s.members)
        };
        drop(members);
        machk_core::thread_wakeup(self.event());
        Ok(())
    }
}

impl core::fmt::Debug for PortSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PortSet")
            .field("alive", &self.obj.is_active())
            .field("members", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn receive_round_robins_members() {
        let set = PortSet::create();
        let ports: Vec<_> = (0..3).map(|_| Port::create()).collect();
        for p in &ports {
            set.add(p.clone()).unwrap();
        }
        for (i, p) in ports.iter().enumerate() {
            p.send(Message::new(i as u32)).unwrap();
        }
        let mut got: Vec<u32> = (0..3).map(|_| set.receive().unwrap().0.id()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        set.destroy().unwrap();
    }

    #[test]
    fn direct_receive_on_member_is_refused() {
        let set = PortSet::create();
        let port = Port::create();
        set.add(port.clone()).unwrap();
        port.send(Message::new(1)).unwrap();
        assert_eq!(port.receive().unwrap_err(), PortError::InPortSet);
        assert_eq!(port.try_receive().unwrap_err(), PortError::InPortSet);
        // Through the set it works.
        let (msg, from) = set.receive().unwrap();
        assert_eq!(msg.id(), 1);
        assert!(ObjRef::ptr_eq(&from, &port));
        // After removal the port receives directly again.
        set.remove(&port).unwrap();
        port.send(Message::new(2)).unwrap();
        assert_eq!(port.receive().unwrap().id(), 2);
        set.destroy().unwrap();
    }

    #[test]
    fn port_cannot_join_two_sets() {
        let s1 = PortSet::create();
        let s2 = PortSet::create();
        let port = Port::create();
        s1.add(port.clone()).unwrap();
        assert_eq!(s2.add(port.clone()).unwrap_err(), PortError::InPortSet);
        s1.destroy().unwrap();
        // After the set dies, joining another is legal.
        s2.add(port.clone()).unwrap();
        s2.destroy().unwrap();
    }

    #[test]
    fn blocked_set_receive_woken_by_any_member() {
        let set = PortSet::create();
        let a = Port::create();
        let b = Port::create();
        set.add(a.clone()).unwrap();
        set.add(b.clone()).unwrap();
        std::thread::scope(|s| {
            let set = &set;
            let t = s.spawn(move || set.receive().unwrap().0.id());
            std::thread::sleep(Duration::from_millis(20));
            b.send(Message::new(42)).unwrap();
            assert_eq!(t.join().unwrap(), 42);
        });
        set.destroy().unwrap();
    }

    #[test]
    fn receive_timeout_expires_on_quiet_set_or_takes_a_late_message() {
        let set = PortSet::create();
        let port = Port::create();
        set.add(port.clone()).unwrap();
        assert_eq!(
            set.receive_timeout(Duration::from_millis(10)).unwrap_err(),
            PortError::TimedOut
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                while machk_core::event::waiters_on(set.event()) == 0 {
                    std::thread::yield_now();
                }
                port.send(Message::new(8)).unwrap();
            });
            let (msg, from) = set.receive_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(msg.id(), 8);
            assert!(ObjRef::ptr_eq(&from, &port));
        });
        set.destroy().unwrap();
    }

    #[test]
    fn destroy_wakes_blocked_receiver() {
        let set = PortSet::create();
        set.add(Port::create()).unwrap();
        std::thread::scope(|s| {
            let set = &set;
            let t = s.spawn(move || set.receive());
            std::thread::sleep(Duration::from_millis(20));
            set.destroy().unwrap();
            assert_eq!(t.join().unwrap().unwrap_err(), PortError::Dead);
        });
    }

    #[test]
    fn many_producers_one_set_receiver() {
        const PORTS: usize = 4;
        const PER: usize = 200;
        let set = PortSet::create();
        let ports: Vec<_> = (0..PORTS).map(|_| Port::create_with_limit(8)).collect();
        for p in &ports {
            set.add(p.clone()).unwrap();
        }
        let received = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for (i, p) in ports.iter().enumerate() {
                let p = p.clone();
                s.spawn(move || {
                    for k in 0..PER {
                        p.send(Message::new((i * PER + k) as u32)).unwrap();
                    }
                });
            }
            let set = &set;
            let received = &received;
            s.spawn(move || {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..PORTS * PER {
                    let (msg, _from) = set.receive().unwrap();
                    assert!(seen.insert(msg.id()), "duplicate delivery");
                    received.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(received.load(Ordering::Relaxed), PORTS * PER);
        set.destroy().unwrap();
    }
}
