//! # machk-event — the Mach event-wait mechanism
//!
//! Section 6 of "Locking and Reference Counting in the Mach Kernel"
//! (ICPP 1991) describes the primitive that Mach locking protocols use to
//! release locks and wait for an event without races:
//!
//! > This operation must be atomic with respect to the operation that
//! > declares event occurrence; this avoids races in which the event occurs
//! > while the locks are being released, leaving the waiter blocked
//! > indefinitely. Mach implements this functionality by splitting the wait
//! > functionality into declaration and conditional wait components.
//!
//! The four routines (plus the `thread_sleep` convenience) are reproduced
//! here over ordinary OS threads:
//!
//! 1. [`assert_wait`] — declare the event to be waited for.
//! 2. [`thread_block`] — context switch; waits only if the event has not
//!    occurred since the `assert_wait`.
//! 3. [`thread_wakeup`] — event-based occurrence declaration.
//! 4. [`clear_wait`] — thread-based occurrence declaration.
//!
//! A thread that needs to release locks and wait calls [`assert_wait`]
//! *before* releasing the locks and [`thread_block`] afterwards. If the
//! event occurs in the interim, the `thread_block` "is converted to a
//! non-blocking context switch that leaves the thread runnable".
//!
//! ## Implementation notes
//!
//! * The kernel context switch is simulated with
//!   `std::thread::park`/`unpark`; the wait declaration lives in a
//!   per-thread [`record::WaitRecord`] whose generation, interruptibility,
//!   wait result, and run state are packed into one atomic word so that
//!   wakeups race safely with re-asserted waits.
//! * Events are plain addresses ([`Event`]), exactly as in Mach where any
//!   kernel address can name an event. [`Event::NULL`] is "event zero (the
//!   null event), from which only a `clear_wait` can awaken" a thread.
//! * A global hashed table of wait queues ([`table`]) maps events to
//!   declared waiters; each bucket is protected by a `machk-sync` simple
//!   lock, mirroring the kernel structure.
//! * [`thread_block`] asserts (in debug builds) that the calling thread
//!   holds no simple locks, enforcing the Appendix-A rule whose violation
//!   "causes kernel deadlocks".
//! * Calling [`assert_wait`] while a wait is already asserted panics: the
//!   paper calls a nested `assert_wait` from a blocking operation "fatal"
//!   (section 8), and we make the fatality diagnosable.
//! * [`thread_block_timeout`] bounds a wait; Mach acquired the same effect
//!   via `thread_set_timeout`. The repository's deadlock demonstrations
//!   (experiments E7/E10) rely on it to observe deadlocks without hanging.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod queue;
pub mod record;
pub mod table;

pub use api::{
    assert_wait, clear_wait, current_thread, thread_block, thread_block_timeout,
    thread_block_until, thread_sleep, thread_sleep_guard, thread_wakeup, thread_wakeup_one,
    wait_asserted, waiters_on,
};
pub use queue::ThreadQueue;
pub use record::{ThreadHandle, WaitResult};

/// An event that threads can wait for: an arbitrary machine word, by Mach
/// convention the address of the data structure the event concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Event(pub usize);

impl Event {
    /// The null event. Threads blocked on it can only be awakened by
    /// [`clear_wait`] — the pattern section 6 describes for subsystems
    /// that track their own blocked threads.
    pub const NULL: Event = Event(0);

    /// Name an event by the address of a data structure (the kernel
    /// convention: "wait on" the structure itself).
    pub fn from_addr<T: ?Sized>(t: &T) -> Event {
        Event(t as *const T as *const u8 as usize)
    }

    /// Derive a secondary event from the same address, for structures that
    /// need more than one logical event (Mach offset the address).
    pub fn offset(self, delta: usize) -> Event {
        Event(self.0.wrapping_add(delta))
    }
}

impl From<usize> for Event {
    fn from(v: usize) -> Self {
        Event(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_from_addr_is_stable() {
        let x = 5u32;
        assert_eq!(Event::from_addr(&x), Event::from_addr(&x));
    }

    #[test]
    fn event_offset_distinguishes() {
        let x = 5u32;
        let e = Event::from_addr(&x);
        assert_ne!(e, e.offset(1));
    }

    #[test]
    fn null_event_is_zero() {
        assert_eq!(Event::NULL, Event(0));
        assert_eq!(Event::from(0usize), Event::NULL);
    }
}
