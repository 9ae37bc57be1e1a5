//! Single-writer coordination without multiprocessor locks.
//!
//! Section 2 of the paper: "It is possible to implement operation
//! coordination without multiprocessor locks, but such techniques are
//! reasonable only in situations where other restrictions ensure that
//! only a single processor can attempt to change the data structure at
//! a time. ... The Mach kernel's operation coordination techniques are
//! based on multiprocessor locking, with the exception of access to
//! timer data structures in its usage timing subsystem."
//!
//! [`SeqCell`] is that exception, generalized: a cell owned by exactly
//! one writer (enforced by requiring the [`SeqWriter`] handle, which is
//! not cloneable), readable from any thread without blocking the
//! writer. The Mach timing facility used a check field the reader
//! compares before and after; the modern formulation is a sequence
//! counter — odd while a write is in progress, bumped to even when it
//! completes — and that is what is implemented here.

use core::cell::UnsafeCell;
use core::sync::atomic::{fence, AtomicU64, Ordering};

use crate::host::SpinSite;
use crate::policy::Spinner;

/// A single-writer, many-reader cell: writes never block and never
/// wait for readers; readers retry if they observe a torn write.
///
/// `T` must be `Copy`: readers copy the value out while it may be
/// concurrently overwritten, so it can never contain owned resources.
///
/// # Examples
///
/// ```
/// use machk_sync::seq::SeqCell;
///
/// let (cell, owned) = SeqCell::new((0u64, 0u64));
/// let mut writer = owned.attach(&cell);
/// writer.write((1, 1));
/// assert_eq!(cell.read(), (1, 1));
/// ```
pub struct SeqCell<T: Copy> {
    seq: AtomicU64,
    value: UnsafeCell<T>,
}

// Safety: concurrent reads of `value` race with the single writer, but
// every racing read is detected by the sequence counter and discarded;
// only values read under a stable even sequence are returned.
unsafe impl<T: Copy + Send> Send for SeqCell<T> {}
unsafe impl<T: Copy + Send> Sync for SeqCell<T> {}

/// The write capability for one [`SeqCell`]. Not cloneable: this is the
/// "other restriction \[that\] ensure\[s\] that only a single processor can
/// attempt to change the data structure at a time".
pub struct SeqWriter<'a, T: Copy> {
    cell: &'a SeqCell<T>,
}

impl<T: Copy> SeqCell<T> {
    /// Create a cell and its unique writer handle.
    pub fn new(value: T) -> (SeqCell<T>, SeqWriterOwned<T>) {
        let cell = SeqCell {
            seq: AtomicU64::new(0),
            value: UnsafeCell::new(value),
        };
        (
            cell,
            SeqWriterOwned {
                _marker: core::marker::PhantomData,
            },
        )
    }

    /// Create a cell whose writer will be derived later via
    /// [`SeqCell::writer`] (for embedding in per-CPU structures where
    /// the owning CPU is the single writer by construction).
    pub const fn new_unowned(value: T) -> SeqCell<T> {
        SeqCell {
            seq: AtomicU64::new(0),
            value: UnsafeCell::new(value),
        }
    }

    /// Obtain a writer handle.
    ///
    /// # Safety-by-convention
    ///
    /// The *caller* asserts the single-writer restriction (e.g. "only
    /// the owning CPU's thread calls this"). Multiple simultaneous
    /// writers are detected probabilistically by a debug assertion on
    /// the sequence parity but are a protocol violation.
    pub fn writer(&self) -> SeqWriter<'_, T> {
        SeqWriter { cell: self }
    }

    /// Read the value, retrying until a consistent copy is observed.
    /// Never blocks the writer; lock-free for readers (obstruction-free
    /// under a storm of writes).
    pub fn read(&self) -> T {
        let mut spinner = Spinner::new(SpinSite::Generic);
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before & 1 == 1 {
                // A write is in flight: wait for the writer to finish.
                spinner.relax();
                continue;
            }
            // Speculative read; may race with a writer, which is fine
            // for Copy data — the sequence check rejects torn values.
            let value = unsafe { core::ptr::read_volatile(self.value.get()) };
            fence(Ordering::Acquire);
            // relaxed: the Acquire fence above orders this re-check
            // after the speculative data read.
            let after = self.seq.load(Ordering::Relaxed);
            if before == after {
                return value;
            }
            spinner.relax();
        }
    }

    /// The number of completed writes (diagnostics).
    pub fn write_count(&self) -> u64 {
        // relaxed: diagnostics-only counter snapshot.
        self.seq.load(Ordering::Relaxed) / 2
    }
}

impl<T: Copy> SeqWriter<'_, T> {
    /// Publish a new value. Wait-free: never blocks on readers.
    pub fn write(&mut self, value: T) {
        let cell = self.cell;
        // relaxed: only this single writer ever modifies `seq`.
        let seq = cell.seq.load(Ordering::Relaxed);
        debug_assert_eq!(
            seq & 1,
            0,
            "concurrent SeqCell writers (protocol violation)"
        );
        // relaxed: the Release fence below keeps the odd store and
        // the data write ordered for any reader that sees them.
        cell.seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        unsafe { core::ptr::write_volatile(cell.value.get(), value) };
        cell.seq.store(seq + 2, Ordering::Release);
    }

    /// Read-modify-write through the single writer (no torn
    /// intermediate is ever observable).
    pub fn update(&mut self, f: impl FnOnce(T) -> T) {
        let cur = unsafe { core::ptr::read(self.cell.value.get()) };
        self.write(f(cur));
    }
}

/// Marker returned by [`SeqCell::new`] proving the caller started with
/// a unique writer; exchange it for a [`SeqWriter`] with
/// [`SeqWriterOwned::attach`].
pub struct SeqWriterOwned<T: Copy> {
    _marker: core::marker::PhantomData<fn() -> T>,
}

impl<T: Copy> SeqWriterOwned<T> {
    /// Bind the owned write capability to its cell.
    pub fn attach(self, cell: &SeqCell<T>) -> SeqWriter<'_, T> {
        cell.writer()
    }
}

impl<T: Copy> core::fmt::Debug for SeqCell<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SeqCell")
            .field("writes", &self.write_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_last_write() {
        let cell = SeqCell::new_unowned((1u64, 2u64));
        let mut w = cell.writer();
        assert_eq!(cell.read(), (1, 2));
        w.write((3, 4));
        assert_eq!(cell.read(), (3, 4));
        w.update(|(a, b)| (a + 1, b + 1));
        assert_eq!(cell.read(), (4, 5));
        assert_eq!(cell.write_count(), 2);
    }

    #[test]
    fn readers_never_observe_torn_pairs() {
        // The writer keeps an invariant (b == 2a); readers must never
        // see it violated, no matter how fast the writes come.
        let cell = SeqCell::new_unowned((0u64, 0u64));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = cell.writer();
                for i in 1..=200_000u64 {
                    w.write((i, 2 * i));
                }
            });
            for _ in 0..3 {
                s.spawn(|| loop {
                    let (a, b) = cell.read();
                    assert_eq!(b, 2 * a, "torn read observed");
                    if a == 200_000 {
                        break;
                    }
                });
            }
        });
    }

    #[test]
    fn owned_writer_roundtrip() {
        let (cell, owned) = SeqCell::new(7u32);
        let mut w = owned.attach(&cell);
        w.write(8);
        assert_eq!(cell.read(), 8);
    }
}
