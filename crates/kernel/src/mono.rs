//! The single-lock task — ablation baseline for experiment E8.
//!
//! Section 5 motivates the task's second lock: "a task has two locks to
//! allow task operations and ipc translations to occur in parallel."
//! [`MonoTask`] is the design without that refinement — one simple lock
//! serializes both the thread/suspend state *and* the port name table —
//! so the benchmark can measure what the second lock buys. Its name
//! table is the same [`NameTable`] a name-space shard holds, so the two
//! designs differ only in the lock split.

use machk_core::{Deactivated, Kobj, ObjHeader, ObjRef, Refable};
use machk_ipc::{NameTable, Port, PortName};

struct MonoState {
    suspend_count: u32,
    thread_count: u32,
    names: NameTable,
}

/// A task whose every operation — including port-name translation —
/// takes the one task lock.
pub struct MonoTask {
    /// The one lock: count, flag, task state and name table.
    obj: Kobj<MonoState>,
}

impl Refable for MonoTask {
    fn header(&self) -> &ObjHeader {
        self.obj.header()
    }
}

impl MonoTask {
    /// Create a single-lock task.
    pub fn create() -> ObjRef<MonoTask> {
        ObjRef::new(MonoTask {
            obj: Kobj::named(
                "mono_task.lock",
                MonoState {
                    suspend_count: 0,
                    thread_count: 0,
                    names: NameTable::new(),
                },
            ),
        })
    }

    /// A task operation (suspend), under the single lock.
    pub fn suspend(&self) -> Result<u32, Deactivated> {
        let mut s = self.obj.lock_active()?;
        s.suspend_count += 1;
        Ok(s.suspend_count)
    }

    /// A task operation (resume), under the single lock.
    pub fn resume(&self) -> Result<u32, Deactivated> {
        let mut s = self.obj.lock_active()?;
        if s.suspend_count > 0 {
            s.suspend_count -= 1;
        }
        Ok(s.suspend_count)
    }

    /// A bookkeeping-only thread create (count, no object), enough for
    /// the lock-contention comparison.
    pub fn note_thread_create(&self) -> Result<u32, Deactivated> {
        let mut s = self.obj.lock_active()?;
        s.thread_count += 1;
        Ok(s.thread_count)
    }

    /// Insert a port right — also under the single lock.
    pub fn port_insert(&self, right: ObjRef<Port>) -> PortName {
        self.obj.lock().names.insert(right)
    }

    /// Translate a port name — under the *same* lock as task
    /// operations: the contention E8 measures. The clone locks the port
    /// under the task lock (task before port).
    pub fn port_translate(&self, name: PortName) -> Option<ObjRef<Port>> {
        self.obj.lock().names.get(name).cloned()
    }

    /// Terminate: deactivate and drain.
    pub fn terminate(&self) -> Result<(), Deactivated> {
        let mut rights = Vec::new();
        {
            let mut s = self.obj.lock();
            s.deactivate()?;
            s.names.drain_into(&mut rights);
        }
        drop(rights);
        Ok(())
    }
}

impl core::fmt::Debug for MonoTask {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MonoTask")
            .field("active", &self.obj.is_active())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_api_surface_works() {
        let t = MonoTask::create();
        assert_eq!(t.suspend().unwrap(), 1);
        assert_eq!(t.resume().unwrap(), 0);
        assert_eq!(t.note_thread_create().unwrap(), 1);
        let p = Port::create();
        let name = t.port_insert(p.clone());
        assert!(t.port_translate(name).is_some());
        t.terminate().unwrap();
        assert!(t.suspend().is_err());
        assert_eq!(ObjRef::ref_count(&p), 1, "rights drained");
    }

    #[test]
    fn translations_contend_with_task_ops() {
        // Structural check (the benchmark quantifies it): holding the
        // single lock blocks translations.
        let t = MonoTask::create();
        let p = Port::create();
        let name = t.port_insert(p.clone());
        let g = t.obj.lock();
        // A translation from another thread cannot proceed; verify with
        // try-lock semantics from this thread (the lock is not
        // recursive, so a blocking call would deadlock).
        assert!(t.obj.header().lock().try_lock().is_none());
        drop(g);
        assert!(t.port_translate(name).is_some());
    }
}
