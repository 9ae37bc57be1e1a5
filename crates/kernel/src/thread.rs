//! Thread objects.
//!
//! "A thread is a locus of control within a task." The kernel data
//! structure — not an OS thread — with the reference counting and
//! deactivation discipline of sections 8–9. The thread holds a counted
//! back pointer to its task; the task holds counted pointers to its
//! threads; termination breaks the links (which is also what makes the
//! reference cycle collectable — Mach's answer, not weak pointers).

use machk_core::{Deactivated, Kobj, ObjHeader, ObjRef, Refable};

use crate::task::Task;

/// The state under the thread lock.
pub(crate) struct ThreadState {
    pub(crate) suspend_count: u32,
    /// Back pointer to the containing task, with a reference.
    /// Cleared by termination.
    pub(crate) task: Option<ObjRef<Task>>,
}

/// A Mach thread (the kernel object, not an OS thread).
pub struct ThreadObj {
    /// The thread lock, guarding the count, the flag and the state.
    obj: Kobj<ThreadState>,
}

impl Refable for ThreadObj {
    fn header(&self) -> &ObjHeader {
        self.obj.header()
    }
}

impl ThreadObj {
    /// Create a thread within `task` (takes a task reference for the
    /// back pointer). Callers normally use [`Task::thread_create`],
    /// which also links the thread into the task.
    pub(crate) fn create(task: ObjRef<Task>) -> ObjRef<ThreadObj> {
        ObjRef::new(ThreadObj {
            obj: Kobj::named(
                "thread.lock",
                ThreadState {
                    suspend_count: 0,
                    task: Some(task),
                },
            ),
        })
    }

    /// Increment the suspend count.
    pub fn suspend(&self) -> Result<u32, Deactivated> {
        let mut s = self.obj.lock_active()?;
        s.suspend_count += 1;
        Ok(s.suspend_count)
    }

    /// Decrement the suspend count (resume at zero).
    pub fn resume(&self) -> Result<u32, Deactivated> {
        let mut s = self.obj.lock_active()?;
        if s.suspend_count == 0 {
            return Ok(0);
        }
        s.suspend_count -= 1;
        Ok(s.suspend_count)
    }

    /// Current suspend count.
    pub fn suspend_count(&self) -> u32 {
        self.obj.lock().suspend_count
    }

    /// The thread's task, if it is still linked (a cloned reference).
    ///
    /// Clones the task reference under the thread lock. That is not a
    /// thread → task lock edge only because the task's count is sharded
    /// and its take never locks the task (see [`Task`]); with a plain
    /// count it would invert the task-before-thread order that
    /// `Task::suspend_all` and `thread_create` follow.
    pub fn task(&self) -> Option<ObjRef<Task>> {
        self.obj.lock().task.clone()
    }

    /// Whether the thread is still active.
    pub fn is_active(&self) -> bool {
        self.obj.is_active()
    }

    /// Terminate the thread: deactivate it, unlink it from its task,
    /// and release the back reference. Idempotent at the protocol level
    /// (the second caller sees `Deactivated`).
    pub fn terminate(&self) -> Result<(), Deactivated> {
        // Step 1 (set deactivated) and detaching the task reference, in
        // one acquisition of the thread lock.
        let task = {
            let mut s = self.obj.lock();
            s.deactivate()?;
            s.task.take()
        };
        // Unlink from the task (lock order: task before thread, so lock
        // the task *without* holding our own lock).
        if let Some(task) = task {
            task.unlink_thread(self);
            // Back reference released here, outside all locks.
            drop(task);
        }
        Ok(())
    }
}

impl core::fmt::Debug for ThreadObj {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ThreadObj")
            .field("active", &self.is_active())
            .field("suspend_count", &self.suspend_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Task, TaskRefExt as _};

    #[test]
    fn suspend_resume_cycle() {
        let task = Task::create();
        let th = task.thread_create().unwrap();
        assert_eq!(th.suspend().unwrap(), 1);
        assert_eq!(th.suspend().unwrap(), 2);
        assert_eq!(th.resume().unwrap(), 1);
        assert_eq!(th.resume().unwrap(), 0);
        assert_eq!(th.resume().unwrap(), 0, "resume at zero is a no-op");
        th.terminate().unwrap();
        task.terminate_simple().unwrap();
    }

    #[test]
    fn terminated_thread_refuses_operations() {
        let task = Task::create();
        let th = task.thread_create().unwrap();
        th.terminate().unwrap();
        assert_eq!(th.suspend(), Err(Deactivated));
        assert_eq!(th.resume(), Err(Deactivated));
        assert_eq!(th.terminate(), Err(Deactivated));
        assert!(th.task().is_none(), "back pointer cleared");
        task.terminate_simple().unwrap();
    }

    #[test]
    fn structure_survives_termination_while_referenced() {
        let task = Task::create();
        let th = task.thread_create().unwrap();
        let extra = th.clone();
        th.terminate().unwrap();
        drop(th);
        // Deactivated, unlinked, but the data structure exists.
        assert!(!extra.is_active());
        assert_eq!(extra.suspend_count(), 0);
        task.terminate_simple().unwrap();
    }

    #[test]
    fn task_lookup_races_task_wide_operations() {
        // `task()` clones the task reference under the thread lock while
        // `suspend_all`/`resume_all`/`thread_create` clone thread
        // references under the task lock. Only the task's sharded count
        // (its take never locks the task) keeps the pair from being an
        // ABBA deadlock, so this must complete.
        const ROUNDS: usize = 2_000;
        let task = Task::create();
        let threads: Vec<_> = (0..3).map(|_| task.thread_create().unwrap()).collect();
        std::thread::scope(|s| {
            let task = &task;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    task.suspend_all().unwrap();
                    task.resume_all().unwrap();
                }
            });
            s.spawn(move || {
                for _ in 0..ROUNDS / 50 {
                    drop(task.thread_create().unwrap());
                }
            });
            for th in &threads {
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        drop(th.task().expect("linked"));
                    }
                });
            }
        });
        assert_eq!(task.thread_count(), 3 + ROUNDS / 50);
        task.terminate_simple().unwrap();
    }

    #[test]
    fn thread_keeps_task_structure_alive() {
        let task = Task::create();
        let th = task.thread_create().unwrap();
        let t2 = th.task().unwrap();
        task.terminate_simple().unwrap();
        drop(task);
        // Thread was unlinked by task termination, but our cloned task
        // reference still keeps the structure alive.
        assert!(!t2.is_active());
        drop(t2);
        drop(th);
    }
}
