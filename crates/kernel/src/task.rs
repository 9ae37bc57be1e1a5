//! Task objects — the two-lock kernel object of paper section 5.
//!
//! "A task is an execution environment in which threads may run, and is
//! also the basic unit of resource allocation." The task here carries:
//!
//! * a **task lock** — the object lock of its header, which guards the
//!   active flag and the task state (the thread list and scheduling
//!   state);
//! * a separate **IPC translation lock** (inside the task's
//!   [`PortNameSpace`]) so port-name translations proceed in parallel
//!   with task operations — the section-5 two-lock design measured by
//!   experiment E8.
//!
//! The task's reference count is sharded ([`ShardedRefCount`]): task
//! references churn from every thread that names the task, and a
//! sharded take never touches the task lock. The lock order relies on
//! that: the task clones thread references under the task lock (task
//! before thread), while [`ThreadObj::task`] clones the task reference
//! under the thread lock. With a plain count the second would be a
//! thread → task edge and close a cycle.

use machk_core::{Deactivated, Kobj, ObjHeader, ObjRef, ShardedRefCount, ShardedRefable};
use machk_ipc::{Port, PortName, PortNameSpace};

use crate::thread::ThreadObj;

/// State under the task lock.
pub(crate) struct TaskState {
    threads: Vec<ObjRef<ThreadObj>>,
    suspend_count: u32,
}

/// A Mach task.
///
/// # Examples
///
/// ```
/// use machk_kernel::{Task, TaskRefExt as _};
///
/// let task = Task::create();
/// let thread = task.thread_create().unwrap();
/// assert_eq!(task.thread_count(), 1);
/// thread.terminate().unwrap();
/// task.terminate_simple().unwrap();
/// ```
pub struct Task {
    /// The task lock, guarding the flag and the task state.
    pub(crate) obj: Kobj<TaskState>,
    /// The sharded reference count (see the module docs).
    refs: ShardedRefCount,
    /// The IPC translation lock lives inside the name space.
    ipc_space: PortNameSpace,
}

// Sharded: takes and releases never lock the task.
impl ShardedRefable for Task {
    fn sharded_parts(&self) -> (&ObjHeader, &ShardedRefCount) {
        (self.obj.header(), &self.refs)
    }
}

impl Task {
    /// Create a task, returning the creation reference.
    ///
    /// Task references churn from every thread that names the task (IPC,
    /// scheduling, termination), so the count is sharded — the paper's
    /// take/release/destroy protocol is unchanged, only its contention
    /// behaviour improves.
    pub fn create() -> ObjRef<Task> {
        ObjRef::new(Task {
            obj: Kobj::named(
                "task.lock",
                TaskState {
                    threads: Vec::new(),
                    suspend_count: 0,
                },
            ),
            refs: ShardedRefCount::named("task.ref"),
            ipc_space: PortNameSpace::new(),
        })
    }

    // ----- task operations (under the task lock) -----

    /// Number of live threads.
    pub fn thread_count(&self) -> usize {
        self.obj.lock().threads.len()
    }

    /// Increment the task suspend count.
    pub fn suspend(&self) -> Result<u32, Deactivated> {
        let mut s = self.obj.lock_active()?;
        s.suspend_count += 1;
        Ok(s.suspend_count)
    }

    /// Decrement the task suspend count.
    pub fn resume(&self) -> Result<u32, Deactivated> {
        let mut s = self.obj.lock_active()?;
        if s.suspend_count > 0 {
            s.suspend_count -= 1;
        }
        Ok(s.suspend_count)
    }

    /// Current suspend count.
    pub fn suspend_count(&self) -> u32 {
        self.obj.lock().suspend_count
    }

    /// Suspend the task *and all its threads* — Mach's `task_suspend`
    /// semantics. Follows the section-5 ordering convention (task
    /// before thread) without holding both locks at once: the thread
    /// list is copied under the task lock (cloning each thread's
    /// reference locks that thread: task before thread), then each
    /// thread is locked individually.
    pub fn suspend_all(&self) -> Result<u32, Deactivated> {
        let threads = {
            let mut s = self.obj.lock_active()?;
            s.suspend_count += 1;
            s.threads.clone()
        };
        let task_count = self.suspend_count();
        for t in &threads {
            // A thread terminating concurrently is fine: it is no
            // longer running anything to suspend.
            let _ = t.suspend();
        }
        // The cloned references are released with no locks held.
        drop(threads);
        Ok(task_count)
    }

    /// Resume the task and all its threads (inverse of
    /// [`Task::suspend_all`]).
    pub fn resume_all(&self) -> Result<u32, Deactivated> {
        let threads = {
            let mut s = self.obj.lock_active()?;
            if s.suspend_count > 0 {
                s.suspend_count -= 1;
            }
            s.threads.clone()
        };
        let task_count = self.suspend_count();
        for t in &threads {
            let _ = t.resume();
        }
        drop(threads);
        Ok(task_count)
    }

    /// Whether the task is active.
    pub fn is_active(&self) -> bool {
        self.obj.is_active()
    }

    /// Remove `thread` from the thread list (called by thread
    /// termination). The removed reference is released outside the task
    /// lock.
    pub(crate) fn unlink_thread(&self, thread: &ThreadObj) {
        let target = thread as *const ThreadObj;
        let removed = {
            let mut s = self.obj.lock();
            s.threads
                .iter()
                .position(|t| core::ptr::eq(&**t as *const ThreadObj, target))
                .map(|i| s.threads.swap_remove(i))
        };
        drop(removed);
    }

    // ----- IPC translations (under the translation lock) -----

    /// Insert a port right into the task's name space.
    pub fn port_insert(&self, right: ObjRef<Port>) -> PortName {
        self.ipc_space.insert(right)
    }

    /// Translate a port name — the operation the second lock exists
    /// for: it takes only the translation lock, so it runs in parallel
    /// with task operations.
    pub fn port_translate(&self, name: PortName) -> Option<ObjRef<Port>> {
        self.ipc_space.translate(name)
    }

    /// Remove a port name, returning the right.
    pub fn port_remove(&self, name: PortName) -> Option<ObjRef<Port>> {
        self.ipc_space.remove(name)
    }

    // ----- termination -----

    /// Terminate a task that is not exported through a port: shutdown
    /// steps 1 and 3 (there is no port for step 2; the caller's drop of
    /// its reference is step 4).
    pub fn terminate_simple(&self) -> Result<(), Deactivated> {
        self.obj.deactivate()?;
        self.teardown();
        Ok(())
    }

    /// Shutdown step 3: destroy the object's state — terminate every
    /// thread, drain the port space. "Requires a lock"; references and
    /// rights are released outside it.
    pub(crate) fn teardown(&self) {
        // Take the thread list under the task lock, release outside.
        let threads = {
            let mut s = self.obj.lock();
            core::mem::take(&mut s.threads)
        };
        for thread in &threads {
            // Threads may already be terminating themselves; either
            // party winning is fine.
            let _ = thread.terminate();
        }
        drop(threads);
        // Drain the name space; rights released outside the
        // translation lock.
        let rights = self.ipc_space.drain();
        drop(rights);
    }
}

/// Operations that need an owned task reference (to hand out as a back
/// pointer), provided on `ObjRef<Task>` itself.
pub trait TaskRefExt {
    /// Create a thread in this task. The task holds a reference to the
    /// thread; the thread holds a back reference to the task.
    fn thread_create(&self) -> Result<ObjRef<ThreadObj>, Deactivated>;
}

impl TaskRefExt for ObjRef<Task> {
    fn thread_create(&self) -> Result<ObjRef<ThreadObj>, Deactivated> {
        // The thread's back reference (acquiring a reference never
        // blocks and may be done freely).
        let back = self.clone();
        let thread = ThreadObj::create(back);
        {
            // Section-9 rule: re-check activity under the lock. On
            // failure, recovery undoes the allocation: the new thread
            // and its back reference are released on return, outside
            // the lock.
            let mut s = self.obj.lock_active()?;
            // Locks the thread under the task lock: task before thread.
            s.threads.push(thread.clone());
        }
        Ok(thread)
    }
}

impl core::fmt::Debug for Task {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Task")
            .field("active", &self.is_active())
            .field("threads", &self.thread_count())
            .field("port_names", &self.ipc_space.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[allow(unused_imports)]
    use crate::task::TaskRefExt as _;

    #[test]
    fn count_is_sharded_so_cloning_under_the_task_lock_is_legal() {
        // The thread ↔ task lock order relies on this (module docs). With
        // a plain count the clone would lock the task again: debug builds
        // panic with "self-deadlock".
        let task = Task::create();
        let guard = task.obj.lock();
        let extra = task.clone();
        drop(guard);
        drop(extra);
        assert_eq!(ObjRef::ref_count(&task), 1);
    }

    #[test]
    fn create_and_populate() {
        let task = Task::create();
        let t1 = task.thread_create().unwrap();
        let t2 = task.thread_create().unwrap();
        assert_eq!(task.thread_count(), 2);
        assert!(t1.is_active() && t2.is_active());
        task.terminate_simple().unwrap();
        assert_eq!(task.thread_count(), 0);
        assert!(!t1.is_active() && !t2.is_active(), "threads terminated too");
    }

    #[test]
    fn thread_create_on_dead_task_fails() {
        let task = Task::create();
        task.terminate_simple().unwrap();
        assert!(task.thread_create().is_err());
    }

    #[test]
    fn suspend_resume() {
        let task = Task::create();
        assert_eq!(task.suspend().unwrap(), 1);
        assert_eq!(task.suspend().unwrap(), 2);
        assert_eq!(task.resume().unwrap(), 1);
        task.terminate_simple().unwrap();
        assert!(task.suspend().is_err());
    }

    #[test]
    fn suspend_all_reaches_threads() {
        let task = Task::create();
        let t1 = task.thread_create().unwrap();
        let t2 = task.thread_create().unwrap();
        assert_eq!(task.suspend_all().unwrap(), 1);
        assert_eq!(t1.suspend_count(), 1);
        assert_eq!(t2.suspend_count(), 1);
        assert_eq!(task.resume_all().unwrap(), 0);
        assert_eq!(t1.suspend_count(), 0);
        assert_eq!(t2.suspend_count(), 0);
        task.terminate_simple().unwrap();
        assert!(task.suspend_all().is_err());
    }

    #[test]
    fn suspend_all_races_thread_termination_cleanly() {
        let task = Task::create();
        let threads: Vec<_> = (0..4).map(|_| task.thread_create().unwrap()).collect();
        std::thread::scope(|s| {
            let task = &task;
            s.spawn(move || {
                for _ in 0..200 {
                    let _ = task.suspend_all();
                    let _ = task.resume_all();
                }
            });
            let t0 = threads[0].clone();
            s.spawn(move || {
                std::thread::yield_now();
                t0.terminate().unwrap();
            });
        });
        // The suspend/resume pairs balanced on the survivors.
        for t in &threads[1..] {
            assert_eq!(t.suspend_count(), 0);
        }
        task.terminate_simple().unwrap();
    }

    #[test]
    fn port_name_translation() {
        let task = Task::create();
        let port = Port::create();
        let name = task.port_insert(port.clone());
        let right = task.port_translate(name).unwrap();
        assert!(ObjRef::ptr_eq(&right, &port));
        drop(right);
        let right = task.port_remove(name).unwrap();
        drop(right);
        assert!(task.port_translate(name).is_none());
        task.terminate_simple().unwrap();
    }

    #[test]
    fn termination_releases_port_rights() {
        let task = Task::create();
        let port = Port::create();
        task.port_insert(port.clone());
        assert_eq!(ObjRef::ref_count(&port), 2);
        task.terminate_simple().unwrap();
        assert_eq!(ObjRef::ref_count(&port), 1, "rights drained on teardown");
    }

    #[test]
    fn double_termination_fails_second_time() {
        let task = Task::create();
        task.terminate_simple().unwrap();
        assert_eq!(task.terminate_simple(), Err(Deactivated));
    }

    #[test]
    fn racing_terminators_one_wins() {
        let task = Task::create();
        for _ in 0..4 {
            task.thread_create().unwrap();
        }
        let wins = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let task = task.clone();
                let wins = &wins;
                s.spawn(move || {
                    if task.terminate_simple().is_ok() {
                        wins.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(wins.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(task.thread_count(), 0);
    }

    #[test]
    fn translations_run_while_task_lock_is_busy() {
        // The two-lock design: hold the task lock hostage and show that
        // translations still complete.
        let task = Task::create();
        let port = Port::create();
        let name = task.port_insert(port.clone());
        let state_guard = task.obj.lock(); // task lock held
        let right = task
            .port_translate(name)
            .expect("translation must not block");
        // Release order matters: references may not be released while
        // holding a simple lock (section 8), so the guard goes first.
        drop(state_guard);
        drop(right);
        task.terminate_simple().unwrap();
    }

    #[test]
    fn reference_cycle_broken_by_termination() {
        // Task ↔ thread references form a cycle; termination breaks it
        // so the structures are destroyed when external refs drop.
        let task = Task::create();
        let thread = task.thread_create().unwrap();
        assert!(ObjRef::ref_count(&task) >= 2, "thread holds a back ref");
        task.terminate_simple().unwrap();
        assert_eq!(ObjRef::ref_count(&task), 1, "only the creator ref remains");
        assert_eq!(ObjRef::ref_count(&thread), 1);
    }
}
