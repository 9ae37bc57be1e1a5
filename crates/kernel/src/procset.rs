//! Processor sets — the processor-allocation substrate.
//!
//! Section 7.1 cites processor allocation as a subsystem "subsequently
//! designed" on the locking primitives ("the locking primitives have
//! been extensively used in subsequently designed kernel subsystems
//! (e.g., processor allocation)"). This module rebuilds its object
//! model: a [`ProcessorSet`] is a reference-counted, deactivatable
//! kernel object owning a set of processors and a set of assigned
//! tasks, with every mutation under the pset's simple lock and every
//! cross-object link carrying a counted reference — the same
//! discipline as tasks and threads.
//!
//! Lock ordering follows the section-5 type convention used throughout
//! the kernel crate: **pset before task**; two psets by address
//! (processor reassignment locks source and destination).

use machk_core::{Deactivated, Kobj, ObjHeader, ObjRef, Refable};

use crate::ordering::order_by_address;
use crate::task::Task;

/// A processor identifier within the (simulated) machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessorId(pub usize);

struct PsetState {
    processors: Vec<ProcessorId>,
    tasks: Vec<ObjRef<Task>>,
}

/// A set of processors to which tasks (and so threads) are assigned.
pub struct ProcessorSet {
    /// The pset lock, guarding the count, the flag and the state.
    obj: Kobj<PsetState>,
}

impl Refable for ProcessorSet {
    fn header(&self) -> &ObjHeader {
        self.obj.header()
    }
}

impl ProcessorSet {
    /// Create an empty set, returning the creation reference.
    pub fn create() -> ObjRef<ProcessorSet> {
        ObjRef::new(ProcessorSet {
            obj: Kobj::named(
                "pset.lock",
                PsetState {
                    processors: Vec::new(),
                    tasks: Vec::new(),
                },
            ),
        })
    }

    /// Add a processor to the set.
    pub fn add_processor(&self, p: ProcessorId) -> Result<(), Deactivated> {
        let mut s = self.obj.lock_active()?;
        if !s.processors.contains(&p) {
            s.processors.push(p);
        }
        Ok(())
    }

    /// Remove a processor; returns whether it was present.
    pub fn remove_processor(&self, p: ProcessorId) -> Result<bool, Deactivated> {
        let mut s = self.obj.lock_active()?;
        let before = s.processors.len();
        s.processors.retain(|q| *q != p);
        Ok(s.processors.len() != before)
    }

    /// Processors currently in the set.
    pub fn processors(&self) -> Vec<ProcessorId> {
        self.obj.lock().processors.clone()
    }

    /// Number of assigned tasks.
    pub fn task_count(&self) -> usize {
        self.obj.lock().tasks.len()
    }

    /// Assign a task to this set. The set holds a task reference.
    pub fn assign_task(&self, task: ObjRef<Task>) -> Result<(), Deactivated> {
        let dropped = {
            // On failure the offered reference is released on return,
            // outside the lock.
            let mut s = self.obj.lock_active()?;
            if s.tasks.iter().any(|t| ObjRef::ptr_eq(t, &task)) {
                Some(task) // already assigned: surplus reference
            } else {
                s.tasks.push(task);
                None
            }
        };
        drop(dropped);
        Ok(())
    }

    /// Unassign a task; the removed reference is released outside the
    /// lock. Returns whether it was assigned.
    pub fn unassign_task(&self, task: &ObjRef<Task>) -> bool {
        let removed = {
            let mut s = self.obj.lock();
            s.tasks
                .iter()
                .position(|t| ObjRef::ptr_eq(t, task))
                .map(|i| s.tasks.swap_remove(i))
        };
        let was = removed.is_some();
        drop(removed);
        was
    }

    /// Move processor `p` from `from` to `to`, locking the two psets in
    /// address order (the section-5 same-type convention). Returns
    /// whether the processor moved.
    pub fn reassign_processor(
        from: &ObjRef<ProcessorSet>,
        to: &ObjRef<ProcessorSet>,
        p: ProcessorId,
    ) -> Result<bool, Deactivated> {
        if ObjRef::ptr_eq(from, to) {
            return Ok(false);
        }
        // Both locks taken in address order, then one atomic move.
        let (first, second) = order_by_address(from, to);
        let mut g1 = first.obj.lock();
        let mut g2 = second.obj.lock();
        g1.check_active()?;
        g2.check_active()?;
        let (fs, ts) = if ObjRef::ptr_eq(first, from) {
            (&mut *g1, &mut *g2)
        } else {
            (&mut *g2, &mut *g1)
        };
        let moved = fs.processors.contains(&p);
        if moved {
            fs.processors.retain(|q| *q != p);
            if !ts.processors.contains(&p) {
                ts.processors.push(p);
            }
        }
        Ok(moved)
    }

    /// Deactivate the set and release all task references. Tasks are
    /// not terminated — they would be reassigned to the default set in
    /// Mach; here the caller decides.
    pub fn destroy(&self) -> Result<(), Deactivated> {
        let tasks = {
            let mut s = self.obj.lock();
            s.deactivate()?;
            core::mem::take(&mut s.tasks)
        };
        drop(tasks); // released outside the lock
        Ok(())
    }

    /// Whether the set is active.
    pub fn is_active(&self) -> bool {
        self.obj.is_active()
    }
}

impl core::fmt::Debug for ProcessorSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.obj.lock();
        f.debug_struct("ProcessorSet")
            .field("active", &self.obj.is_active())
            .field("processors", &s.processors.len())
            .field("tasks", &s.tasks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processors_add_remove() {
        let pset = ProcessorSet::create();
        pset.add_processor(ProcessorId(0)).unwrap();
        pset.add_processor(ProcessorId(1)).unwrap();
        pset.add_processor(ProcessorId(0)).unwrap(); // idempotent
        assert_eq!(pset.processors().len(), 2);
        assert!(pset.remove_processor(ProcessorId(0)).unwrap());
        assert!(!pset.remove_processor(ProcessorId(0)).unwrap());
        assert_eq!(pset.processors(), vec![ProcessorId(1)]);
        pset.destroy().unwrap();
    }

    #[test]
    fn task_assignment_holds_references() {
        let pset = ProcessorSet::create();
        let task = Task::create();
        pset.assign_task(task.clone()).unwrap();
        assert_eq!(ObjRef::ref_count(&task), 2);
        assert_eq!(pset.task_count(), 1);
        // Double assignment is a no-op (the surplus ref is released).
        pset.assign_task(task.clone()).unwrap();
        assert_eq!(ObjRef::ref_count(&task), 2);
        assert!(pset.unassign_task(&task));
        assert!(!pset.unassign_task(&task));
        assert_eq!(ObjRef::ref_count(&task), 1);
        task.terminate_simple().unwrap();
        pset.destroy().unwrap();
    }

    #[test]
    fn destroy_releases_task_references() {
        let pset = ProcessorSet::create();
        let task = Task::create();
        pset.assign_task(task.clone()).unwrap();
        pset.destroy().unwrap();
        assert_eq!(ObjRef::ref_count(&task), 1, "references released");
        assert!(pset.assign_task(task.clone()).is_err(), "dead set refuses");
        assert_eq!(
            ObjRef::ref_count(&task),
            1,
            "refused assignment releases too"
        );
        task.terminate_simple().unwrap();
    }

    #[test]
    fn reassign_moves_processor_between_sets() {
        let a = ProcessorSet::create();
        let b = ProcessorSet::create();
        a.add_processor(ProcessorId(3)).unwrap();
        assert!(ProcessorSet::reassign_processor(&a, &b, ProcessorId(3)).unwrap());
        assert!(a.processors().is_empty());
        assert_eq!(b.processors(), vec![ProcessorId(3)]);
        // Absent processor: no move.
        assert!(!ProcessorSet::reassign_processor(&a, &b, ProcessorId(9)).unwrap());
        a.destroy().unwrap();
        b.destroy().unwrap();
    }

    #[test]
    fn concurrent_reassignment_no_deadlock_no_loss() {
        // Two threads shuttle the same processors in opposite
        // directions: address ordering prevents deadlock, and every
        // processor ends in exactly one set.
        let a = ProcessorSet::create();
        let b = ProcessorSet::create();
        for i in 0..4 {
            a.add_processor(ProcessorId(i)).unwrap();
        }
        std::thread::scope(|s| {
            let (a, b) = (&a, &b);
            s.spawn(move || {
                for _ in 0..2_000 {
                    for i in 0..4 {
                        let _ = ProcessorSet::reassign_processor(a, b, ProcessorId(i));
                    }
                }
            });
            s.spawn(move || {
                for _ in 0..2_000 {
                    for i in 0..4 {
                        let _ = ProcessorSet::reassign_processor(b, a, ProcessorId(i));
                    }
                }
            });
        });
        let mut all: Vec<ProcessorId> = a.processors();
        all.extend(b.processors());
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4, "each processor in exactly one set");
    }
}
