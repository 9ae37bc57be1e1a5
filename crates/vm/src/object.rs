//! Memory objects.
//!
//! "Internally, a memory object is represented by a data structure and
//! three associated ports. Two of these ports (the pager ports) are
//! used for communication between the kernel and the server that
//! implements the memory object, and the third serves as a unique
//! identifier." (Section 3.)
//!
//! Two of the paper's most specific mechanisms live here:
//!
//! * **Dual reference counts** (section 8): a structure reference count
//!   (sharded: a widely mapped object collects references from every
//!   mapping task) plus a *paging-in-progress* count —
//!   "a hybrid of a reference and a lock because it excludes operations
//!   such as object termination that cannot be performed while paging
//!   is in progress".
//! * **The customized lock** (section 5): pager-port creation must
//!   happen at most once, but allocating the ports can block, so a
//!   simple lock cannot be held across it. Instead two boolean flags —
//!   *ports being created* and *ports created* — are manipulated under
//!   the object's simple lock, "making these flags a customized lock
//!   that extends the functionality of the simple lock on that data
//!   structure".

use machk_core::{
    assert_wait, thread_block, thread_wakeup, Deactivated, DrainableCount, Event, Kobj, ObjHeader,
    ObjRef, ShardedRefCount, ShardedRefable,
};
use machk_ipc::Port;

/// The three ports of a memory object.
#[derive(Debug)]
pub struct PagerPorts {
    /// Kernel → server requests.
    pub pager_request: ObjRef<Port>,
    /// Server → kernel control messages.
    pub pager_control: ObjRef<Port>,
    /// The object's public name.
    pub object_name: ObjRef<Port>,
}

struct ObjectState {
    /// The two booleans of the customized lock.
    ports_creating: bool,
    ports_created: bool,
    ports: Option<PagerPorts>,
    /// Pages the object currently backs (diagnostics for tests).
    resident_pages: u32,
}

/// A memory object.
pub struct VmObject {
    /// The object lock, guarding the flag and the object state.
    obj: Kobj<ObjectState>,
    /// The sharded structure reference count.
    refs: ShardedRefCount,
    /// The paging-in-progress hybrid count. Manipulated under the
    /// object lock.
    paging: DrainableCount,
}

// Sharded: references churn from every mapping task and in-flight
// pageout, and takes and releases never lock the object.
impl ShardedRefable for VmObject {
    fn sharded_parts(&self) -> (&ObjHeader, &ShardedRefCount) {
        (self.obj.header(), &self.refs)
    }
}

impl VmObject {
    /// Create a memory object (no pager ports yet — they are created
    /// lazily, which is what makes the customized lock necessary).
    ///
    /// A widely mapped memory object collects references from every
    /// mapping task and in-flight pageout, so the count is sharded; the
    /// paging hybrid count and the termination protocol are untouched.
    pub fn create() -> ObjRef<VmObject> {
        ObjRef::new(VmObject {
            obj: Kobj::named(
                "vm_object.lock",
                ObjectState {
                    ports_creating: false,
                    ports_created: false,
                    ports: None,
                    resident_pages: 0,
                },
            ),
            refs: ShardedRefCount::named("vm_object.ref"),
            paging: DrainableCount::new(),
        })
    }

    fn ports_event(&self) -> Event {
        Event::from_addr(self).offset(2)
    }

    /// Ensure the pager ports exist, creating them at most once.
    ///
    /// This is the section-5 protocol verbatim: a boolean flag is set
    /// (under the simple lock) to indicate creation is in progress; the
    /// blocking allocation happens with **no** simple lock held; a
    /// second flag marks completion. Concurrent callers wait.
    pub fn ensure_pager_ports(&self) -> Result<(), Deactivated> {
        loop {
            {
                let mut s = self.obj.lock_active()?;
                if s.ports_created {
                    return Ok(());
                }
                if !s.ports_creating {
                    // We are the creator: claim the customized lock.
                    s.ports_creating = true;
                    break;
                }
                // Someone else is creating: wait for completion.
                assert_wait(self.ports_event(), false);
            }
            thread_block();
        }
        // Blocking allocation with no simple lock held. (Port creation
        // allocates; in Mach it could block for memory.)
        let ports = PagerPorts {
            pager_request: Port::create(),
            pager_control: Port::create(),
            object_name: Port::create(),
        };
        let discarded = {
            let mut s = self.obj.lock();
            debug_assert!(s.ports_creating && !s.ports_created);
            s.ports_creating = false;
            if s.check_active().is_ok() {
                s.ports = Some(ports);
                s.ports_created = true;
                None
            } else {
                // The object was terminated while we were allocating:
                // recovery code, then the failure return (section 9).
                Some(ports)
            }
        };
        thread_wakeup(self.ports_event());
        match discarded {
            None => Ok(()),
            Some(p) => {
                let _ = p.pager_request.destroy();
                let _ = p.pager_control.destroy();
                let _ = p.object_name.destroy();
                drop(p);
                Err(Deactivated)
            }
        }
    }

    /// Whether the pager ports exist.
    pub fn has_pager_ports(&self) -> bool {
        self.obj.lock().ports_created
    }

    /// Clone the object-name port right (creating ports if needed). The
    /// clone locks the port under the object lock (object before port).
    pub fn name_port(&self) -> Result<ObjRef<Port>, Deactivated> {
        self.ensure_pager_ports()?;
        let s = self.obj.lock();
        Ok(s.ports.as_ref().expect("created above").object_name.clone())
    }

    // ----- the paging-in-progress hybrid count -----

    /// Begin a paging operation. Fails if the object has been
    /// terminated (the hybrid count is also what termination excludes
    /// on).
    pub fn paging_begin(&self) -> Result<PagingOp<'_>, Deactivated> {
        self.paging_begin_raw()?;
        Ok(PagingOp { object: self })
    }

    fn paging_end(&self) {
        let _s = self.obj.lock();
        self.paging.end();
    }

    /// Guard-free paging begin for crate-internal protocols (the map
    /// fault path) whose control flow outlives a borrow-based guard.
    pub(crate) fn paging_begin_raw(&self) -> Result<(), Deactivated> {
        let _s = self.obj.lock_active()?;
        self.paging.begin();
        Ok(())
    }

    /// Pairs with [`VmObject::paging_begin_raw`].
    pub(crate) fn paging_end_raw(&self) {
        self.paging_end();
    }

    /// Paging operations currently in flight.
    pub fn paging_in_progress(&self) -> u32 {
        self.paging.get()
    }

    /// Record a page brought in/out (diagnostics for tests and
    /// benches).
    pub fn note_page_in(&self) {
        self.obj.lock().resident_pages += 1;
    }

    /// See [`VmObject::note_page_in`].
    pub fn note_page_out(&self) {
        let mut s = self.obj.lock();
        debug_assert!(s.resident_pages > 0);
        s.resident_pages -= 1;
    }

    /// Resident page count (diagnostics).
    pub fn resident_pages(&self) -> u32 {
        self.obj.lock().resident_pages
    }

    /// Terminate the object: deactivate (excluding new paging
    /// operations), **wait for paging in progress to drain**, then tear
    /// down the ports. "The latter count ... excludes operations such
    /// as object termination that cannot be performed while paging is
    /// in progress."
    pub fn terminate(&self) -> Result<(), Deactivated> {
        let ports = {
            // Deactivate under the object lock; one terminator wins.
            let mut s = self.obj.lock();
            s.deactivate()?;
            // Wait for in-flight paging operations on the same lock:
            // `wait_drained` releases it while asleep and returns with it
            // held again, so the guard is valid again afterwards.
            self.paging.wait_drained(self.obj.header().lock());
            // Deactivated and drained: no new paging, no new ports (the
            // in-flight creator, if any, discards on seeing
            // deactivation). Remove the ports under the lock;
            // destroy/release outside it.
            s.ports.take()
        };
        if let Some(p) = &ports {
            let _ = p.pager_request.destroy();
            let _ = p.pager_control.destroy();
            let _ = p.object_name.destroy();
        }
        drop(ports);
        // Wake anyone waiting for port creation so they observe the
        // deactivation.
        thread_wakeup(self.ports_event());
        Ok(())
    }
}

/// RAII token for one paging operation; ends the operation (and wakes
/// a draining terminator) on drop.
pub struct PagingOp<'a> {
    object: &'a VmObject,
}

impl Drop for PagingOp<'_> {
    fn drop(&mut self) {
        self.object.paging_end();
    }
}

impl core::fmt::Debug for VmObject {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VmObject")
            .field("active", &self.obj.is_active())
            .field("paging_in_progress", &self.paging.get())
            .field("has_ports", &self.has_pager_ports())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    #[test]
    fn count_is_sharded_so_cloning_under_the_object_lock_is_legal() {
        // With a plain count the clone would lock the object again:
        // debug builds panic with "self-deadlock".
        let obj = VmObject::create();
        let guard = obj.obj.lock();
        let extra = obj.clone();
        drop(guard);
        drop(extra);
        assert_eq!(ObjRef::ref_count(&obj), 1);
    }

    #[test]
    fn pager_ports_created_once() {
        let obj = VmObject::create();
        assert!(!obj.has_pager_ports());
        obj.ensure_pager_ports().unwrap();
        assert!(obj.has_pager_ports());
        // Idempotent.
        obj.ensure_pager_ports().unwrap();
        let name1 = obj.name_port().unwrap();
        let name2 = obj.name_port().unwrap();
        assert!(ObjRef::ptr_eq(&name1, &name2), "same port both times");
        obj.terminate().unwrap();
    }

    #[test]
    fn concurrent_port_creation_races_to_one_set() {
        let obj = VmObject::create();
        let names = machk_core::SimpleLocked::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let p = obj.name_port().unwrap();
                    names.lock().push(p);
                });
            }
        });
        let names = names.lock();
        assert_eq!(names.len(), 8);
        for n in names.iter() {
            assert!(ObjRef::ptr_eq(n, &names[0]), "exactly one set of ports");
        }
    }

    #[test]
    fn paging_count_tracks_operations() {
        let obj = VmObject::create();
        let op1 = obj.paging_begin().unwrap();
        let op2 = obj.paging_begin().unwrap();
        assert_eq!(obj.paging_in_progress(), 2);
        drop(op1);
        assert_eq!(obj.paging_in_progress(), 1);
        drop(op2);
        assert_eq!(obj.paging_in_progress(), 0);
        obj.terminate().unwrap();
    }

    #[test]
    fn termination_waits_for_paging_to_drain() {
        let obj = VmObject::create();
        let op = obj.paging_begin().unwrap();
        let terminated = AtomicU32::new(0);
        std::thread::scope(|s| {
            let obj2 = &obj;
            let terminated = &terminated;
            s.spawn(move || {
                obj2.terminate().unwrap();
                terminated.store(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                terminated.load(Ordering::SeqCst),
                0,
                "termination must wait for the paging operation"
            );
            drop(op); // drains; terminator proceeds
        });
        assert_eq!(terminated.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn paging_begin_fails_after_termination() {
        let obj = VmObject::create();
        obj.terminate().unwrap();
        assert!(obj.paging_begin().is_err());
    }

    #[test]
    fn structure_reference_independent_of_termination() {
        let obj = VmObject::create();
        let extra = obj.clone();
        obj.terminate().unwrap();
        drop(obj);
        assert_eq!(extra.paging_in_progress(), 0);
        assert!(extra.paging_begin().is_err());
        drop(extra);
    }

    #[test]
    fn resident_page_accounting() {
        let obj = VmObject::create();
        obj.note_page_in();
        obj.note_page_in();
        obj.note_page_out();
        assert_eq!(obj.resident_pages(), 1);
        obj.terminate().unwrap();
    }
}
