//! The four-step shutdown protocol of paper section 10.
//!
//! > The case of most interest is an object that can be deactivated and
//! > is represented to the outside world by a port. After acquiring the
//! > reference to the object, shutdown is accomplished as follows:
//! >
//! > 1. Lock the object, set the "deactivated" flag, and unlock the
//! >    object.
//! > 2. Lock the corresponding port, remove the object pointer and
//! >    reference from the port, and unlock the port. This disables
//! >    port to object translation.
//! > 3. Shutdown/destroy the object. Requires a lock.
//! > 4. Release the reference originally returned by object creation.
//! >    This will cause final deletion of the object when all other
//! >    references are released.

use machk_core::{Deactivated, ObjRef, Refable};
use machk_ipc::Port;

use crate::task::Task;

/// Generic shutdown: run the four steps against any deactivatable
/// object exported through `port`.
///
/// * `deactivate` is step 1 (must lock, set the flag, unlock; return
///   `Err(Deactivated)` if another terminator won).
/// * `destroy` is step 3 (tear down the object's state under its lock).
/// * The creation reference passed as `creation_ref` is released as
///   step 4.
///
/// On a lost race (step 1 fails) the creation reference is still
/// released — the loser's caller no longer owns the object — and the
/// error is returned.
pub fn shutdown_object<T: Refable + ?Sized>(
    port: &ObjRef<Port>,
    creation_ref: ObjRef<T>,
    deactivate: impl FnOnce(&T) -> Result<(), Deactivated>,
    destroy: impl FnOnce(&T),
) -> Result<(), Deactivated> {
    // Step 1.
    let won = deactivate(&creation_ref);
    if won.is_ok() {
        // Step 2: disable port → object translation; release the
        // port's object reference outside the port lock.
        let port_ref = port.clear_kernel_object();
        drop(port_ref);
        // The port itself is dead too (its object is gone); this wakes
        // any blocked senders/receivers.
        let _ = port.destroy();
        // Step 3.
        destroy(&creation_ref);
    }
    // Step 4: release the creation reference. "This will cause final
    // deletion of the object when all other references are released."
    drop(creation_ref);
    won
}

/// Task-flavoured shutdown: the full protocol for a task exported
/// through `port` (as built by [`crate::ops::create_task_with_port`]).
pub fn shutdown_task(port: &ObjRef<Port>, task: ObjRef<Task>) -> Result<(), Deactivated> {
    shutdown_object(
        port,
        task,
        |t| {
            // Step 1 with the Mach atomicity: flag set under the task
            // lock (Task::terminate_simple does steps 1+3; here we need
            // them split).
            t.obj.deactivate()
        },
        |t| {
            // Step 3: terminate every thread and drain the port space.
            t.teardown();
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskRefExt as _;
    use machk_core::Kobj;
    use machk_ipc::PortError;

    #[test]
    fn four_step_shutdown_of_kobj() {
        let obj = Kobj::create(5u32);
        let external = obj.clone(); // an outstanding reference
        let port = Port::create();
        port.set_kernel_object(obj.clone().into_dyn());

        shutdown_object(
            &port,
            obj,
            |o| o.deactivate(),
            |o| {
                o.with_state(|n| *n = 0);
            },
        )
        .unwrap();

        // Translation disabled (step 2).
        assert!(matches!(
            port.kernel_object(),
            Err(PortError::NotAnObjectPort) | Err(PortError::Dead)
        ));
        // Structure survives while the external reference exists.
        assert!(!external.is_active());
        assert_eq!(external.with_state(|n| *n), 0);
        drop(external); // final deletion here
    }

    #[test]
    fn losing_terminator_gets_error_and_object_still_dies() {
        let obj = Kobj::create(1u32);
        let port = Port::create();
        port.set_kernel_object(obj.clone().into_dyn());
        obj.deactivate().unwrap(); // someone else terminated first
        let r = shutdown_object(&port, obj, |o| o.deactivate(), |_| {});
        assert!(r.is_err());
    }

    #[test]
    fn task_shutdown_through_port() {
        let (task, port) = crate::ops::create_task_with_port();
        let spare = task.clone();
        task.thread_create().unwrap();
        shutdown_task(&port, task).unwrap();
        assert!(!spare.is_active());
        assert_eq!(spare.thread_count(), 0);
        assert!(port.kernel_object().is_err());
    }

    #[test]
    fn shutdown_race_through_ports() {
        // Several terminators race through the same port; exactly one
        // wins, nobody corrupts anything, and operations in flight fail
        // cleanly.
        let (task, port) = crate::ops::create_task_with_port();
        let wins = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let port = port.clone();
                let task = task.clone();
                let wins = &wins;
                s.spawn(move || {
                    if shutdown_task(&port, task).is_ok() {
                        wins.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
            drop(task);
        });
        assert_eq!(wins.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
