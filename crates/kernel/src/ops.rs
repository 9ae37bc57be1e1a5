//! Kernel operations as message RPCs.
//!
//! "Most kernel operations are invoked by sending messages to the
//! kernel" (section 3); this module is the MiG-generated kernel server
//! of the simulation. [`kernel_dispatch_table`] registers the task and
//! thread operations; [`create_task_with_port`] builds the
//! object-behind-a-port arrangement of section 10.

use machk_core::ObjRef;
use machk_ipc::{DispatchTable, KernError, Message, Port};

use crate::task::{Task, TaskRefExt as _};
use crate::thread::ThreadObj;

/// Operation ids for the kernel subsystem (MiG would call these
/// `msgh_id` values).
pub mod op_ids {
    /// `task_suspend`: no arguments; replies with the new suspend count.
    pub const TASK_SUSPEND: u32 = 3000;
    /// `task_resume`: no arguments; replies with the new suspend count.
    pub const TASK_RESUME: u32 = 3001;
    /// `task_info`: no arguments; replies with thread count and suspend
    /// count.
    pub const TASK_INFO: u32 = 3002;
    /// `task_thread_create`: creates a thread; replies with the task's
    /// new thread count.
    pub const TASK_THREAD_CREATE: u32 = 3003;
    /// `thread_suspend`: no arguments; replies with the new suspend
    /// count.
    pub const THREAD_SUSPEND: u32 = 3100;
    /// `thread_resume`: no arguments; replies with the new suspend
    /// count.
    pub const THREAD_RESUME: u32 = 3101;
    /// `thread_info`: replies with the suspend count and an
    /// active flag.
    pub const THREAD_INFO: u32 = 3102;
}

/// Build the dispatch table for kernel (task) operations.
pub fn kernel_dispatch_table() -> DispatchTable {
    let mut table = DispatchTable::new();

    table.register::<Task>(op_ids::TASK_SUSPEND, |task, _msg| {
        let n = task.suspend()?;
        Ok(Message::new(op_ids::TASK_SUSPEND).with_int(n as u64))
    });

    table.register::<Task>(op_ids::TASK_RESUME, |task, _msg| {
        let n = task.resume()?;
        Ok(Message::new(op_ids::TASK_RESUME).with_int(n as u64))
    });

    table.register::<Task>(op_ids::TASK_INFO, |task, _msg| {
        if !task.is_active() {
            return Err(KernError::Deactivated);
        }
        Ok(Message::new(op_ids::TASK_INFO)
            .with_int(task.thread_count() as u64)
            .with_int(task.suspend_count() as u64))
    });

    table.register::<ThreadObj>(op_ids::THREAD_SUSPEND, |thread, _msg| {
        let n = thread.suspend()?;
        Ok(Message::new(op_ids::THREAD_SUSPEND).with_int(n as u64))
    });

    table.register::<ThreadObj>(op_ids::THREAD_RESUME, |thread, _msg| {
        let n = thread.resume()?;
        Ok(Message::new(op_ids::THREAD_RESUME).with_int(n as u64))
    });

    table.register::<ThreadObj>(op_ids::THREAD_INFO, |thread, _msg| {
        Ok(Message::new(op_ids::THREAD_INFO)
            .with_int(thread.suspend_count() as u64)
            .with_int(thread.is_active() as u64))
    });

    table
}

/// Create a thread in `task`, exported through its own port (the same
/// object-behind-a-port arrangement as tasks). Returns the thread's
/// creation reference and the port.
pub fn create_thread_with_port(
    task: &ObjRef<Task>,
) -> Result<(ObjRef<ThreadObj>, ObjRef<Port>), machk_core::Deactivated> {
    let thread = task.thread_create()?;
    let port = Port::create();
    port.set_kernel_object(thread.clone().into_dyn());
    Ok((thread, port))
}

/// Create a task exported through a port: the port holds a counted
/// object pointer, so port → object translation works (section 10,
/// step 2). Returns the creation reference and the port.
pub fn create_task_with_port() -> (ObjRef<Task>, ObjRef<Port>) {
    let task = Task::create();
    let port = Port::create();
    port.set_kernel_object(task.clone().into_dyn());
    (task, port)
}

#[cfg(test)]
mod tests {
    use super::*;
    use machk_ipc::{RefSemantics, RpcError, RpcStats};

    #[test]
    fn task_ops_via_rpc() {
        let table = kernel_dispatch_table();
        let (task, port) = create_task_with_port();
        let stats = RpcStats::new();

        let r = table
            .msg_rpc(
                &port,
                Message::new(op_ids::TASK_SUSPEND),
                RefSemantics::Mach25,
                &stats,
            )
            .unwrap();
        assert_eq!(r.int_at(0), Some(1));

        let r = table
            .msg_rpc(
                &port,
                Message::new(op_ids::TASK_INFO),
                RefSemantics::Mach25,
                &stats,
            )
            .unwrap();
        assert_eq!(r.int_at(0), Some(0), "no threads yet");
        assert_eq!(r.int_at(1), Some(1), "suspended once");

        let r = table
            .msg_rpc(
                &port,
                Message::new(op_ids::TASK_RESUME),
                RefSemantics::Mach30,
                &stats,
            )
            .unwrap();
        assert_eq!(r.int_at(0), Some(0));

        assert!(stats.balanced());
        task.terminate_simple().unwrap();
    }

    #[test]
    fn thread_ops_via_rpc() {
        let table = kernel_dispatch_table();
        let (task, _task_port) = create_task_with_port();
        let (thread, thread_port) = create_thread_with_port(&task).unwrap();
        let stats = RpcStats::new();

        let r = table
            .msg_rpc(
                &thread_port,
                Message::new(op_ids::THREAD_SUSPEND),
                RefSemantics::Mach30,
                &stats,
            )
            .unwrap();
        assert_eq!(r.int_at(0), Some(1));
        assert_eq!(thread.suspend_count(), 1);

        let r = table
            .msg_rpc(
                &thread_port,
                Message::new(op_ids::THREAD_INFO),
                RefSemantics::Mach25,
                &stats,
            )
            .unwrap();
        assert_eq!(r.int_at(0), Some(1), "suspend count");
        assert_eq!(r.int_at(1), Some(1), "active");

        // One dispatch table routes by concrete type: a task op against
        // a thread port is NoSuchOperation, not a misfire.
        let e = table
            .msg_rpc(
                &thread_port,
                Message::new(op_ids::TASK_SUSPEND),
                RefSemantics::Mach25,
                &stats,
            )
            .unwrap_err();
        assert!(matches!(e, RpcError::NoSuchOperation));

        // Terminated thread refuses via the RPC path too.
        thread.terminate().unwrap();
        let e = table
            .msg_rpc(
                &thread_port,
                Message::new(op_ids::THREAD_SUSPEND),
                RefSemantics::Mach30,
                &stats,
            )
            .unwrap_err();
        assert!(matches!(e, RpcError::Operation(KernError::Deactivated)));
        assert!(stats.balanced());
        task.terminate_simple().unwrap();
    }

    #[test]
    fn rpc_after_shutdown_fails_cleanly() {
        let table = kernel_dispatch_table();
        let (task, port) = create_task_with_port();
        let stats = RpcStats::new();
        crate::shutdown::shutdown_task(&port, task).unwrap();
        let e = table
            .msg_rpc(
                &port,
                Message::new(op_ids::TASK_INFO),
                RefSemantics::Mach25,
                &stats,
            )
            .unwrap_err();
        assert!(
            matches!(e, RpcError::Port(_)),
            "translation disabled: {e:?}"
        );
    }

    #[test]
    fn concurrent_rpcs_against_terminating_task() {
        // Experiment E13's core assertion: operations racing with
        // shutdown either complete or fail cleanly; the reference flow
        // stays balanced.
        let table = std::sync::Arc::new(kernel_dispatch_table());
        let (task, port) = create_task_with_port();
        let stats = RpcStats::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let table = std::sync::Arc::clone(&table);
                let port = port.clone();
                let stats = &stats;
                s.spawn(move || {
                    for _ in 0..300 {
                        let _ = table.msg_rpc(
                            &port,
                            Message::new(op_ids::TASK_SUSPEND),
                            RefSemantics::Mach25,
                            stats,
                        );
                    }
                });
            }
            let port2 = port.clone();
            s.spawn(move || {
                std::thread::yield_now();
                let _ = crate::shutdown::shutdown_task(&port2, task);
            });
        });
        assert!(stats.balanced());
    }
}
