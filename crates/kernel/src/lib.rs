//! # machk-kernel — tasks, threads, and the shutdown protocol
//!
//! The kernel-object substrate of the reproduction: the task and thread
//! abstractions of paper section 3, following every coordination rule
//! sections 5 and 8–10 prescribe:
//!
//! * **Two locks per task** (section 5): "some classes of objects have
//!   more than one lock in order to allow concurrent operations on
//!   different parts of the object (e.g., a task has two locks to allow
//!   task operations and ipc translations to occur in parallel)."
//!   [`Task`] protects its thread list and scheduling state with one
//!   simple lock and its port name space with another; [`mono::MonoTask`]
//!   is the single-lock ablation experiment E8 compares against.
//! * **Lock ordering by object type** (section 5): task before thread;
//!   two objects of the same type by address. The helpers in
//!   [`ordering`] implement the conventions.
//! * **Deactivation** (section 9): tasks and threads are "actively
//!   terminated"; operations re-check the flag under the lock and fail
//!   with `Deactivated`.
//! * **The four-step shutdown** (section 10): implemented by
//!   `Task::terminate_simple` / [`ThreadObj::terminate`] and, generically,
//!   by [`shutdown::shutdown_object`].
//! * **Kernel operations via ports**: [`ops`] registers the MiG-style
//!   handlers on a `machk-ipc` dispatch table, so examples drive tasks
//!   through real `msg_rpc` calls.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod mono;
pub mod ops;
pub mod ordering;
pub mod procset;
pub mod sched;
pub mod shutdown;
pub mod task;
pub mod thread;

pub use mono::MonoTask;
pub use ops::create_task_with_port;
pub use ops::{create_thread_with_port, kernel_dispatch_table, op_ids};
pub use procset::{ProcessorId, ProcessorSet};
pub use sched::RunQueue;
pub use shutdown::shutdown_object;
pub use task::{Task, TaskRefExt};
pub use thread::ThreadObj;
