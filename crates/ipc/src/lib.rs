//! # machk-ipc — ports, messages, and kernel RPC
//!
//! The Mach kernel is "communication oriented": "most kernel operations
//! are invoked by sending messages to the kernel" (paper section 3).
//! This crate rebuilds the IPC substrate the paper's reference protocol
//! (section 10) runs on:
//!
//! * [`Port`] — "a protected communication channel with exactly one
//!   receiver and one or more senders". Ports are reference-counted
//!   kernel objects themselves; a port that represents another kernel
//!   object holds a counted pointer to it, and removing that pointer is
//!   step 2 of the shutdown protocol ("this disables port to object
//!   translation").
//! * [`Message`] — "a typed collection of data objects": integers,
//!   byte strings, out-of-line regions, and **port rights** (sending a
//!   right transfers a reference).
//! * [`PortNameSpace`] — a task's name → port-right table. Translation
//!   "effectively clones the object reference held by the name
//!   translation data structures".
//! * [`rpc`] — MiG-style dispatch implementing the five-step operation
//!   sequence of section 10, with both reference-consumption semantics:
//!   Mach 2.5 (the interface code always releases the object reference)
//!   and Mach 3.0 ("a successful operation consumes ... the object
//!   reference, so the interface code releases the reference only if
//!   the operation fails").
//!
//! Blocking sends (queue full) and receives (queue empty) use the
//! section-6 event-wait protocol, making ports a natural integration
//! test of the locking substrate.
//!
//! ## The server core (beyond the paper)
//!
//! Three production-shaped layers apply the paper's own scaling
//! lessons to this substrate (see each module's docs):
//!
//! * message queues are lock-free bounded rings with batched dequeue
//!   ([`port`] module docs);
//! * the name table is sharded across independently locked,
//!   lockstat-named entry tables ([`namespace`] module docs);
//! * the [`engine`] drives seeded task-create / port-transfer /
//!   dead-port-churn RPC storms through §10 dispatch with both
//!   reference ledgers audited — the E19 experiment and the machk-sim
//!   determinism probe run on it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod message;
pub mod namespace;
pub mod port;
pub mod portset;
pub mod rpc;

pub use engine::{CrashKind, CrashPoint, Engine, EngineConfig, EngineReport};
pub use message::{Message, MsgElement};
pub use namespace::{NameTable, PortName, PortNameSpace};
pub use port::{Port, PortError};
pub use portset::PortSet;
pub use rpc::{
    DispatchTable, KernError, LedgerCounter, RefSemantics, ReplyCache, RpcError, RpcStats,
};
