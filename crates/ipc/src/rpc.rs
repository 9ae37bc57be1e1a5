//! MiG-style kernel RPC dispatch.
//!
//! Section 10 of the paper describes how a kernel operation keeps its
//! object alive:
//!
//! > 1. The request message is received. This message contains a
//! >    reference to the port from which it was received.
//! > 2. The represented object is determined from the port and a
//! >    reference is obtained to the object.
//! > 3. The operation executes. ... Note that the object and its
//! >    corresponding port cannot vanish due to the references acquired
//! >    above.
//! > 4. The operation completes. Interface code releases the object
//! >    reference. In Mach 3.0 systems ... a successful operation
//! >    consumes (uses or releases) the object reference, so the
//! >    interface code releases the reference only if the operation
//! >    fails.
//! > 5. Reply message returns result. Internal destruction of original
//! >    message releases the port reference.
//!
//! [`DispatchTable`] plays the role of the MiG-generated stubs: it maps
//! `(object type, operation id)` to a handler, performs the translation
//! and reference management of steps 2 and 4, and reports — via
//! [`RpcStats`] — who released each reference, which is the observable
//! difference between the 2.5 and 3.0 semantics.
//!
//! The table is a short vector searched linearly (real tables hold a
//! handful of operations), and dispatch calls the handler through a
//! borrow of the table. So the lookup hashes nothing and the handler
//! costs no reference-count traffic on a line every dispatching thread
//! shares: the only references an RPC moves are the ones §10 describes.

use core::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use machk_core::sync::probe::{self, FaultSite};
use machk_core::sync::{thread_slot, CachePadded, Deadline};
use machk_core::{Deactivated, JitterBackoff, ObjRef, Refable, SimpleLocked};

use crate::message::Message;
use crate::port::{Port, PortError};

/// Errors a kernel operation can return (a small subset of Mach's
/// `kern_return_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernError {
    /// The object has been deactivated (terminated).
    Deactivated,
    /// Malformed or out-of-range argument.
    InvalidArgument,
    /// The named entity was not found.
    NotFound,
    /// Subsystem-specific failure code.
    Failure(u32),
}

impl From<Deactivated> for KernError {
    fn from(_: Deactivated) -> Self {
        KernError::Deactivated
    }
}

impl core::fmt::Display for KernError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernError::Deactivated => f.write_str("object deactivated"),
            KernError::InvalidArgument => f.write_str("invalid argument"),
            KernError::NotFound => f.write_str("not found"),
            KernError::Failure(code) => write!(f, "failure (code {code})"),
        }
    }
}

impl std::error::Error for KernError {}

/// Errors of the RPC transport/dispatch itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The port is dead or not an object port.
    Port(PortError),
    /// No handler registered for this (object type, operation).
    NoSuchOperation,
    /// The dispatch table routed the message to a handler registered
    /// for a different concrete type — a stub/registration bug,
    /// reported to the caller instead of panicking the "kernel".
    WrongObjectType,
    /// The operation executed, but its reply message was lost in
    /// transport. The operation's side effects (and its reference
    /// disposition) stand; only the result never reached the caller.
    ReplyDropped,
    /// The operation executed and failed.
    Operation(KernError),
}

impl From<PortError> for RpcError {
    fn from(e: PortError) -> Self {
        RpcError::Port(e)
    }
}

impl core::fmt::Display for RpcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RpcError::Port(e) => write!(f, "rpc transport: {e}"),
            RpcError::NoSuchOperation => f.write_str("no such operation"),
            RpcError::WrongObjectType => f.write_str("dispatch table routed to wrong type"),
            RpcError::ReplyDropped => f.write_str("reply message dropped in transport"),
            RpcError::Operation(e) => write!(f, "operation failed: {e}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Which reference-management convention the interface code follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefSemantics {
    /// Mach 2.5: the interface code always releases the object reference
    /// when the operation completes.
    #[default]
    Mach25,
    /// Mach 3.0: a successful operation consumes (uses or releases) the
    /// object reference; the interface releases it only on failure.
    Mach30,
}

/// Stripes per ledger counter; a thread writes stripe `thread_slot() %
/// STRIPES`. Four gives each of a few concurrent workers a line of its
/// own; more threads share stripes, which costs speed, not exactness.
const STRIPES: usize = 4;

/// One §10 ledger counter, striped per thread: each thread adds to the
/// stripe its [`thread_slot`] picks, each stripe on a cache line of its
/// own, so threads that share a ledger do not pass one line back and
/// forth on every RPC. A read sums the stripes.
#[derive(Default)]
pub struct LedgerCounter([CachePadded<AtomicU64>; STRIPES]);

impl LedgerCounter {
    /// Add `v` to the calling thread's stripe; returns that stripe's
    /// previous value, not the counter's.
    #[inline]
    pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        self.0[thread_slot() % STRIPES].fetch_add(v, order)
    }

    /// The sum of every stripe. Exact at quiescence, once every adding
    /// thread has been joined; while adds run, a sum of values each
    /// stripe held at some point during the read.
    pub fn load(&self, order: Ordering) -> u64 {
        self.0.iter().map(|s| s.load(order)).sum()
    }
}

impl core::fmt::Debug for LedgerCounter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // relaxed: a diagnostic read, exact only at quiescence.
        self.load(Ordering::Relaxed).fmt(f)
    }
}

/// Counters making the reference flow observable (experiment E12).
///
/// Each counter is a [`LedgerCounter`]: four 64-byte stripes, so the
/// ledger is 1 KiB, 64-byte aligned (asserted at compile time). One
/// ledger serves any number of dispatching threads.
#[derive(Debug, Default)]
pub struct RpcStats {
    /// References obtained by port→object translation (step 2).
    pub translations: LedgerCounter,
    /// References released by interface code (step 4, 2.5 path or 3.0
    /// failure path).
    pub interface_releases: LedgerCounter,
    /// References consumed by successful operations (3.0 path).
    pub operation_consumes: LedgerCounter,
    /// Operations that failed.
    pub failures: LedgerCounter,
}

const _: () = assert!(core::mem::size_of::<RpcStats>() == 4 * STRIPES * 64);
const _: () = assert!(core::mem::align_of::<RpcStats>() == 64);

impl RpcStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn snapshot(&self) -> (u64, u64, u64, u64) {
        // relaxed: monotone ledger counters; the balance invariant is
        // checked only at quiescence, when each sum is exact.
        (
            self.translations.load(Ordering::Relaxed),
            self.interface_releases.load(Ordering::Relaxed),
            self.operation_consumes.load(Ordering::Relaxed),
            self.failures.load(Ordering::Relaxed),
        )
    }

    /// Invariant: every translated reference was released by exactly one
    /// party.
    pub fn balanced(&self) -> bool {
        let (t, i, c, _f) = self.snapshot();
        t == i + c
    }
}

/// Server-side reply cache keyed by idempotent sequence number: the
/// piece that makes RPC *retry* safe against the §10 ledger.
///
/// When a reply is lost in transport ([`RpcError::ReplyDropped`]) the
/// operation has already executed and its step-4 reference disposition
/// has already settled — naively re-executing on retry would run the
/// handler (and move the ledger) twice for one logical operation. So
/// the server records the finished reply under the caller's sequence
/// number at the drop point; a retry with the same number is answered
/// **from the cache** — no translation, no handler, no reference
/// movement — which is exactly the "at most one execution, at least one
/// reply" contract that keeps `translations == interface_releases +
/// operation_consumes` true under retry storms.
///
/// Entries are consumed by the first retry that hits them; entries for
/// callers that died before retrying are dropped with the cache (the
/// supervisor rebuilds engines per storm, so orphans are bounded).
#[derive(Default)]
pub struct ReplyCache {
    map: SimpleLocked<HashMap<u64, Message>>,
    /// Lock-free emptiness hint so the idempotent fast path costs one
    /// relaxed load, not a shared-lock acquisition per RPC. A caller
    /// only ever takes its *own* sequence numbers, and the recording
    /// dispatch happens on that same caller's thread before its retry,
    /// so program order alone makes the hint reliable where it matters.
    pending: AtomicU64,
}

impl ReplyCache {
    /// An empty cache.
    pub fn new() -> ReplyCache {
        ReplyCache::default()
    }

    /// Record the finished reply for sequence `seq` (called at the
    /// reply-drop point, after the ledger has settled). Only the
    /// reply-drop fault hook loses replies.
    fn record(&self, seq: u64, reply: Message) {
        let mut map = self.map.lock();
        if map.insert(seq, reply).is_none() {
            // relaxed: emptiness hint only; see the field docs.
            self.pending.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Consume the recorded reply for `seq`, if the operation already
    /// executed.
    fn take(&self, seq: u64) -> Option<Message> {
        // relaxed: emptiness hint only; see the field docs.
        if self.pending.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let taken = self.map.lock().remove(&seq);
        if taken.is_some() {
            // relaxed: emptiness hint only; see the field docs.
            self.pending.fetch_sub(1, Ordering::Relaxed);
        }
        taken
    }

    /// Recorded replies awaiting a retry (diagnostics).
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether no replies are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl core::fmt::Debug for ReplyCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ReplyCache")
            .field("pending", &self.len())
            .finish()
    }
}

/// A handler: receives the (type-erased) object and the request, returns
/// the reply. Errors are already lifted to [`RpcError`] so a routing
/// mistake (wrong concrete type) surfaces as a typed error rather than
/// a panic inside the stub.
type Handler =
    Box<dyn Fn(&ObjRef<dyn Refable>, &Message) -> Result<Message, RpcError> + Send + Sync>;

/// The dispatch table: Mach's MiG-generated kernel server, as data.
///
/// # Examples
///
/// ```
/// use machk_core::Kobj;
/// use machk_ipc::{DispatchTable, KernError, Message, Port, RefSemantics, RpcStats};
///
/// type Counter = Kobj<u64>;
/// const OP_ADD: u32 = 1;
///
/// let mut table = DispatchTable::new();
/// table.register::<Counter>(OP_ADD, |counter, msg| {
///     let delta = msg.int_at(0).ok_or(KernError::InvalidArgument)?;
///     let total = counter.with_active(|n| { *n += delta; *n })?;
///     Ok(Message::new(OP_ADD).with_int(total))
/// });
///
/// let counter = Kobj::create(0u64);
/// let port = Port::create();
/// port.set_kernel_object(counter.clone().into_dyn());
///
/// let stats = RpcStats::new();
/// let reply = table
///     .msg_rpc(&port, Message::new(OP_ADD).with_int(5), RefSemantics::Mach30, &stats)
///     .unwrap();
/// assert_eq!(reply.int_at(0), Some(5));
/// assert!(stats.balanced());
/// ```
#[derive(Default)]
pub struct DispatchTable {
    /// `(operation, object type, handler)`, at most one entry per pair.
    handlers: Vec<(u32, TypeId, Handler)>,
}

impl DispatchTable {
    /// An empty table.
    pub fn new() -> DispatchTable {
        DispatchTable::default()
    }

    /// Register the handler for operation `op` on objects of type `T`,
    /// replacing any handler already registered for the pair.
    pub fn register<T: Refable>(
        &mut self,
        op: u32,
        f: impl Fn(&T, &Message) -> Result<Message, KernError> + Send + Sync + 'static,
    ) {
        let handler: Handler = Box::new(move |obj, msg| {
            let typed = obj.downcast_ref::<T>().ok_or(RpcError::WrongObjectType)?;
            f(typed, msg).map_err(RpcError::Operation)
        });
        let ty = TypeId::of::<T>();
        match self.handlers.iter_mut().find(|e| e.0 == op && e.1 == ty) {
            Some(entry) => entry.2 = handler,
            None => self.handlers.push((op, ty, handler)),
        }
    }

    /// The handler for operation `op` on objects of type `ty`.
    fn lookup(&self, ty: TypeId, op: u32) -> Option<&Handler> {
        self.handlers
            .iter()
            .find(|e| e.0 == op && e.1 == ty)
            .map(|e| &e.2)
    }

    /// Execute one kernel RPC: the full five-step sequence of
    /// section 10 against `port`'s kernel object.
    ///
    /// The `request.id()` names the operation. The caller's `port`
    /// reference plays the part of the message's port reference (step 1
    /// / step 5: it is borrowed for the duration and "released" —
    /// returned to the caller — when the call ends).
    pub fn msg_rpc(
        &self,
        port: &ObjRef<Port>,
        request: Message,
        semantics: RefSemantics,
        stats: &RpcStats,
    ) -> Result<Message, RpcError> {
        self.dispatch(port, request, semantics, stats, None)
    }

    /// [`DispatchTable::msg_rpc`] with an idempotent sequence number:
    /// if `cache` already holds the reply for `seq` — the operation
    /// executed but its reply was lost — it is returned directly,
    /// without translation, handler execution, or any ledger movement
    /// (see [`ReplyCache`] for why that is the §10-safe retry shape).
    /// Otherwise the RPC runs normally, and a lost reply is recorded
    /// under `seq` before [`RpcError::ReplyDropped`] is reported.
    pub fn msg_rpc_idempotent(
        &self,
        port: &ObjRef<Port>,
        request: Message,
        semantics: RefSemantics,
        stats: &RpcStats,
        seq: u64,
        cache: &ReplyCache,
    ) -> Result<Message, RpcError> {
        if let Some(reply) = cache.take(seq) {
            return Ok(reply);
        }
        self.dispatch(port, request, semantics, stats, Some((cache, seq)))
    }

    /// Deadline + jittered-backoff retry around
    /// [`DispatchTable::msg_rpc_idempotent`]. Retries only the
    /// transport-class failures — a dropped reply (the operation ran;
    /// the retry is answered from the cache) and a transiently dead
    /// port (nothing ran; re-executing is safe) — with decorrelated
    /// jitter between attempts so a retry storm does not reconverge on
    /// the server in phase. The deadline is a [`Deadline`], measured on
    /// the host clock, so under `machk-sim` retry timing is part of the
    /// deterministic schedule. Returns the reply plus how many retries
    /// it took.
    #[allow(clippy::too_many_arguments)] // the full retry contract: port, request, semantics, stats, idempotency key, cache, deadline
    pub fn msg_rpc_retry(
        &self,
        port: &ObjRef<Port>,
        make_request: impl Fn() -> Message,
        semantics: RefSemantics,
        stats: &RpcStats,
        seq: u64,
        cache: &ReplyCache,
        deadline: Duration,
    ) -> Result<(Message, u32), RpcError> {
        // The clock is read lazily, on the first failure: the common
        // all-success case must cost nothing beyond the dispatch itself
        // (this sits on the engine's storm hot path).
        let mut budget: Option<Deadline> = None;
        let mut retries = 0u32;
        let mut backoff = JitterBackoff::new();
        loop {
            match self.msg_rpc_idempotent(port, make_request(), semantics, stats, seq, cache) {
                Ok(reply) => return Ok((reply, retries)),
                Err(e @ (RpcError::ReplyDropped | RpcError::Port(PortError::Dead))) => {
                    if budget
                        .get_or_insert_with(|| Deadline::after(deadline))
                        .expired()
                    {
                        return Err(e);
                    }
                    retries += 1;
                    backoff.pause();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The shared five-step dispatch core; `record` carries the reply
    /// cache + sequence for the idempotent entry point.
    fn dispatch(
        &self,
        port: &ObjRef<Port>,
        request: Message,
        semantics: RefSemantics,
        stats: &RpcStats,
        record: Option<(&ReplyCache, u64)>,
    ) -> Result<Message, RpcError> {
        // Fault hook: the port died between the caller's send and our
        // translation. Injected *before* the translation counter so no
        // reference was obtained and the ledger stays balanced.
        if probe::fire(FaultSite::RpcDeadPort) {
            return Err(RpcError::Port(PortError::Dead));
        }

        // Step 2: port → object translation obtains a reference.
        let obj = port.kernel_object()?;
        // relaxed: ledger counter; the reference itself came from the
        // port's own synchronization.
        stats.translations.fetch_add(1, Ordering::Relaxed);

        let any: &dyn Any = &*obj;
        let Some(handler) = self.lookup(any.type_id(), request.id()) else {
            // Translation reference released by interface code.
            // relaxed: ledger counter.
            stats.interface_releases.fetch_add(1, Ordering::Relaxed);
            drop(obj);
            return Err(RpcError::NoSuchOperation);
        };

        // Step 3: the operation executes. The object cannot vanish: we
        // hold the translation reference; the port cannot vanish: the
        // message (caller) holds a port reference.
        let result = handler(&obj, &request);

        // Step 4: reference disposition.
        match (&result, semantics) {
            (Ok(_), RefSemantics::Mach30) => {
                // The successful operation consumed the reference.
                stats.operation_consumes.fetch_add(1, Ordering::Relaxed); // relaxed: ledger counter
            }
            (Ok(_), RefSemantics::Mach25) | (Err(_), _) => {
                // Interface code releases.
                stats.interface_releases.fetch_add(1, Ordering::Relaxed); // relaxed: ledger counter
            }
        }
        if result.is_err() {
            stats.failures.fetch_add(1, Ordering::Relaxed); // relaxed: ledger counter
        }
        drop(obj);

        // Fault hook: the reply is lost on the way back. The operation
        // ran and the step-4 disposition above already happened — as
        // with a real dropped reply, only the *caller's view* is lost,
        // so the reference ledger is untouched and still balances. For
        // idempotent callers the finished reply is recorded first, so a
        // retry is answered without re-executing anything.
        if result.is_ok() && probe::fire(FaultSite::RpcDropReply) {
            drop(request);
            if let (Some((cache, seq)), Ok(reply)) = (record, result) {
                cache.record(seq, reply);
            }
            return Err(RpcError::ReplyDropped);
        }

        // Step 5: reply returns the result; dropping `request` here
        // releases any references the request message carried.
        drop(request);
        result
    }
}

impl core::fmt::Debug for DispatchTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DispatchTable")
            .field("operations", &self.handlers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machk_core::Kobj;
    use std::sync::Arc;

    type Counter = Kobj<u64>;
    const OP_ADD: u32 = 1;
    const OP_GET: u32 = 2;
    const OP_FAIL: u32 = 3;

    fn table() -> DispatchTable {
        let mut t = DispatchTable::new();
        t.register::<Counter>(OP_ADD, |c, m| {
            let d = m.int_at(0).ok_or(KernError::InvalidArgument)?;
            let v = c.with_active(|n| {
                *n += d;
                *n
            })?;
            Ok(Message::new(OP_ADD).with_int(v))
        });
        t.register::<Counter>(OP_GET, |c, _m| {
            let v = c.with_active(|n| *n)?;
            Ok(Message::new(OP_GET).with_int(v))
        });
        t.register::<Counter>(OP_FAIL, |_c, _m| Err(KernError::Failure(99)));
        t
    }

    fn object_port() -> (ObjRef<Counter>, ObjRef<Port>) {
        let obj = Kobj::create(0u64);
        let port = Port::create();
        port.set_kernel_object(obj.clone().into_dyn());
        (obj, port)
    }

    #[test]
    fn rpc_roundtrip() {
        let t = table();
        let (obj, port) = object_port();
        let stats = RpcStats::new();
        let r = t
            .msg_rpc(
                &port,
                Message::new(OP_ADD).with_int(4),
                RefSemantics::Mach25,
                &stats,
            )
            .unwrap();
        assert_eq!(r.int_at(0), Some(4));
        let r = t
            .msg_rpc(&port, Message::new(OP_GET), RefSemantics::Mach25, &stats)
            .unwrap();
        assert_eq!(r.int_at(0), Some(4));
        assert!(stats.balanced());
        // Only the creator and the port hold references afterwards.
        assert_eq!(ObjRef::ref_count(&obj), 2);
    }

    #[test]
    fn semantics_disposition_counted() {
        let t = table();
        let (_obj, port) = object_port();
        let stats = RpcStats::new();
        t.msg_rpc(&port, Message::new(OP_GET), RefSemantics::Mach30, &stats)
            .unwrap();
        t.msg_rpc(&port, Message::new(OP_GET), RefSemantics::Mach25, &stats)
            .unwrap();
        let _ = t
            .msg_rpc(&port, Message::new(OP_FAIL), RefSemantics::Mach30, &stats)
            .unwrap_err();
        assert_eq!(stats.operation_consumes.load(Ordering::Relaxed), 1);
        assert_eq!(stats.interface_releases.load(Ordering::Relaxed), 2);
        assert_eq!(stats.failures.load(Ordering::Relaxed), 1);
        assert!(stats.balanced());
    }

    #[test]
    fn unknown_operation() {
        let t = table();
        let (_obj, port) = object_port();
        let stats = RpcStats::new();
        let e = t
            .msg_rpc(&port, Message::new(999), RefSemantics::Mach25, &stats)
            .unwrap_err();
        assert_eq!(e, RpcError::NoSuchOperation);
        assert!(stats.balanced());
    }

    #[test]
    fn wrong_type_routing_is_typed_error_not_panic() {
        // The lookup keys on the object's concrete type, so normal
        // dispatch can't misroute; drive the stub directly to prove the
        // defensive path reports instead of panicking.
        let t = table();
        let h = t.lookup(TypeId::of::<Counter>(), OP_GET).unwrap();
        let other = Kobj::create(String::from("not a counter")).into_dyn();
        let e = h(&other, &Message::new(OP_GET)).unwrap_err();
        assert_eq!(e, RpcError::WrongObjectType);
        assert!(e.to_string().contains("wrong type"));
    }

    #[test]
    fn reregistering_replaces_the_handler() {
        let mut t = table();
        let before = t.handlers.len();
        t.register::<Counter>(OP_GET, |_c, _m| Ok(Message::new(OP_GET).with_int(7)));
        assert_eq!(t.handlers.len(), before, "same (type, op): no new entry");
        let (_obj, port) = object_port();
        let stats = RpcStats::new();
        let r = t
            .msg_rpc(&port, Message::new(OP_GET), RefSemantics::Mach25, &stats)
            .unwrap();
        assert_eq!(r.int_at(0), Some(7), "the new handler answers");
        // The same op on another type is an entry of its own.
        t.register::<Kobj<String>>(OP_GET, |_s, _m| Ok(Message::new(OP_GET)));
        assert_eq!(t.handlers.len(), before + 1);
    }

    #[test]
    fn rpc_against_cleared_port_fails_at_translation() {
        let t = table();
        let (_obj, port) = object_port();
        let removed = port.clear_kernel_object().unwrap();
        drop(removed);
        let stats = RpcStats::new();
        let e = t
            .msg_rpc(&port, Message::new(OP_GET), RefSemantics::Mach25, &stats)
            .unwrap_err();
        assert_eq!(e, RpcError::Port(PortError::NotAnObjectPort));
        assert_eq!(stats.translations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn rpc_against_deactivated_object_fails_cleanly() {
        let t = table();
        let (obj, port) = object_port();
        obj.deactivate().unwrap();
        let stats = RpcStats::new();
        let e = t
            .msg_rpc(&port, Message::new(OP_GET), RefSemantics::Mach25, &stats)
            .unwrap_err();
        assert_eq!(e, RpcError::Operation(KernError::Deactivated));
        assert!(stats.balanced());
    }

    #[test]
    fn striped_counter_sums_every_threads_adds() {
        let stats = RpcStats::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100_000 {
                        stats.translations.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(stats.translations.load(Ordering::Relaxed), 400_000);
    }

    #[test]
    fn one_ledger_balances_across_dispatching_threads() {
        let t = table();
        let (_obj, port) = object_port();
        let stats = RpcStats::new();
        std::thread::scope(|s| {
            for semantics in [RefSemantics::Mach25, RefSemantics::Mach30].repeat(2) {
                let (t, port, stats) = (&t, &port, &stats);
                s.spawn(move || {
                    for i in 0..1_000 {
                        let op = if i % 10 == 0 { OP_FAIL } else { OP_ADD };
                        let msg = Message::new(op).with_int(1);
                        let _ = t.msg_rpc(port, msg, semantics, stats);
                    }
                });
            }
        });
        assert_eq!(stats.translations.load(Ordering::Relaxed), 4_000);
        assert_eq!(stats.failures.load(Ordering::Relaxed), 400);
        assert_eq!(stats.operation_consumes.load(Ordering::Relaxed), 1_800);
        assert!(stats.balanced());
    }

    #[test]
    fn object_survives_rpc_racing_with_release() {
        // The "operations in progress" guarantee: the translation
        // reference keeps the object alive even if every other holder
        // drops theirs mid-operation.
        let t = Arc::new(table());
        let (obj, port) = object_port();
        let stats = RpcStats::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = Arc::clone(&t);
                let port = port.clone();
                let stats = &stats;
                s.spawn(move || {
                    for _ in 0..500 {
                        let _ = t.msg_rpc(
                            &port,
                            Message::new(OP_ADD).with_int(1),
                            RefSemantics::Mach30,
                            stats,
                        );
                    }
                });
            }
            // Concurrently drop the creator reference.
            drop(obj);
        });
        assert!(stats.balanced());
        // The port still holds the object; RPC still works.
        let r = t
            .msg_rpc(&port, Message::new(OP_GET), RefSemantics::Mach25, &stats)
            .unwrap();
        assert_eq!(r.int_at(0), Some(2000));
    }
}
