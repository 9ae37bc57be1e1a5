//! Outside-in layer spans.
//!
//! The benchmark times each call it makes into a layer's public API —
//! and, inside the handlers it registers, each call those make — with a
//! pair of clock reads. A span's *self* time is its duration minus the
//! spans nested in it. Self time is summed per layer, so the layers'
//! self times plus an unexplained rest add up to the traced time.
//! Nothing here reaches into the product crates.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::hist::Hist;

/// One kind of traced call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Message::new(..).with_*` — a request or a reply.
    MsgBuild,
    /// Dropping a reply message.
    MsgDrop,
    /// `PortNameSpace::translate`.
    Translate,
    /// `PortNameSpace::insert`.
    Insert,
    /// `PortNameSpace::remove`.
    Remove,
    /// `Port::kernel_object` (a probe; dispatch calls it internally).
    KernelObject,
    /// `Port::create`.
    PortCreate,
    /// `Port::destroy`.
    PortDestroy,
    /// `Port::try_send`.
    TrySend,
    /// `Port::receive_batch`.
    ReceiveBatch,
    /// `DispatchTable::msg_rpc` / `msg_rpc_retry`.
    MsgRpc,
    /// A handler the benchmark registered, run inside dispatch.
    Handler,
    /// Dropping rights (and the messages carrying them).
    Release,
    /// Not a span: `MsgRpc`'s self time, recorded with each `MsgRpc`.
    DispatchSelf,
}

const KINDS: usize = Kind::DispatchSelf as usize + 1;

/// The layers self time is attributed to, in report order.
pub const LAYERS: [&str; 5] = ["namespace", "port", "rpc", "message", "refcount"];
/// Index of the port layer in [`LAYERS`].
pub const PORT: usize = 1;
/// Index of the rpc layer in [`LAYERS`].
pub const RPC: usize = 2;

impl Kind {
    fn layer(self) -> usize {
        match self {
            Kind::Translate | Kind::Insert | Kind::Remove => 0,
            Kind::KernelObject
            | Kind::PortCreate
            | Kind::PortDestroy
            | Kind::TrySend
            | Kind::ReceiveBatch => PORT,
            Kind::MsgRpc | Kind::Handler | Kind::DispatchSelf => RPC,
            Kind::MsgBuild | Kind::MsgDrop => 3,
            Kind::Release => 4,
        }
    }
}

/// One thread's spans: a histogram per kind plus self time per layer.
#[derive(Clone)]
pub struct Recorder {
    hists: Vec<Hist>,
    /// Summed self time per layer, indexed like [`LAYERS`].
    pub self_ns: [u64; 5],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            hists: vec![Hist::default(); KINDS],
            self_ns: [0; 5],
        }
    }
}

impl Recorder {
    /// The per-call durations of `kind`.
    pub fn hist(&self, kind: Kind) -> &Hist {
        &self.hists[kind as usize]
    }

    /// Add another recorder's spans and self times.
    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        for (a, b) in self.self_ns.iter_mut().zip(other.self_ns) {
            *a += b;
        }
    }
}

thread_local! {
    static REC: RefCell<Option<Box<Recorder>>> = const { RefCell::new(None) };
    /// Time spent in spans nested in the innermost open span.
    static NESTED: Cell<u64> = const { Cell::new(0) };
}

/// Start recording this thread's spans into a fresh recorder.
pub fn install() {
    REC.with(|r| *r.borrow_mut() = Some(Box::default()));
    NESTED.with(|n| n.set(0));
}

/// Stop recording and hand back what this thread recorded.
pub fn take() -> Recorder {
    REC.with(|r| r.borrow_mut().take())
        .map(|b| *b)
        .unwrap_or_default()
}

/// Run `f` as one span of `kind`. Spans are timed whether or not a
/// recorder is installed, and kept only when one is.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let outer = NESTED.with(|n| n.replace(0));
    let t0 = Instant::now();
    let r = f();
    let d = t0.elapsed().as_nanos() as u64;
    let nested = NESTED.with(|n| n.replace(outer + d));
    let own = d.saturating_sub(nested);
    REC.with(|rec| {
        if let Some(rec) = rec.borrow_mut().as_mut() {
            rec.hists[kind as usize].record(d);
            if kind == Kind::MsgRpc {
                rec.hists[Kind::DispatchSelf as usize].record(own);
            }
            rec.self_ns[kind.layer()] += own;
        }
    });
    r
}

/// [`span`] when `T`, else plain `f`: a traced and an untraced loop
/// share one body, and the untraced one carries no clock reads.
#[inline(always)]
pub fn span_if<const T: bool, R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if T {
        span(kind, f)
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_span_time_is_not_self_time() {
        install();
        span(Kind::MsgRpc, || {
            span(Kind::Handler, || crate::spin_for(20_000))
        });
        let rec = take();
        assert_eq!(rec.hist(Kind::MsgRpc).count(), 1);
        assert_eq!(rec.hist(Kind::Handler).count(), 1);
        let handler = rec.hist(Kind::Handler).quantile(0.5);
        let dispatch_self = rec.hist(Kind::DispatchSelf).quantile(0.5);
        assert!(handler >= 20_000.0);
        assert!(
            dispatch_self < handler / 10.0,
            "the handler is nested, not self time"
        );
        assert_eq!(
            take().hist(Kind::MsgRpc).count(),
            0,
            "take empties the recorder"
        );
    }
}
