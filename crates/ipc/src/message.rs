//! Typed messages.
//!
//! "A message is a typed collection of data objects" (section 3). The
//! interesting element type for this reproduction is the **port right**:
//! a message element that carries an [`ObjRef<Port>`], so moving a
//! message moves a reference — exactly how Mach messages carry rights.
//!
//! ## Inline body (beyond the paper)
//!
//! Every request and reply the kernel operations build carries at most
//! two integers, so a body of up to two integers is stored inline in the
//! message and a kernel RPC allocates nothing for its messages. A body
//! that is one port right is inline too, so moving a right through a
//! port allocates nothing either (and the receiving processor frees
//! nothing the sending one allocated). Any other body (bytes,
//! out-of-line data, a third integer, a right beside another element)
//! lives in a heap vector, in element order. The body stays 24 bytes, so
//! `Message` stays 32: a port that has queued holds 64 ring slots of
//! `Message`, and a larger message would grow each.

use machk_core::ObjRef;

use crate::port::Port;

/// One typed element of a message body.
#[derive(Debug)]
pub enum MsgElement {
    /// A machine integer.
    Int(u64),
    /// An inline byte string.
    Bytes(Vec<u8>),
    /// An out-of-line data region (Mach would map it copy-on-write; the
    /// simulation carries it as an owned buffer distinct from inline
    /// data so the element kinds round-trip).
    OutOfLine(Vec<u8>),
    /// A port right. Holding the message holds the reference.
    PortRight(ObjRef<Port>),
}

/// A message: an id naming the operation (MiG's `msgh_id`) plus the
/// typed body.
///
/// # Examples
///
/// ```
/// use machk_ipc::Message;
///
/// let msg = Message::new(100).with_int(42).with_bytes(b"hello".to_vec());
/// assert_eq!(msg.id(), 100);
/// assert_eq!(msg.int_at(0), Some(42));
/// assert_eq!(msg.bytes_at(1), Some(&b"hello"[..]));
/// ```
#[derive(Debug, Default)]
pub struct Message {
    id: u32,
    body: Body,
}

/// A message body. Up to two integers, or one port right, live inline,
/// so the kernel RPCs (every request and reply carries at most two
/// integers) and right transfers never allocate; any other element
/// moves the body to the heap, in element order. The `Vec`'s capacity
/// niche holds the tag, so `Message` stays 32 bytes.
#[derive(Debug, Default)]
enum Body {
    #[default]
    Empty,
    One(u64),
    Two(u64, u64),
    Right(ObjRef<Port>),
    Heap(Vec<MsgElement>),
}

// Id 4 (padded to 8) + body 24.
const _: () = assert!(core::mem::size_of::<Message>() == 32);

impl Message {
    /// An empty message with operation id `id`.
    pub fn new(id: u32) -> Message {
        Message {
            id,
            body: Body::Empty,
        }
    }

    /// The operation id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of body elements.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an integer element (builder style).
    pub fn with_int(mut self, v: u64) -> Message {
        self.push(MsgElement::Int(v));
        self
    }

    /// Append an inline byte-string element (builder style).
    pub fn with_bytes(mut self, v: Vec<u8>) -> Message {
        self.push(MsgElement::Bytes(v));
        self
    }

    /// Append an out-of-line region (builder style).
    pub fn with_ool(mut self, v: Vec<u8>) -> Message {
        self.push(MsgElement::OutOfLine(v));
        self
    }

    /// Append a port right (builder style). The message now owns the
    /// reference.
    pub fn with_port_right(mut self, right: ObjRef<Port>) -> Message {
        self.push(MsgElement::PortRight(right));
        self
    }

    /// Push any element.
    pub fn push(&mut self, el: MsgElement) {
        self.body = match (core::mem::take(&mut self.body), el) {
            (Body::Empty, MsgElement::Int(a)) => Body::One(a),
            (Body::One(a), MsgElement::Int(b)) => Body::Two(a, b),
            (Body::Empty, MsgElement::PortRight(r)) => Body::Right(r),
            (body, el) => {
                let mut v = body.into_heap();
                v.push(el);
                Body::Heap(v)
            }
        };
    }

    /// The heap element at `i`; `None` for an inline body, which holds
    /// integers or one right.
    fn heap_at(&self, i: usize) -> Option<&MsgElement> {
        match &self.body {
            Body::Heap(v) => v.get(i),
            _ => None,
        }
    }

    /// The integer at body index `i`, if that element is an integer.
    pub fn int_at(&self, i: usize) -> Option<u64> {
        match (&self.body, i) {
            (Body::One(a) | Body::Two(a, _), 0) | (Body::Two(_, a), 1) => Some(*a),
            _ => match self.heap_at(i) {
                Some(MsgElement::Int(v)) => Some(*v),
                _ => None,
            },
        }
    }

    /// The byte string at body index `i` (inline or out-of-line).
    pub fn bytes_at(&self, i: usize) -> Option<&[u8]> {
        match self.heap_at(i) {
            Some(MsgElement::Bytes(v)) | Some(MsgElement::OutOfLine(v)) => Some(v),
            _ => None,
        }
    }

    /// Borrow the port right at body index `i`.
    pub fn port_right_at(&self, i: usize) -> Option<&ObjRef<Port>> {
        match (&self.body, i) {
            (Body::Right(p), 0) => Some(p),
            _ => match self.heap_at(i) {
                Some(MsgElement::PortRight(p)) => Some(p),
                _ => None,
            },
        }
    }

    /// Remove and return the port right at body index `i`, transferring
    /// the reference to the caller (receiving a right).
    pub fn take_port_right(&mut self, i: usize) -> Option<ObjRef<Port>> {
        match &mut self.body {
            Body::Right(_) if i == 0 => match core::mem::take(&mut self.body) {
                Body::Right(p) => Some(p),
                _ => unreachable!(),
            },
            Body::Heap(v) if matches!(v.get(i), Some(MsgElement::PortRight(_))) => {
                match v.remove(i) {
                    MsgElement::PortRight(p) => Some(p),
                    _ => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Total payload bytes (diagnostics / benchmarks).
    pub fn payload_bytes(&self) -> usize {
        match &self.body {
            Body::Heap(v) => v
                .iter()
                .map(|e| match e {
                    MsgElement::Int(_) => 8,
                    MsgElement::Bytes(v) | MsgElement::OutOfLine(v) => v.len(),
                    MsgElement::PortRight(_) => core::mem::size_of::<usize>(),
                })
                .sum(),
            Body::Right(_) => core::mem::size_of::<usize>(),
            inline => 8 * inline.len(),
        }
    }
}

impl Body {
    fn len(&self) -> usize {
        match self {
            Body::Empty => 0,
            Body::One(_) => 1,
            Body::Two(..) => 2,
            Body::Right(_) => 1,
            Body::Heap(v) => v.len(),
        }
    }

    /// The elements as a heap vector, in order.
    fn into_heap(self) -> Vec<MsgElement> {
        match self {
            Body::Empty => Vec::new(),
            Body::One(a) => vec![MsgElement::Int(a)],
            Body::Two(a, b) => vec![MsgElement::Int(a), MsgElement::Int(b)],
            Body::Right(r) => vec![MsgElement::PortRight(r)],
            Body::Heap(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::Port;

    #[test]
    fn builder_and_accessors() {
        let m = Message::new(7)
            .with_int(1)
            .with_bytes(vec![2, 3])
            .with_ool(vec![4; 100]);
        assert_eq!(m.id(), 7);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.int_at(0), Some(1));
        assert_eq!(m.bytes_at(1), Some(&[2u8, 3][..]));
        assert_eq!(m.bytes_at(2).unwrap().len(), 100);
        assert_eq!(m.int_at(1), None, "type-checked access");
        assert_eq!(m.payload_bytes(), 8 + 2 + 100);
    }

    #[test]
    fn port_right_carries_reference() {
        let port = Port::create();
        assert_eq!(ObjRef::ref_count(&port), 1);
        let m = Message::new(1).with_port_right(port.clone());
        assert_eq!(ObjRef::ref_count(&port), 2, "message holds a reference");
        drop(m);
        assert_eq!(
            ObjRef::ref_count(&port),
            1,
            "dropping the message releases it"
        );
    }

    #[test]
    fn take_port_right_transfers_reference() {
        let port = Port::create();
        let mut m = Message::new(1).with_int(9).with_port_right(port.clone());
        let right = m.take_port_right(1).unwrap();
        assert!(ObjRef::ptr_eq(&right, &port));
        assert_eq!(m.len(), 1, "right removed from body");
        assert_eq!(ObjRef::ref_count(&port), 2, "caller now owns it");
        drop(right);
        assert_eq!(ObjRef::ref_count(&port), 1);
    }

    #[test]
    fn two_ints_stay_inline_and_a_third_spills_in_order() {
        let mut m = Message::new(1).with_int(1).with_int(2);
        assert!(matches!(m.body, Body::Two(1, 2)));
        assert_eq!(m.payload_bytes(), 16);
        m.push(MsgElement::Int(3));
        assert!(matches!(m.body, Body::Heap(_)));
        assert_eq!(
            (m.int_at(0), m.int_at(1), m.int_at(2)),
            (Some(1), Some(2), Some(3))
        );
        let m = Message::new(1).with_int(4).with_bytes(vec![5]);
        assert_eq!((m.int_at(0), m.bytes_at(1)), (Some(4), Some(&[5u8][..])));
    }

    #[test]
    fn take_wrong_kind_is_none() {
        let mut m = Message::new(1).with_int(9);
        assert!(m.take_port_right(0).is_none());
        assert_eq!(m.len(), 1);
    }
}
