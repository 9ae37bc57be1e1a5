//! Property tests for messages and port name spaces.

use machk_core::ObjRef;
use machk_ipc::{Message, MsgElement, Port, PortName, PortNameSpace};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum El {
    Int(u64),
    Bytes(Vec<u8>),
    Ool(Vec<u8>),
    Right,
}

impl El {
    fn to_element(&self, anchor: &ObjRef<Port>) -> MsgElement {
        match self {
            El::Int(v) => MsgElement::Int(*v),
            El::Bytes(b) => MsgElement::Bytes(b.clone()),
            El::Ool(b) => MsgElement::OutOfLine(b.clone()),
            El::Right => MsgElement::PortRight(anchor.clone()),
        }
    }

    fn payload(&self) -> usize {
        match self {
            El::Int(_) => 8,
            El::Bytes(b) | El::Ool(b) => b.len(),
            El::Right => core::mem::size_of::<usize>(),
        }
    }
}

/// Every accessor of `msg` agrees with the model `els`, one index past
/// the end included, and `anchor` is referenced once per right.
fn check_against_model(
    msg: &Message,
    els: &[El],
    anchor: &ObjRef<Port>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(msg.len(), els.len());
    prop_assert_eq!(msg.is_empty(), els.is_empty());
    let payload: usize = els.iter().map(El::payload).sum();
    prop_assert_eq!(msg.payload_bytes(), payload);
    let rights = els.iter().filter(|e| matches!(e, El::Right)).count();
    prop_assert_eq!(ObjRef::ref_count(anchor) as usize, 1 + rights);
    for i in 0..=els.len() {
        let el = els.get(i);
        let int = match el {
            Some(El::Int(v)) => Some(*v),
            _ => None,
        };
        let bytes = match el {
            Some(El::Bytes(b) | El::Ool(b)) => Some(&b[..]),
            _ => None,
        };
        prop_assert_eq!(msg.int_at(i), int);
        prop_assert_eq!(msg.bytes_at(i), bytes);
        prop_assert_eq!(
            msg.port_right_at(i)
                .is_some_and(|p| ObjRef::ptr_eq(p, anchor)),
            matches!(el, Some(El::Right))
        );
    }
    Ok(())
}

fn arb_el() -> impl Strategy<Value = El> {
    prop_oneof![
        any::<u64>().prop_map(El::Int),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(El::Bytes),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(El::Ool),
        Just(El::Right),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn message_elements_roundtrip(id in any::<u32>(), els in proptest::collection::vec(arb_el(), 0..16)) {
        let anchor = Port::create();
        let mut msg = Message::new(id);
        for el in &els {
            msg.push(el.to_element(&anchor));
        }
        prop_assert_eq!(msg.id(), id);
        prop_assert_eq!(msg.len(), els.len());
        let rights = els.iter().filter(|e| matches!(e, El::Right)).count();
        prop_assert_eq!(ObjRef::ref_count(&anchor) as usize, 1 + rights);
        for (i, el) in els.iter().enumerate() {
            match el {
                El::Int(v) => prop_assert_eq!(msg.int_at(i), Some(*v)),
                El::Bytes(b) | El::Ool(b) => prop_assert_eq!(msg.bytes_at(i), Some(&b[..])),
                El::Right => prop_assert!(msg.port_right_at(i).is_some()),
            }
        }
        drop(msg);
        prop_assert_eq!(ObjRef::ref_count(&anchor), 1, "all rights released");
    }

    #[test]
    fn spilled_body_matches_a_vec_model(
        ints in proptest::collection::vec(any::<u64>(), 0..4),
        rest in proptest::collection::vec(arb_el(), 0..8),
        takes in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        // Integers first, so the body starts inline, then anything:
        // the first non-integer (or a third integer) spills it.
        let anchor = Port::create();
        let mut model: Vec<El> = Vec::new();
        let mut msg = Message::new(7);
        for el in ints.into_iter().map(El::Int).chain(rest) {
            msg.push(el.to_element(&anchor));
            model.push(el);
            check_against_model(&msg, &model, &anchor)?;
        }
        for t in takes {
            let i = t % (model.len() + 1);
            let taken = msg.take_port_right(i);
            if matches!(model.get(i), Some(El::Right)) {
                model.remove(i);
                prop_assert!(taken.is_some_and(|p| ObjRef::ptr_eq(&p, &anchor)));
            } else {
                prop_assert!(taken.is_none(), "only a right is taken");
            }
            check_against_model(&msg, &model, &anchor)?;
        }
        drop(msg);
        prop_assert_eq!(ObjRef::ref_count(&anchor), 1, "all rights released");
    }

    #[test]
    fn message_through_port_preserves_order(ids in proptest::collection::vec(any::<u32>(), 1..40)) {
        let port = Port::create_with_limit(ids.len().max(1));
        for &id in &ids {
            port.send(Message::new(id)).unwrap();
        }
        for &id in &ids {
            prop_assert_eq!(port.receive().unwrap().id(), id, "FIFO order");
        }
    }

    #[test]
    fn namespace_tracks_oracle(ops in proptest::collection::vec(any::<bool>(), 0..64)) {
        // true = insert a fresh right; false = remove a random live name.
        let ns = PortNameSpace::new();
        let mut oracle: Vec<(PortName, ObjRef<Port>)> = Vec::new();
        let mut idx = 3usize;
        for insert in ops {
            idx = idx.wrapping_mul(29).wrapping_add(11);
            if insert {
                let port = Port::create();
                let name = ns.insert(port.clone());
                oracle.push((name, port));
            } else if !oracle.is_empty() {
                let (name, port) = oracle.swap_remove(idx % oracle.len());
                let removed = ns.remove(name).expect("live name");
                prop_assert!(ObjRef::ptr_eq(&removed, &port));
                drop(removed);
                prop_assert_eq!(ObjRef::ref_count(&port), 1);
            }
            prop_assert_eq!(ns.len(), oracle.len());
            // Every oracle name translates to the right port, with a
            // cloned (then released) reference.
            for (name, port) in &oracle {
                let right = ns.translate(*name).expect("translates");
                prop_assert!(ObjRef::ptr_eq(&right, port));
            }
        }
        let drained = ns.drain();
        prop_assert_eq!(drained.len(), oracle.len());
    }
}
