//! Packets and identifiers.
//!
//! The simulator moves opaque [`Packet`]s between nodes. Higher layers (the
//! TCP model in `tcp-sim`) attach their protocol headers as a type-erased
//! payload and downcast on receipt — the engine itself is protocol-agnostic,
//! mirroring how an IP network treats transport payloads.

use std::any::{Any, TypeId};
use std::fmt;

/// Identifies a node (agent) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index of this node in the simulation's agent table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies one *direction* of a link (a half-link with its own queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// Raw index of this half-link in the simulation's link table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Identifies an end-to-end flow (one TCP connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A packet in flight.
///
/// `size` is the on-wire size in bytes and is what drives serialization
/// delay and queue occupancy. The `payload` carries protocol state for the
/// endpoints and does not contribute to `size` (headers must be included in
/// `size` by the sender).
pub struct Packet {
    /// Globally unique id, assigned at send time.
    pub id: u64,
    /// Flow this packet belongs to (0 for non-flow traffic).
    pub flow: FlowId,
    /// Originating node.
    pub src: NodeId,
    /// Destination node; routers forward based on this.
    pub dst: NodeId,
    /// On-wire size in bytes, including all headers.
    pub size: u32,
    /// Type-erased protocol payload (e.g. a TCP segment header).
    pub payload: Option<Box<dyn Any>>,
    /// Clone function for the payload, captured where the concrete type is
    /// known. Lets fault injection duplicate type-erased packets.
    pub(crate) cloner: Option<PayloadCloner>,
}

/// Clone function for a type-erased payload; monomorphized where the
/// concrete type is known, stored as a plain `fn` pointer.
pub(crate) type PayloadCloner = fn(&dyn Any) -> Box<dyn Any>;

/// Monomorphized payload clone function; stored as a plain `fn` pointer on
/// packets and [`PayloadHandle`]s.
fn clone_payload<T: Any + Clone>(p: &dyn Any) -> Box<dyn Any> {
    Box::new(
        p.downcast_ref::<T>()
            .expect("payload cloner type mismatch")
            .clone(),
    )
}

/// A boxed payload paired with its clone function.
///
/// Produced by `Ctx::alloc_payload` (possibly reusing a pooled box) and
/// consumed by [`Packet::with_boxed_payload`]; the attached cloner is what
/// lets a link fault plan duplicate packets whose payload type has been
/// erased.
pub struct PayloadHandle {
    pub(crate) boxed: Box<dyn Any>,
    pub(crate) cloner: fn(&dyn Any) -> Box<dyn Any>,
}

impl PayloadHandle {
    /// Wrap an already-boxed payload of concrete type `T`.
    pub fn of<T: Any + Clone>(boxed: Box<dyn Any>) -> Self {
        debug_assert!(boxed.is::<T>(), "boxed payload is not a T");
        PayloadHandle {
            boxed,
            cloner: clone_payload::<T>,
        }
    }
}

impl Packet {
    /// Construct a packet with no payload (e.g. background traffic filler).
    pub fn opaque(flow: FlowId, src: NodeId, dst: NodeId, size: u32) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            size,
            payload: None,
            cloner: None,
        }
    }

    /// Construct a packet from an already-boxed payload (see
    /// `Ctx::alloc_payload` for the allocation-free path).
    pub fn with_boxed_payload(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        size: u32,
        payload: PayloadHandle,
    ) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            size,
            payload: Some(payload.boxed),
            cloner: Some(payload.cloner),
        }
    }

    /// Clone this packet for fault-injected duplication.
    ///
    /// Returns `None` when the payload cannot be cloned (a payload attached
    /// without a cloner), in which case the duplication is skipped.
    pub(crate) fn clone_for_duplicate(&self) -> Option<Packet> {
        let payload = match (&self.payload, self.cloner) {
            (None, _) => None,
            (Some(b), Some(c)) => Some(c(b.as_ref())),
            (Some(_), None) => return None,
        };
        Some(Packet {
            id: self.id,
            flow: self.flow,
            src: self.src,
            dst: self.dst,
            size: self.size,
            payload,
            cloner: self.cloner,
        })
    }

    /// Take the payload downcast to `T`.
    ///
    /// Returns `Err(self)` unchanged if the payload is absent or of a
    /// different type, so mis-delivered packets can still be inspected.
    pub fn take_payload<T: Any>(mut self) -> Result<(T, PacketMeta), Packet> {
        match self.payload.take() {
            Some(b) => match b.downcast::<T>() {
                Ok(t) => Ok((
                    *t,
                    PacketMeta {
                        id: self.id,
                        flow: self.flow,
                        src: self.src,
                        dst: self.dst,
                        size: self.size,
                    },
                )),
                Err(b) => {
                    self.payload = Some(b);
                    Err(self)
                }
            },
            None => Err(self),
        }
    }

    /// Take the payload downcast to `T`, returning its box to `pool` for
    /// reuse instead of freeing it. The allocation-free counterpart of
    /// [`Packet::take_payload`]; endpoints reach it through
    /// `Ctx::take_payload`.
    pub fn take_payload_with<T: Any + Default>(
        mut self,
        pool: &mut PayloadPool,
    ) -> Result<(T, PacketMeta), Packet> {
        match self.payload.take() {
            Some(b) => match b.downcast::<T>() {
                Ok(mut bt) => {
                    let value = std::mem::take(&mut *bt);
                    let meta = PacketMeta {
                        id: self.id,
                        flow: self.flow,
                        src: self.src,
                        dst: self.dst,
                        size: self.size,
                    };
                    pool.recycle(bt);
                    Ok((value, meta))
                }
                Err(b) => {
                    self.payload = Some(b);
                    Err(self)
                }
            },
            None => Err(self),
        }
    }
}

/// Per-type shelves of recycled payload boxes.
///
/// Every data segment and ACK in a transfer is heap-allocated at the sender
/// and freed at the receiver; at millions of events per run that `Box`
/// churn dominates the packet path. The pool keeps consumed boxes on a
/// shelf keyed by `TypeId` and refills them in place on the next
/// allocation, so a steady-state flow reuses the same handful of boxes.
///
/// Reuse is value-transparent — a pooled box is overwritten with the new
/// payload before it is handed out — so pooling cannot affect simulation
/// results, only allocator traffic.
#[derive(Default)]
pub struct PayloadPool {
    /// `(payload type, recycled boxes)`; linear scan — real workloads carry
    /// two payload types (data + ACK).
    shelves: Vec<(TypeId, Vec<Box<dyn Any>>)>,
}

/// Recycled boxes kept per payload type; beyond this, recycle frees.
const SHELF_CAP: usize = 1024;

impl PayloadPool {
    /// Box `value`, reusing a recycled allocation when one is shelved.
    /// Returns the box and whether it was a pool hit.
    pub fn boxed<T: Any>(&mut self, value: T) -> (Box<dyn Any>, bool) {
        let key = TypeId::of::<T>();
        if let Some((_, shelf)) = self.shelves.iter_mut().find(|(t, _)| *t == key) {
            if let Some(b) = shelf.pop() {
                let mut bt = b.downcast::<T>().expect("shelf keyed by TypeId");
                *bt = value;
                return (bt, true);
            }
        }
        (Box::new(value), false)
    }

    /// Return a consumed payload box to its type's shelf.
    fn recycle(&mut self, b: Box<dyn Any>) {
        let key = (*b).type_id();
        match self.shelves.iter_mut().find(|(t, _)| *t == key) {
            Some((_, shelf)) => {
                if shelf.len() < SHELF_CAP {
                    shelf.push(b);
                }
            }
            None => self.shelves.push((key, vec![b])),
        }
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("id", &self.id)
            .field("flow", &self.flow)
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("size", &self.size)
            .field("payload", &self.payload.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Header fields of a packet, detached from its payload.
#[derive(Debug, Clone, Copy)]
pub struct PacketMeta {
    /// Globally unique packet id.
    pub id: u64,
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// On-wire size in bytes.
    pub size: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes() -> (NodeId, NodeId) {
        (NodeId(1), NodeId(2))
    }

    /// A packet carrying a `u64` payload.
    fn typed(flow: u64, size: u32, v: u64) -> Packet {
        let (a, b) = nodes();
        let payload = PayloadHandle::of::<u64>(Box::new(v));
        Packet::with_boxed_payload(FlowId(flow), a, b, size, payload)
    }

    /// Borrow a packet's `u64` payload without consuming it.
    fn peek(p: &Packet) -> Option<&u64> {
        p.payload.as_deref().and_then(|b| b.downcast_ref())
    }

    #[test]
    fn payload_roundtrip() {
        let p = typed(3, 1500, 42);
        assert_eq!(peek(&p), Some(&42));
        let (v, meta) = p.take_payload::<u64>().unwrap();
        assert_eq!(v, 42);
        assert_eq!(meta.flow, FlowId(3));
        assert_eq!(meta.size, 1500);
    }

    #[test]
    fn wrong_type_downcast_returns_packet() {
        let p = typed(1, 100, 42).take_payload::<String>().unwrap_err();
        // Payload must survive the failed downcast.
        assert_eq!(peek(&p), Some(&42));
    }

    #[test]
    fn opaque_has_no_payload() {
        let (a, b) = nodes();
        let p = Packet::opaque(FlowId(0), a, b, 64);
        assert!(peek(&p).is_none());
        assert!(p.take_payload::<u64>().is_err());
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(LinkId(7).to_string(), "l7");
        assert_eq!(FlowId(9).to_string(), "f9");
    }

    #[test]
    fn pool_reuses_recycled_box() {
        let (a, b) = nodes();
        let mut pool = PayloadPool::default();
        let (boxed, hit) = pool.boxed(7u64);
        assert!(!hit, "empty pool must miss");
        let first = boxed.downcast_ref::<u64>().unwrap() as *const u64 as usize;
        let p = Packet::with_boxed_payload(FlowId(1), a, b, 100, PayloadHandle::of::<u64>(boxed));
        let (v, _meta) = p.take_payload_with::<u64>(&mut pool).unwrap();
        assert_eq!(v, 7);
        // The freed box is shelved; the next same-type alloc reuses it.
        let (boxed, hit) = pool.boxed(9u64);
        assert!(hit, "recycled box must be reused");
        let again = boxed.downcast_ref::<u64>().unwrap() as *const u64 as usize;
        assert_eq!(again, first);
        assert_eq!(boxed.downcast_ref::<u64>(), Some(&9));
    }

    #[test]
    fn pool_shelves_are_per_type() {
        let mut pool = PayloadPool::default();
        let (b1, _) = pool.boxed(1u64);
        pool.recycle(b1);
        // A different payload type cannot hit the u64 shelf.
        let (_, hit) = pool.boxed(String::from("x"));
        assert!(!hit);
        let (b2, hit) = pool.boxed(2u64);
        assert!(hit);
        assert_eq!(b2.downcast_ref::<u64>(), Some(&2));
    }

    #[test]
    fn duplicate_clones_typed_payloads() {
        let (a, b) = nodes();
        let p = typed(2, 900, 11);
        let d = p.clone_for_duplicate().expect("typed payload is clonable");
        assert_eq!(peek(&d), Some(&11));
        assert_eq!((d.flow, d.size), (p.flow, p.size));
        // The clone is a distinct allocation.
        let orig = peek(&p).unwrap() as *const u64;
        let twin = peek(&d).unwrap() as *const u64;
        assert_ne!(orig, twin);
        // Opaque packets duplicate trivially.
        assert!(Packet::opaque(FlowId(0), a, b, 64)
            .clone_for_duplicate()
            .is_some());
    }

    #[test]
    fn take_payload_with_wrong_type_keeps_packet() {
        let mut pool = PayloadPool::default();
        let p = typed(1, 100, 42)
            .take_payload_with::<String>(&mut pool)
            .unwrap_err();
        assert_eq!(peek(&p), Some(&42));
    }
}
