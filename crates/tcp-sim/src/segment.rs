//! TCP-like segments carried as simulator packet payloads.
//!
//! There is no wire encoding — the simulator delivers typed payloads — but
//! on-wire *sizes* are modeled faithfully (IP + TCP headers, SACK option
//! space) because header bytes occupy bottleneck queues and serialization
//! time.

use crate::ranges::{ByteRange, InlineVec};
use netsim::FlowId;

/// Nanoseconds on the transport clock.
pub type Nanos = u64;

/// IP (20 B) + TCP (20 B) headers.
pub(crate) const BASE_HEADER_BYTES: u32 = 40;
/// Timestamp option, padded (as in practice).
pub(crate) const TS_OPTION_BYTES: u32 = 12;
/// Per-SACK-block option cost (8 B per block + 2 B header, amortized).
const SACK_BLOCK_BYTES: u32 = 8;
/// SACK blocks an ACK carries at most (the TCP option space budget).
pub const MAX_SACK_BLOCKS: usize = 3;

/// An ACK's SACK blocks, stored inline.
pub type SackBlocks = InlineVec<ByteRange, MAX_SACK_BLOCKS>;

/// A data segment.
///
/// `Default` exists so consumed payload boxes can be blanked and recycled
/// through the engine's [`netsim::PayloadPool`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataSeg {
    /// Flow this segment belongs to.
    pub flow: FlowId,
    /// Absolute stream offset of the first payload byte.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Send timestamp, echoed by the receiver for RTT sampling.
    pub sent_at: Nanos,
    /// Whether this is a retransmission (Karn: no RTT sample from its ACK).
    pub retransmit: bool,
    /// No more data follows this segment (used for receiver-side FCT).
    pub fin: bool,
}

impl DataSeg {
    /// On-wire size: payload plus headers and timestamp option.
    pub fn wire_bytes(&self) -> u32 {
        self.len + BASE_HEADER_BYTES + TS_OPTION_BYTES
    }

    /// The byte range this segment covers.
    pub fn range(&self) -> ByteRange {
        ByteRange::new(self.seq, self.seq + u64::from(self.len))
    }
}

/// An acknowledgment segment.
///
/// `Default` exists so consumed payload boxes can be blanked and recycled
/// through the engine's [`netsim::PayloadPool`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AckSeg {
    /// Flow this ACK belongs to.
    pub flow: FlowId,
    /// Cumulative acknowledgment: one past the last in-order byte received.
    pub ack_seq: u64,
    /// SACK blocks (highest first, at most [`MAX_SACK_BLOCKS`]).
    pub sack: SackBlocks,
    /// Echo of the `sent_at` of the segment that triggered this ACK.
    pub echo_ts: Nanos,
    /// Whether the triggering segment was a retransmission.
    pub echo_retransmit: bool,
}

impl AckSeg {
    /// On-wire size: headers, timestamp option, SACK option space.
    pub fn wire_bytes(&self) -> u32 {
        BASE_HEADER_BYTES + TS_OPTION_BYTES + SACK_BLOCK_BYTES * self.sack.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_wire_size_includes_headers() {
        let d = DataSeg {
            flow: FlowId(1),
            seq: 0,
            len: 1448,
            sent_at: 0,
            retransmit: false,
            fin: false,
        };
        assert_eq!(d.wire_bytes(), 1448 + 52);
        assert_eq!(d.range(), ByteRange::new(0, 1448));
    }

    #[test]
    fn ack_wire_size_grows_with_sack() {
        let mut a = AckSeg {
            flow: FlowId(1),
            ack_seq: 100,
            sack: SackBlocks::new(),
            echo_ts: 0,
            echo_retransmit: false,
        };
        assert_eq!(a.wire_bytes(), 52);
        a.sack.push(ByteRange::new(200, 300));
        a.sack.push(ByteRange::new(400, 500));
        assert_eq!(a.wire_bytes(), 52 + 16);
    }
}
