//! QUIC-like packets carried as simulator payloads.
//!
//! As in `tcp_sim::segment` there is no wire encoding — the simulator
//! delivers typed payloads — but on-wire *sizes* model a realistic QUIC
//! short-header packet over UDP/IPv4, because header bytes occupy
//! bottleneck queues and serialization time.
//!
//! The structural difference from TCP is the *packet-number space*: a
//! packet number is a transmission identity, never reused, and carries a
//! stream chunk as its cargo. Retransmitting stream bytes mints a fresh
//! packet number, so acknowledgments are unambiguous and every ACK yields
//! a valid RTT sample (QUIC needs no Karn filter).

use netsim::FlowId;
use tcp_sim::ranges::{ByteRange, InlineVec};

/// Nanoseconds on the transport clock.
pub type Nanos = u64;

/// IPv4 (20 B) + UDP (8 B) headers.
pub const UDP_IP_HEADER_BYTES: u32 = 28;
/// QUIC short header: flags (1) + DCID (8) + packet number (4).
pub const SHORT_HEADER_BYTES: u32 = 13;
/// STREAM frame overhead: type + offset/length varints (amortized).
pub const STREAM_FRAME_BYTES: u32 = 9;
/// ACK frame fixed part: type + largest + delay + range-count varints.
const ACK_FRAME_BASE_BYTES: u32 = 9;
/// Per additional ACK range (gap + length varints).
const ACK_RANGE_BYTES: u32 = 4;
/// ACK frames report at most this many packet-number ranges (the newest),
/// like the 3-block SACK option budget on the TCP side.
pub const MAX_ACK_RANGES: usize = 3;

/// A half-open range of packet numbers `[start, end)`.
pub type PktRange = (u64, u64);

/// An ACK frame's packet-number ranges, stored inline.
pub type AckRanges = InlineVec<PktRange, MAX_ACK_RANGES>;

/// A 1-RTT data packet carrying one STREAM frame.
///
/// `Default` exists so consumed payload boxes can be blanked and recycled
/// through the engine's [`netsim::PayloadPool`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuicDataPkt {
    /// Flow (connection) this packet belongs to.
    pub flow: FlowId,
    /// Packet number: unique per transmission, monotonically increasing.
    pub pkt_num: u64,
    /// Absolute stream offset of the first cargo byte.
    pub offset: u64,
    /// Stream bytes carried.
    pub len: u32,
    /// This chunk ends the stream (carries the final byte).
    pub fin: bool,
    /// Send timestamp, echoed by the receiver for RTT sampling.
    pub sent_at: Nanos,
    /// Carries previously-transmitted stream bytes (diagnostic only —
    /// the fresh packet number keeps its RTT sample valid regardless).
    pub is_rtx: bool,
}

impl QuicDataPkt {
    /// On-wire size: cargo plus UDP/IP, short header, and frame overhead.
    pub fn wire_bytes(&self) -> u32 {
        self.len + UDP_IP_HEADER_BYTES + SHORT_HEADER_BYTES + STREAM_FRAME_BYTES
    }

    /// The stream byte range this packet covers.
    pub fn range(&self) -> ByteRange {
        ByteRange::new(self.offset, self.offset + u64::from(self.len))
    }
}

/// An ACK-only packet: one ACK frame with up to [`MAX_ACK_RANGES`]
/// packet-number ranges (newest last, ascending, half-open).
///
/// There is no cumulative sequence — the ranges are the entire
/// acknowledgment state the sender gets, which is what forces the
/// byte-counter reconstruction in `cc_algos::qcc`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuicAckPkt {
    /// Flow (connection) this ACK belongs to.
    pub flow: FlowId,
    /// Largest packet number received so far.
    pub largest: u64,
    /// Acknowledged packet-number ranges, ascending, at most
    /// [`MAX_ACK_RANGES`] (the newest ones; older ranges age out exactly
    /// like TCP's 3-block SACK budget).
    pub ranges: AckRanges,
    /// Packet number of the arrival that triggered this ACK.
    pub echo_pkt: u64,
    /// Echo of that packet's `sent_at`, for RTT sampling.
    pub echo_ts: Nanos,
}

impl QuicAckPkt {
    /// On-wire size: UDP/IP + short header + ACK frame.
    pub fn wire_bytes(&self) -> u32 {
        UDP_IP_HEADER_BYTES
            + SHORT_HEADER_BYTES
            + ACK_FRAME_BASE_BYTES
            + ACK_RANGE_BYTES * self.ranges.len().saturating_sub(1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_wire_size_includes_headers() {
        let p = QuicDataPkt {
            flow: FlowId(1),
            pkt_num: 7,
            offset: 0,
            len: 1448,
            fin: false,
            sent_at: 0,
            is_rtx: false,
        };
        assert_eq!(p.wire_bytes(), 1448 + 50);
        assert_eq!(p.range(), ByteRange::new(0, 1448));
    }

    #[test]
    fn ack_wire_size_grows_with_ranges() {
        let mut a = QuicAckPkt {
            flow: FlowId(1),
            largest: 9,
            ranges: [(0, 10)].into_iter().collect(),
            echo_pkt: 9,
            echo_ts: 0,
        };
        let one = a.wire_bytes();
        a.ranges.push((12, 14));
        a.ranges.push((20, 21));
        assert_eq!(a.wire_bytes(), one + 2 * ACK_RANGE_BYTES);
    }
}
