//! Bottleneck queue disciplines.
//!
//! The paper's testbeds use drop-tail buffers on the bottleneck router,
//! sized in bandwidth-delay-product (BDP) multiples via `netem`/`tbf`.
//! [`DropTailQueue`] reproduces that; [`CodelQueue`] is the AQM variant
//! the related-work section discusses. A link reaches either through its
//! `Qdisc`.

use crate::packet::Packet;
use std::collections::VecDeque;

/// Statistics accumulated by a queue over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued_pkts: u64,
    /// Bytes accepted into the queue.
    pub enqueued_bytes: u64,
    /// Packets dropped because the queue was full.
    pub dropped_pkts: u64,
    /// Bytes dropped because the queue was full.
    pub dropped_bytes: u64,
    /// High-water mark of queue occupancy in bytes.
    pub max_backlog_bytes: u64,
}

/// Classic drop-tail (tail-drop) FIFO queue with a byte-based capacity.
///
/// A packet is admitted iff it fits entirely within the remaining capacity;
/// otherwise it is dropped (and counted). This matches the byte-limited
/// `limit` behaviour of Linux `netem`/`pfifo` used in the paper's testbed.
#[derive(Debug)]
pub struct DropTailQueue {
    fifo: VecDeque<Packet>,
    backlog: u64,
    capacity: u64,
    stats: QueueStats,
}

impl DropTailQueue {
    /// Create a queue holding at most `capacity_bytes` of packets.
    pub fn new(capacity_bytes: u64) -> Self {
        DropTailQueue {
            fifo: VecDeque::new(),
            backlog: 0,
            capacity: capacity_bytes,
            stats: QueueStats::default(),
        }
    }

    /// Offer a packet. Returns the packet back if it was dropped.
    pub fn enqueue(&mut self, pkt: Packet) -> Result<(), Packet> {
        let size = u64::from(pkt.size);
        if self.backlog.saturating_add(size) > self.capacity {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += size;
            return Err(pkt);
        }
        self.backlog += size;
        self.stats.enqueued_pkts += 1;
        self.stats.enqueued_bytes += size;
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.backlog);
        self.fifo.push_back(pkt);
        Ok(())
    }

    /// Remove the packet at the head of the queue.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let pkt = self.fifo.pop_front()?;
        self.backlog -= u64::from(pkt.size);
        Some(pkt)
    }

    /// Current backlog in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.backlog
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Packet};

    fn pkt(size: u32) -> Packet {
        Packet::opaque(FlowId(0), NodeId(0), NodeId(1), size)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = DropTailQueue::new(10_000);
        for i in 0..5u32 {
            let mut p = pkt(100);
            p.id = u64::from(i);
            q.enqueue(p).unwrap();
        }
        for i in 0..5u64 {
            assert_eq!(q.dequeue().unwrap().id, i);
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn backlog_tracks_bytes_and_packets() {
        let mut q = DropTailQueue::new(1_000);
        q.enqueue(pkt(300)).unwrap();
        q.enqueue(pkt(200)).unwrap();
        assert_eq!(q.backlog_bytes(), 500);
        assert_eq!(q.dequeue().map(|p| p.size), Some(300));
        assert_eq!(q.backlog_bytes(), 200);
        assert_eq!(q.dequeue().map(|p| p.size), Some(200));
        assert_eq!(q.backlog_bytes(), 0);
        assert!(q.dequeue().is_none(), "two packets in, two out");
    }

    #[test]
    fn drops_when_full() {
        let mut q = DropTailQueue::new(250);
        q.enqueue(pkt(200)).unwrap();
        let rejected = q.enqueue(pkt(100)).unwrap_err();
        assert_eq!(rejected.size, 100);
        assert_eq!(q.stats().dropped_pkts, 1);
        assert_eq!(q.stats().dropped_bytes, 100);
        // A smaller packet that fits is still admitted after a drop.
        q.enqueue(pkt(50)).unwrap();
        assert_eq!(q.backlog_bytes(), 250);
    }

    #[test]
    fn exact_fit_is_admitted() {
        let mut q = DropTailQueue::new(100);
        q.enqueue(pkt(100)).unwrap();
        assert_eq!(q.stats().dropped_pkts, 0);
    }

    #[test]
    fn max_backlog_high_water_mark() {
        let mut q = DropTailQueue::new(1_000);
        q.enqueue(pkt(400)).unwrap();
        q.enqueue(pkt(400)).unwrap();
        q.dequeue();
        q.enqueue(pkt(100)).unwrap();
        assert_eq!(q.stats().max_backlog_bytes, 800);
    }

    #[test]
    fn unbounded_never_drops() {
        // A capacity of `u64::MAX` bytes admits every packet.
        let mut q = DropTailQueue::new(u64::MAX);
        for _ in 0..1_000 {
            q.enqueue(pkt(u32::MAX)).unwrap();
        }
        assert_eq!(q.stats().dropped_pkts, 0);
    }
}

/// CoDel (Controlled Delay) AQM queue (RFC 8289).
///
/// The paper's related-work section discusses AQM-assisted slow start
/// (FQ-CoDel, RFC 8290); this queue lets the harness study how SUSS
/// behaves when the bottleneck manages delay instead of dropping at a
/// fixed tail. Packets are timestamped on enqueue; when the *sojourn
/// time* stays above `target` for longer than `interval`, CoDel enters a
/// dropping state and drops from the head at a rate increasing with the
/// square root of the drop count.
#[derive(Debug)]
pub struct CodelQueue {
    fifo: VecDeque<(Packet, u64)>, // (packet, enqueue time ns)
    backlog: u64,
    capacity: u64,
    stats: QueueStats,
    /// Time the sojourn time first exceeded target, if tracking.
    first_above_at: Option<u64>,
    /// In the dropping state.
    dropping: bool,
    /// Next scheduled drop time.
    drop_next: u64,
    /// Drops in the current dropping episode.
    drop_count: u32,
    /// AQM (non-overflow) drops.
    pub aqm_drops: u64,
}

impl CodelQueue {
    /// Target sojourn time (ns): RFC 8289's 5 ms.
    const TARGET_NS: u64 = 5_000_000;
    /// Sliding-minimum interval (ns): RFC 8289's 100 ms.
    const INTERVAL_NS: u64 = 100_000_000;

    /// A CoDel queue holding at most `capacity_bytes` of packets.
    pub fn new(capacity_bytes: u64) -> Self {
        CodelQueue {
            fifo: VecDeque::new(),
            backlog: 0,
            capacity: capacity_bytes,
            stats: QueueStats::default(),
            first_above_at: None,
            dropping: false,
            drop_next: 0,
            drop_count: 0,
            aqm_drops: 0,
        }
    }

    fn control_law(&self, t: u64) -> u64 {
        t + (Self::INTERVAL_NS as f64 / (self.drop_count.max(1) as f64).sqrt()) as u64
    }

    /// Offer a packet at time `now`.
    pub fn enqueue_at(&mut self, pkt: Packet, now: u64) -> Result<(), Packet> {
        let size = u64::from(pkt.size);
        if self.backlog.saturating_add(size) > self.capacity {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += size;
            return Err(pkt);
        }
        self.backlog += size;
        self.stats.enqueued_pkts += 1;
        self.stats.enqueued_bytes += size;
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.backlog);
        self.fifo.push_back((pkt, now));
        Ok(())
    }

    /// Take the next packet to transmit at time `now`, applying the CoDel
    /// head-drop discipline.
    pub fn dequeue_at(&mut self, now: u64) -> Option<Packet> {
        loop {
            let (pkt, enq) = self.fifo.pop_front()?;
            self.backlog -= u64::from(pkt.size);
            let sojourn = now.saturating_sub(enq);

            let above = sojourn > Self::TARGET_NS && self.backlog > 2 * 1500;
            if !above {
                // Sojourn acceptable: leave any dropping state.
                self.first_above_at = None;
                self.dropping = false;
                return Some(pkt);
            }

            if !self.dropping {
                match self.first_above_at {
                    None => {
                        self.first_above_at = Some(now);
                        return Some(pkt);
                    }
                    Some(t0) if now.saturating_sub(t0) < Self::INTERVAL_NS => {
                        return Some(pkt);
                    }
                    Some(_) => {
                        // Sustained high delay: enter dropping state, drop
                        // this packet, continue with the next.
                        self.dropping = true;
                        self.drop_count = 1;
                        self.drop_next = self.control_law(now);
                        self.aqm_drops += 1;
                        self.stats.dropped_pkts += 1;
                        self.stats.dropped_bytes += u64::from(pkt.size);
                        continue;
                    }
                }
            }
            // In dropping state: drop when the schedule says so.
            if now >= self.drop_next {
                self.drop_count += 1;
                self.drop_next = self.control_law(self.drop_next);
                self.aqm_drops += 1;
                self.stats.dropped_pkts += 1;
                self.stats.dropped_bytes += u64::from(pkt.size);
                continue;
            }
            return Some(pkt);
        }
    }

    /// Current backlog in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.backlog
    }

    /// Lifetime statistics (overflow + AQM drops combined in `dropped_*`).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod codel_tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Packet};

    fn pkt(size: u32) -> Packet {
        Packet::opaque(FlowId(0), NodeId(0), NodeId(1), size)
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn low_delay_passes_untouched() {
        let mut q = CodelQueue::new(1_000_000);
        for _ in 0..10 {
            q.enqueue_at(pkt(1500), 0).unwrap();
        }
        // Dequeue within the 5 ms target: no drops.
        for k in 0..10 {
            assert!(q.dequeue_at(k * MS / 4).is_some());
        }
        assert_eq!(q.aqm_drops, 0);
    }

    #[test]
    fn sustained_delay_triggers_dropping() {
        let mut q = CodelQueue::new(10_000_000);
        // Big standing queue enqueued at t=0.
        for _ in 0..500 {
            q.enqueue_at(pkt(1500), 0).unwrap();
        }
        // Drain slowly: sojourn greatly exceeds 5 ms for over 100 ms.
        let mut got = 0;
        for k in 0..400u64 {
            let now = 20 * MS + k * 5 * MS;
            if q.dequeue_at(now).is_some() {
                got += 1;
            }
            if q.backlog_bytes() == 0 {
                break;
            }
        }
        assert!(q.aqm_drops > 0, "CoDel must start dropping");
        assert!(got > 0, "but must still deliver packets");
    }

    #[test]
    fn drop_rate_accelerates() {
        let mut q = CodelQueue::new(100_000_000);
        for _ in 0..5_000 {
            q.enqueue_at(pkt(1500), 0).unwrap();
        }
        // Drain over a long window with persistently terrible sojourn.
        let mut drops_first_half = 0;
        let mut drops_second_half = 0;
        for k in 0..2_000u64 {
            let now = 200 * MS + k * MS;
            let before = q.aqm_drops;
            let _ = q.dequeue_at(now);
            let d = q.aqm_drops - before;
            if k < 1_000 {
                drops_first_half += d;
            } else {
                drops_second_half += d;
            }
            if q.backlog_bytes() == 0 {
                break;
            }
        }
        assert!(
            drops_second_half >= drops_first_half,
            "control law must not decelerate ({drops_first_half} then {drops_second_half})"
        );
    }

    #[test]
    fn overflow_still_tail_drops() {
        let mut q = CodelQueue::new(3_000);
        q.enqueue_at(pkt(1500), 0).unwrap();
        q.enqueue_at(pkt(1500), 0).unwrap();
        assert!(q.enqueue_at(pkt(1500), 0).is_err());
        assert_eq!(q.stats().dropped_pkts, 1);
        assert_eq!(q.aqm_drops, 0);
    }

    #[test]
    fn empties_cleanly() {
        let mut q = CodelQueue::new(10_000);
        assert!(q.dequeue_at(0).is_none());
        q.enqueue_at(pkt(100), 0).unwrap();
        assert!(q.dequeue_at(1).is_some());
        assert!(q.dequeue_at(2).is_none());
        assert_eq!(q.backlog_bytes(), 0);
    }
}
