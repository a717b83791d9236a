//! BBRv1 (Cardwell et al. 2016), simplified but phase-faithful.
//!
//! Model-based congestion control: estimate the bottleneck bandwidth
//! (windowed-max of delivery-rate samples) and the propagation RTT
//! (windowed-min), pace at `gain × BtlBw`, and cap inflight at
//! `cwnd_gain × BDP`. The four phases — STARTUP, DRAIN, PROBE_BW,
//! PROBE_RTT — are implemented with their published gains; the packet-level
//! details (per-packet rate samples, pacing quantum) are approximated at
//! ACK granularity, which per-packet ACKing makes near-equivalent.
//!
//! BBRv1 famously *ignores* individual packet losses (no multiplicative
//! decrease), which is exactly the behaviour the paper's Fig. 2(b) and
//! Table 1 exercise.

use std::collections::VecDeque;
use std::time::Duration;
use tcp_sim::cc::{AckView, CongestionControl, LossKind, LossView};

/// Nanoseconds on the transport clock.
pub type Nanos = u64;

/// 2/ln(2): the STARTUP gain that doubles delivery rate per round.
const STARTUP_GAIN: f64 = 2.885;
/// DRAIN inverts the STARTUP gain.
const DRAIN_GAIN: f64 = 1.0 / STARTUP_GAIN;
/// PROBE_BW gain cycle.
const BW_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// Windowed max filter keyed by round count.
#[derive(Debug, Clone, Default)]
struct MaxBwFilter {
    /// (round, bytes_per_sec) samples, pruned to the window.
    samples: VecDeque<(u64, f64)>,
    window_rounds: u64,
}

impl MaxBwFilter {
    fn new(window_rounds: u64) -> Self {
        MaxBwFilter {
            samples: VecDeque::new(),
            window_rounds,
        }
    }

    fn update(&mut self, round: u64, sample: f64) {
        while let Some(&(r, _)) = self.samples.front() {
            if r + self.window_rounds <= round {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        // Maintain a decreasing deque for O(1) max.
        while let Some(&(_, v)) = self.samples.back() {
            if v <= sample {
                self.samples.pop_back();
            } else {
                break;
            }
        }
        self.samples.push_back((round, sample));
    }

    fn max(&self) -> Option<f64> {
        self.samples.front().map(|&(_, v)| v)
    }
}

/// BBR phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbrMode {
    /// Exponential bandwidth search (slow-start analogue).
    Startup,
    /// Drain the STARTUP queue.
    Drain,
    /// Steady-state bandwidth cycling.
    ProbeBw,
    /// Periodic min-RTT refresh with a tiny window.
    ProbeRtt,
}

/// Simplified BBRv1 controller.
pub struct Bbr {
    mss: u64,
    cwnd: u64,
    mode: BbrMode,
    pacing_gain: f64,
    cwnd_gain: f64,

    bw_filter: MaxBwFilter,
    /// Propagation RTT estimate and when it was (re)established.
    rt_prop: Option<Duration>,
    rt_prop_stamp: Nanos,

    // Round accounting (sequence-delimited).
    round: u64,
    round_end_seq: u64,

    // Delivery-rate sampling: per-send records of
    // (end_seq, delivered_at_send, sent_at), consumed as ACKs cover them —
    // the rate sample of a packet is measured over its own flight interval
    // (delivered delta since it was sent), as in real BBR.
    send_records: VecDeque<(u64, u64, Nanos)>,
    latest_delivered: u64,

    // STARTUP full-pipe detection.
    full_bw: f64,
    full_bw_count: u32,
    filled_pipe: bool,

    // PROBE_BW cycling.
    cycle_index: usize,
    cycle_stamp: Nanos,

    // PROBE_RTT.
    probe_rtt_done: Option<Nanos>,
    prior_cwnd: u64,

    /// Loss response on RTO only (v1 semantics).
    saved_cwnd_for_recovery: u64,
    /// Packet-conservation window after a loss event: cwnd growth is
    /// suppressed until this instant (≈ one RTT), approximating Linux
    /// BBR's recovery modulation.
    conserve_until: Nanos,
    /// Highest snd_nxt observed (diagnostics).
    highest_sent_seq: u64,
}

impl Bbr {
    /// BBRv1 from an initial window of `iw` bytes.
    pub fn new(iw: u64, mss: u64) -> Self {
        Bbr {
            mss,
            cwnd: iw,
            mode: BbrMode::Startup,
            pacing_gain: STARTUP_GAIN,
            cwnd_gain: STARTUP_GAIN,
            bw_filter: MaxBwFilter::new(10),
            rt_prop: None,
            rt_prop_stamp: 0,
            round: 0,
            round_end_seq: 0,
            send_records: VecDeque::new(),
            latest_delivered: 0,
            full_bw: 0.0,
            full_bw_count: 0,
            filled_pipe: false,
            cycle_index: 0,
            cycle_stamp: 0,
            probe_rtt_done: None,
            prior_cwnd: iw,
            saved_cwnd_for_recovery: iw,
            conserve_until: 0,
            highest_sent_seq: 0,
        }
    }

    /// Current phase (diagnostics).
    pub fn mode(&self) -> BbrMode {
        self.mode
    }

    fn bdp_bytes(&self) -> Option<f64> {
        match (self.bw_filter.max(), self.rt_prop) {
            (Some(bw), Some(rt)) => Some(bw * rt.as_secs_f64()),
            _ => None,
        }
    }

    fn target_cwnd(&self) -> u64 {
        match self.bdp_bytes() {
            Some(bdp) => ((self.cwnd_gain * bdp) as u64).max(4 * self.mss),
            None => self.cwnd.max(4 * self.mss),
        }
    }

    fn advance_cycle(&mut self, now: Nanos, inflight: u64) {
        let rt = self.rt_prop.unwrap_or(Duration::from_millis(100));
        let elapsed = Duration::from_nanos(now.saturating_sub(self.cycle_stamp));
        let gain = BW_CYCLE[self.cycle_index];
        let mut advance = elapsed >= rt;
        // Leaving the 0.75 phase also requires the queue to be drained.
        if gain < 1.0 {
            let bdp = self.bdp_bytes().unwrap_or(f64::MAX);
            advance = advance || inflight as f64 <= bdp;
        }
        if advance {
            self.cycle_index = (self.cycle_index + 1) % BW_CYCLE.len();
            self.cycle_stamp = now;
            self.pacing_gain = BW_CYCLE[self.cycle_index];
        }
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn in_slow_start(&self) -> bool {
        self.mode == BbrMode::Startup
    }

    fn on_ack(&mut self, ack: &AckView) {
        let now = ack.now;

        // --- Model updates ---------------------------------------------------
        if let Some(rtt) = ack.rtt_sample {
            let expired = now.saturating_sub(self.rt_prop_stamp) > 10_000_000_000; // 10 s
            if self.rt_prop.is_none_or(|r| rtt <= r) || expired {
                self.rt_prop = Some(rtt);
                self.rt_prop_stamp = now;
            }
        }

        // Delivery-rate sample per acknowledged send record: the newest
        // record fully covered by this ACK yields
        // `rate = Δdelivered_since_its_send / its_flight_time` — BBR's
        // per-packet rate sample, robust to sparse ACKs.
        self.latest_delivered = ack.delivered;
        let mut newest: Option<(u64, Nanos)> = None;
        while let Some(&(end_seq, delivered_at_send, sent_at)) = self.send_records.front() {
            if end_seq <= ack.ack_seq {
                self.send_records.pop_front();
                newest = Some((delivered_at_send, sent_at));
            } else {
                break;
            }
        }
        if let Some((delivered_at_send, sent_at)) = newest {
            let flight = now.saturating_sub(sent_at);
            let bytes = ack.delivered.saturating_sub(delivered_at_send);
            // A retransmission filling a hole releases megabytes of "old"
            // data in one cumulative jump; dividing that by a short flight
            // interval would spike the max filter and drive the pacing
            // rate far above the bottleneck (Linux avoids this by bounding
            // samples with the *send* interval of the data). Per-packet
            // ACKs acknowledge a few MSS at most, so a large jump in one
            // ACK identifies exactly the samples to discard.
            let hole_fill = ack.newly_acked > 16 * self.mss;
            if flight > 0 && bytes > 0 && !hole_fill {
                let rate = bytes as f64 / (flight as f64 / 1e9);
                // App-limited samples only raise the estimate (BBR rule).
                if !ack.app_limited || self.bw_filter.max().is_none_or(|m| rate > m) {
                    self.bw_filter.update(self.round, rate);
                }
            }
        }

        // Round accounting.
        let mut round_start = false;
        if ack.ack_seq > self.round_end_seq {
            self.round += 1;
            self.round_end_seq = ack.snd_nxt;
            round_start = true;
        }

        // --- Phase machine ----------------------------------------------------
        match self.mode {
            BbrMode::Startup => {
                if round_start {
                    if let Some(bw) = self.bw_filter.max() {
                        if bw >= self.full_bw * 1.25 {
                            self.full_bw = bw;
                            self.full_bw_count = 0;
                        } else {
                            self.full_bw_count += 1;
                            if self.full_bw_count >= 3 {
                                self.filled_pipe = true;
                                self.mode = BbrMode::Drain;
                                self.pacing_gain = DRAIN_GAIN;
                                self.cwnd_gain = STARTUP_GAIN;
                            }
                        }
                    }
                }
            }
            BbrMode::Drain => {
                let bdp = self.bdp_bytes().unwrap_or(f64::MAX);
                if (ack.inflight as f64) <= bdp {
                    self.mode = BbrMode::ProbeBw;
                    self.cycle_index = 2; // skip the 1.25/0.75 pair initially
                    self.cycle_stamp = now;
                    self.pacing_gain = BW_CYCLE[self.cycle_index];
                    self.cwnd_gain = 2.0;
                }
            }
            BbrMode::ProbeBw => {
                self.advance_cycle(now, ack.inflight);
                // PROBE_RTT entry: min-RTT stale for 10 s.
                if now.saturating_sub(self.rt_prop_stamp) > 10_000_000_000 {
                    self.mode = BbrMode::ProbeRtt;
                    self.prior_cwnd = self.cwnd;
                    self.probe_rtt_done = Some(now + 200_000_000); // 200 ms
                }
            }
            BbrMode::ProbeRtt => {
                self.cwnd = 4 * self.mss;
                if let Some(done) = self.probe_rtt_done {
                    if now >= done {
                        self.rt_prop_stamp = now;
                        self.cwnd = self.prior_cwnd;
                        self.mode = if self.filled_pipe {
                            self.pacing_gain = BW_CYCLE[self.cycle_index];
                            self.cwnd_gain = 2.0;
                            BbrMode::ProbeBw
                        } else {
                            self.pacing_gain = STARTUP_GAIN;
                            self.cwnd_gain = STARTUP_GAIN;
                            BbrMode::Startup
                        };
                        self.probe_rtt_done = None;
                    }
                }
            }
        }

        // --- cwnd update -------------------------------------------------------
        if self.mode != BbrMode::ProbeRtt {
            let target = self.target_cwnd();
            if now < self.conserve_until {
                // Packet conservation after loss: hold, don't grow.
                self.cwnd = self.cwnd.min(target.max(4 * self.mss));
            } else if self.cwnd < target {
                self.cwnd = (self.cwnd + ack.newly_acked).min(target);
            } else {
                self.cwnd = target;
            }
        }
    }

    fn on_congestion_event(&mut self, loss: &LossView) {
        match loss.kind {
            LossKind::FastRetransmit => {
                // v1 performs no multiplicative decrease, but Linux BBR
                // does observe *packet conservation* while in recovery
                // (bbr_set_cwnd): cap the window at what is actually in
                // flight, hold it there for about a round trip, and let
                // the target-bounded growth restore it afterwards.
                self.saved_cwnd_for_recovery = self.cwnd;
                self.cwnd = self.cwnd.min(loss.inflight.max(4 * self.mss));
                let rtt = self
                    .rt_prop
                    .map(|r| r.as_nanos() as u64)
                    .unwrap_or(100_000_000);
                self.conserve_until = loss.now + rtt;
            }
            LossKind::Timeout => {
                self.saved_cwnd_for_recovery = self.cwnd;
                self.cwnd = 4 * self.mss;
            }
        }
    }

    fn on_sent(&mut self, now: Nanos, _bytes: u64, snd_nxt: u64) {
        self.highest_sent_seq = self.highest_sent_seq.max(snd_nxt);
        // Record the send for flight-interval rate sampling. Bounded: one
        // record per transmission burst tail is enough, so coalesce records
        // made at the same instant.
        if let Some(back) = self.send_records.back_mut() {
            if back.2 == now {
                back.0 = back.0.max(snd_nxt);
                return;
            }
        }
        self.send_records
            .push_back((snd_nxt, self.latest_delivered, now));
        if self.send_records.len() > 4096 {
            self.send_records.pop_front();
        }
    }

    fn pacing_rate(&self) -> Option<f64> {
        let bw = self.bw_filter.max()?;
        // Rescue floor: a polluted (too-low) bandwidth estimate must not
        // deadlock the flow at a crawl it cannot measure its way out of.
        // One quarter-cwnd per RTT is enough to regenerate honest rate
        // samples, while staying far below the steady-state pacing rate
        // (where cwnd ≈ 2·BDP would otherwise make a full-cwnd floor pace
        // at twice the bottleneck and melt shallow buffers).
        let floor = self
            .rt_prop
            .map(|r| self.cwnd as f64 / r.as_secs_f64() / 4.0)
            .unwrap_or(0.0);
        Some((self.pacing_gain * bw).max(floor).max(1.0))
    }

    fn ssthresh(&self) -> Option<u64> {
        None
    }
}

/// BBRv2-lite: BBRv1's model plus explicit loss response — a bounded
/// multiplicative decrease (β = 0.7) on fast retransmit and loss-aware
/// STARTUP exit, the two behavioural deltas the paper's experiments
/// exercise (Table 1's BBRv2 column and Fig. 17's loss profile).
pub struct Bbr2 {
    inner: Bbr,
    /// Loss events in the current round (for startup exit).
    loss_rounds: u32,
}

impl Bbr2 {
    /// BBRv2-lite from an initial window of `iw` bytes.
    pub fn new(iw: u64, mss: u64) -> Self {
        Bbr2 {
            inner: Bbr::new(iw, mss),
            loss_rounds: 0,
        }
    }

    /// Current phase (diagnostics).
    pub fn mode(&self) -> BbrMode {
        self.inner.mode()
    }
}

impl CongestionControl for Bbr2 {
    fn name(&self) -> &'static str {
        "bbr2"
    }

    fn cwnd(&self) -> u64 {
        self.inner.cwnd()
    }

    fn in_slow_start(&self) -> bool {
        self.inner.in_slow_start()
    }

    fn on_ack(&mut self, ack: &AckView) {
        self.inner.on_ack(ack);
    }

    fn on_sent(&mut self, now: Nanos, bytes: u64, snd_nxt: u64) {
        self.inner.on_sent(now, bytes, snd_nxt);
    }

    fn on_congestion_event(&mut self, loss: &LossView) {
        match loss.kind {
            LossKind::FastRetransmit => {
                // Bounded multiplicative decrease, floored at 4 MSS.
                let reduced = ((self.inner.cwnd as f64) * 0.7) as u64;
                self.inner.cwnd = reduced.max(4 * self.inner.mss);
                // Repeated loss during STARTUP: pipe is full.
                if self.inner.mode == BbrMode::Startup {
                    self.loss_rounds += 1;
                    if self.loss_rounds >= 2 {
                        self.inner.filled_pipe = true;
                        self.inner.mode = BbrMode::Drain;
                        self.inner.pacing_gain = DRAIN_GAIN;
                    }
                }
            }
            LossKind::Timeout => self.inner.on_congestion_event(loss),
        }
    }

    fn pacing_rate(&self) -> Option<f64> {
        self.inner.pacing_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1_448;

    fn ack(
        now: Nanos,
        ack_seq: u64,
        delivered: u64,
        snd_nxt: u64,
        rtt_ms: u64,
        inflight: u64,
    ) -> AckView {
        AckView {
            now,
            ack_seq,
            newly_acked: MSS,
            rtt_sample: Some(Duration::from_millis(rtt_ms)),
            srtt: Some(Duration::from_millis(rtt_ms)),
            min_rtt: Some(Duration::from_millis(rtt_ms)),
            inflight,
            snd_nxt,
            delivered,
            app_limited: false,
        }
    }

    #[test]
    fn max_filter_expires_old_samples() {
        let mut f = MaxBwFilter::new(3);
        f.update(1, 100.0);
        f.update(2, 50.0);
        assert_eq!(f.max(), Some(100.0));
        f.update(5, 60.0); // round 1 sample now out of window
        assert_eq!(f.max(), Some(60.0));
    }

    #[test]
    fn startup_persists_while_bw_grows_then_drains_on_plateau() {
        let mut b = Bbr::new(10 * MSS, MSS);
        assert_eq!(b.mode(), BbrMode::Startup);
        // One send + one ACK per round, 50 ms flight each, so rounds and
        // per-flight delivery-rate samples are fully controlled.
        let mut now = 0u64;
        let mut delivered = 0u64;
        let mut chunk = 10 * MSS;
        // Phase A: delivery rate doubles per round -> must stay in STARTUP.
        for _ in 0..4 {
            b.on_sent(now, chunk, delivered + chunk);
            now += 50_000_000;
            delivered += chunk;
            let seq = delivered;
            b.on_ack(&ack(now, seq, delivered, seq + chunk, 50, chunk));
            assert_eq!(b.mode(), BbrMode::Startup, "growing bw must not exit");
            chunk *= 2;
        }
        // Phase B: flat delivery rate -> full-pipe after ~3 rounds. Keep
        // snd_nxt strictly below the next ACK (round boundaries require
        // ack_seq > round_end_seq).
        let flat = chunk;
        let mut exited_round = None;
        for r in 0..6 {
            b.on_sent(now, flat, delivered + flat);
            now += 50_000_000;
            delivered += flat;
            let seq = delivered;
            b.on_ack(&ack(now, seq, delivered, seq + flat / 2, 50, flat));
            if b.mode() != BbrMode::Startup {
                exited_round = Some(r);
                break;
            }
        }
        let r = exited_round.expect("flat bandwidth must end STARTUP");
        assert!(r >= 2, "needs 3 flat rounds, exited at {r}");
    }

    #[test]
    fn drain_transitions_to_probe_bw_when_inflight_drops() {
        let mut b = Bbr::new(10 * MSS, MSS);
        // Force model + Drain state.
        b.bw_filter.update(0, 1_000_000.0);
        b.rt_prop = Some(Duration::from_millis(50));
        b.rt_prop_stamp = 0;
        b.mode = BbrMode::Drain;
        // BDP = 1e6 * 0.05 = 50_000 B. Inflight below -> ProbeBw.
        b.on_ack(&ack(1_000_000, MSS, MSS, 100 * MSS, 50, 40_000));
        assert_eq!(b.mode(), BbrMode::ProbeBw);
        assert!((b.pacing_gain - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cwnd_capped_at_gain_times_bdp() {
        let mut b = Bbr::new(10 * MSS, MSS);
        b.bw_filter.update(0, 1_000_000.0);
        b.rt_prop = Some(Duration::from_millis(50));
        b.mode = BbrMode::ProbeBw;
        b.cwnd_gain = 2.0;
        // Send/ACK stream whose implied delivery rate matches the 1 MB/s
        // estimate (one MSS per 1.448 ms flight chunks over 50 ms), so the
        // max filter stays put.
        for k in 1..200u64 {
            let now = k * 1_448_000;
            if now > 50_000_000 {
                // This MSS was sent one RTT (50 ms) ago; ~34.5 MSS of
                // delta accumulate over that flight: rate ≈ 1 MB/s.
                b.send_records
                    .push_back((k * MSS, (k - 34) * MSS, now - 50_000_000));
            }
            b.on_ack(&ack(now, k * MSS, k * MSS, 300 * MSS, 50, 50_000));
        }
        // target = 2 * BDP = 2 * 1e6 * 0.05 = 100_000.
        assert_eq!(b.cwnd(), 100_000);
    }

    #[test]
    fn v1_conserves_packets_but_takes_no_decrease() {
        let mut b = Bbr::new(100 * MSS, MSS);
        let before = b.cwnd();
        // Full pipe at loss detection: no reduction at all.
        b.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: MSS,
            inflight: before,
        });
        assert_eq!(b.cwnd(), before, "no multiplicative decrease in v1");
        // Half the pipe vaporized: packet conservation caps at inflight.
        b.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: 50 * MSS,
            inflight: 50 * MSS,
        });
        assert_eq!(b.cwnd(), 50 * MSS);
    }

    #[test]
    fn v2_cuts_on_fast_retransmit() {
        let mut b = Bbr2::new(100 * MSS, MSS);
        let before = b.cwnd();
        b.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: MSS,
            inflight: before,
        });
        assert_eq!(b.cwnd(), (before as f64 * 0.7) as u64);
    }

    #[test]
    fn rto_collapses_both() {
        for mut cc in [
            Box::new(Bbr::new(100 * MSS, MSS)) as Box<dyn CongestionControl>,
            Box::new(Bbr2::new(100 * MSS, MSS)),
        ] {
            cc.on_congestion_event(&LossView {
                now: 0,
                kind: LossKind::Timeout,
                lost_bytes: MSS,
                inflight: 100 * MSS,
            });
            assert_eq!(cc.cwnd(), 4 * MSS);
        }
    }

    #[test]
    fn pacing_rate_follows_gain() {
        let mut b = Bbr::new(10 * MSS, MSS);
        assert!(b.pacing_rate().is_none(), "no estimate yet: unpaced");
        b.bw_filter.update(0, 2_000_000.0);
        let r = b.pacing_rate().unwrap();
        assert!((r - STARTUP_GAIN * 2_000_000.0).abs() < 1.0);
    }
}
