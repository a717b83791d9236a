//! Per-connection instrumentation.
//!
//! The paper instruments the kernel to log cwnd, RTT, inflight and
//! delivered bytes per ACK; this module is the simulator's equivalent.
//! Traces are the raw material for Figures 1, 9, 10, 13 and 16.

use crate::cc::CcEvent;
use netsim::{FlowId, SimTime};
use simtrace::{kind, EventSink, TraceRecord};
use std::time::Duration;

/// One per-ACK sample of sender state.
#[derive(Debug, Clone, Copy)]
pub struct TraceSample {
    /// Sample time.
    pub t: SimTime,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Bytes in flight.
    pub inflight: u64,
    /// Cumulatively delivered bytes (snd_una).
    pub delivered: u64,
    /// Latest raw RTT sample, if any.
    pub rtt: Option<Duration>,
    /// Smoothed RTT, if any.
    pub srtt: Option<Duration>,
}

/// Notable connection events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The flow's first byte was transmitted.
    FlowStart,
    /// Slow-start ended (HyStart/SUSS exit or a loss), with the cwnd at
    /// exit. Both transports record it on every path out of slow start,
    /// once the ACK or loss that ended it has been processed.
    SlowStartExit {
        /// The controller's cwnd after the event that ended slow start:
        /// after its ACK processing for a HyStart/SUSS exit, after its
        /// loss response for a loss-driven exit.
        cwnd: u64,
    },
    /// A fast-retransmit recovery episode began.
    FastRetransmit,
    /// A retransmission timeout fired.
    Rto,
    /// A SUSS pacing period began with the given growth factor.
    SussPacing {
        /// The growth factor G of the round that triggered pacing.
        growth_factor: u32,
    },
    /// All flow bytes were acknowledged.
    FlowComplete,
    /// The controller reset its congestion window (CC decision).
    CcCwnd {
        /// The new congestion window in bytes.
        cwnd: u64,
        /// Decision code.
        reason: &'static str,
    },
    /// The controller moved its slow-start threshold (CC decision).
    CcSsthresh {
        /// The new threshold in bytes.
        ssthresh: u64,
        /// Decision code.
        reason: &'static str,
    },
    /// The controller changed its pacing rate (CC decision).
    CcPacingRate {
        /// The new rate in bits per second (0 = pacing stopped).
        rate_bps: u64,
        /// Decision code.
        reason: &'static str,
    },
    /// SUSS finished estimating a slow-start round.
    SussRound {
        /// The 1-based slow-start round index.
        round: u32,
        /// The growth estimate `k` for that round.
        k: u32,
    },
    /// A HyStart phase transition.
    HystartPhase {
        /// The phase entered (`exit`).
        phase: &'static str,
        /// Trigger code.
        reason: &'static str,
    },
}

impl TraceEvent {
    /// The trace event a controller decision exports as. (The slow-start
    /// exit is not a controller event: the transports record
    /// [`TraceEvent::SlowStartExit`] themselves when they see the
    /// controller leave slow start.)
    pub fn from_cc(ev: CcEvent) -> TraceEvent {
        match ev {
            CcEvent::SussPacingStarted { g } => TraceEvent::SussPacing { growth_factor: g },
            CcEvent::CwndChanged { cwnd, reason } => TraceEvent::CcCwnd { cwnd, reason },
            CcEvent::SsthreshChanged { ssthresh, reason } => {
                TraceEvent::CcSsthresh { ssthresh, reason }
            }
            CcEvent::PacingRateChanged { rate_bps, reason } => {
                TraceEvent::CcPacingRate { rate_bps, reason }
            }
            CcEvent::SussRound { round, k } => TraceEvent::SussRound { round, k },
            CcEvent::HystartPhase { phase, reason } => TraceEvent::HystartPhase { phase, reason },
        }
    }
}

/// Accumulated trace of one connection.
#[derive(Debug, Clone, Default)]
pub struct ConnTrace {
    /// Per-ACK state samples (in arrival order).
    pub samples: Vec<TraceSample>,
    /// Timestamped events.
    pub events: Vec<(SimTime, TraceEvent)>,
    /// Whether sampling is enabled (disable for big batch runs).
    pub sampling: bool,
}

impl ConnTrace {
    /// A trace with per-ACK sampling enabled.
    pub fn enabled() -> Self {
        ConnTrace {
            sampling: true,
            ..Default::default()
        }
    }

    /// A trace recording only events (cheap; for 50-iteration batches).
    pub fn events_only() -> Self {
        ConnTrace::default()
    }

    /// Record a sample if sampling is on.
    pub fn sample(&mut self, s: TraceSample) {
        if self.sampling {
            self.samples.push(s);
        }
    }

    /// Record an event (always kept).
    pub fn event(&mut self, t: SimTime, e: TraceEvent) {
        self.events.push((t, e));
    }

    /// Record `flow`'s event and mirror it into the thread's flight
    /// recorder (a no-op unless one is installed — see
    /// [`simtrace::flightrec`]). The mirror uses the same record mapping
    /// as [`ConnTrace::export`], so a post-mortem dump from either
    /// transport reads like a live slice of the exported trace.
    pub fn record(&mut self, t: SimTime, flow: FlowId, e: TraceEvent) {
        simtrace::flightrec::record_with(|| {
            let mut rec = TraceRecord::event(t.as_nanos(), flow.0, Self::record_kind(&e));
            Self::fill_record(&mut rec, &e);
            rec
        });
        self.event(t, e);
    }

    /// Time of the first occurrence of an event matching `pred`.
    pub fn find_event(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> Option<SimTime> {
        self.events.iter().find(|(_, e)| pred(e)).map(|(t, _)| *t)
    }

    /// Delivered bytes at or before time `t` (interpolated step-wise).
    pub fn delivered_at(&self, t: SimTime) -> u64 {
        match self.samples.partition_point(|s| s.t <= t) {
            0 => 0,
            i => self.samples[i - 1].delivered,
        }
    }

    /// The [`kind`] constant a [`TraceEvent`] exports under.
    pub fn record_kind(e: &TraceEvent) -> &'static str {
        match e {
            TraceEvent::FlowStart => kind::FLOW_START,
            TraceEvent::SlowStartExit { .. } => kind::SLOW_START_EXIT,
            TraceEvent::FastRetransmit => kind::FAST_RETRANSMIT,
            TraceEvent::Rto => kind::RTO,
            TraceEvent::SussPacing { .. } => kind::SUSS_PACING,
            TraceEvent::FlowComplete => kind::FLOW_COMPLETE,
            TraceEvent::CcCwnd { .. } => kind::CC_CWND,
            TraceEvent::CcSsthresh { .. } => kind::CC_SSTHRESH,
            TraceEvent::CcPacingRate { .. } => kind::CC_PACING,
            TraceEvent::SussRound { .. } => kind::SUSS_ROUND,
            TraceEvent::HystartPhase { .. } => kind::HYSTART,
        }
    }

    /// Fill a record's payload fields (`cwnd`/`value`/`reason`) from a
    /// [`TraceEvent`]. Shared by [`ConnTrace::export`] and the flight
    /// recorder's live mirror so the two emit identical records.
    pub fn fill_record(rec: &mut TraceRecord, e: &TraceEvent) {
        match e {
            TraceEvent::FlowStart | TraceEvent::FastRetransmit | TraceEvent::FlowComplete => {}
            TraceEvent::Rto => {}
            TraceEvent::SlowStartExit { cwnd } => rec.cwnd = Some(*cwnd),
            TraceEvent::SussPacing { growth_factor } => {
                rec.value = Some(f64::from(*growth_factor));
            }
            TraceEvent::CcCwnd { cwnd, reason } => {
                rec.cwnd = Some(*cwnd);
                rec.reason = Some((*reason).to_string());
            }
            TraceEvent::CcSsthresh { ssthresh, reason } => {
                rec.value = Some(*ssthresh as f64);
                rec.reason = Some((*reason).to_string());
            }
            TraceEvent::CcPacingRate { rate_bps, reason } => {
                rec.value = Some(*rate_bps as f64);
                rec.reason = Some((*reason).to_string());
            }
            TraceEvent::SussRound { round, k } => {
                rec.value = Some(f64::from(*k));
                rec.reason = Some(format!("round={round},k={k}"));
            }
            TraceEvent::HystartPhase { phase, reason } => {
                rec.reason = Some(format!("{phase}:{reason}"));
            }
        }
    }

    /// Export the whole trace (samples, then events) to a structured
    /// [`EventSink`] using the common record schema, tagged with the flow
    /// id and an optional run label.
    pub fn export(&self, flow: u64, run: Option<&str>, sink: &mut dyn EventSink) {
        for s in &self.samples {
            let mut rec = TraceRecord::event(s.t.as_nanos(), flow, kind::SAMPLE);
            rec.cwnd = Some(s.cwnd);
            rec.inflight = Some(s.inflight);
            rec.delivered = Some(s.delivered);
            rec.rtt_ns = s.rtt.map(|d| d.as_nanos() as u64);
            rec.srtt_ns = s.srtt.map(|d| d.as_nanos() as u64);
            rec.run = run.map(str::to_string);
            sink.record(&rec);
        }
        for (t, e) in &self.events {
            let mut rec = TraceRecord::event(t.as_nanos(), flow, Self::record_kind(e));
            Self::fill_record(&mut rec, e);
            rec.run = run.map(str::to_string);
            sink.record(&rec);
        }
    }
}

/// Final statistics of one flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowStats {
    /// Total application bytes to deliver.
    pub flow_bytes: u64,
    /// Flow start time (first transmission).
    pub started_at: Option<SimTime>,
    /// Time the last byte was cumulatively acknowledged at the sender.
    pub completed_at: Option<SimTime>,
    /// Data segments transmitted (including retransmissions).
    pub segs_sent: u64,
    /// Data segments retransmitted.
    pub segs_retransmitted: u64,
    /// Fast-retransmit episodes entered.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
}

impl FlowStats {
    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<Duration> {
        match (self.started_at, self.completed_at) {
            (Some(s), Some(c)) => Some(c.saturating_since(s)),
            _ => None,
        }
    }

    /// Fraction of transmitted segments that were retransmissions —
    /// the "packet loss rate" metric of the paper's Fig. 14/17 (sender's
    /// observable proxy for path loss).
    pub fn retransmit_rate(&self) -> f64 {
        if self.segs_sent == 0 {
            0.0
        } else {
            self.segs_retransmitted as f64 / self.segs_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_emits_samples_and_events() {
        let mut t = ConnTrace::enabled();
        t.event(SimTime::from_millis(0), TraceEvent::FlowStart);
        t.sample(TraceSample {
            t: SimTime::from_millis(1),
            cwnd: 1000,
            inflight: 500,
            delivered: 100,
            rtt: Some(Duration::from_millis(10)),
            srtt: None,
        });
        t.event(
            SimTime::from_millis(2),
            TraceEvent::SussPacing { growth_factor: 4 },
        );
        t.event(
            SimTime::from_millis(3),
            TraceEvent::SlowStartExit { cwnd: 9000 },
        );
        let mut sink = simtrace::VecSink::new();
        t.export(7, Some("arm"), &mut sink);
        assert_eq!(sink.records.len(), 4);
        let sample = &sink.records[0];
        assert_eq!(sample.kind, kind::SAMPLE);
        assert_eq!(sample.flow, Some(7));
        assert_eq!(sample.cwnd, Some(1000));
        assert_eq!(sample.rtt_ns, Some(10_000_000));
        assert_eq!(sample.srtt_ns, None);
        assert_eq!(sample.run.as_deref(), Some("arm"));
        let pacing = sink
            .records
            .iter()
            .find(|r| r.kind == kind::SUSS_PACING)
            .unwrap();
        assert_eq!(pacing.value, Some(4.0));
        let exit = sink
            .records
            .iter()
            .find(|r| r.kind == kind::SLOW_START_EXIT)
            .unwrap();
        assert_eq!(exit.cwnd, Some(9000));
    }

    #[test]
    fn cc_decision_events_export_with_reasons() {
        let mut t = ConnTrace::events_only();
        t.event(
            SimTime::from_millis(1),
            TraceEvent::CcSsthresh {
                ssthresh: 28_960,
                reason: "loss",
            },
        );
        t.event(
            SimTime::from_millis(2),
            TraceEvent::SussRound { round: 3, k: 4 },
        );
        t.event(
            SimTime::from_millis(3),
            TraceEvent::HystartPhase {
                phase: "exit",
                reason: "rtt_rise",
            },
        );
        t.event(
            SimTime::from_millis(4),
            TraceEvent::CcPacingRate {
                rate_bps: 50_000_000,
                reason: "suss_pacing",
            },
        );
        let mut sink = simtrace::VecSink::new();
        t.export(1, None, &mut sink);
        assert_eq!(sink.records.len(), 4);
        assert_eq!(sink.records[0].kind, kind::CC_SSTHRESH);
        assert_eq!(sink.records[0].value, Some(28_960.0));
        assert_eq!(sink.records[0].reason.as_deref(), Some("loss"));
        assert_eq!(sink.records[1].kind, kind::SUSS_ROUND);
        assert_eq!(sink.records[1].value, Some(4.0));
        assert_eq!(sink.records[1].reason.as_deref(), Some("round=3,k=4"));
        assert_eq!(sink.records[2].kind, kind::HYSTART);
        assert_eq!(sink.records[2].reason.as_deref(), Some("exit:rtt_rise"));
        assert_eq!(sink.records[3].kind, kind::CC_PACING);
        assert_eq!(sink.records[3].value, Some(50_000_000.0));
    }

    #[test]
    fn events_only_skips_samples() {
        let mut t = ConnTrace::events_only();
        t.sample(TraceSample {
            t: SimTime::ZERO,
            cwnd: 1,
            inflight: 0,
            delivered: 0,
            rtt: None,
            srtt: None,
        });
        assert!(t.samples.is_empty());
        t.event(SimTime::ZERO, TraceEvent::FlowStart);
        assert_eq!(t.events.len(), 1);
    }

    #[test]
    fn delivered_at_interpolates_stepwise() {
        let mut t = ConnTrace::enabled();
        for (ms, d) in [(10u64, 100u64), (20, 250), (30, 400)] {
            t.sample(TraceSample {
                t: SimTime::from_millis(ms),
                cwnd: 0,
                inflight: 0,
                delivered: d,
                rtt: None,
                srtt: None,
            });
        }
        assert_eq!(t.delivered_at(SimTime::from_millis(5)), 0);
        assert_eq!(t.delivered_at(SimTime::from_millis(10)), 100);
        assert_eq!(t.delivered_at(SimTime::from_millis(25)), 250);
        assert_eq!(t.delivered_at(SimTime::from_millis(99)), 400);
    }

    #[test]
    fn fct_requires_both_endpoints() {
        let mut s = FlowStats::default();
        assert!(s.fct().is_none());
        s.started_at = Some(SimTime::from_millis(100));
        assert!(s.fct().is_none());
        s.completed_at = Some(SimTime::from_millis(400));
        assert_eq!(s.fct(), Some(Duration::from_millis(300)));
    }

    #[test]
    fn retransmit_rate() {
        let s = FlowStats {
            segs_sent: 200,
            segs_retransmitted: 10,
            ..Default::default()
        };
        assert!((s.retransmit_rate() - 0.05).abs() < 1e-12);
        assert_eq!(FlowStats::default().retransmit_rate(), 0.0);
    }

    #[test]
    fn find_and_count_events() {
        let mut t = ConnTrace::events_only();
        t.event(SimTime::from_millis(1), TraceEvent::FlowStart);
        t.event(SimTime::from_millis(5), TraceEvent::Rto);
        t.event(SimTime::from_millis(9), TraceEvent::Rto);
        assert_eq!(
            t.find_event(|e| matches!(e, TraceEvent::Rto)),
            Some(SimTime::from_millis(5))
        );
        let rtos = t.events.iter().filter(|(_, e)| *e == TraceEvent::Rto);
        assert_eq!(rtos.count(), 2);
    }

    #[test]
    fn every_cc_event_maps_to_its_trace_event() {
        let cases = [
            (
                CcEvent::SussPacingStarted { g: 4 },
                TraceEvent::SussPacing { growth_factor: 4 },
            ),
            (
                CcEvent::CwndChanged {
                    cwnd: 14_480,
                    reason: "loss",
                },
                TraceEvent::CcCwnd {
                    cwnd: 14_480,
                    reason: "loss",
                },
            ),
            (
                CcEvent::SsthreshChanged {
                    ssthresh: 28_960,
                    reason: "suss_exit",
                },
                TraceEvent::CcSsthresh {
                    ssthresh: 28_960,
                    reason: "suss_exit",
                },
            ),
            (
                CcEvent::PacingRateChanged {
                    rate_bps: 50_000_000,
                    reason: "suss_pacing",
                },
                TraceEvent::CcPacingRate {
                    rate_bps: 50_000_000,
                    reason: "suss_pacing",
                },
            ),
            (
                CcEvent::SussRound { round: 3, k: 1 },
                TraceEvent::SussRound { round: 3, k: 1 },
            ),
            (
                CcEvent::HystartPhase {
                    phase: "exit",
                    reason: "rtt_rise",
                },
                TraceEvent::HystartPhase {
                    phase: "exit",
                    reason: "rtt_rise",
                },
            ),
        ];
        for (cc, want) in cases {
            assert_eq!(TraceEvent::from_cc(cc), want, "{cc:?}");
        }
    }

    #[test]
    fn record_mirrors_the_exported_record() {
        let recorder = simtrace::flightrec::FlightRecorder::new(8);
        simtrace::flightrec::install(Some(recorder.clone()));
        let mut t = ConnTrace::events_only();
        let e = TraceEvent::CcCwnd {
            cwnd: 2_896,
            reason: "timeout",
        };
        t.record(SimTime::from_millis(3), FlowId(9), e);
        simtrace::flightrec::install(None);
        assert_eq!(t.events, vec![(SimTime::from_millis(3), e)]);
        let mut sink = simtrace::VecSink::new();
        t.export(9, None, &mut sink);
        assert_eq!(recorder.snapshot(), sink.records);
    }
}
