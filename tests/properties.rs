//! Property-based tests over the core data structures and the SUSS
//! invariants (proptest).

use proptest::prelude::*;
use std::time::Duration;
use suss_repro::suss::{
    growth_factor, plan_pacing, AckEvent, GrowthInputs, Pacer, PacingPlan, Suss, SussConfig,
};
use suss_repro::transport::{ByteRange, RangeSet, RttEstimator};

// ---------------------------------------------------------------------------
// RangeSet vs a naive per-byte model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RangeOp {
    Insert(u64, u64),
    Remove(u64, u64),
    RemoveBelow(u64),
}

fn range_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..200, 0u64..40).prop_map(|(a, l)| RangeOp::Insert(a, a + l)),
            (0u64..200, 0u64..40).prop_map(|(a, l)| RangeOp::Remove(a, a + l)),
            (0u64..220).prop_map(RangeOp::RemoveBelow),
        ],
        1..40,
    )
}

/// A loss scoreboard's shape: hundreds of short inserts over `0..20_000`
/// leave hundreds of holes; removals wide enough to span several ranges
/// leave a remnant at each end; `remove_below` trims the low end like a
/// cumulative ACK, often landing inside a range.
fn many_holes_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    let insert = || (0u64..20_000, 1u64..24).prop_map(|(a, l)| RangeOp::Insert(a, a + l));
    prop::collection::vec(
        prop_oneof![
            insert(),
            insert(),
            insert(),
            insert(),
            (0u64..20_000, 1u64..300).prop_map(|(a, l)| RangeOp::Remove(a, a + l)),
            (0u64..4_000).prop_map(RangeOp::RemoveBelow),
        ],
        600..1_000,
    )
}

/// The model's maximal runs of covered bytes, ascending.
fn model_runs(model: &[bool]) -> Vec<ByteRange> {
    let mut runs: Vec<ByteRange> = Vec::new();
    for x in (0..model.len() as u64).filter(|&x| model[x as usize]) {
        match runs.last_mut() {
            Some(r) if r.end == x => r.end += 1,
            _ => runs.push(ByteRange::new(x, x + 1)),
        }
    }
    runs
}

/// Apply `ops` to a `RangeSet` and to a per-byte model of `0..span`,
/// checking every return value and the cached total after each op, then
/// every query over the span. Returns the most ranges the set held at once.
fn check_against_model(ops: &[RangeOp], span: u64) -> Result<usize, TestCaseError> {
    let mut set = RangeSet::new();
    let mut model = vec![false; span as usize];
    let mut model_total = 0u64;
    let covered = |model: &[bool], x: u64| model.get(x as usize).copied().unwrap_or(false);
    let mut peak = 0;
    for op in ops {
        match *op {
            RangeOp::Insert(a, b) => {
                let added = set.insert(ByteRange::new(a, b));
                let cells = &mut model[a as usize..b as usize];
                let model_added = cells.iter().filter(|&&c| !c).count() as u64;
                cells.fill(true);
                model_total += model_added;
                prop_assert_eq!(added, model_added, "{:?}", op);
            }
            RangeOp::Remove(a, b) => {
                let removed = set.remove(ByteRange::new(a, b));
                let cells = &mut model[a as usize..b as usize];
                let model_removed = cells.iter().filter(|&&c| c).count() as u64;
                cells.fill(false);
                model_total -= model_removed;
                prop_assert_eq!(removed, model_removed, "{:?}", op);
            }
            RangeOp::RemoveBelow(o) => {
                set.remove_below(o);
                let cells = &mut model[..o as usize];
                model_total -= cells.iter().filter(|&&c| c).count() as u64;
                cells.fill(false);
            }
        }
        // Invariants after every op: the cached total matches both the
        // model and the ranges actually held.
        let rs: Vec<ByteRange> = set.iter().collect();
        prop_assert_eq!(set.total_bytes(), model_total, "after {:?}", op);
        prop_assert_eq!(
            set.total_bytes(),
            rs.iter().map(ByteRange::len).sum::<u64>(),
            "after {:?}",
            op
        );
        prop_assert_eq!(set.num_ranges(), rs.len());
        prop_assert_eq!(set.is_empty(), model_total == 0);
        peak = peak.max(rs.len());
        // Ranges are disjoint, sorted, non-empty.
        for w in rs.windows(2) {
            prop_assert!(w[0].end < w[1].start, "ranges must not touch: {:?}", rs);
        }
        for r in &rs {
            prop_assert!(r.start < r.end);
        }
    }
    let runs = model_runs(&model);
    prop_assert_eq!(set.iter().collect::<Vec<_>>(), runs);
    // Point queries agree everywhere.
    for x in 0..span {
        prop_assert_eq!(set.contains(x), covered(&model, x), "offset {}", x);
    }
    // contiguous_end agrees with the model.
    for x in 0..span {
        let mut end = x;
        while covered(&model, end) {
            end += 1;
        }
        prop_assert_eq!(set.contiguous_end(x), end, "contiguous from {}", x);
    }
    // first_gap agrees with the model.
    for x in (0..span).step_by(7) {
        let limit = x + 31;
        let gap_start = (x..limit).find(|&y| !covered(&model, y));
        let expect = gap_start.map(|g| {
            let mut e = g;
            while e < limit && !covered(&model, e) {
                e += 1;
            }
            ByteRange::new(g, e)
        });
        prop_assert_eq!(set.first_gap(x, limit), expect);
    }
    // iter_from and sack_blocks agree with the model's runs.
    for x in (0..span).step_by(span as usize / 200 + 1) {
        let from: Vec<ByteRange> = runs.iter().copied().filter(|r| r.end > x).collect();
        prop_assert_eq!(set.iter_from(x).collect::<Vec<_>>(), from, "from {}", x);
        let blocks: Vec<ByteRange> = from
            .iter()
            .rev()
            .take(3)
            .map(|r| ByteRange::new(r.start.max(x), r.end))
            .collect();
        prop_assert_eq!(set.sack_blocks(x, 3)[..], blocks[..], "sack above {}", x);
    }
    Ok(peak)
}

proptest! {
    #[test]
    fn rangeset_matches_naive_model(ops in range_ops(), holes in many_holes_ops()) {
        check_against_model(&ops, 240)?;
        let peak = check_against_model(&holes, 20_400)?;
        prop_assert!(peak >= 100, "many-holes case peaked at {} ranges", peak);
    }
}

// ---------------------------------------------------------------------------
// Growth factor (Algorithm 1) invariants
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn growth_factor_bounds_and_monotonicity(
        ack_train_us in 1u64..400_000,
        min_rtt_ms in 1u64..500,
        extra_delay_us in 0u64..100_000,
        r in 0u64..10,
        k_max in 1u32..4,
    ) {
        let cfg = SussConfig::default().with_k_max(k_max);
        let min_rtt = Duration::from_millis(min_rtt_ms);
        let inputs = GrowthInputs {
            ack_train: Duration::from_micros(ack_train_us),
            min_rtt,
            mo_rtt: min_rtt + Duration::from_micros(extra_delay_us),
            rounds_since_min_rtt: r,
        };
        let g = growth_factor(&cfg, &inputs);
        // Bounds: a power of two in [2, 2^(k_max+1)].
        prop_assert!(g >= 2);
        prop_assert!(g <= 1 << (k_max + 1));
        prop_assert!(g.is_power_of_two());

        // Monotonicity: longer trains and higher delay can only reduce G.
        let worse_train = GrowthInputs {
            ack_train: inputs.ack_train * 2,
            ..inputs
        };
        prop_assert!(growth_factor(&cfg, &worse_train) <= g);
        let worse_delay = GrowthInputs {
            mo_rtt: inputs.mo_rtt + Duration::from_millis(min_rtt_ms),
            ..inputs
        };
        prop_assert!(growth_factor(&cfg, &worse_delay) <= g);

        // Deeper lookahead can only increase G (conditions are nested).
        let deeper = SussConfig::default().with_k_max(k_max + 1);
        prop_assert!(growth_factor(&deeper, &inputs) >= g);

        // Disabled => always 2.
        prop_assert_eq!(growth_factor(&SussConfig::disabled(), &inputs), 2);
    }
}

// ---------------------------------------------------------------------------
// Pacing plan (Eqs. 10–12, Lemma 1) invariants
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn pacing_plan_invariants(
        g_exp in 1u32..4,
        cwnd_base in 1_448u64..2_000_000,
        blue_frac in 0.05f64..1.0,
        dt_bat_frac in 0.0f64..1.0,
        min_rtt_ms in 5u64..500,
    ) {
        let g = 2u32 << g_exp; // 4, 8, 16
        let min_rtt = Duration::from_millis(min_rtt_ms);
        let blue = ((cwnd_base as f64) * blue_frac) as u64 + 1;
        // Lemma 1 precondition: Δt_Bat ≤ (blue / (g·cwnd_base)) · minRTT / 2.
        let dt_max = min_rtt.mul_f64(blue as f64 / (g as f64 * cwnd_base as f64) / 2.0);
        let dt_bat = dt_max.mul_f64(dt_bat_frac);

        let plan = plan_pacing(g, cwnd_base, blue, dt_bat, min_rtt).unwrap();
        // Structure.
        prop_assert_eq!(plan.cwnd_target, g as u64 * cwnd_base);
        prop_assert_eq!(plan.extra_bytes, (g as u64 - 2) * cwnd_base);
        // Eq. 11: rate = target / minRTT.
        let expect_rate = plan.cwnd_target as f64 / min_rtt.as_secs_f64();
        prop_assert!((plan.rate_bytes_per_sec - expect_rate).abs() / expect_rate < 1e-9);
        // duration · rate == extra bytes.
        let paced = plan.duration.as_secs_f64() * plan.rate_bytes_per_sec;
        prop_assert!((paced - plan.extra_bytes as f64).abs() < 1.0);
        // Lemma 1: guard ≥ blue/(4·target) · minRTT under the precondition.
        let bound = PacingPlan::lemma1_bound(blue, plan.cwnd_target, min_rtt);
        prop_assert!(
            plan.guard + Duration::from_nanos(2) >= bound,
            "guard {:?} < bound {:?}", plan.guard, bound
        );
        // The whole schedule fits in one round.
        let total = dt_bat + plan.guard + plan.duration;
        prop_assert!(total <= min_rtt + Duration::from_nanos(10));
    }

    #[test]
    fn no_plan_without_acceleration(
        cwnd_base in 1u64..1_000_000,
        blue in 1u64..1_000_000,
        dt_ms in 0u64..100,
        rtt_ms in 1u64..500,
    ) {
        prop_assert!(plan_pacing(
            2,
            cwnd_base,
            blue,
            Duration::from_millis(dt_ms),
            Duration::from_millis(rtt_ms)
        )
        .is_none());
    }
}

// ---------------------------------------------------------------------------
// Suss state machine: arbitrary monotone ACK streams never panic and
// produce sane outputs.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn suss_state_machine_is_total(
        steps in prop::collection::vec((1u64..20, 1u64..1_000_000, 50u64..300), 1..120),
        seed in 0u64..1000,
    ) {
        let iw = 14_480u64;
        let mut suss = Suss::new(SussConfig::default(), 0, 0, iw);
        let mut now = 0u64;
        let mut acked = 0u64;
        let mut snd_nxt = iw;
        let mut cwnd = iw;
        let mut paced = false;
        for (i, (segs, gap_ns, rtt_ms)) in steps.iter().enumerate() {
            now += gap_ns;
            acked += segs * 1_448;
            if acked > snd_nxt {
                snd_nxt = acked + (seed % 5) * 1_448;
            }
            let out = suss.on_ack(AckEvent {
                now,
                ack_seq: acked,
                rtt: Some(Duration::from_millis(*rtt_ms)),
                cwnd,
                snd_nxt,
            });
            if let Some(plan) = out.start_pacing {
                prop_assert!(plan.growth_factor > 2);
                prop_assert!(plan.extra_bytes > 0);
                prop_assert!(plan.rate_bytes_per_sec > 0.0);
                if !paced {
                    suss.mark_pacing_started(snd_nxt);
                    paced = true;
                }
            }
            if out.exit_slow_start.is_some() {
                prop_assert!(!suss.exp_growth());
            }
            // Mimic slow-start growth and clocked sending.
            cwnd += segs * 1_448;
            snd_nxt = snd_nxt.max(acked) + cwnd.min(2 * segs * 1_448);
            if i % 7 == 6 {
                paced = false;
            }
        }
        // Round counter is monotone and bounded by the number of ACKs.
        prop_assert!(suss.round() as usize <= steps.len() + 1);
    }
}

// ---------------------------------------------------------------------------
// RTT estimator and pacer
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn rtt_estimator_sane(samples in prop::collection::vec(1u64..10_000, 1..100)) {
        let mut e = RttEstimator::new();
        for &ms in &samples {
            e.on_sample(Duration::from_millis(ms));
        }
        let srtt = e.srtt().unwrap();
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        prop_assert!(srtt >= Duration::from_millis(min));
        prop_assert!(srtt <= Duration::from_millis(max));
        prop_assert_eq!(e.min_rtt(), Some(Duration::from_millis(min)));
        prop_assert!(e.rto() >= Duration::from_millis(200), "rto floor");
        prop_assert!(e.rto() >= srtt, "rto at least srtt");
    }

    #[test]
    fn pacer_never_exceeds_rate_plus_burst(
        rate in 10_000.0f64..10_000_000.0,
        burst in 1_500u64..20_000,
        tries in 50usize..300,
    ) {
        let mut p = Pacer::unlimited(burst);
        p.set_rate(0, Some(rate));
        let pkt = 1_500u64;
        let mut sent = 0u64;
        let mut t: u64 = 0;
        let horizon: u64 = 100_000_000; // 100 ms
        for _ in 0..tries {
            if p.can_send(t, pkt) {
                p.on_sent(t, pkt);
                sent += pkt;
            } else {
                t = p.next_send_time(t, pkt);
            }
            if t >= horizon {
                break;
            }
            t += 17_000; // drift forward
        }
        let elapsed = (t.max(1)) as f64 / 1e9;
        let allowance = rate * elapsed + burst as f64 + pkt as f64;
        prop_assert!(
            (sent as f64) <= allowance,
            "sent {} > allowance {:.0} at t {}", sent, allowance, t
        );
    }
}
