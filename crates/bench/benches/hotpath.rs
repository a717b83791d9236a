//! Hot-path micro-benches: per-ACK controller cost (the paper stresses
//! SUSS's marginal CPU overhead) and raw simulator event throughput.

use cc_algos::{make_controller, CcKind};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;
use tcp_sim::cc::AckView;

const MSS: u64 = 1448;

fn drive_acks(kind: CcKind, n: u64) -> u64 {
    let mut cc = make_controller(kind, 10 * MSS, MSS);
    let mut acked = 0u64;
    let mut snd_nxt = 10 * MSS;
    for k in 0..n {
        let now = 100_000_000 + k * 100_000;
        acked += MSS;
        cc.on_ack(&AckView {
            now,
            ack_seq: acked,
            newly_acked: MSS,
            rtt_sample: Some(Duration::from_millis(100)),
            srtt: Some(Duration::from_millis(100)),
            min_rtt: Some(Duration::from_millis(100)),
            inflight: snd_nxt - acked,
            snd_nxt,
            delivered: acked,
            app_limited: false,
        });
        let w = cc.cwnd();
        if acked + w > snd_nxt {
            let grant = acked + w - snd_nxt;
            snd_nxt += grant;
            cc.on_sent(now, grant, snd_nxt);
        }
        if let Some(t) = cc.next_timer() {
            if t <= now {
                cc.on_timer(now);
            }
        }
    }
    cc.cwnd()
}

fn bench_cc_on_ack(c: &mut Criterion) {
    let mut g = c.benchmark_group("cc_per_ack");
    for kind in [
        CcKind::Reno,
        CcKind::Cubic,
        CcKind::CubicSuss,
        CcKind::CubicHspp,
        CcKind::Bbr,
        CcKind::Bbr2,
    ] {
        g.bench_function(&kind.label(), |b| b.iter(|| drive_acks(kind, 2_000)));
    }
    g.finish();
}

fn bench_sim_throughput(c: &mut Criterion) {
    c.bench_function("netsim_1mb_transfer", |b| {
        b.iter_batched(
            || (),
            |_| {
                let scn = workload::PathScenario::new(
                    workload::ServerSite::NzCampus,
                    workload::LastHop::Wired,
                );
                experiments::run_flow(&scn, CcKind::Cubic, workload::MB, 1, false)
            },
            BatchSize::SmallInput,
        )
    });
}

/// Event-queue microbench: pure scheduler churn (trivial agent callbacks)
/// under each engine, so the per-event push/pop cost dominates. The same
/// seeded workload runs on the binary-heap baseline and the timer wheel;
/// `scripts/bench_snapshot.sh` records the ratio in `BENCH_hotpath.json`.
fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for (label, engine) in [
        ("heap", netsim::EngineConfig::baseline()),
        ("wheel", netsim::EngineConfig::default()),
    ] {
        g.bench_function(&format!("timer_churn_4k_{label}"), |b| {
            b.iter(|| suss_bench::timer_churn(engine, 4_096, 50_000))
        });
    }
    g.finish();
}

/// End-to-end events/sec A/B: the same dumbbell download under the
/// baseline (heap, no pooling) and default (wheel + pooling) engines.
/// Results are byte-identical by the scheduler-equivalence contract; only
/// wall time differs.
fn bench_engine_end_to_end(c: &mut Criterion) {
    let scn =
        workload::PathScenario::new(workload::ServerSite::GoogleTokyo, workload::LastHop::Wired);
    let mut g = c.benchmark_group("engine_end_to_end");
    for (label, engine) in [
        ("heap", netsim::EngineConfig::baseline()),
        ("wheel", netsim::EngineConfig::default()),
    ] {
        g.bench_function(&format!("tokyo_wired_2mb_{label}"), |b| {
            b.iter(|| {
                experiments::run_flow_engine(
                    &scn,
                    CcKind::CubicSuss,
                    2 * workload::MB,
                    1,
                    false,
                    netsim::SimTime::from_secs(600),
                    engine,
                )
            })
        });
    }
    g.finish();
}

fn bench_suss_decision(c: &mut Criterion) {
    c.bench_function("suss_growth_factor", |b| {
        let cfg = suss_core::SussConfig::default();
        let inputs = suss_core::GrowthInputs {
            ack_train: Duration::from_millis(10),
            min_rtt: Duration::from_millis(100),
            mo_rtt: Duration::from_millis(102),
            rounds_since_min_rtt: 1,
        };
        b.iter(|| suss_core::growth_factor(&cfg, &inputs))
    });
}

criterion_group! {
    name = hotpath;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_cc_on_ack, bench_sim_throughput, bench_event_queue,
              bench_engine_end_to_end, bench_suss_decision
}
criterion_main!(hotpath);
