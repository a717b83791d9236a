//! Engine-determinism acceptance test for the timer-wheel core: a fixed
//! dumbbell cell has golden flow-completion times and counter totals
//! recorded from the original binary-heap engine, and the one engine
//! (timer wheel, payload pool, same-tick batching) must reproduce them
//! bit-for-bit — serially and through a 4-worker campaign with a fresh
//! result cache.
//!
//! If an intentional behavior change moves these numbers, regenerate with
//! `cargo test -p experiments --test determinism -- --ignored --nocapture`
//! and paste the printed constants.

use cc_algos::CcKind;
use experiments::{run_dumbbell, DumbbellFlow, FlowGrid, FlowGridRun};
use netsim::SimTime;
use simrunner::RunnerOpts;
use simtrace::names;
use std::time::Duration;
use workload::{DumbbellConfig, MB};

const SEEDS: [u64; 2] = [1, 2];
const PAIRS: usize = 4;

/// Golden flow-0 receiver FCTs in seconds, one per seed, exact bits
/// (`{:?}` prints the shortest round-trip representation, so these
/// literals reproduce the measured f64 exactly).
const GOLD_FCT_SECS: [f64; 2] = [0.915681728, 0.915681728];

/// Golden catalogue counter totals merged over both cells. Scheduler- and
/// pool-internal counters (`net.sched_*`, `net.pool_*`) counted
/// differently on the heap engine and are deliberately absent.
const GOLD_TOTALS: &[(&str, u64)] = &[
    (names::NET_EVENTS, 75378),
    (names::NET_EVENTS_SCHEDULED, 75820),
    (names::NET_QUEUE_DROPS, 1098),
    (names::TCP_SEGS_SENT, 6626),
    (names::TCP_RETRANSMITS, 1098),
    (names::TCP_RTOS, 0),
    (names::TCP_FAST_RETRANSMITS, 16),
    (names::CC_HYSTART_EXITS, 2),
    (names::SUSS_PACING_ROUNDS, 16),
];

/// The fixed cell: four staggered SUSS downloads through a congested
/// 50 Mbps / 50 ms / 1-BDP dumbbell — loss, fast recovery, HyStart and
/// SUSS pacing all exercised, so the goldens pin real protocol behavior.
fn cell(seed: u64) -> experiments::FlowOutcome {
    cell_scoped(seed, 0)
}

/// [`cell`] with bottleneck scope sampling every `scope_every` packets
/// (0 = off) — the observability arm of the determinism contract.
fn cell_scoped(seed: u64, scope_every: u64) -> experiments::FlowOutcome {
    let cfg = DumbbellConfig::fairness(Duration::from_millis(50), 1.0, PAIRS);
    let flows: Vec<DumbbellFlow> = (0..PAIRS)
        .map(|i| DumbbellFlow::download(CcKind::CubicSuss, MB, SimTime::from_millis(5 * i as u64)))
        .collect();
    let out =
        experiments::run_dumbbell_scoped(&cfg, &flows, seed, SimTime::from_secs(60), scope_every);
    let drops = out.bottleneck_drops;
    let mut f0 = out.flows.into_iter().next().expect("pairs > 0");
    f0.bottleneck_drops = drops;
    f0
}

/// The same cells as a FlowGrid campaign.
fn wheel_grid() -> FlowGrid {
    let mut grid = FlowGrid::new("determinism-golden");
    grid.batch_fn(
        "dumbbell/golden",
        "topo=dumbbell pairs=4 btlneck=50Mbps rtt=50ms buf=1.0bdp \
         cc=cubic+suss size=1MB stagger=5ms",
        SEEDS.len() as u64,
        SEEDS[0],
        cell,
    );
    grid
}

fn assert_matches_golden(run: &FlowGridRun, what: &str) {
    assert_eq!(run.stats.len(), SEEDS.len());
    for (i, s) in run.stats.iter().enumerate() {
        let s = s.as_ref().expect("golden cell failed");
        assert_eq!(
            s.fct_secs.to_bits(),
            GOLD_FCT_SECS[i].to_bits(),
            "{what}: seed {} fct {} != golden {}",
            SEEDS[i],
            s.fct_secs,
            GOLD_FCT_SECS[i],
        );
    }
    let totals = run.counters_total();
    for &(name, want) in GOLD_TOTALS {
        assert_eq!(
            totals.get(name),
            Some(want),
            "{what}: counter {name} diverged from golden"
        );
    }
}

/// The wheel engine reproduces the heap goldens exactly, both on the
/// serial path and sharded across 4 workers with a fresh cache — the
/// scheduler-equivalence contract, end to end through the campaign layer.
#[test]
fn wheel_reproduces_golden_at_1_and_4_workers() {
    let serial = wheel_grid().run(&RunnerOpts::serial());
    assert_matches_golden(&serial, "wheel serial");
    // The wheel engine actually pooled allocations on this workload (the
    // counters above prove pooling didn't change results).
    assert!(
        serial
            .counters_total()
            .get(names::NET_POOL_HITS)
            .unwrap_or(0)
            > 0
    );

    let dir = std::env::temp_dir().join(format!("suss-det-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let parallel = wheel_grid().run(&RunnerOpts::default().with_workers(4).with_cache(&dir));
    assert_eq!(parallel.manifest.cache_hits, 0, "fresh cache must miss");
    assert_matches_golden(&parallel, "wheel 4-worker");
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden flow-0 FCTs of the faulted grid in cell order (each fault
/// family × both seeds), recorded from the original binary-heap engine.
const GOLD_FAULTED_FCT_SECS: [f64; 8] = [
    7.726729479,
    5.520377433,
    7.428859259,
    7.433123828,
    5.034539299,
    5.640336573,
    1.171262928,
    1.171941115,
];

/// Golden faulted-grid counter totals from the same heap run, with the
/// same exclusions as [`GOLD_TOTALS`].
const GOLD_FAULTED_TOTALS: &[(&str, u64)] = &[
    (names::CC_HYSTART_EXITS, 2),
    (names::NET_AQM_DROPS, 0),
    (names::NET_EVENTS, 29985),
    (names::NET_EVENTS_SCHEDULED, 30841),
    (names::NET_FAULTS_INJECTED, 41),
    (names::NET_LINK_FLAPS, 2),
    (names::NET_ORPHAN_EVENTS, 0),
    (names::NET_QUEUE_DEPTH_HWM, 243000),
    (names::NET_QUEUE_DROPS, 0),
    (names::SUSS_PACING_ROUNDS, 11),
    (names::TCP_FAST_RETRANSMITS, 18),
    (names::TCP_RETRANSMITS, 574),
    (names::TCP_RTOS, 4),
    (names::TCP_SEGS_SENT, 6102),
];

/// One CUBIC+SUSS flow per fault family and seed over the chaos scenario.
fn faulted_grid() -> FlowGrid {
    use experiments::chaos::{chaos_scenario, run_flow_faulted, FaultFamily};

    let scn = chaos_scenario();
    let mut grid = FlowGrid::new("determinism-faulted");
    for family in FaultFamily::ALL {
        let plan = family.plan();
        grid.batch_fn(
            &format!("faulted/{}", family.key()),
            &format!(
                "{} cc=cubic+suss size={MB} {} engine-check",
                scn.canonical_params(),
                plan.canonical_params()
            ),
            SEEDS.len() as u64,
            SEEDS[0],
            move |seed| run_flow_faulted(&scn, CcKind::CubicSuss, MB, seed, &plan),
        );
    }
    grid
}

/// A run's counter totals outside `net.sched_*`/`net.pool_*`, by name.
fn non_engine_totals(run: &FlowGridRun) -> Vec<(String, u64)> {
    run.counters_total()
        .metrics
        .into_iter()
        .filter(|m| !m.name.starts_with("net.sched_") && !m.name.starts_with("net.pool_"))
        .map(|m| (m.name, m.value))
        .collect()
}

/// Fault-injected cells obey the same determinism contract as clean
/// ones: a faulted grid reproduces the heap engine's FCT bits and counter
/// totals under every fault family, serially and across 4 workers.
#[test]
fn faulted_cells_are_engine_and_worker_invariant() {
    let want_fcts: Vec<u64> = GOLD_FAULTED_FCT_SECS.iter().map(|f| f.to_bits()).collect();
    let want_totals: Vec<(String, u64)> = GOLD_FAULTED_TOTALS
        .iter()
        .map(|&(name, v)| (name.to_string(), v))
        .collect();
    for (opts, what) in [
        (RunnerOpts::serial(), "faulted serial"),
        (RunnerOpts::default().with_workers(4), "faulted 4 workers"),
    ] {
        let run = faulted_grid().run(&opts);
        let fcts: Vec<u64> = run
            .stats
            .iter()
            .map(|s| s.as_ref().expect("faulted cell failed").fct_secs.to_bits())
            .collect();
        assert_eq!(fcts, want_fcts, "{what}: FCT bits diverged from golden");
        assert_eq!(
            non_engine_totals(&run),
            want_totals,
            "{what}: counter totals diverged from golden"
        );
    }
}

/// Observability is free: running the golden cell with every telemetry
/// layer on — span profiling, a live flight recorder, and bottleneck
/// scope sampling — reproduces the bare run bit-for-bit.
/// The instrumented arm must also actually *observe* something, so a
/// regression that silently disables telemetry can't fake a pass.
#[test]
fn observability_never_changes_results() {
    let bare = cell(SEEDS[0]);
    let _ = simtrace::runtime::take_scope_annotations();
    let _ = simtrace::prof::take();

    simtrace::prof::set_enabled(true);
    let ring = simtrace::FlightRecorder::new(simtrace::flightrec::DEFAULT_CAPACITY);
    simtrace::flightrec::install(Some(ring.clone()));
    let instrumented = cell_scoped(SEEDS[0], 4);
    simtrace::flightrec::install(None);
    simtrace::prof::set_enabled(false);
    let prof = simtrace::prof::take();
    let scopes = simtrace::runtime::take_scope_annotations();

    // Telemetry really happened...
    assert!(prof.spans.iter().any(|s| s.path == "dumbbell/cell"));
    assert!(
        scopes
            .iter()
            .any(|a| a.label == "scope/dumbbell/queue_depth" && a.n > 0),
        "scope sampling produced nothing: {scopes:?}"
    );
    assert!(!ring.to_jsonl().is_empty(), "flight recorder stayed empty");

    // ...and changed nothing.
    assert_eq!(
        instrumented.fct_secs().to_bits(),
        bare.fct_secs().to_bits(),
        "telemetry perturbed the FCT"
    );
    assert_eq!(instrumented.segs_sent, bare.segs_sent);
    assert_eq!(instrumented.segs_retransmitted, bare.segs_retransmitted);
    assert_eq!(instrumented.bottleneck_drops, bare.bottleneck_drops);
    assert_eq!(
        instrumented.counters, bare.counters,
        "telemetry leaked into the metric registry"
    );
}

/// CC decision events survive a JSONL round trip: a traced golden-cell
/// flow exports through a [`simtrace::JsonlSink`] and parses back with
/// [`simtrace::query::parse_jsonl`] record-for-record — kinds, payloads,
/// and reason codes intact.
#[test]
fn cc_events_roundtrip_through_jsonl() {
    use simtrace::{kind, EventSink, TraceRecord};
    use tcp_sim::trace::ConnTrace;

    let cfg = DumbbellConfig::fairness(Duration::from_millis(50), 1.0, PAIRS);
    let flows: Vec<DumbbellFlow> = (0..PAIRS)
        .map(|i| {
            DumbbellFlow::download(CcKind::CubicSuss, MB, SimTime::from_millis(5 * i as u64))
                .traced()
        })
        .collect();
    let out = run_dumbbell(&cfg, &flows, SEEDS[0], SimTime::from_secs(60));
    // The congested SUSS cell exercises the whole decision catalogue
    // (HyStart exits happen on later-starting flows, so check the union).
    let kinds: Vec<&'static str> = out
        .flows
        .iter()
        .flat_map(|f| {
            f.trace
                .events
                .iter()
                .map(|(_, e)| ConnTrace::record_kind(e))
        })
        .collect();
    for want in [
        kind::CC_CWND,
        kind::CC_SSTHRESH,
        kind::CC_PACING,
        kind::SUSS_ROUND,
        kind::HYSTART,
    ] {
        assert!(kinds.contains(&want), "no {want} event in {kinds:?}");
    }

    for (i, flow) in out.flows.iter().enumerate() {
        let trace = &flow.trace;
        let id = i as u64 + 1;
        let mut buf = Vec::new();
        let mut sink = simtrace::JsonlSink::new(&mut buf);
        trace.export(id, Some("roundtrip"), &mut sink);
        sink.flush().expect("jsonl write");
        let text = String::from_utf8(buf).expect("utf8 jsonl");

        let parsed = simtrace::query::parse_jsonl(&text).expect("parse back");
        // Reconstruct what export emitted and demand full fidelity.
        let mut expected = Vec::new();
        for s in &trace.samples {
            let mut rec = TraceRecord::event(s.t.as_nanos(), id, kind::SAMPLE);
            rec.cwnd = Some(s.cwnd);
            rec.inflight = Some(s.inflight);
            rec.delivered = Some(s.delivered);
            rec.rtt_ns = s.rtt.map(|d| d.as_nanos() as u64);
            rec.srtt_ns = s.srtt.map(|d| d.as_nanos() as u64);
            rec.run = Some("roundtrip".into());
            expected.push(rec);
        }
        for (t, e) in &trace.events {
            let mut rec = TraceRecord::event(t.as_nanos(), id, ConnTrace::record_kind(e));
            ConnTrace::fill_record(&mut rec, e);
            rec.run = Some("roundtrip".into());
            expected.push(rec);
        }
        assert_eq!(parsed.len(), expected.len());
        assert_eq!(parsed, expected, "JSONL round trip lost information");

        // Every CC decision carries its reason code through the round trip.
        for rec in parsed.iter().filter(|r| {
            [
                kind::CC_CWND,
                kind::CC_SSTHRESH,
                kind::CC_PACING,
                kind::HYSTART,
            ]
            .contains(&r.kind.as_str())
        }) {
            assert!(
                rec.reason.as_deref().is_some_and(|r| !r.is_empty()),
                "missing reason on {rec:?}"
            );
        }
    }
}

/// Regeneration helper: prints the constants to paste above.
#[test]
#[ignore = "golden generator, run with --ignored --nocapture"]
fn print_golden() {
    let mut totals = simtrace::CounterSnapshot::default();
    let mut fcts = Vec::new();
    for &seed in &SEEDS {
        let out = cell(seed);
        fcts.push(out.fct_secs());
        totals.merge(&out.counters);
    }
    println!("const GOLD_FCT_SECS: [f64; 2] = {fcts:?};");
    for &(name, _) in GOLD_TOTALS {
        println!("({name:?}, {}),", totals.get(name).unwrap_or(0));
    }

    let run = faulted_grid().run(&RunnerOpts::serial());
    let fcts: Vec<f64> = run
        .stats
        .iter()
        .map(|s| s.as_ref().expect("faulted cell failed").fct_secs)
        .collect();
    println!(
        "const GOLD_FAULTED_FCT_SECS: [f64; {}] = {fcts:?};",
        fcts.len()
    );
    for (name, v) in non_engine_totals(&run) {
        println!("({name:?}, {v}),");
    }
}
