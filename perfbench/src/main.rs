//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <matrix|fleet|quic|rerun|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Timed mode (`--trace 0`) repeats the workload's whole campaign until
//! `--seconds` have elapsed and prints every end-to-end metric as
//! `<workload>/<metric> <value> <unit>`. Traced mode (`--trace 1`) runs
//! the campaign once untraced and once through the traced drivers and
//! prints the per-layer table and metrics. Either way the last stdout
//! line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, and the exit code is non-zero on any failed flow or
//! fingerprint mismatch. See README.md beside this file.

mod drivers;
mod layers;
mod stats;
mod trace;
mod workloads;

use layers::{m, Metric};
use serde::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{runner_opts, settle, Rep, Rerun, Scratch, Workload};

/// Set-up samples per timed run; their median is `setup_s`.
const SETUP_SAMPLES: usize = 21;
/// Set-up samples discarded before those: the first few grow the heap,
/// and page faults make them up to three times slower.
const SETUP_WARMUP: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Where scratch caches and trace files live: beside this package, inside
/// the checkout.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// The campaign fingerprint of each seed base run.
    fingerprints: BTreeMap<u64, String>,
}

impl Outcome {
    fn absorb(&mut self, seed: u64, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.problems.extend(rep.problems.iter().cloned());
        self.check_fingerprint(seed, &rep.fingerprint);
    }

    /// Every campaign of a seed base must reproduce the first one's
    /// fingerprint.
    fn check_fingerprint(&mut self, seed: u64, fp: &str) {
        let first = self.fingerprints.entry(seed).or_insert_with(|| fp.into());
        if first != fp {
            let msg = format!("seed {seed}: fingerprint {fp} != {first}");
            self.problems.push(msg);
        }
    }

    fn print_fingerprints(&self, name: &str) {
        for (seed, fp) in &self.fingerprints {
            println!("{name}/fingerprint {fp} (seed base {seed})");
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

fn timed_rep(w: Workload, seed: u64, dir: &Path) -> Rep {
    let opts = runner_opts(dir);
    match w {
        Workload::Matrix => workloads::matrix_rep(seed, &opts),
        Workload::Fleet => workloads::fleet_rep(seed, &opts),
        Workload::Quic => workloads::quic_rep(seed, &opts),
        Workload::Rerun => unreachable!("rerun repetitions need a warm cache"),
    }
}

/// Seed bases a timed run cycles through, `--seed` plus multiples of
/// [`SEED_STRIDE`]. A fleet cell's work follows its heavy-tailed size
/// draws (the fastest repetition of one seed base ran 9,400 flows/s, of
/// another 15,000), so a fleet run covers a window of bases, the way each
/// matrix cell already spans 8 seeds. Between quic seed bases the work
/// differs by a few percent, and more repetitions of one base filter the
/// machine's slow stretches better.
fn seed_window(w: Workload) -> u64 {
    match w {
        Workload::Fleet => 5,
        _ => 1,
    }
}

/// Distance between the seed bases of a window: a fleet campaign of base
/// `b` draws its cells' seeds from `b..b+3` and `b+8..b+11`, so bases 3
/// apart share none.
const SEED_STRIDE: u64 = 3;

/// Host seconds one campaign of a seed base takes, from its repetitions.
/// Where the benchmark timed each cell call, it is each cell's fastest
/// time across repetitions plus the median time outside cell calls.
/// Otherwise (rerun, whose warm cells are never called) it is the
/// fastest repetition. A shared machine runs 30-90% slower for seconds
/// at a time, and such a stretch lands on different cells in each
/// repetition; the fastest time is the one it did not touch.
fn campaign_secs(reps: &[Rep]) -> f64 {
    let n = reps[0].cell_ms.len();
    if n == 0 || reps.iter().any(|r| r.cell_ms.len() != n) {
        return reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    }
    let cells_ms: f64 = (0..n)
        .map(|i| {
            reps.iter()
                .map(|r| r.cell_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let outside: Vec<f64> = reps
        .iter()
        .map(|r| r.wall_s - r.cell_ms.iter().sum::<f64>() / 1e3)
        .collect();
    cells_ms / 1e3 + stats::median(&outside)
}

fn timed(w: Workload, seed: u64, seconds: f64, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let window = seed_window(w);
    let rerun = (w == Workload::Rerun).then(|| Rerun::new(seed));

    // Set-up, repeated; `setup_s` is the median. All samples are taken
    // here, where the heap is in the same state in every run: later, the
    // memory a repetition freed makes a set-up 40% faster.
    let setups: Vec<f64> = (0..SETUP_WARMUP + SETUP_SAMPLES)
        .map(|_| workloads::setup_sample(w, seed))
        .skip(SETUP_WARMUP)
        .collect();
    // Rerun's cache is filled by one cold store pass, timed but outside
    // `setup_s`: on a file system mounted with `discard` the same pass
    // takes 0.7 to 6 s, mostly kernel time, depending on how many files
    // were deleted shortly before.
    let warm_dir = scratch.fresh("cache");
    let mut cold_s = None;
    if let Some(rerun) = &rerun {
        let cold = rerun.cold(&runner_opts(&warm_dir));
        cold_s = Some(cold.wall_s);
        out.problems.extend(cold.problems);
        out.check_fingerprint(seed, &cold.fingerprint);
    }

    // Repetitions until the next one would overrun `seconds`, but at
    // least one per seed base and two in all.
    settle(scratch.path());
    let mut by_seed: BTreeMap<u64, Vec<Rep>> = BTreeMap::new();
    let mut peak_rss = 0.0;
    let start = Instant::now();
    let mut reps = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if reps >= 2.max(window) && elapsed * (reps + 1) as f64 / reps as f64 > seconds {
            break;
        }
        let base = seed + reps % window * SEED_STRIDE;
        let rep = match &rerun {
            Some(rerun) => rerun.warm(&runner_opts(&warm_dir)),
            None => timed_rep(w, base, &scratch.fresh("cache")),
        };
        out.absorb(base, &rep);
        by_seed.entry(base).or_default().push(rep);
        reps += 1;
        if reps == 1 {
            // The peak through the first timed campaign. Each later one
            // starts a new worker thread, which takes over one of the
            // allocator arenas the previous campaign's threads freed, in
            // whichever order they exited; an unlucky pick allocates
            // more. (The cold pass alone is no steadier: its results
            // queue up at a rate set by thread scheduling.)
            peak_rss = peak_rss_mb();
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    let flows: u64 = by_seed.values().map(|r| r[0].attempted).sum();
    let secs: f64 = by_seed.values().map(|r| campaign_secs(r)).sum();
    out.metrics = vec![
        m("flows_per_s", stats::ratio(flows as f64, secs), "1/s"),
        m("peak_rss_mb", peak_rss, "MB"),
        m("setup_s", stats::median(&setups), "s"),
    ];

    let name = w.name();
    let bases: Vec<String> = by_seed.keys().map(u64::to_string).collect();
    println!(
        "# {name}: seed bases {}, {reps} repetitions in {measured_s:.2} s on one pool worker",
        bases.join(" "),
    );
    println!(
        "# {name}: cache and flight recorder under {}{}",
        scratch.path().display(),
        if rerun.is_some() {
            " (warm, after one cold store pass)"
        } else {
            " (a fresh, cold cache per repetition)"
        }
    );
    for (base, reps) in &by_seed {
        let rates: Vec<String> = reps
            .iter()
            .map(|r| format!("{:.1}", r.attempted as f64 / r.wall_s))
            .collect();
        println!(
            "# {name}: seed base {base}: flows/s per repetition {}",
            rates.join(" ")
        );
    }
    if let Some(s) = cold_s {
        println!("# {name}: cold store pass {s:.3} s");
    }
    for m in &out.metrics {
        println!("{name}/{} {} {}", m.name, m.value, m.unit);
    }
    // Only a matrix cell is one flow.
    let cell_ms: Vec<f64> = match w {
        Workload::Matrix => by_seed
            .values()
            .flatten()
            .flat_map(|r| r.cell_ms.clone())
            .collect(),
        _ => Vec::new(),
    };
    for (label, p) in [("flow_ms_p50", 50.0), ("flow_ms_p90", 90.0)] {
        if let Some((v, beyond)) = stats::percentile(&cell_ms, p) {
            let n = cell_ms.len();
            println!("{name}/{label} {v} ms (n={n}, {beyond} beyond)");
        }
    }
    out.print_fingerprints(name);
    out
}

fn traced(w: Workload, seed: u64, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let io = scratch.fresh("io");
    let (untraced, run) = match w {
        Workload::Rerun => {
            let rerun = Rerun::new(seed);
            let opts = runner_opts(&scratch.fresh("warm"));
            let cold = rerun.cold(&opts);
            out.problems.extend(cold.problems);
            let untraced = rerun.warm(&opts);
            (untraced, workloads::rerun_traced(&rerun, &opts, &io))
        }
        _ => {
            let untraced = timed_rep(w, seed, &scratch.fresh("untraced"));
            let opts = runner_opts(&scratch.fresh("traced"));
            let run = match w {
                Workload::Matrix => workloads::matrix_traced(seed, &opts, &io),
                Workload::Fleet => workloads::fleet_traced(seed, &opts, &io),
                _ => workloads::quic_traced(seed, &opts, &io),
            };
            (untraced, run)
        }
    };
    out.absorb(seed, &untraced);
    // The traced repetition attempts the same flows again.
    out.attempted += untraced.attempted;
    out.failed += run.failed;
    out.check_fingerprint(seed, &run.manifest.fingerprint);
    if run.io.mismatches > 0 {
        let msg = format!("{} entries did not round-trip", run.io.mismatches);
        out.problems.push(msg);
    }
    out.metrics = layers::metrics(&run, untraced.wall_s);

    let name = w.name();
    println!("# {name}: traced repetition, seed {seed}, one pool worker");
    print!("{}", layers::table(&run));
    for m in &out.metrics {
        println!("{name}/{} {} {}", m.name, m.value, m.unit);
    }
    out.print_fingerprints(name);
    let path = bench_dir()
        .join("out")
        .join(format!("{name}-seed{seed}.trace.json"));
    let written = std::fs::create_dir_all(path.parent().expect("out dir"))
        .and_then(|_| std::fs::write(&path, layers::trace_json(name, seed, &run).render()));
    match written {
        Ok(()) => println!("# {name}: spans written to {}", path.display()),
        Err(e) => out.problems.push(format!("trace file: {e}")),
    }
    out
}

fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// Run one workload in this process.
fn run_one(w: Workload, args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::new(&bench_dir().join("tmp"), w.name())
        .map_err(|e| format!("scratch dir: {e}"))?;
    let out = if args.trace {
        traced(w, args.seed, &scratch)
    } else {
        timed(w, args.seed, args.seconds, &scratch)
    };
    for p in &out.problems {
        eprintln!("{}: check failed: {p}", w.name());
    }
    Ok(out)
}

/// Run every workload, each in a child process of its own so its peak
/// RSS is the workload's alone, and merge the results under
/// `<workload>/<metric>` names.
fn run_all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all = Outcome::default();
    for w in &args.workloads {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        let parsed = Json::parse(last);
        let Some(obj) = parsed.as_ref().and_then(Json::as_obj) else {
            all.problems.push(format!("{}: no result line", w.name()));
            continue;
        };
        let num = |k: &str| Json::field(obj, k).and_then(Json::as_f64).unwrap_or(0.0);
        all.attempted += num("attempted") as u64;
        all.failed += num("failed") as u64;
        if Json::field(obj, "correct") != Some(&Json::Bool(true)) {
            all.problems.push(format!("{}: incorrect", w.name()));
        }
        let metrics = Json::field(obj, "metrics").and_then(Json::as_obj);
        for (name, v) in metrics.unwrap_or(&[]) {
            let v = v.as_obj().unwrap_or(&[]);
            all.metrics.push(m(
                &format!("{}/{name}", w.name()),
                Json::field(v, "value")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                Json::field(v, "unit").and_then(Json::as_str).unwrap_or(""),
            ));
        }
    }
    Ok(all)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <matrix|fleet|quic|rerun|all> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let out = if args.workloads.len() == 1 {
        run_one(args.workloads[0], &args)
    } else {
        run_all(&args)
    };
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", result_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
