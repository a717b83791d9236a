//! # suss-bench — the benchmark harness
//!
//! One binary per table/figure of the paper (DESIGN.md §3 maps each id to
//! its experiment module).
//!
//! Every binary accepts `--quick` to run the scaled-down parameter set
//! (useful for smoke tests; the default is the full paper-scale run) and
//! `--csv` to emit machine-readable output after the human-readable
//! table. All experiments run as simrunner campaigns, so every binary
//! also accepts the parallel-execution flags (`--workers`, `--no-cache`,
//! `--cold`, `--no-progress`), runs on the worker pool unless
//! `--shard K/N` says to run one shard of the campaign and exit (a plain
//! run on the same cache then finishes it; `scripts/shard_run.sh` drives
//! both), caches results under `results/cache/`, and writes a run
//! manifest to `results/<name>.manifest.json`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use simrunner::{parse_shard, ExecSpec, RunManifest, RunnerOpts};
use std::path::PathBuf;

/// The shared command line of every figure/table/ablation binary.
///
/// Construct with [`BenchCli::parse`], passing the binary's artifact name
/// once; the manifest and trace paths (`results/<name>.manifest.json`,
/// `results/<name>.trace.jsonl`) derive from it, so binaries never thread
/// their own name through each call.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// Artifact name (manifest/trace file stem under `results/`).
    name: &'static str,
    /// Run the scaled-down parameter set.
    pub quick: bool,
    /// Also emit CSV.
    pub csv: bool,
    /// Worker threads for campaign execution (0 = all cores).
    pub workers: usize,
    /// Disable the result cache.
    pub no_cache: bool,
    /// Ignore existing cache entries (results are still stored back).
    pub cold: bool,
    /// Suppress the stderr progress stream.
    pub no_progress: bool,
    /// Structured JSONL trace output, from `--trace [path]` or
    /// `SUSS_TRACE=path`. An empty path means "trace to the default
    /// `results/<name>.trace.jsonl`"; [`BenchCli::open_trace`] resolves
    /// it.
    pub trace: Option<PathBuf>,
    /// Run as one shard of a split campaign (`--shard K/N`).
    pub shard: Option<(usize, usize)>,
}

impl BenchCli {
    /// Parse `std::env::args` for the binary publishing artifacts under
    /// `results/<name>.*`.
    pub fn parse(name: &'static str) -> Self {
        let mut o = BenchCli {
            name,
            quick: false,
            csv: false,
            workers: 0,
            no_cache: false,
            cold: false,
            no_progress: false,
            trace: None,
            shard: None,
        };
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => o.quick = true,
                "--csv" => o.csv = true,
                "--workers" => {
                    o.workers = match args.next().and_then(|v| v.parse().ok()) {
                        Some(w) => w,
                        None => {
                            eprintln!("--workers needs a number");
                            std::process::exit(2);
                        }
                    };
                }
                "--no-cache" => o.no_cache = true,
                "--cold" => o.cold = true,
                "--no-progress" => o.no_progress = true,
                "--shard" => {
                    let spec = args.next().unwrap_or_default();
                    o.shard = match parse_shard(&spec) {
                        Some(kn) => Some(kn),
                        None => {
                            eprintln!("--shard needs K/N with K < N, got {spec:?}");
                            std::process::exit(2);
                        }
                    }
                }
                "--trace" => {
                    // Optional operand: `--trace out.jsonl` or bare
                    // `--trace` for the binary's default path.
                    let explicit = args
                        .peek()
                        .is_some_and(|p| !p.starts_with('-'))
                        .then(|| args.next().unwrap());
                    o.trace = Some(explicit.map(PathBuf::from).unwrap_or_default());
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: {name} [--quick] [--csv] [--workers N] [--no-cache] \
                         [--cold] [--no-progress] [--trace [PATH]] \
                         [--shard K/N]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        if o.trace.is_none() {
            if let Ok(p) = std::env::var("SUSS_TRACE") {
                if !p.is_empty() {
                    o.trace = Some(PathBuf::from(p));
                }
            }
        }
        o
    }

    /// The binary's artifact name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The resolved JSONL trace path, if tracing was requested; a bare
    /// `--trace` defaults to `results/<name>.trace.jsonl`.
    fn trace_path(&self) -> Option<PathBuf> {
        let p = self.trace.as_ref()?;
        if p.as_os_str().is_empty() {
            Some(PathBuf::from("results").join(format!("{}.trace.jsonl", self.name)))
        } else {
            Some(p.clone())
        }
    }

    /// Open the JSONL trace sink for this run (creating parent
    /// directories), or `None` when tracing is off. The chosen path is
    /// announced on stderr. Call [`simtrace::EventSink::flush`] — or let
    /// the process exit via the sink's buffered writer being dropped at
    /// end of `main` — after exporting.
    pub fn open_trace(&self) -> Option<simtrace::JsonlSink<std::io::BufWriter<std::fs::File>>> {
        let path = self.trace_path()?;
        if let Some(parent) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                return None;
            }
        }
        match std::fs::File::create(&path) {
            Ok(f) => {
                eprintln!("trace: {}", path.display());
                Some(simtrace::JsonlSink::new(std::io::BufWriter::new(f)))
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Campaign execution options for this invocation: requested worker
    /// count, the shared cache under `results/cache/`, progress on
    /// stderr (human output goes to stdout, so redirects stay clean),
    /// flight-recorder dumps under `results/flightrec/` for cells that
    /// terminally panic or time out, the executor selected by `--shard`
    /// (the pool when it is not given), and `SUSS_*` environment
    /// overrides applied last
    /// (`SUSS_FLIGHTREC_DIR=` disables the recorder, `SUSS_PROF=1`
    /// enables per-cell span profiling). Exits with status 2 when the
    /// final options shard without a cache (`--no-cache` or
    /// `SUSS_NO_CACHE=1`): shards exchange results only through it.
    pub fn runner(&self) -> RunnerOpts {
        let mut r = RunnerOpts::default().with_workers(self.workers);
        if !self.no_cache {
            r.cache_dir = Some(PathBuf::from("results/cache"));
        }
        r.force_cold = self.cold;
        r.progress = !self.no_progress;
        r.flightrec_dir = Some(PathBuf::from("results/flightrec"));
        r.manifest_stem = Some(PathBuf::from("results").join(self.name));
        if let Some((index, total)) = self.shard {
            // A shard run exits inside the runner after writing its
            // shard manifest, before the binary renders anything.
            r.executor = ExecSpec::Shard { index, total };
        }
        let r = r.env_overrides();
        if let Err(e) = r.check_sharding() {
            eprintln!("{e}");
            std::process::exit(2);
        }
        r
    }

    /// `Err` when `--shard` was given: see [`emit`](Self::emit).
    fn check_no_shard(&self) -> Result<(), String> {
        match self.shard {
            Some((k, n)) => Err(format!(
                "{}: --shard {k}/{n} given, but this binary runs no campaign to shard",
                self.name
            )),
            None => Ok(()),
        }
    }

    /// Write a campaign manifest to `results/<name>.manifest.json`.
    pub fn write_manifest(&self, m: &RunManifest) {
        let path = PathBuf::from("results").join(format!("{}.manifest.json", self.name));
        match m.write(&path) {
            Ok(()) => eprintln!("manifest: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    /// Export one simulation run's flows and counters into the trace
    /// sink under `run` label, then flush. `flows` pairs each flow id
    /// with its outcome; all outcomes must come from the same simulation
    /// (they share one counter snapshot — the first one's is exported).
    pub fn export_run(
        sink: &mut dyn simtrace::EventSink,
        run: Option<&str>,
        flows: &[(u64, &experiments::FlowOutcome)],
    ) {
        let mut t_end = 0u64;
        for (id, out) in flows {
            out.trace.export(*id, run, sink);
            if let Some(s) = out.trace.samples.last() {
                t_end = t_end.max(s.t.as_nanos());
            }
            if let Some((t, _)) = out.trace.events.last() {
                t_end = t_end.max(t.as_nanos());
            }
        }
        if let Some((_, first)) = flows.first() {
            simtrace::export_counters(&first.counters, t_end, run, sink);
        }
        if let Err(e) = sink.flush() {
            eprintln!("trace flush failed: {e}");
        }
    }

    /// Print a table, and its CSV form if requested.
    ///
    /// A campaign binary under `--shard` exits inside the runner and
    /// never gets here, so reaching this with a shard set means the
    /// binary runs no campaign and the flag would be silently ignored:
    /// exit with status 2 instead, before anything is rendered.
    pub fn emit(&self, title: &str, table: &simstats::TextTable) {
        if let Err(e) = self.check_no_shard() {
            eprintln!("{e}");
            std::process::exit(2);
        }
        println!("== {title} ==");
        print!("{}", table.render());
        if self.csv {
            println!("--- csv ---");
            print!("{}", table.to_csv());
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(shard: Option<(usize, usize)>) -> BenchCli {
        BenchCli {
            name: "fig09",
            quick: true,
            csv: false,
            workers: 0,
            no_cache: true,
            cold: false,
            no_progress: true,
            trace: None,
            shard,
        }
    }

    #[test]
    fn campaign_free_bins_refuse_to_render_under_shard() {
        assert_eq!(cli(None).check_no_shard(), Ok(()));
        let err = cli(Some((0, 2))).check_no_shard().unwrap_err();
        assert!(err.contains("fig09: --shard 0/2"), "{err}");
    }
}
