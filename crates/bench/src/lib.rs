//! # suss-bench — the benchmark harness
//!
//! One binary per table/figure of the paper (DESIGN.md §3 maps each id to
//! its experiment module).
//!
//! Every binary accepts `--quick` to run the scaled-down parameter set
//! (useful for smoke tests; the default is the full paper-scale run) and
//! `--csv` to emit machine-readable output after the human-readable
//! table. Experiments run as simrunner campaigns, so every binary also
//! accepts the parallel-execution flags (`--workers`, `--no-cache`,
//! `--cold`, `--no-progress`); a campaign runs on the worker pool, caches
//! results under `results/cache/`, and writes a run manifest to
//! `results/<name>.manifest.json`. The binaries in [`TRACING_BINS`] also
//! export a JSONL trace under `--trace [PATH]`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use simrunner::{RunManifest, RunnerOpts};
use std::path::PathBuf;

/// The binaries that export a JSONL trace: their runs keep per-flow
/// traces. Every other binary refuses `--trace` and ignores `SUSS_TRACE`.
pub const TRACING_BINS: [&str; 2] = ["fig02", "fig09"];

/// The shared command line of every figure/table/ablation binary.
///
/// Construct with [`BenchCli::parse`], passing the binary's artifact name
/// once; the manifest and trace paths
/// (`results/<name>.manifest.json`, `results/<name>.trace.jsonl`) derive
/// from the name, so binaries never thread it through each call.
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
    /// Structured JSONL trace output of a [`TRACING_BINS`] binary, from
    /// `--trace [path]` or `SUSS_TRACE=path`. An empty path means "trace
    /// to the default `results/<name>.trace.jsonl`";
    /// [`BenchCli::open_trace`] resolves it.
    pub trace: Option<PathBuf>,
}

impl BenchCli {
    /// Parse `std::env::args` for the binary publishing artifacts under
    /// `results/<name>.*`. A binary outside [`TRACING_BINS`] exits with
    /// status 2 on `--trace`, since it would write nothing.
    pub fn parse(name: &'static str) -> Self {
        let traces = TRACING_BINS.contains(&name);
        let mut o = BenchCli {
            name,
            quick: false,
            csv: false,
            workers: 0,
            no_cache: false,
            cold: false,
            no_progress: false,
            trace: None,
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
                "--trace" if !traces => {
                    eprintln!(
                        "{name} exports no trace; --trace works on {}",
                        TRACING_BINS.join(" and ")
                    );
                    std::process::exit(2);
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
                         [--cold] [--no-progress]{}",
                        if traces { " [--trace [PATH]]" } else { "" }
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        if traces && o.trace.is_none() {
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
    /// announced on stderr; [`experiments::export_trace`] fills and
    /// flushes the sink.
    pub fn open_trace(&self) -> Option<simtrace::JsonlSink<std::io::BufWriter<std::fs::File>>> {
        let path = self.trace_path()?;
        match simtrace::create_jsonl(&path) {
            Ok(sink) => {
                eprintln!("trace: {}", path.display());
                Some(sink)
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Campaign execution options for this invocation: requested worker
    /// count, the shared cache under `results/cache/` (none under
    /// `--no-cache`), progress on stderr (human output goes to stdout, so
    /// redirects stay clean), flight-recorder dumps under
    /// `results/flightrec/` for cells that terminally panic or time out,
    /// and the `SUSS_*` environment overrides applied last
    /// (`SUSS_CACHE_DIR` moves the cache, `SUSS_CELL_TIMEOUT_MS` sets the
    /// per-cell budget, `SUSS_PROF=1` enables per-cell span profiling).
    pub fn runner(&self) -> RunnerOpts {
        let mut r = RunnerOpts::default().with_workers(self.workers);
        if !self.no_cache {
            r.cache_dir = Some(PathBuf::from("results/cache"));
        }
        r.force_cold = self.cold;
        r.progress = !self.no_progress;
        r.flightrec_dir = Some(PathBuf::from("results/flightrec"));
        r.env_overrides()
    }

    /// Write a campaign manifest to `results/<name>.manifest.json`.
    pub fn write_manifest(&self, m: &RunManifest) {
        let path = PathBuf::from("results").join(format!("{}.manifest.json", self.name));
        match m.write(&path) {
            Ok(()) => eprintln!("manifest: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    /// Print a table, and its CSV form if requested.
    pub fn emit(&self, title: &str, table: &simstats::TextTable) {
        println!("== {title} ==");
        print!("{}", table.render());
        if self.csv {
            println!("--- csv ---");
            print!("{}", table.to_csv());
        }
        println!();
    }
}
