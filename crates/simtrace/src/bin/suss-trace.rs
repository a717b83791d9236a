//! `suss-trace` — query JSONL traces produced by the experiment bins.
//!
//! ```text
//! suss-trace dump <trace.jsonl> --flow N [--run LABEL] [--csv]
//! suss-trace events <trace.jsonl> [--flow N] [--from SECS] [--to SECS]
//! suss-trace counters <trace.jsonl> [--run LABEL]
//! suss-trace diff <a.jsonl> <b.jsonl>
//! suss-trace verify <trace.jsonl>
//! suss-trace profile <manifest.json> [--collapse] [--min-coverage PCT]
//! suss-trace cache-stats [--dir results/cache]
//! ```
//!
//! `dump` prints a flow's per-ACK records (`--csv` for a
//! `t_ns,cwnd,...` timeseries); `events` lists non-sample events in a
//! time window; `counters` totals the embedded counter records; `diff`
//! compares counter totals between two traces; `verify` exits non-zero
//! unless the file parses and at least one counter is non-zero (the CI
//! smoke check); `profile` renders the span profile embedded in a run
//! manifest (`--collapse` emits collapsed-stack lines for flamegraph
//! tools, `--min-coverage` turns the named-span coverage into a CI
//! gate); `cache-stats` reports the size of the simrunner result cache
//! and the age span of its files. An entry's mtime is when it was
//! written (loads never touch it), so "age" is age since the write.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simtrace::{query, TraceRecord};

fn usage() -> ExitCode {
    eprintln!(
        "usage: suss-trace dump <trace.jsonl> --flow N [--run LABEL] [--csv]\n\
         \x20      suss-trace events <trace.jsonl> [--flow N] [--from SECS] [--to SECS]\n\
         \x20      suss-trace counters <trace.jsonl> [--run LABEL]\n\
         \x20      suss-trace diff <a.jsonl> <b.jsonl>\n\
         \x20      suss-trace verify <trace.jsonl>\n\
         \x20      suss-trace profile <manifest.json> [--collapse] [--min-coverage PCT]\n\
         \x20      suss-trace cache-stats [--dir results/cache]"
    );
    ExitCode::from(2)
}

struct Opts {
    files: Vec<PathBuf>,
    flow: Option<u64>,
    run: Option<String>,
    csv: bool,
    from_secs: f64,
    to_secs: f64,
    dir: PathBuf,
    collapse: bool,
    min_coverage: Option<f64>,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut o = Opts {
        files: Vec::new(),
        flow: None,
        run: None,
        csv: false,
        from_secs: 0.0,
        to_secs: f64::INFINITY,
        dir: PathBuf::from("results/cache"),
        collapse: false,
        min_coverage: None,
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| args.get(i + 1);
        match args[i].as_str() {
            "--flow" => {
                o.flow = Some(need(i)?.parse().ok()?);
                i += 1;
            }
            "--run" => {
                o.run = Some(need(i)?.clone());
                i += 1;
            }
            "--csv" => o.csv = true,
            "--from" => {
                o.from_secs = need(i)?.parse().ok()?;
                i += 1;
            }
            "--to" => {
                o.to_secs = need(i)?.parse().ok()?;
                i += 1;
            }
            "--dir" => {
                o.dir = PathBuf::from(need(i)?);
                i += 1;
            }
            "--collapse" => o.collapse = true,
            "--min-coverage" => {
                o.min_coverage = Some(need(i)?.parse().ok()?);
                i += 1;
            }
            a if a.starts_with("--") => return None,
            a => o.files.push(PathBuf::from(a)),
        }
        i += 1;
    }
    Some(o)
}

fn load(path: &Path) -> Result<Vec<TraceRecord>, ExitCode> {
    query::read_jsonl(path).map_err(|e| {
        eprintln!("suss-trace: {e}");
        ExitCode::FAILURE
    })
}

/// Pick the run label to dump when the file is multi-run and the user
/// gave none: the first label in the file, announced on stderr so the
/// choice is visible.
fn default_run(records: &[TraceRecord], requested: Option<&str>) -> Option<String> {
    if let Some(r) = requested {
        return Some(r.to_string());
    }
    let runs = query::runs(records);
    if runs.len() > 1 {
        eprintln!(
            "suss-trace: {} runs in file ({}); defaulting to {:?} (use --run)",
            runs.len(),
            runs.join(", "),
            runs[0]
        );
    }
    runs.first().cloned()
}

fn cmd_dump(o: &Opts) -> ExitCode {
    let [file] = o.files.as_slice() else {
        return usage();
    };
    let Some(flow) = o.flow else {
        return usage();
    };
    let records = match load(file) {
        Ok(r) => r,
        Err(c) => return c,
    };
    let run = default_run(&records, o.run.as_deref());
    let picked = query::samples(&records, flow, run.as_deref());
    if picked.is_empty() {
        eprintln!(
            "suss-trace: no samples for flow {flow} (flows present: {:?})",
            query::flows(&records)
        );
        return ExitCode::FAILURE;
    }
    // Streaming output: a closed pipe (`| head`) is a normal early exit,
    // not an error.
    let mut out = std::io::stdout().lock();
    if o.csv {
        let _ = out.write_all(query::samples_csv(&records, flow, run.as_deref()).as_bytes());
    } else {
        for rec in picked {
            if writeln!(out, "{}", serde::to_string(rec)).is_err() {
                break;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_events(o: &Opts) -> ExitCode {
    let [file] = o.files.as_slice() else {
        return usage();
    };
    let records = match load(file) {
        Ok(r) => r,
        Err(c) => return c,
    };
    let from_ns = (o.from_secs * 1e9) as u64;
    let to_ns = if o.to_secs.is_finite() {
        (o.to_secs * 1e9) as u64
    } else {
        u64::MAX
    };
    let mut out = std::io::stdout().lock();
    for rec in query::events_in_window(&records, from_ns, to_ns, o.flow) {
        let flow = rec.flow.map(|f| format!("flow {f}")).unwrap_or_default();
        let extra = match (rec.cwnd, rec.value) {
            (Some(c), _) => format!("  cwnd={c}"),
            (_, Some(v)) => format!("  value={v}"),
            _ => String::new(),
        };
        let line = format!(
            "{:>12.6}s  {:<16} {}{}",
            rec.t_secs(),
            rec.kind,
            flow,
            extra
        );
        if writeln!(out, "{line}").is_err() {
            break;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_counters(o: &Opts) -> ExitCode {
    let [file] = o.files.as_slice() else {
        return usage();
    };
    let records = match load(file) {
        Ok(r) => r,
        Err(c) => return c,
    };
    let snap = query::counters(&records, o.run.as_deref());
    if snap.is_empty() {
        eprintln!("suss-trace: no counter records in {}", file.display());
        return ExitCode::FAILURE;
    }
    for m in &snap.metrics {
        let tag = if m.gauge { " (hwm)" } else { "" };
        println!("{:<28} {:>12}{}", m.name, m.value, tag);
    }
    ExitCode::SUCCESS
}

fn cmd_diff(o: &Opts) -> ExitCode {
    let [a, b] = o.files.as_slice() else {
        return usage();
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(c), _) | (_, Err(c)) => return c,
    };
    let sa = query::counters(&ra, None);
    let sb = query::counters(&rb, None);
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "metric",
        a.file_name().and_then(|s| s.to_str()).unwrap_or("a"),
        b.file_name().and_then(|s| s.to_str()).unwrap_or("b"),
        "delta"
    );
    for (name, delta) in sa.diff(&sb) {
        println!(
            "{:<28} {:>12} {:>12} {:>+12}",
            name,
            sa.get(&name).unwrap_or(0),
            sb.get(&name).unwrap_or(0),
            delta
        );
    }
    ExitCode::SUCCESS
}

fn cmd_verify(o: &Opts) -> ExitCode {
    let [file] = o.files.as_slice() else {
        return usage();
    };
    let records = match load(file) {
        Ok(r) => r,
        Err(c) => return c,
    };
    if records.is_empty() {
        eprintln!("suss-trace: {} is empty", file.display());
        return ExitCode::FAILURE;
    }
    let snap = query::counters(&records, None);
    if !snap.metrics.iter().any(|m| m.value > 0) {
        eprintln!(
            "suss-trace: {} has no non-zero counters ({} records)",
            file.display(),
            records.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "ok: {} records, {} metrics, {} flows",
        records.len(),
        snap.metrics.len(),
        query::flows(&records).len()
    );
    ExitCode::SUCCESS
}

fn cmd_profile(o: &Opts) -> ExitCode {
    let [file] = o.files.as_slice() else {
        return usage();
    };
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("suss-trace: {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(json) = serde::Json::parse(text.trim()) else {
        eprintln!("suss-trace: {} is not valid JSON", file.display());
        return ExitCode::FAILURE;
    };
    let snap: simtrace::ProfSnapshot = match json
        .as_obj()
        .and_then(|obj| serde::Json::field(obj, "prof"))
        .and_then(|prof| serde::from_str(&prof.render()))
    {
        Some(s) => s,
        None => {
            eprintln!(
                "suss-trace: {} has no span profile (is it a run manifest, \
                 and was the run profiled via SUSS_PROF=1?)",
                file.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if snap.is_empty() {
        eprintln!(
            "suss-trace: {} has an empty span profile (run with SUSS_PROF=1)",
            file.display()
        );
        return ExitCode::FAILURE;
    }
    let total = snap.total_ns().max(1);
    let mut out = std::io::stdout().lock();
    if o.collapse {
        // Collapsed-stack lines (`path<space>weight`), directly consumable
        // by flamegraph.pl / inferno; weight is self-time in microseconds.
        for s in &snap.spans {
            if writeln!(out, "{} {}", s.path, s.self_ns / 1_000).is_err() {
                break;
            }
        }
    } else {
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>7} {:>12}",
            "span path", "self ms", "%", "calls"
        );
        for s in &snap.spans {
            let _ = writeln!(
                out,
                "{:<44} {:>12.3} {:>6.1}% {:>12}",
                s.path,
                s.self_ns as f64 / 1e6,
                100.0 * s.self_ns as f64 / total as f64,
                s.calls
            );
        }
        let _ = writeln!(
            out,
            "coverage: {:.1}% of {:.1} ms attributed to named spans ({} paths)",
            snap.coverage_percent(),
            snap.total_ns() as f64 / 1e6,
            snap.spans.len()
        );
    }
    if let Some(min) = o.min_coverage {
        let cov = snap.coverage_percent();
        if cov < min {
            eprintln!("suss-trace: coverage {cov:.1}% below required {min:.1}%");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

struct CacheFile {
    len: u64,
    modified: std::time::SystemTime,
}

fn walk(dir: &Path, out: &mut Vec<CacheFile>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if let Ok(meta) = entry.metadata() {
            out.push(CacheFile {
                len: meta.len(),
                modified: meta.modified().unwrap_or(std::time::UNIX_EPOCH),
            });
        }
    }
}

fn cmd_cache_stats(o: &Opts) -> ExitCode {
    if !o.dir.exists() {
        println!("{}: no cache directory", o.dir.display());
        return ExitCode::SUCCESS;
    }
    let mut total = Vec::new();
    let mut by_exp: Vec<(String, u64, u64)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&o.dir) {
        let mut dirs: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            let mut files = Vec::new();
            walk(&d, &mut files);
            let bytes: u64 = files.iter().map(|f| f.len).sum();
            by_exp.push((
                d.file_name()
                    .and_then(|s| s.to_str())
                    .unwrap_or("?")
                    .to_string(),
                files.len() as u64,
                bytes,
            ));
            total.extend(files);
        }
    }
    // Files directly under the root (none in the current layout, but count them).
    let bytes: u64 = total.iter().map(|f| f.len).sum();
    println!(
        "cache {}: {} entries, {} bytes",
        o.dir.display(),
        total.len(),
        bytes
    );
    for (name, n, b) in &by_exp {
        println!("  {:<24} {:>6} entries {:>12} bytes", name, n, b);
    }
    if let (Some(oldest), Some(newest)) = (
        total.iter().map(|f| f.modified).min(),
        total.iter().map(|f| f.modified).max(),
    ) {
        if let Ok(span) = newest.duration_since(oldest) {
            println!("  oldest→newest span: {:.0} s", span.as_secs_f64());
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(opts) = parse_opts(rest) else {
        return usage();
    };
    match cmd.as_str() {
        "dump" => cmd_dump(&opts),
        "events" => cmd_events(&opts),
        "counters" => cmd_counters(&opts),
        "diff" => cmd_diff(&opts),
        "verify" => cmd_verify(&opts),
        "profile" => cmd_profile(&opts),
        "cache-stats" => cmd_cache_stats(&opts),
        _ => usage(),
    }
}
