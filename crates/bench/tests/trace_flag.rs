//! `--trace` is accepted only by the binaries that export a trace: one
//! that exports nothing exits 2 without creating the file, and fig09
//! writes JSONL that `suss-trace`'s parser reads back with its samples.

use std::process::Command;

/// Run `exe` with `args` in a fresh directory, with no `SUSS_*` overrides.
fn run_in(dir: &std::path::Path, exe: &str, args: &[&str]) -> std::process::Output {
    std::fs::create_dir_all(dir).unwrap();
    let mut cmd = Command::new(exe);
    cmd.args(args).current_dir(dir);
    for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("SUSS_")) {
        cmd.env_remove(key);
    }
    cmd.output().unwrap()
}

#[test]
fn binaries_without_a_trace_refuse_the_flag() {
    let dir = std::env::temp_dir().join(format!("suss-trace-refuse-{}", std::process::id()));
    let trace = dir.join("fig17.jsonl");
    let out = run_in(
        &dir,
        env!("CARGO_BIN_EXE_fig17"),
        &[
            "--quick",
            "--no-cache",
            "--no-progress",
            "--trace",
            trace.to_str().unwrap(),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("fig02") && stderr.contains("fig09"),
        "{stderr}"
    );
    assert!(!trace.exists(), "a refused --trace must write nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig09_writes_a_trace_the_query_parser_reads() {
    let dir = std::env::temp_dir().join(format!("suss-trace-fig09-{}", std::process::id()));
    let trace = dir.join("out").join("fig09.jsonl");
    let out = run_in(
        &dir,
        env!("CARGO_BIN_EXE_fig09"),
        &["--quick", "--trace", trace.to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let records = simtrace::query::parse_jsonl(&text).expect("trace must parse");
    assert!(
        records.iter().any(|r| r.kind == simtrace::kind::SAMPLE),
        "no sample record in {} records",
        records.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
