//! A binary that runs no campaign refuses `--shard` as it parses its
//! command line: exit status 2, nothing on stdout, and its `--trace` file
//! never opened, because the figure is not computed at all.

use std::process::Command;

#[test]
fn campaign_free_bins_refuse_shard_before_any_work() {
    let dir = std::env::temp_dir().join(format!("suss-shard-refusal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bins = [
        ("fig01", env!("CARGO_BIN_EXE_fig01")),
        ("fig02", env!("CARGO_BIN_EXE_fig02")),
        ("fig09", env!("CARGO_BIN_EXE_fig09")),
        ("fig10", env!("CARGO_BIN_EXE_fig10")),
        ("fig13", env!("CARGO_BIN_EXE_fig13")),
        ("fig16", env!("CARGO_BIN_EXE_fig16")),
    ];
    for (name, exe) in bins {
        let trace = dir.join(format!("{name}.trace.jsonl"));
        let out = Command::new(exe)
            .args(["--no-cache", "--no-progress", "--shard", "0/2", "--trace"])
            .arg(&trace)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{name}: exit status");
        assert!(out.stdout.is_empty(), "{name}: rendered output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{name}: --shard 0/2")),
            "{name}: {err}"
        );
        assert!(!trace.exists(), "{name}: opened its trace file");
    }
    std::fs::remove_dir_all(&dir).ok();
}
