//! Pinned campaign fingerprints, the outside reference a run's outputs
//! are checked against.
//!
//! A campaign fingerprint hashes every cell's identity and result, so a
//! change that alters any simulated result changes it even when every
//! cell still succeeds. The matrix at seed 1 is the committed `fig17`
//! figure's campaign and the quic campaign at seed 1 the
//! `ext_quic_pacing` bin's. Every entry is what the programs' own entry
//! points produce (`loss::sweep_matrix`, `quic_pacing_table`, and
//! rerun's cold pass); regenerate the table with
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml \
//!     -- --ignored print_reference_fingerprints --nocapture
//! ```
//!
//! A seed with no entry is checked for repeatability only.

use crate::workloads::Workload;

/// `(workload, seed base, campaign fingerprint)`.
pub const PINNED: &[(Workload, u64, &str)] = &[
    // The `fig17` bin's full loss matrix.
    (Workload::Matrix, 1, "3ff860225ee916b9"),
];

/// The pinned fingerprint of `w` at seed base `seed`, if any.
pub fn pinned(w: Workload, seed: u64) -> Option<&'static str> {
    PINNED
        .iter()
        .find(|(pw, ps, _)| *pw == w && *ps == seed)
        .map(|(_, _, fp)| *fp)
}

/// A check failure when `fingerprint` differs from the pinned one;
/// `None` when it matches or none is pinned.
pub fn mismatch(w: Workload, seed: u64, fingerprint: &str) -> Option<String> {
    let want = pinned(w, seed)?;
    (fingerprint != want)
        .then(|| format!("seed {seed}: fingerprint {fingerprint} != pinned reference {want}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, runner_opts, Rerun, Scratch, QUIC_ITERS};
    use experiments::quic_pacing::QUIC_SIZES_FULL;
    use std::path::Path;
    use workload::PathScenario;

    #[test]
    fn pinned_entries_are_unique() {
        for (i, a) in PINNED.iter().enumerate() {
            for b in &PINNED[i + 1..] {
                assert!((a.0, a.1) != (b.0, b.1), "{:?} seed {} pinned twice", a.0, a.1);
            }
        }
    }

    /// Prints the `PINNED` table from the programs' own entry points.
    #[test]
    #[ignore = "prints the pinned table; takes minutes"]
    fn print_reference_fingerprints() {
        let scratch = Scratch::new(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp"),
            "reference",
        )
        .unwrap();
        for seed in 1..=10 {
            let opts = runner_opts(&scratch.fresh("matrix"));
            let p = workloads::matrix_params(seed);
            let run = experiments::loss::sweep_matrix(&PathScenario::matrix(), &p, &opts);
            println!("    (Workload::Matrix, {seed}, {:?}),", run.manifest.fingerprint);
        }
        for seed in 1..=10 {
            let opts = runner_opts(&scratch.fresh("quic"));
            let run = experiments::quic_pacing_table(QUIC_ITERS, &QUIC_SIZES_FULL, seed, &opts);
            let fp = run.manifest.compute_fingerprint();
            println!("    (Workload::Quic, {seed}, {fp:?}),");
        }
        for seed in 1..=10 {
            let cold = Rerun::new(seed).cold(&runner_opts(&scratch.fresh("rerun")));
            println!("    (Workload::Rerun, {seed}, {:?}),", cold.fingerprint);
        }
    }
}
