//! The quick, cacheless manifest fingerprints of the six campaigns whose
//! cells run through the shared single-flow runner but still tabulate the
//! sender-side FCT. A change that moves any of their results, on purpose
//! or not, fails here; the campaign-version bump that switches them to the
//! receiver's FCT must re-pin these on purpose.

use std::process::Command;

/// `(binary, fingerprint of results/<binary>.manifest.json)` after
/// `<binary> --quick --no-cache`.
const PINS: [(&str, &str, &str); 6] = [
    (
        "ext_chaos",
        env!("CARGO_BIN_EXE_ext_chaos"),
        "9349dab0a81f0e27",
    ),
    (
        "ext_codel",
        env!("CARGO_BIN_EXE_ext_codel"),
        "b4afa129edcd7ccb",
    ),
    (
        "ext_cross_traffic",
        env!("CARGO_BIN_EXE_ext_cross_traffic"),
        "08bee84a49afe06c",
    ),
    (
        "ext_parking_lot",
        env!("CARGO_BIN_EXE_ext_parking_lot"),
        "7f9643bbc200d625",
    ),
    (
        "ablation_btlbw",
        env!("CARGO_BIN_EXE_ablation_btlbw"),
        "a3e1a71ae7fd2472",
    ),
    (
        "ablation_burst",
        env!("CARGO_BIN_EXE_ablation_burst"),
        "2ed2d071d3a7f92a",
    ),
];

#[test]
fn quick_sender_fct_campaigns_keep_their_fingerprints() {
    let dir = std::env::temp_dir().join(format!("suss-campaign-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, exe, want) in PINS {
        let mut cmd = Command::new(exe);
        cmd.args(["--quick", "--no-cache", "--no-progress", "--workers", "2"])
            .current_dir(&dir);
        // No injected chaos cells, flight recorder or other overrides.
        for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("SUSS_")) {
            cmd.env_remove(key);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let manifest =
            std::fs::read_to_string(dir.join("results").join(format!("{name}.manifest.json")))
                .unwrap();
        let got = manifest
            .split("\"fingerprint\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("");
        assert_eq!(got, want, "{name}: quick fingerprint moved");
    }
    std::fs::remove_dir_all(&dir).ok();
}
