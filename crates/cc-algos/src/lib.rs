//! # cc-algos — congestion-control algorithms for the SUSS reproduction
//!
//! Every controller the paper's evaluation exercises, implemented against
//! the `tcp-sim` controller trait (which mirrors userspace QUIC stacks):
//!
//! * [`Cubic`] — RFC 9438 CUBIC with classic HyStart (the paper's
//!   "SUSS off" arm and the Linux/Windows/macOS default),
//! * [`CubicSuss`] — **the paper's contribution**: CUBIC with the SUSS
//!   slow-start accelerator from `suss-core`,
//! * [`Bbr`] / [`Bbr2`] — the model-based comparators (BBRv1 semantics and
//!   a loss-responsive v2-lite),
//! * [`qcc`] — a quinn-shaped `QuicController` trait plus an adapter
//!   proving SUSS ports to QUIC-native information.
//!
//! Constructors follow a common shape: `New(iw_bytes, mss)`.
//!
//! ## Choosing a controller by name
//!
//! The experiment harness selects controllers with [`make_controller`]:
//!
//! ```
//! use cc_algos::{make_controller, CcKind};
//! let cc = make_controller(CcKind::CubicSuss, 10 * 1448, 1448);
//! assert_eq!(cc.name(), "cubic+suss");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bbr;
pub mod bbr_suss;
pub mod cubic;
pub mod cubic_suss;
pub mod hystart;
pub mod qcc;

pub use bbr::{Bbr, Bbr2, BbrMode};
pub use bbr_suss::BbrSuss;
pub use cubic::{Cubic, CubicCore};
pub use cubic_suss::CubicSuss;
pub use hystart::HyStart;
pub use qcc::{make_quic_controller, QuicAdapter, QuicController, QuicRtt};

use suss_core::SussConfig;
use tcp_sim::cc::CongestionControl;

/// Controller selector for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcKind {
    /// CUBIC + classic HyStart ("SUSS off").
    Cubic,
    /// CUBIC + SUSS, paper configuration ("SUSS on").
    CubicSuss,
    /// CUBIC + SUSS with a custom lookahead depth (Appendix A).
    CubicSussKmax(u8),
    /// BBRv1.
    Bbr,
    /// BBRv2-lite.
    Bbr2,
    /// BBRv1 with SUSS-predicted STARTUP boosts (the paper's §7 future
    /// work, implemented as an extension).
    BbrSuss,
}

impl CcKind {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            CcKind::Cubic => "cubic".into(),
            CcKind::CubicSuss => "cubic+suss".into(),
            CcKind::CubicSussKmax(k) => format!("cubic+suss(k={k})"),
            CcKind::Bbr => "bbr".into(),
            CcKind::Bbr2 => "bbr2".into(),
            CcKind::BbrSuss => "bbr+suss".into(),
        }
    }
}

/// Construct a controller by kind.
pub fn make_controller(kind: CcKind, iw: u64, mss: u64) -> Box<dyn CongestionControl> {
    match kind {
        CcKind::Cubic => Box::new(Cubic::new(iw, mss)),
        CcKind::CubicSuss => Box::new(CubicSuss::new(iw, mss, SussConfig::default())),
        CcKind::CubicSussKmax(k) => Box::new(CubicSuss::new(
            iw,
            mss,
            SussConfig::default().with_k_max(u32::from(k)),
        )),
        CcKind::Bbr => Box::new(Bbr::new(iw, mss)),
        CcKind::Bbr2 => Box::new(Bbr2::new(iw, mss)),
        CcKind::BbrSuss => Box::new(BbrSuss::new(iw, mss, SussConfig::default())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_produces_each_kind() {
        let kinds = [
            (CcKind::Cubic, "cubic"),
            (CcKind::CubicSuss, "cubic+suss"),
            (CcKind::Bbr, "bbr"),
            (CcKind::Bbr2, "bbr2"),
            (CcKind::BbrSuss, "bbr+suss"),
        ];
        for (kind, name) in kinds {
            let cc = make_controller(kind, 14_480, 1_448);
            assert_eq!(cc.name(), name);
            assert_eq!(cc.cwnd(), 14_480);
        }
    }

    #[test]
    fn kmax_variant_constructs() {
        let cc = make_controller(CcKind::CubicSussKmax(3), 14_480, 1_448);
        assert_eq!(cc.name(), "cubic+suss");
        assert_eq!(CcKind::CubicSussKmax(3).label(), "cubic+suss(k=3)");
    }
}
