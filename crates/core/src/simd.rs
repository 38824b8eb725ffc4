//! Runtime SIMD tier detection for the lock-step kernels.
//!
//! The lock-step row kernels ([`dc_multi`](crate::dc_multi)) dispatch
//! per call between a portable auto-vectorized loop and an explicit
//! AVX2 path (four `u64` lanes per 256-bit vector). This module names
//! the tier that dispatch picks on the running host so callers — the
//! CLI's `map.simd_level` gauge and the bench artifacts' `simd_level`
//! field — report the same figure, making bench trajectories
//! comparable across hosts.
//!
//! The explicit paths are compiled behind the `lockstep-avx2` feature
//! (default on); a `--no-default-features` build reports
//! [`SimdLevel::Portable`] regardless of the CPU, matching what the
//! kernels actually execute.

/// The SIMD tier the lock-step row kernels dispatch to on this host.
///
/// Ordered: a higher tier implies every capability of the lower ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// No explicit SIMD path: the portable lane loop (auto-vectorized
    /// to whatever the default target guarantees, SSE2 on x86-64).
    Portable,
    /// Explicit AVX2: 4 lanes per vector op.
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name, used verbatim in metrics and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Numeric rank for gauges (0 = portable, 1 = avx2).
    pub fn rank(self) -> u64 {
        match self {
            SimdLevel::Portable => 0,
            SimdLevel::Avx2 => 1,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tier the lock-step row kernels dispatch to on this host: the
/// explicit path when it is both compiled in (`lockstep-avx2` feature)
/// and supported by the running CPU.
pub fn simd_level() -> SimdLevel {
    #[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Portable
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_ordered_and_named() {
        assert!(SimdLevel::Portable < SimdLevel::Avx2);
        assert_eq!(SimdLevel::Portable.rank(), 0);
        assert_eq!(SimdLevel::Avx2.rank(), 1);
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(format!("{}", SimdLevel::Portable), "portable");
    }

    #[test]
    fn detected_level_is_consistent_with_the_feature_gate() {
        let level = simd_level();
        #[cfg(not(all(feature = "lockstep-avx2", target_arch = "x86_64")))]
        assert_eq!(level, SimdLevel::Portable);
        // Whatever the tier, the derived figures must agree with it.
        assert_eq!(level.rank() == 0, level == SimdLevel::Portable);
    }
}
