//! Observables versioning: which *measurement protocol* a machine's
//! noise stream follows.
//!
//! The golden suites pin two different kinds of contract:
//!
//! * **v1** pins the *individual samples*: the per-probe Box–Muller
//!   noise stream is byte-for-byte reproducible, so every golden row
//!   recorded before the versioning existed stays bit-exact forever.
//!   This is the paper-reproduction regime and the default. Batched
//!   probes evaluate each tile's transcendentals together
//!   ([`crate::V1Tile`]) without moving any sample or measurement.
//! * **v2** pins only the *statistics*: the same Gaussian + spike
//!   distribution is produced by a table-driven ziggurat sampler
//!   filling per-tile noise blocks, amortizing RNG and transcendental
//!   cost across each probe batch. Accuracy rows under v2 were
//!   re-goldened once, deliberately, and are tagged `v2` alongside
//!   (never replacing) the v1 rows.
//!
//! NetSpectre applies the same discipline to its measurement protocol:
//! the distribution is the contract, not the sample stream. See the
//! "Observables versioning" section of `ARCHITECTURE.md` for the
//! invariants a future `v3` must satisfy.

use core::fmt;

/// The noise-observables regime a [`crate::Machine`] runs under.
///
/// ```
/// use avx_uarch::ObservablesVersion;
///
/// // v1 is the default and what every pre-existing golden row assumes.
/// assert_eq!(ObservablesVersion::default(), ObservablesVersion::V1);
/// assert_eq!(ObservablesVersion::parse("v2"), Some(ObservablesVersion::V2));
/// assert_eq!(ObservablesVersion::V2.name(), "v2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ObservablesVersion {
    /// Bit-exact per-sample Box–Muller stream (the original engine).
    #[default]
    V1,
    /// Batched ziggurat noise blocks: distribution-equivalent to v1,
    /// bit-identical only to itself.
    V2,
}

impl ObservablesVersion {
    /// Both regimes, oldest first.
    pub const ALL: [ObservablesVersion; 2] = [ObservablesVersion::V1, ObservablesVersion::V2];

    /// Stable identifier (also what [`ObservablesVersion::parse`]
    /// accepts, and the `CampaignRow::observables` label).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ObservablesVersion::V1 => "v1",
            ObservablesVersion::V2 => "v2",
        }
    }

    /// Parses a regime name (`v1` or `v2`, case-insensitive).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "v1" => Some(ObservablesVersion::V1),
            "v2" => Some(ObservablesVersion::V2),
            _ => None,
        }
    }
}

impl fmt::Display for ObservablesVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_is_the_default_regime() {
        assert_eq!(ObservablesVersion::default(), ObservablesVersion::V1);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for version in ObservablesVersion::ALL {
            assert_eq!(ObservablesVersion::parse(version.name()), Some(version));
            assert_eq!(version.to_string(), version.name());
        }
        assert_eq!(
            ObservablesVersion::parse(" V2 "),
            Some(ObservablesVersion::V2)
        );
        assert_eq!(ObservablesVersion::parse("v3"), None);
        assert_eq!(ObservablesVersion::parse(""), None);
    }
}
