//! Countermeasure deployment analysis (§V-B).
//!
//! The FLARE and FGKASLR point checks live in
//! [`crate::defense::point_checks`], the single defense-evaluation
//! site (invariant 12). This module holds the §V-B deployment
//! analysis:
//!
//! * **Masked-op replacement** (§V-B): executing `VMASKMOV` with an
//!   all-zero mask as a NOP would close the channel; the paper surveys
//!   a default Ubuntu install and finds only 6 of 4104 executables use
//!   the instruction at all. The byte-level scanner lives in `avx-hw`;
//!   the impact analysis here consumes its counts.

use core::fmt;

/// The §V-B deployment analysis of replacing all-zero-mask masked ops
/// with NOPs, fed by a binary survey (see `avx-hw`'s scanner).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaskedOpSurvey {
    /// Executables scanned.
    pub total: usize,
    /// Executables containing at least one masked load/store.
    pub containing: usize,
}

impl MaskedOpSurvey {
    /// The paper's Ubuntu 20.04.3 default-install numbers.
    #[must_use]
    pub const fn paper_reference() -> Self {
        Self {
            total: 4104,
            containing: 6,
        }
    }

    /// Fraction of binaries a NOP-replacement mitigation could affect.
    #[must_use]
    pub fn affected_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.containing as f64 / self.total as f64
        }
    }

    /// The paper's conclusion: the mitigation has "little impact on the
    /// system" — operationalized as < 1 % of binaries affected.
    #[must_use]
    pub fn low_impact(&self) -> bool {
        self.affected_fraction() < 0.01
    }
}

impl fmt::Display for MaskedOpSurvey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} executables contain masked ops ({:.3}%)",
            self.containing,
            self.total,
            self.affected_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survey_reference_numbers() {
        let s = MaskedOpSurvey::paper_reference();
        assert_eq!(s.total, 4104);
        assert_eq!(s.containing, 6);
        assert!(s.low_impact());
        assert!(s.to_string().contains("6 of 4104"));
    }

    #[test]
    fn survey_edge_cases() {
        let empty = MaskedOpSurvey {
            total: 0,
            containing: 0,
        };
        assert_eq!(empty.affected_fraction(), 0.0);
        let heavy = MaskedOpSurvey {
            total: 100,
            containing: 50,
        };
        assert!(!heavy.low_impact());
    }
}
