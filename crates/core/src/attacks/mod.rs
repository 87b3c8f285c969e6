//! End-to-end attacks (§IV of the paper).
//!
//! * [`kaslr`] — kernel-base derandomization on Intel (P2) and AMD (P3),
//! * [`modules`] — kernel-module detection and size-based identification,
//! * [`kpti`] — KASLR break through the KPTI trampoline,
//! * [`behavior`] — user-behaviour inference via module TLB states,
//! * [`userspace`] — fine-grained user ASLR break + library
//!   fingerprinting (works inside SGX),
//! * [`windows`] — Windows 10 KASLR/KVAS breaks,
//! * [`cloud`] — the EC2/GCE/Azure scenario drivers.

pub mod behavior;
pub mod campaign;
pub mod cloud;
pub mod kaslr;
pub mod kpti;
pub mod modules;
pub mod userspace;
pub mod windows;

use knobs::PageTableScan;

/// The attacker-knob slots of the scans built on
/// [`crate::PageTableAttack`], which
/// [`campaign::CampaignConfig::tune`] sets. Sealed: the trait is public
/// so `tune` can name it in its bound, but its module is private, so
/// only this crate's four scans implement it.
mod knobs {
    use crate::decision::ConfirmConfig;
    use crate::primitives::PageTableAttack;

    /// A scan with one [`PageTableAttack`] and one confirmation slot.
    pub trait PageTableScan {
        /// The scan's sweep primitive and its confirmation slot.
        fn knobs(&mut self) -> (&mut PageTableAttack, &mut Option<ConfirmConfig>);
    }
}

pub use behavior::{AppFingerprinter, BehaviourTrace, SpyConfig, TlbSpy};
pub use campaign::{
    table1, Campaign, CampaignConfig, CampaignRow, Scenario, TrialOutcome, TrialState,
};
pub use cloud::{run_scenario, CloudBreakReport};
pub use kaslr::{AmdKaslrScan, AmdKernelBaseFinder, KaslrScan, KernelBaseFinder};
pub use kpti::{KptiAttack, KptiConfidence, KptiScan};
pub use modules::{
    score as score_modules, DetectedModule, Identification, ModuleClassifier, ModuleScan,
    ModuleScanner, ModuleScore,
};
pub use userspace::{LibraryMatch, LibraryMatcher, RegionMap, UserRegion, UserSpaceScanner};
pub use windows::{kernel_base_from_shadow, WindowsKaslrAttack, WindowsKaslrScan};
