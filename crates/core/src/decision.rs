//! Confirmation decision policies for needle-in-haystack scans.
//!
//! Every §IV scan ends with a *detection rule* that turns a sweep's
//! per-candidate verdicts into one answer: the KPTI trampoline hunt
//! takes the first mapped slot of 512, the Windows region scan takes
//! the first ≥5-slot mapped run of 262144, the user-space window search
//! takes the first non-unmapped page. Those first-wins rules make a
//! single misclassification fatal — one false positive anywhere before
//! the needle selects the wrong slot, one false negative inside the
//! true run misses it entirely — so their accuracy ceiling is the
//! detection rule, not the measurements (the KPTI hunt pins at ~60 %
//! under stationary laptop noise with a *perfect* calibration).
//!
//! NetSpectre's answer, adopted here, is a confirmation protocol: never
//! trust a single classification, re-test candidates until the evidence
//! is decisive. This module is the one place that protocol lives; the
//! attacks opt in by carrying a [`ConfirmConfig`] and stay bit-exact
//! with the historical first-wins rules when it is `None` (the
//! default). Three composable policies:
//!
//! * **Run-length confirmation** — a candidate must classify mapped on
//!   [`ConfirmConfig::revisits`] *consecutive* re-visits before it is
//!   accepted ([`SlotSprt`] tracks the streak).
//! * **Escalated re-test** — re-visits probe with a
//!   [`ConfirmConfig::escalation`]-multiplied budget
//!   ([`Confirmer::new`] widens the adaptive SPRT budget, or the fixed
//!   min-filter width, of the attack it wraps), the single-candidate
//!   analogue of the `max_probes = 16` laptop lever.
//! * **Sequential test over slots** — re-visit verdicts feed a
//!   [`crate::stats::SequentialLlr`] at the *slot* level, mirroring the
//!   per-sample SPRT one layer up: evidence accumulates that *this*
//!   slot is the needle rather than a background false positive, and
//!   the test rejects or confirms as soon as the boundary is crossed.
//!
//! [`RunTracker`] extends the same idea to run-shaped needles (the
//! Windows kernel image): a slot that would break a promising run is
//! re-probed before the run is reset, and a confirmed gap of up to
//! [`ConfirmConfig::gap_tolerance`] slots is tolerated.
//!
//! Confirmation composes with the closed-loop recalibration layer
//! ([`crate::recal`]): a re-test after a drift re-fit is the natural
//! escalation path. The [`Confirmer`]'s own re-visits always run
//! open-loop (single-address sweeps carry no window for the drift
//! monitor), so the driver keeps sole ownership of the refit loop.
//!
//! # Example: two concordant re-visits confirm, two discordant reject
//!
//! ```
//! use avx_channel::decision::{ConfirmConfig, SlotSprt};
//!
//! let mut sprt = SlotSprt::new(ConfirmConfig::default());
//! assert_eq!(sprt.push(true), None, "one re-visit never decides");
//! assert_eq!(sprt.push(true), Some(true), "two concordant re-visits do");
//!
//! let mut sprt = SlotSprt::new(ConfirmConfig::default());
//! sprt.push(false);
//! assert_eq!(sprt.push(false), Some(false), "…and symmetrically reject");
//! ```

use avx_mmu::VirtAddr;

use crate::primitives::{PageTableAttack, TileScratch};
use crate::prober::{ProbeStrategy, Prober};
use crate::stats::{SeqDecision, SequentialLlr};

/// Knobs of the confirmation protocol.
///
/// The defaults are tuned so that on a quiet host a true needle
/// confirms in exactly [`ConfirmConfig::revisits`] re-visits while an
/// isolated false positive is rejected just as fast — confirmation is
/// cheap where it is not needed and decisive where it is.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ConfirmConfig {
    /// Consecutive mapped re-visits a candidate needs before it is
    /// accepted (the run-length confirmation policy, K).
    pub revisits: u32,
    /// Probe-budget multiplier of the escalated re-test: re-visits
    /// spend this many times the wrapped attack's per-address budget.
    pub escalation: u32,
    /// Hard cap on re-visits per candidate; exhausting it forces the
    /// verdict from the accumulated slot-level evidence.
    pub max_revisits: u32,
    /// Target error rate ε of the slot-level sequential test
    /// (boundaries at `±ln((1−ε)/ε)`). The default makes
    /// [`ConfirmConfig::revisits`] concordant re-visits decisive.
    pub error_rate: f64,
    /// Backstop on candidates confirmed per scan — a scan whose sweep
    /// misclassified half the haystack must not re-test all of it.
    pub max_candidates: u32,
    /// Confirmed-gap slots a [`RunTracker`] tolerates inside a
    /// promising run (after the breaking slot re-tested unmapped).
    pub gap_tolerance: u64,
}

impl Default for ConfirmConfig {
    fn default() -> Self {
        Self {
            revisits: 2,
            escalation: 2,
            max_revisits: 6,
            error_rate: 0.05,
            max_candidates: 32,
            gap_tolerance: 1,
        }
    }
}

/// σ of the slot-level verdict model. Re-visit verdicts are pushed as
/// 0 (mapped) / 1 (unmapped) cycles against hypotheses at those means;
/// the sample-level [`SequentialLlr`] σ floor (0.5) makes each verdict
/// worth one clamped increment, so the boundary arithmetic reduces to
/// counting concordant re-visits.
const SLOT_SIGMA: f64 = 0.5;

/// Slot-level sequential test over re-visit verdicts: the run-length
/// confirmation and the sequential-test-over-slots policies in one
/// accumulator (the escalated re-test is the [`Confirmer`]'s job).
#[derive(Clone, Copy, Debug)]
pub struct SlotSprt {
    llr: SequentialLlr,
    consecutive: u32,
    visits: u32,
    config: ConfirmConfig,
}

impl SlotSprt {
    /// Fresh accumulator for one candidate slot.
    #[must_use]
    pub fn new(config: ConfirmConfig) -> Self {
        Self {
            llr: SequentialLlr::new(0.0, 1.0, SLOT_SIGMA, config.error_rate),
            consecutive: 0,
            visits: 0,
            config,
        }
    }

    /// Feeds one re-visit verdict; returns `Some(confirmed)` once the
    /// test has decided, `None` while more re-visits are needed.
    ///
    /// A candidate confirms when the slot LLR crosses the mapped
    /// boundary *and* the last [`ConfirmConfig::revisits`] verdicts
    /// were consecutively mapped; it is rejected when the LLR crosses
    /// the unmapped boundary. At [`ConfirmConfig::max_revisits`] the
    /// verdict is forced from the evidence sign, like the sample-level
    /// SPRT at budget exhaustion.
    pub fn push(&mut self, mapped: bool) -> Option<bool> {
        self.visits += 1;
        let d = self.llr.push(u64::from(!mapped));
        self.consecutive = if mapped { self.consecutive + 1 } else { 0 };
        match d {
            SeqDecision::Mapped if self.consecutive >= self.config.revisits => Some(true),
            SeqDecision::Unmapped => Some(false),
            _ if self.visits >= self.config.max_revisits.max(1) => {
                Some(self.llr.forced() == SeqDecision::Mapped)
            }
            _ => None,
        }
    }

    /// Re-visits consumed so far.
    #[must_use]
    pub fn visits(&self) -> u32 {
        self.visits
    }

    /// Accumulated slot-level log-likelihood ratio (positive favors
    /// "background false positive").
    #[must_use]
    pub fn llr(&self) -> f64 {
        self.llr.llr()
    }
}

/// Outcome of confirming one candidate slot.
#[derive(Clone, Copy, Debug)]
pub struct Confirmation {
    /// `true` when the candidate survived the confirmation protocol.
    pub confirmed: bool,
    /// Re-visits spent.
    pub visits: u32,
    /// Raw probes the re-visits issued.
    pub probes: u64,
}

/// Outcome of [`Confirmer::first_confirmed`] over an ordered candidate
/// stream.
#[derive(Clone, Copy, Debug)]
pub struct FirstConfirmed {
    /// The first candidate that confirmed, if any.
    pub slot: Option<u64>,
    /// Candidates tested (bounded by [`ConfirmConfig::max_candidates`]).
    pub tested: u32,
    /// Raw probes all re-visits issued.
    pub probes: u64,
}

/// The escalated re-tester: re-visits one candidate address through a
/// budget-multiplied copy of the attack that produced it and feeds the
/// verdicts to a [`SlotSprt`].
#[derive(Clone, Copy, Debug)]
pub struct Confirmer {
    attack: PageTableAttack,
    config: ConfirmConfig,
}

impl Confirmer {
    /// Builds the re-tester from the scan's own attack: same threshold,
    /// op and sampling engine, with the per-address budget multiplied
    /// by [`ConfirmConfig::escalation`]. On the adaptive path the SPRT
    /// `max_probes` budget is widened; on the fixed path the strategy
    /// becomes a min-filter of the escalated width (the min keeps the
    /// warm-up/tile semantics of the fixed pipeline; the slot-level
    /// consecutive requirement compensates its mapped-ward bias).
    /// Re-visits always run open-loop — the recalibration driver, when
    /// configured, keeps sole ownership of the refit loop.
    #[must_use]
    pub fn new(attack: &PageTableAttack, config: ConfirmConfig) -> Self {
        let mut escalated = *attack;
        escalated.recal = None;
        let factor = config.escalation.max(1);
        match escalated.sampler {
            Some(sampler) => {
                let mut adaptive = sampler.config;
                adaptive.max_probes = adaptive.max_probes.saturating_mul(factor).max(1);
                escalated.sampler = Some(sampler.with_config(adaptive));
            }
            None => {
                let samples = match escalated.strategy {
                    ProbeStrategy::Single | ProbeStrategy::SecondOfTwo => 1u32,
                    ProbeStrategy::MinOf(n) => u32::from(n.max(1)),
                };
                let width = samples.saturating_mul(factor).clamp(1, 255) as u8;
                escalated.strategy = ProbeStrategy::MinOf(width);
            }
        }
        Self {
            attack: escalated,
            config,
        }
    }

    /// Runs the confirmation protocol on one candidate: escalated
    /// re-visits until the slot-level test decides.
    pub fn confirm_mapped<P: Prober + ?Sized>(&self, p: &mut P, addr: VirtAddr) -> Confirmation {
        self.confirm_mapped_in(p, addr, &mut TileScratch::default())
    }

    /// [`Confirmer::confirm_mapped`] on caller-kept tile buffers. Each
    /// re-visit is one open-loop sweep of the single address, which is
    /// one tile of the per-tile classifier, run on `scratch` without
    /// the sweep's result vectors.
    pub(crate) fn confirm_mapped_in<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        addr: VirtAddr,
        scratch: &mut TileScratch,
    ) -> Confirmation {
        debug_assert!(self.attack.recal.is_none(), "re-visits run open-loop");
        let mut sprt = SlotSprt::new(self.config);
        let mut probes = 0u64;
        loop {
            probes += self.attack.classify_tile(p, &[addr], scratch);
            if let Some(confirmed) = sprt.push(scratch.batch.mapped[0]) {
                return Confirmation {
                    confirmed,
                    visits: sprt.visits(),
                    probes,
                };
            }
        }
    }

    /// Confirms candidates in stream order and returns the first that
    /// survives — the replacement for every first-mapped-wins rule.
    /// Stops testing after [`ConfirmConfig::max_candidates`].
    pub fn first_confirmed<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        candidates: impl IntoIterator<Item = (u64, VirtAddr)>,
    ) -> FirstConfirmed {
        self.first_confirmed_in(p, candidates, &mut TileScratch::default())
    }

    /// [`Confirmer::first_confirmed`] on caller-kept tile buffers.
    pub(crate) fn first_confirmed_in<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        candidates: impl IntoIterator<Item = (u64, VirtAddr)>,
        scratch: &mut TileScratch,
    ) -> FirstConfirmed {
        let mut out = FirstConfirmed {
            slot: None,
            tested: 0,
            probes: 0,
        };
        for (slot, addr) in candidates {
            if out.tested >= self.config.max_candidates.max(1) {
                break;
            }
            out.tested += 1;
            let confirmation = self.confirm_mapped_in(p, addr, scratch);
            out.probes += confirmation.probes;
            if confirmation.confirmed {
                out.slot = Some(slot);
                break;
            }
        }
        out
    }
}

/// Gap-tolerant tracker for run-shaped needles (a mapped run of at
/// least `min_run` slots). Callers feed *confirmed* per-slot verdicts
/// in slot order — re-probing a breaking slot before feeding it is the
/// caller's job (via [`Confirmer::confirm_mapped`]) — and the tracker
/// keeps a promising run alive across up to
/// [`ConfirmConfig::gap_tolerance`] confirmed-unmapped gap slots.
/// State persists across streamed chunks, so runs straddling a chunk
/// seam are tracked identically to interior runs.
#[derive(Clone, Copy, Debug)]
pub struct RunTracker {
    min_run: u64,
    gap_tolerance: u64,
    run_start: Option<u64>,
    run_len: u64,
    gaps: u64,
}

impl RunTracker {
    /// Tracker for runs of at least `min_run` mapped slots, tolerating
    /// `gap_tolerance` confirmed gaps inside a promising run.
    #[must_use]
    pub fn new(min_run: u64, gap_tolerance: u64) -> Self {
        Self {
            min_run: min_run.max(1),
            gap_tolerance,
            run_start: None,
            run_len: 0,
            gaps: 0,
        }
    }

    /// `true` while a candidate run is open — the caller should
    /// re-probe a breaking slot before feeding its verdict.
    #[must_use]
    pub fn in_run(&self) -> bool {
        self.run_len > 0
    }

    /// Mapped slots of the currently open run.
    #[must_use]
    pub fn run_len(&self) -> u64 {
        self.run_len
    }

    /// Feeds one confirmed verdict; returns `Some(run_start)` the
    /// moment the open run reaches `min_run` mapped slots.
    pub fn observe(&mut self, slot: u64, mapped: bool) -> Option<u64> {
        if mapped {
            if self.run_start.is_none() {
                self.run_start = Some(slot);
                self.gaps = 0;
            }
            self.run_len += 1;
            if self.run_len >= self.min_run {
                return self.run_start;
            }
        } else if self.run_len > 0 && self.gaps < self.gap_tolerance {
            self.gaps += 1;
        } else {
            self.run_start = None;
            self.run_len = 0;
            self.gaps = 0;
        }
        None
    }
}

/// Start indices of every mapped run of at least `min_run` slots, in
/// order, plus — matching the historical trailing rule of the
/// kernel-base scan — a shorter run that touches the end of the
/// bitmap. The first entry is exactly what the legacy
/// first-mapped-run rule selects; confirmation iterates the rest when
/// the first anchor fails its re-test.
#[must_use]
pub fn run_anchors(mapped: &[bool], min_run: usize) -> Vec<usize> {
    let mut anchors = Vec::new();
    let mut run = 0usize;
    for (i, &m) in mapped.iter().enumerate() {
        if m {
            run += 1;
            if run == min_run.max(1) {
                anchors.push(i + 1 - run);
            }
        } else {
            run = 0;
        }
    }
    if run >= 1 && run < min_run.max(1) {
        anchors.push(mapped.len() - run);
    }
    anchors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{AdaptiveConfig, AdaptiveSampler};
    use crate::calibrate::Threshold;
    use crate::prober::SimProber;
    use avx_os::linux::{LinuxConfig, LinuxSystem};
    use avx_uarch::{CpuProfile, NoiseModel};

    fn config() -> ConfirmConfig {
        ConfirmConfig::default()
    }

    #[test]
    fn slot_sprt_confirms_on_k_consecutive_mapped() {
        let mut sprt = SlotSprt::new(config());
        assert_eq!(sprt.push(true), None);
        assert_eq!(sprt.push(true), Some(true));
        assert_eq!(sprt.visits(), 2);
    }

    #[test]
    fn slot_sprt_rejects_on_consecutive_unmapped() {
        let mut sprt = SlotSprt::new(config());
        assert_eq!(sprt.push(false), None);
        assert_eq!(sprt.push(false), Some(false));
    }

    #[test]
    fn slot_sprt_recovers_from_one_false_negative() {
        // A single unmapped re-visit on the true needle resets the
        // streak but does not reject: two later concordant mapped
        // verdicts still confirm.
        let mut sprt = SlotSprt::new(config());
        assert_eq!(sprt.push(true), None);
        assert_eq!(sprt.push(false), None, "streak broken, not rejected");
        assert_eq!(sprt.push(true), None);
        assert_eq!(sprt.push(true), Some(true));
    }

    #[test]
    fn slot_sprt_forces_at_the_revisit_budget() {
        let tight = ConfirmConfig {
            revisits: 4,
            max_revisits: 3,
            ..config()
        };
        let mut sprt = SlotSprt::new(tight);
        sprt.push(true);
        sprt.push(false);
        // Third visit exhausts the budget: evidence is balanced at one
        // mapped vs one unmapped, and the final mapped verdict tips the
        // forced sign toward mapped.
        assert_eq!(sprt.push(true), Some(true));
        assert_eq!(sprt.visits(), 3);
    }

    #[test]
    fn higher_confidence_demands_more_revisits() {
        let strict = ConfirmConfig {
            error_rate: 1e-4,
            revisits: 2,
            max_revisits: 16,
            ..config()
        };
        let mut sprt = SlotSprt::new(strict);
        let mut decided_at = 0;
        for visit in 1..=16 {
            if sprt.push(true).is_some() {
                decided_at = visit;
                break;
            }
        }
        assert!(
            decided_at > 2,
            "ε = 1e-4 must outlast the default two re-visits: {decided_at}"
        );
    }

    fn quiet_kpti(seed: u64) -> (SimProber, avx_os::LinuxTruth) {
        let sys = LinuxSystem::build(LinuxConfig {
            kpti: true,
            ..LinuxConfig::seeded(seed)
        });
        let (mut m, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        m.set_noise(NoiseModel::none());
        (SimProber::new(m), truth)
    }

    #[test]
    fn confirmer_escalates_the_adaptive_budget() {
        let th = Threshold::new(93.0, 7.0);
        let attack =
            PageTableAttack::new(th).with_adaptive(AdaptiveSampler::from_threshold(&th, 1.0));
        let confirmer = Confirmer::new(&attack, config());
        let escalated = confirmer.attack.sampler.expect("adaptive path kept");
        assert_eq!(
            escalated.config.max_probes,
            AdaptiveConfig::default().max_probes * 2
        );
    }

    #[test]
    fn confirmer_escalates_the_fixed_width_and_drops_recal() {
        let th = Threshold::new(93.0, 7.0);
        let attack =
            PageTableAttack::new(th).with_recalibration(crate::recal::RecalConfig::default());
        let confirmer = Confirmer::new(&attack, config());
        assert_eq!(
            confirmer.attack.strategy,
            ProbeStrategy::MinOf(2),
            "second-of-two: one kept sample, escalated ×2"
        );
        assert!(
            confirmer.attack.recal.is_none(),
            "re-visits run open-loop; the driver owns the refit loop"
        );
        let wide = PageTableAttack {
            strategy: ProbeStrategy::MinOf(3),
            ..attack
        };
        assert_eq!(
            Confirmer::new(&wide, config()).attack.strategy,
            ProbeStrategy::MinOf(6)
        );
    }

    #[test]
    fn confirmer_accepts_the_needle_and_rejects_background() {
        let (mut p, truth) = quiet_kpti(3);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let attack = PageTableAttack::new(th);
        let confirmer = Confirmer::new(&attack, config());
        let trampoline = truth.trampoline.expect("KPTI system");
        let hit = confirmer.confirm_mapped(&mut p, trampoline);
        assert!(hit.confirmed);
        assert_eq!(hit.visits, 2, "quiet host: K re-visits suffice");
        assert!(hit.probes > 0);
        let miss = confirmer.confirm_mapped(&mut p, truth.user.calibration.wrapping_add(0x1000));
        // Calibration page + 0x1000 is unmapped in this layout.
        assert!(!miss.confirmed);
    }

    #[test]
    fn first_confirmed_skips_false_positives_and_respects_the_cap() {
        let (mut p, truth) = quiet_kpti(5);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 8);
        let confirmer = Confirmer::new(&PageTableAttack::new(th), config());
        let trampoline = truth.trampoline.expect("KPTI system");
        let bogus = truth.user.calibration.wrapping_add(0x1000);
        let found =
            confirmer.first_confirmed(&mut p, [(7u64, bogus), (9u64, trampoline), (11u64, bogus)]);
        assert_eq!(found.slot, Some(9), "false positive rejected, needle kept");
        assert_eq!(found.tested, 2, "stream stops at the first confirmation");

        let capped = ConfirmConfig {
            max_candidates: 1,
            ..config()
        };
        let confirmer = Confirmer::new(&PageTableAttack::new(th), capped);
        let found = confirmer.first_confirmed(&mut p, [(7u64, bogus), (9u64, trampoline)]);
        assert_eq!(found.slot, None, "backstop stops the candidate stream");
        assert_eq!(found.tested, 1);
    }

    #[test]
    fn run_tracker_finds_runs_and_tolerates_one_confirmed_gap() {
        let mut tracker = RunTracker::new(5, 1);
        for slot in 0..4 {
            assert_eq!(tracker.observe(slot, true), None);
        }
        assert_eq!(tracker.observe(4, true), Some(0));

        // One confirmed gap inside the run survives; the second resets.
        let mut tracker = RunTracker::new(5, 1);
        for slot in 0..3 {
            tracker.observe(slot, true);
        }
        assert_eq!(tracker.observe(3, false), None);
        assert!(tracker.in_run(), "gap tolerated");
        assert_eq!(tracker.observe(4, true), None);
        assert_eq!(tracker.observe(5, true), Some(0), "run start unchanged");

        let mut tracker = RunTracker::new(3, 0);
        tracker.observe(0, true);
        tracker.observe(1, false);
        assert!(!tracker.in_run(), "zero tolerance resets immediately");
    }

    #[test]
    fn run_tracker_state_spans_chunk_seams() {
        // Feeding verdicts in two "chunks" is invisible to the tracker:
        // a run straddling the seam is found at its true start.
        let mut tracker = RunTracker::new(5, 1);
        let first_chunk = 1022..1024u64;
        let second_chunk = 1024..1027u64;
        for slot in first_chunk {
            assert_eq!(tracker.observe(slot, true), None);
        }
        let mut found = None;
        for slot in second_chunk {
            found = found.or(tracker.observe(slot, true));
        }
        assert_eq!(found, Some(1022));
    }

    #[test]
    fn run_anchors_matches_the_legacy_first_run_rule() {
        // First anchor == the historical first_mapped_run selection.
        assert_eq!(run_anchors(&[false, true, true, false], 2), vec![1]);
        assert_eq!(run_anchors(&[true, false, true, true], 2), vec![2]);
        assert_eq!(run_anchors(&[false, false], 2), Vec::<usize>::new());
        // Trailing single mapped slot still counts (kernel at the end).
        assert_eq!(run_anchors(&[false, false, true], 2), vec![2]);
        // All qualifying runs are surfaced, in order.
        assert_eq!(
            run_anchors(&[true, true, false, true, true, false, true], 2),
            vec![0, 3, 6]
        );
    }
}
