//! The probing abstraction.
//!
//! [`Prober`] is the single interface all attacks are written against:
//! "time one masked op at this address". Two implementations exist —
//! [`SimProber`] over the [`avx_uarch::Machine`] simulator (this crate)
//! and `HwProber` over real AVX2 hardware (the `avx-hw` crate). The
//! attacks cannot tell them apart, which is the point: the same code is
//! both the reproduction harness and the proof-of-concept.
//!
//! ```
//! use avx_channel::{ProbeStrategy, Prober, SimProber};
//! use avx_os::linux::{LinuxConfig, LinuxSystem};
//! use avx_uarch::{CpuProfile, NoiseModel, OpKind};
//!
//! let sys = LinuxSystem::build(LinuxConfig::seeded(1));
//! let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 1);
//! machine.set_noise(NoiseModel::none());
//! let mut p = SimProber::new(machine);
//!
//! // The paper's second-of-two schedule: warm-up probe, keep the second.
//! let cycles = ProbeStrategy::SecondOfTwo.measure(&mut p, OpKind::Load, truth.kernel_base);
//! assert_eq!(cycles, 93, "kernel-mapped masked load, TLB warm");
//! assert_eq!(p.probes_issued(), 2, "raw probes are accounted");
//! ```

use avx_mmu::VirtAddr;
use avx_os::ExecutionContext;
use avx_uarch::{Machine, NoiseModel, OpKind};

/// Cycle cost booked per software TLB-eviction round (the attacker's
/// eviction loop touches thousands of pages; this models its runtime
/// contribution, which dominates TLB-attack wall clock).
pub const EVICTION_COST_CYCLES: u64 = 2_000;

/// A timing-probe backend.
///
/// Implementations must guarantee that [`Prober::probe`] never raises an
/// architectural fault — that is property P1 of the paper and what makes
/// the attack safe to run in-process.
pub trait Prober {
    /// Times one all-zero-mask masked op at `addr`; returns cycles.
    fn probe(&mut self, kind: OpKind, addr: VirtAddr) -> u64;

    /// Times one masked op per address, returning cycles in input
    /// order.
    ///
    /// Semantically equivalent to calling [`Prober::probe`] once per
    /// address; backends amortize per-probe bookkeeping. Prefer
    /// [`Prober::probe_batch_into`] in loops — it reuses the caller's
    /// buffer instead of allocating a fresh `Vec` per call.
    fn probe_batch(&mut self, kind: OpKind, addrs: &[VirtAddr]) -> Vec<u64> {
        let mut out = Vec::with_capacity(addrs.len());
        self.probe_batch_into(kind, addrs, &mut out);
        out
    }

    /// Allocation-free batched probe: appends one measurement per
    /// address to `out` (existing contents are preserved).
    ///
    /// This is the hot entry point of every sweep-shaped attack
    /// (Fig. 4/5/7, the Windows region scan): the sweep engines thread
    /// one scratch buffer through all tiles, so the steady-state probe
    /// loop allocates nothing. The default implementation is the probe
    /// loop; [`SimProber`] forwards to
    /// [`avx_uarch::Machine::execute_batch_into`], and the hardware
    /// prober in `avx-hw` keeps the timed instructions in one tight
    /// loop.
    fn probe_batch_into(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<u64>) {
        out.reserve(addrs.len());
        for &addr in addrs {
            let cycles = self.probe(kind, addr);
            out.push(cycles);
        }
    }

    /// Evicts cached translation state for `addr` (TLB attack setup).
    fn evict(&mut self, addr: VirtAddr);

    /// Books non-probe overhead cycles (loop logic, record-keeping).
    fn spend(&mut self, cycles: u64);

    /// Raw probes issued so far — the budget metric of the adaptive
    /// engine and the "probes per address" column of campaign reports.
    fn probes_issued(&self) -> u64;

    /// Cycles spent inside the timed masked operations ("Probing" in
    /// Table I).
    fn probing_cycles(&self) -> u64;

    /// All cycles incl. overhead ("Total" in Table I).
    fn total_cycles(&self) -> u64;

    /// Clock frequency for cycle→seconds conversion.
    fn clock_ghz(&self) -> f64;

    /// Probing time in seconds.
    fn probing_seconds(&self) -> f64 {
        self.probing_cycles() as f64 / (self.clock_ghz() * 1e9)
    }

    /// Total time in seconds.
    fn total_seconds(&self) -> f64 {
        self.total_cycles() as f64 / (self.clock_ghz() * 1e9)
    }
}

/// How a single logical measurement is composed of raw probes.
///
/// The paper executes the masked op *twice* per candidate and keeps the
/// second measurement (§IV-B) — the first run warms the TLB so the
/// second cleanly separates mapped from unmapped. Spike-sensitive scans
/// (modules) use `MinOf`, which discards positive outliers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeStrategy {
    /// One probe, no warm-up.
    Single,
    /// Probe twice, keep the second (the paper's default).
    SecondOfTwo,
    /// Probe `n` times after one warm-up, keep the minimum.
    MinOf(u8),
}

impl ProbeStrategy {
    /// Addresses per batched-measurement tile.
    ///
    /// A tile's warm-up probes must still be cached when its measurement
    /// probes run. 16 sits comfortably inside the smallest translation
    /// structure involved (the 32-entry huge-page TLB of
    /// [`avx_mmu::TlbConfig`]'s default geometry) while long enough to
    /// amortize per-batch dispatch.
    pub const BATCH_TILE: usize = 16;

    /// Runs the strategy at `addr`.
    pub fn measure<P: Prober + ?Sized>(&self, p: &mut P, kind: OpKind, addr: VirtAddr) -> u64 {
        match *self {
            ProbeStrategy::Single => p.probe(kind, addr),
            ProbeStrategy::SecondOfTwo => {
                let _ = p.probe(kind, addr);
                p.probe(kind, addr)
            }
            ProbeStrategy::MinOf(n) => {
                let _ = p.probe(kind, addr);
                (0..n.max(1))
                    .map(|_| p.probe(kind, addr))
                    .min()
                    .expect("n >= 1")
            }
        }
    }

    /// Batched variant of [`ProbeStrategy::measure`]: one measurement
    /// per address, returned in input order.
    ///
    /// Addresses are processed in tiles of [`ProbeStrategy::BATCH_TILE`]
    /// so each tile's warm-up pass stays resident in the translation
    /// caches when its measurement pass runs — tile-local warm/measure
    /// interleaving is what keeps the batched sweep's steady-state
    /// readings identical to per-address measurement while letting the
    /// backend amortize per-probe overhead.
    pub fn measure_batch<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        kind: OpKind,
        addrs: &[VirtAddr],
    ) -> Vec<u64> {
        let mut out = Vec::with_capacity(addrs.len());
        let mut scratch = ProbeScratch::default();
        self.measure_batch_into(p, kind, addrs, &mut out, &mut scratch);
        out
    }

    /// Allocation-free variant of [`ProbeStrategy::measure_batch`]:
    /// appends one measurement per address to `out`, keeping every
    /// intermediate buffer (warm-up readings, min-filter rounds) in the
    /// caller-provided `scratch`. Identical tile decomposition and
    /// probe order to the allocating variant.
    pub fn measure_batch_into<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        kind: OpKind,
        addrs: &[VirtAddr],
        out: &mut Vec<u64>,
        scratch: &mut ProbeScratch,
    ) {
        out.reserve(addrs.len());
        for tile in addrs.chunks(Self::BATCH_TILE) {
            match *self {
                ProbeStrategy::Single => p.probe_batch_into(kind, tile, out),
                ProbeStrategy::SecondOfTwo => {
                    scratch.warm.clear();
                    p.probe_batch_into(kind, tile, &mut scratch.warm);
                    p.probe_batch_into(kind, tile, out);
                }
                ProbeStrategy::MinOf(n) => {
                    scratch.warm.clear();
                    p.probe_batch_into(kind, tile, &mut scratch.warm);
                    let start = out.len();
                    p.probe_batch_into(kind, tile, out);
                    for _ in 1..n.max(1) {
                        scratch.round.clear();
                        p.probe_batch_into(kind, tile, &mut scratch.round);
                        for (min, &cycles) in out[start..].iter_mut().zip(&scratch.round) {
                            *min = (*min).min(cycles);
                        }
                    }
                }
            }
        }
    }

    /// Raw probes issued per measurement.
    #[must_use]
    pub fn probes_per_measurement(&self) -> u32 {
        match *self {
            ProbeStrategy::Single => 1,
            ProbeStrategy::SecondOfTwo => 2,
            ProbeStrategy::MinOf(n) => 1 + u32::from(n.max(1)),
        }
    }
}

/// Reusable buffers for [`ProbeStrategy::measure_batch_into`]: the
/// discarded warm-up readings and the min-filter round samples. One
/// instance serves a whole sweep, so the steady-state measurement loop
/// performs no allocation.
#[derive(Clone, Debug, Default)]
pub struct ProbeScratch {
    /// Warm-up pass readings (discarded).
    pub warm: Vec<u64>,
    /// Per-round samples of the min filter.
    pub round: Vec<u64>,
}

/// Prober over the microarchitectural simulator.
#[derive(Debug)]
pub struct SimProber {
    machine: Machine,
    context: ExecutionContext,
    overhead: u64,
    probes: u64,
}

impl SimProber {
    /// Wraps a machine in the native (non-enclave) context.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        Self::with_context(machine, ExecutionContext::native())
    }

    /// Wraps a machine in an explicit execution context. Enclave
    /// contexts with degraded timers widen the noise accordingly.
    #[must_use]
    pub fn with_context(mut machine: Machine, context: ExecutionContext) -> Self {
        if context.timer_noise_factor != 1.0 {
            let t = machine.profile().timing;
            machine.set_noise(NoiseModel::new(
                t.noise_sigma * context.timer_noise_factor,
                t.spike_prob,
                t.spike_range,
            ));
        }
        Self {
            machine,
            context,
            overhead: 0,
            probes: 0,
        }
    }

    /// Back to the accounting `SimProber::new` starts with — native
    /// context, no probes or overhead booked — for a machine that was
    /// just reset under it ([`Machine::reset`]), whose noise is the
    /// profile's again.
    pub(crate) fn restart(&mut self) {
        self.context = ExecutionContext::native();
        self.overhead = 0;
        self.probes = 0;
    }

    /// The execution context the attack runs in.
    #[must_use]
    pub fn context(&self) -> ExecutionContext {
        self.context
    }

    /// Read access to the underlying machine.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access — used by experiment drivers that interleave
    /// kernel-side activity (Fig. 6) or defense behaviour with probing.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Unwraps the machine.
    #[must_use]
    pub fn into_machine(self) -> Machine {
        self.machine
    }
}

impl Prober for SimProber {
    fn probe(&mut self, kind: OpKind, addr: VirtAddr) -> u64 {
        self.overhead += self.machine.profile().probe_overhead as u64;
        self.probes += 1;
        self.machine.probe(kind, addr)
    }

    fn probe_batch_into(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<u64>) {
        self.overhead += self.machine.profile().probe_overhead as u64 * addrs.len() as u64;
        self.probes += addrs.len() as u64;
        self.machine.execute_batch_into(kind, addrs, out);
    }

    fn evict(&mut self, addr: VirtAddr) {
        self.machine.evict_translation(addr);
        self.overhead += EVICTION_COST_CYCLES;
    }

    fn spend(&mut self, cycles: u64) {
        self.overhead += cycles;
    }

    fn probes_issued(&self) -> u64 {
        self.probes
    }

    fn probing_cycles(&self) -> u64 {
        self.machine.elapsed_cycles()
    }

    fn total_cycles(&self) -> u64 {
        self.machine.elapsed_cycles() + self.overhead
    }

    fn clock_ghz(&self) -> f64 {
        self.machine.profile().freq_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avx_mmu::{AddressSpace, PageSize, PteFlags};
    use avx_os::sgx::ExecutionContext as Ctx;
    use avx_uarch::CpuProfile;

    fn machine() -> Machine {
        let mut space = AddressSpace::new();
        space
            .map(
                VirtAddr::new_truncate(0x5555_5555_4000),
                PageSize::Size4K,
                PteFlags::user_rw(),
            )
            .unwrap();
        space
            .map(
                VirtAddr::new_truncate(0xffff_ffff_a1e0_0000),
                PageSize::Size2M,
                PteFlags::kernel_rx(),
            )
            .unwrap();
        let mut m = Machine::new(CpuProfile::alder_lake_i5_12400f(), space, 1);
        m.set_noise(NoiseModel::none());
        m
    }

    const KERNEL: u64 = 0xffff_ffff_a1e0_0000;

    #[test]
    fn batch_tile_matches_the_machine_noise_block() {
        // The v2 observables regime precomputes noise in blocks of
        // `avx_uarch::NOISE_BLOCK`; probe batches are tiled in
        // `BATCH_TILE` chunks. Keeping them equal means one noise block
        // per warm/measure tile — change them together or not at all.
        assert_eq!(ProbeStrategy::BATCH_TILE, avx_uarch::NOISE_BLOCK);
    }

    #[test]
    fn probe_accounts_probing_and_overhead() {
        let mut p = SimProber::new(machine());
        let cycles = p.probe(OpKind::Load, VirtAddr::new_truncate(KERNEL));
        assert!(cycles > 0);
        assert_eq!(p.probing_cycles(), cycles);
        assert!(p.total_cycles() > p.probing_cycles());
    }

    #[test]
    fn second_of_two_returns_steady_state() {
        let mut p = SimProber::new(machine());
        let t = ProbeStrategy::SecondOfTwo.measure(
            &mut p,
            OpKind::Load,
            VirtAddr::new_truncate(KERNEL),
        );
        assert_eq!(t, 93, "steady kernel-mapped load");
    }

    #[test]
    fn min_of_discards_outliers() {
        // With spike noise, MinOf should sit at the deterministic floor.
        let mut space = AddressSpace::new();
        space
            .map(
                VirtAddr::new_truncate(KERNEL),
                PageSize::Size2M,
                PteFlags::kernel_rx(),
            )
            .unwrap();
        let mut m = Machine::new(CpuProfile::alder_lake_i5_12400f(), space, 99);
        m.set_noise(NoiseModel::new(0.0, 0.5, (500.0, 600.0)));
        let mut p = SimProber::new(m);
        let t =
            ProbeStrategy::MinOf(8).measure(&mut p, OpKind::Load, VirtAddr::new_truncate(KERNEL));
        assert_eq!(t, 93, "min filters the spikes");
    }

    #[test]
    fn probes_per_measurement_counts() {
        assert_eq!(ProbeStrategy::Single.probes_per_measurement(), 1);
        assert_eq!(ProbeStrategy::SecondOfTwo.probes_per_measurement(), 2);
        assert_eq!(ProbeStrategy::MinOf(4).probes_per_measurement(), 5);
    }

    #[test]
    fn probes_issued_counts_scalar_and_batched_probes() {
        let mut p = SimProber::new(machine());
        assert_eq!(p.probes_issued(), 0);
        let _ = p.probe(OpKind::Load, VirtAddr::new_truncate(KERNEL));
        assert_eq!(p.probes_issued(), 1);
        let addrs: Vec<VirtAddr> = (0..5)
            .map(|i| VirtAddr::new_truncate(KERNEL + i * 0x20_0000))
            .collect();
        let _ = p.probe_batch(OpKind::Store, &addrs);
        assert_eq!(p.probes_issued(), 6);
        let _ = ProbeStrategy::MinOf(3).measure(&mut p, OpKind::Load, addrs[0]);
        assert_eq!(p.probes_issued(), 6 + 4, "warm-up + 3 repeats");
    }

    #[test]
    fn evict_books_overhead_and_colds_translation() {
        let mut p = SimProber::new(machine());
        let warm = ProbeStrategy::SecondOfTwo.measure(
            &mut p,
            OpKind::Load,
            VirtAddr::new_truncate(KERNEL),
        );
        let before = p.total_cycles();
        p.evict(VirtAddr::new_truncate(KERNEL));
        assert!(p.total_cycles() >= before + EVICTION_COST_CYCLES);
        let cold = p.probe(OpKind::Load, VirtAddr::new_truncate(KERNEL));
        assert!(cold > warm + 100);
    }

    #[test]
    fn seconds_conversion_uses_profile_clock() {
        let mut p = SimProber::new(machine());
        p.spend(4_400_000_000);
        assert!((p.total_seconds() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn sgx1_context_widens_noise() {
        let m = machine(); // noise disabled, but with_context scales profile sigma
        let p = SimProber::with_context(m, Ctx::sgx1());
        assert!(!p.context().has_precise_timer());
        // The context is recorded; noise scaling is applied to the
        // profile sigma (observable through repeated probes in
        // integration tests with noise enabled).
        assert_eq!(p.context().timer_noise_factor, 4.0);
    }

    #[test]
    fn probe_never_faults_on_wild_addresses() {
        let mut p = SimProber::new(machine());
        for addr in [0u64, 0x1000, 0xffff_8000_0000_0000, 0x7fff_ffff_f000] {
            let _ = p.probe(OpKind::Load, VirtAddr::new_truncate(addr));
            let _ = p.probe(OpKind::Store, VirtAddr::new_truncate(addr));
        }
        // Reaching here without panic = no architectural fault modelled.
    }

    #[test]
    fn probe_batch_matches_scalar_sequence_and_accounting() {
        let addrs: Vec<VirtAddr> = (0..40)
            .map(|i| VirtAddr::new_truncate(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        for kind in [OpKind::Load, OpKind::Store] {
            let mut scalar = SimProber::new(machine());
            let mut batched = SimProber::new(machine());
            let batch = batched.probe_batch(kind, &addrs);
            let looped: Vec<u64> = addrs.iter().map(|&a| scalar.probe(kind, a)).collect();
            assert_eq!(batch, looped);
            assert_eq!(scalar.probing_cycles(), batched.probing_cycles());
            assert_eq!(scalar.total_cycles(), batched.total_cycles());
        }
    }

    #[test]
    fn measure_batch_matches_scalar_measurement_per_strategy() {
        let addrs: Vec<VirtAddr> = (0..40)
            .map(|i| VirtAddr::new_truncate(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        for strategy in [
            ProbeStrategy::Single,
            ProbeStrategy::SecondOfTwo,
            ProbeStrategy::MinOf(3),
        ] {
            for kind in [OpKind::Load, OpKind::Store] {
                let mut scalar = SimProber::new(machine());
                let mut batched = SimProber::new(machine());
                let batch = strategy.measure_batch(&mut batched, kind, &addrs);
                let looped: Vec<u64> = addrs
                    .iter()
                    .map(|&a| strategy.measure(&mut scalar, kind, a))
                    .collect();
                assert_eq!(batch, looped, "{strategy:?} {kind}");
            }
        }
    }
}
