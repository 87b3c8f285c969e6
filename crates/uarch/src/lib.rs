//! # avx-uarch — masked-op execution engine and timing model
//!
//! Simulates the microarchitectural behaviour of the AVX/AVX2 masked
//! load/store instructions that the DAC 2023 paper *AVX Timing
//! Side-Channel Attacks against Address Space Layout Randomization*
//! exploits:
//!
//! * **fault suppression** (P1): masked-out lanes never raise `#PF`,
//! * **microcode assists** on invalid/inaccessible translations, whose
//!   latency dominates the mapped/unmapped signal (P2),
//! * **page-walk depth** and **paging-structure-cache** interactions (P3),
//! * **TLB state** visibility (P4),
//! * **permission-dependent** store behaviour incl. the dirty-bit assist
//!   used for threshold calibration (P5),
//! * the **load/store latency asymmetry** (P6).
//!
//! The numeric anchors per CPU live in [`CpuProfile`]; the execution
//! semantics in [`Machine::execute`].
//!
//! ```
//! use avx_uarch::{CpuProfile, Machine, MaskedOp, OpKind};
//! use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
//!
//! # fn main() -> Result<(), avx_mmu::MmuError> {
//! let mut space = AddressSpace::new();
//! let kernel = VirtAddr::new(0xffff_ffff_a1e0_0000)?;
//! space.map(kernel, PageSize::Size2M, PteFlags::kernel_rx())?;
//!
//! let mut machine = Machine::new(CpuProfile::alder_lake_i5_12400f(), space, 7);
//! // Probing kernel memory with an all-zero mask never faults...
//! let outcome = machine.execute(MaskedOp::probe_load(kernel));
//! assert!(outcome.fault.is_none());
//! // ...but its latency leaks that the page is mapped.
//! let _cycles = machine.probe(OpKind::Load, kernel);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod defense;
pub mod lines;
pub mod machine;
pub mod masked;
pub mod memory;
pub mod noise;
pub mod observables;
pub mod pmc;
pub mod profile;
pub mod sched;
pub mod ziggurat;

pub use defense::{AddressMask, Rerandomizer, VictimDefense};
pub use lines::PteLineCache;
pub use machine::{Machine, MaskedOutcome};
pub use masked::{ElemWidth, Fault, Mask, MaskedOp, OpKind};
pub use memory::SparseMemory;
pub use noise::{DriftRamp, NoiseModel, NoiseProfile, NoiseSchedule, V1Tile, NOISE_BLOCK};
pub use observables::ObservablesVersion;
pub use pmc::{Event, PmcBank, PmcDelta, PmcSnapshot};
pub use profile::{CpuModel, CpuProfile, TimingParams, Vendor};
pub use sched::{
    SchedEvent, SchedRegion, VictimSchedule, DEFAULT_TENANT_WEIGHT, MAX_TENANT_MULTIPLIER,
};
