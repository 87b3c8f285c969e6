//! The three attack primitives of §III-C.
//!
//! * [`PageTableAttack`] — mapped/unmapped classification (P2) and, via
//!   [`LevelAttack`], walk-termination-level leakage (P3),
//! * [`TlbAttack`] — TLB hit/miss oracle (P4),
//! * [`PermissionAttack`] — page-permission classification (P5).
//!
//! All primitives suppress page faults by construction (P1): they only
//! ever issue all-zero-mask operations through [`crate::Prober`].

pub mod page_table;
pub mod permission;
pub mod template;
pub mod tlb;

pub(crate) use page_table::TileScratch;
pub use page_table::{LevelAttack, PageTableAttack, SweepClassification};
pub use permission::{PermissionAttack, ProbedPerm};
pub use template::TlbTemplateAttack;
pub use tlb::{TlbAttack, TlbState};
