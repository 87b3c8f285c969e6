//! Pinned deterministic outputs per (workload, seed).
//!
//! A run whose outputs differ from its pin prints the measured entry,
//! with the lines its digest covers, ready to paste here after a change
//! that deliberately alters simulated behaviour; a pure speed-up must
//! leave every pin untouched.

/// The deterministic outputs of one workload run under one seed.
pub struct Pin {
    /// `--workload` name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Simulated probes.
    pub probes: u64,
    /// Pooled success records.
    pub hits: u64,
    /// Pooled records.
    pub records: u64,
    /// Mean simulated attack time per trial, ms (campaigns only).
    pub sim_attack_ms: Option<f64>,
    /// FNV-1a digest of the per-row (or fleet aggregate) lines.
    pub digest: u64,
}

/// Seed 0 is the default seed; seed 1 is the held-out seed.
pub const PINS: &[Pin] = &[
    Pin {
        workload: "paper-grid",
        seed: 0,
        probes: 45_308_744,
        hits: 6708,
        records: 10560,
        sim_attack_ms: Some(16.169110635998113),
        digest: 0x70b3_257b_ceb1_9430,
    },
    Pin {
        workload: "fleet-base",
        seed: 0,
        probes: 104_100_000,
        hits: 99611,
        records: 100_000,
        sim_attack_ms: None,
        digest: 0xd5f1_9654_f70d_260d,
    },
    Pin {
        workload: "closed-loop-victims",
        seed: 0,
        probes: 16_746_859,
        hits: 13819,
        records: 13944,
        sim_attack_ms: Some(0.3499854572303494),
        digest: 0x690f_c86b_d34f_1c48,
    },
    Pin {
        workload: "paper-grid",
        seed: 1,
        probes: 47_009_633,
        hits: 7255,
        records: 10560,
        sim_attack_ms: Some(16.959634363903643),
        digest: 0xc157_1fb8_e7fd_fef9,
    },
    Pin {
        workload: "fleet-base",
        seed: 1,
        probes: 104_100_000,
        hits: 99619,
        records: 100_000,
        sim_attack_ms: None,
        digest: 0x9308_bba3_021c_61ee,
    },
    Pin {
        workload: "closed-loop-victims",
        seed: 1,
        probes: 16_873_820,
        hits: 13834,
        records: 13944,
        sim_attack_ms: Some(0.35098969312376627),
        digest: 0x4a0a_0c5b_b5d1_772a,
    },
];

/// The pin of `(workload, seed)`, if one is recorded.
pub fn lookup(workload: &str, seed: u64) -> Option<&'static Pin> {
    PINS.iter()
        .find(|p| p.workload == workload && p.seed == seed)
}
