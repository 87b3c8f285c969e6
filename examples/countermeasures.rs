//! Countermeasure evaluation (paper §V): FLARE, FGKASLR and the
//! masked-op NOP-replacement survey.
//!
//! ```text
//! cargo run --release --example countermeasures
//! ```

use avx_channel::countermeasures::MaskedOpSurvey;
use avx_channel::defense::point_checks::{evaluate_fgkaslr, evaluate_flare};
use avx_hw::scan::{survey_corpus, synthetic_corpus};
use avx_uarch::CpuProfile;

fn main() {
    flare();
    fgkaslr();
    survey();
}

/// FLARE maps dummy pages over unmapped kernel ranges: the page-table
/// attack is blinded, the TLB attack is not (§V-A).
fn flare() {
    println!("== FLARE ==");
    let eval = evaluate_flare(CpuProfile::alder_lake_i5_12400f(), 31);
    println!("{eval}");
    assert!(eval.page_table_defeated, "FLARE must blind P2");
    assert!(eval.tlb_correct, "the TLB attack must still win");
    println!(
        "=> dummy mappings defeat the page-table attack ({} slots look mapped) \
         but the TLB attack recovers the base anyway.\n",
        eval.page_table_mapped_slots
    );
}

/// FGKASLR shuffles functions inside the image: the base still leaks,
/// and a TLB template attack finds a target function's page.
fn fgkaslr() {
    println!("== FGKASLR ==");
    for function in ["commit_creds", "prepare_kernel_cred", "bprm_execve"] {
        let eval = evaluate_fgkaslr(CpuProfile::alder_lake_i5_12400f(), 32, function);
        println!(
            "target {function}: base {} / function page {} ({:?})",
            if eval.base_correct {
                "recovered"
            } else {
                "lost"
            },
            if eval.function_page_correct {
                "located"
            } else {
                "missed"
            },
            eval.function_page
        );
        assert!(eval.base_correct && eval.function_page_correct);
    }
    println!("=> function-granular shuffling does not stop page-granular templating.\n");
}

/// §V-B: how many binaries would a NOP-replacement mitigation affect?
fn survey() {
    println!("== masked-op usage survey ==");
    let corpus = synthetic_corpus(4104, 6, 16 * 1024, 33);
    let count = survey_corpus(&corpus);
    let s = MaskedOpSurvey {
        total: count.total,
        containing: count.containing,
    };
    println!("{s} [paper: 6 of 4104]");
    println!(
        "=> replacing all-zero-mask VMASKMOV with NOPs would affect {:.3} % of binaries: {} impact.",
        s.affected_fraction() * 100.0,
        if s.low_impact() { "low" } else { "high" }
    );
}
