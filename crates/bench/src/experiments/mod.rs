//! One module per paper artefact (table or figure). See DESIGN.md §4 for
//! the experiment index.

pub mod ablate;
pub mod arm;
pub mod controller;
pub mod drift;
pub mod fig1_1;
pub mod fig5_3;
pub mod fig7_6;
pub mod fig7_7;
pub mod headline;
pub mod scale;
pub mod sweeps;
pub mod tab5_1;
pub mod tab7_1;

use crate::pipeline::Harness;
use crate::report::ExperimentResult;

/// Every experiment id, in presentation order.
pub const ALL_IDS: [&str; 16] = [
    "fig1.1a",
    "fig1.1b",
    "fig1.1c",
    "tab5.1",
    "fig5.3",
    "tab7.1",
    "fig7.1",
    "fig7.2",
    "fig7.3",
    "fig7.4",
    "fig7.5",
    "fig7.6",
    "fig7.7",
    "drift",
    "controller",
    "scale",
];

/// Experiments that need the generated corpus (and therefore a harness).
pub const CORPUS_IDS: [&str; 9] = [
    "fig7.1", "fig7.2", "fig7.3", "fig7.4", "fig7.5", "fig7.6", "fig7.7", "headline", "ablate",
];

/// Runs one experiment by id. `harness` is only consulted for the corpus
/// experiments; pass the same harness across calls to reuse the session
/// library.
pub fn run(id: &str, harness: &Harness) -> Option<ExperimentResult> {
    // Drop stage timings left over from earlier work in this process so the
    // result carries only its own stages.
    let _ = crate::parallel::take_timings();
    let mut result = match id {
        "fig1.1a" => fig1_1::fig_1_1a(),
        "fig1.1b" => fig1_1::fig_1_1b(),
        "fig1.1c" => fig1_1::fig_1_1c(),
        "tab5.1" => tab5_1::tab_5_1(),
        "fig5.3" => fig5_3::fig_5_3(),
        "tab7.1" => tab7_1::tab_7_1(),
        "fig7.1" => sweeps::fig_7_1(harness),
        "fig7.2" => sweeps::fig_7_2(harness),
        "fig7.3" => sweeps::fig_7_3(harness),
        "fig7.4" => sweeps::fig_7_4(harness),
        "fig7.5" => sweeps::fig_7_5(harness),
        "fig7.6" => fig7_6::fig_7_6(harness),
        "fig7.7" => fig7_7::fig_7_7(harness),
        "drift" => drift::drift(),
        "controller" => controller::controller(),
        "scale" => scale::scale(harness.scale(), harness.base_config().seed),
        "headline" => headline::headline(harness),
        "ablate" => ablate::ablate(harness),
        _ => return None,
    };
    result.timings = crate::parallel::take_timings();
    Some(result)
}
