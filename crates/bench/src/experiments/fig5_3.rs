//! Figure 5.3 — the 2-step tenant-grouping walk-through.
//!
//! Replays the published 6-tenant example (R = 3, P = 99.9%) and prints the
//! insertion order, per-group TTP, and the rejection of `T1` that opens the
//! second group.

use crate::report::{pct, ExperimentResult, Table};
use thrifty::prelude::*;

/// The reconstructed Figure 5.1 activity vectors (see
/// `thrifty::grouping::livbpwfc` for the derivation from the published
/// walk-through).
fn figure_5_1_instance(r: u32, p: f64) -> GroupingProblem {
    let d = 10;
    let epochs: [&[u32]; 6] = [
        &[0, 1, 2, 3, 4, 5], // T1
        &[6, 7, 8, 9],       // T2
        &[1, 2, 3],          // T3
        &[4, 5, 6, 8, 9],    // T4
        &[0, 1, 4, 5],       // T5
        &[2, 3, 4, 6, 7, 8], // T6
    ];
    epochs
        .iter()
        .enumerate()
        .fold(GroupingProblem::builder(), |b, (i, e)| {
            b.tenant(
                Tenant::new(TenantId(i as u32), 4, 400.0),
                ActivityVector::from_epochs(e.to_vec(), d),
            )
        })
        .replication(r)
        .sla_p(p)
        .build()
        .expect("the published walk-through instance is consistent")
}

/// Runs the walk-through.
pub fn fig_5_3() -> ExperimentResult {
    let problem = figure_5_1_instance(3, 0.999);
    let solution = two_step_grouping(&problem);
    let mut t = Table::new(
        "Figure 5.3 — 2-step grouping on the Figure 5.1 tenants (R=3, P=99.9%)",
        &["group", "members (insertion order)", "TTP", "nodes (R*n1)"],
    );
    for (gi, g) in solution.groups.iter().enumerate() {
        let members: Vec<String> = g
            .members
            .iter()
            .map(|&i| format!("T{}", i + 1)) // paper's 1-based names
            .collect();
        t.push_row(vec![
            format!("TG{}", gi + 1),
            members.join(", "),
            pct(problem.group_ttp(&g.members)),
            problem.group_nodes(&g.members).to_string(),
        ]);
    }
    let mut reject = Table::new(
        "The rejected insertion (Figure 5.3e)",
        &["candidate", "group", "TTP if added", "verdict"],
    );
    let mut with_t1 = solution.groups[0].members.clone();
    with_t1.push(0);
    reject.push_row(vec![
        "T1".into(),
        "TG1".into(),
        pct(problem.group_ttp(&with_t1)),
        "rejected (< 99.9%) -> opens TG2".into(),
    ]);
    ExperimentResult {
        id: "fig5.3".into(),
        context: "the worked example of Chapter 5: TG1 = {T3,T2,T5,T4,T6}, T1 alone".into(),
        tables: vec![t, reject],
        timings: Vec::new(),
        telemetry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walkthrough_matches_the_paper() {
        let r = fig_5_3();
        let rows = &r.tables[0].rows;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], "T3, T2, T5, T4, T6");
        assert_eq!(rows[1][1], "T1");
        assert_eq!(rows[0][2], "100.0%");
        // T1 added to TG1 would yield 90% TTP, as the paper computes.
        assert_eq!(r.tables[1].rows[0][2], "90.0%");
    }
}
