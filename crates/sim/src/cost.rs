//! The query latency cost model.
//!
//! Latency of one query running **alone** on an MPPDB with `nodes` nodes over
//! `data_gb` of data:
//!
//! ```text
//! latency = cost_ms_per_gb · data_gb · (f + (1 − f) / nodes)
//! ```
//!
//! where `f` is the template's Amdahl serial fraction. This reproduces the two
//! empirical regularities of Figure 1.1 that Thrifty's design depends on:
//!
//! * With `f = 0` (TPC-H Q1 in the paper's setting) the query scales out
//!   linearly: doubling the nodes halves the latency (Figure 1.1a line `1T`).
//! * With `f > 0` (TPC-H Q19) the speedup saturates (Figure 1.1c), so merging
//!   tenants onto a bigger shared MPPDB does *not* in general compensate for
//!   concurrent execution — the motivation for routing active tenants to
//!   dedicated instances rather than relying on over-provisioned parallelism.
//!
//! The effect of *concurrency* (lines `xT-CON`: `x` concurrent queries run
//! `x`-fold slower on an I/O-bound MPPDB) is not part of this formula; it is
//! produced by the processor-sharing discipline of the engine
//! ([`crate::instance`]).

use crate::query::QueryTemplate;

/// Dedicated (isolated) latency in milliseconds of one query over `data_gb`
/// of data on an MPPDB of `nodes` nodes, assuming no concurrent queries.
///
/// # Panics
/// Panics if `nodes` is zero.
pub fn isolated_latency_ms(template: &QueryTemplate, data_gb: f64, nodes: usize) -> f64 {
    assert!(nodes > 0, "an MPPDB instance needs at least one node");
    let f = template.serial_fraction;
    template.cost_ms_per_gb * data_gb * (f + (1.0 - f) / nodes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TemplateId;

    fn linear() -> QueryTemplate {
        QueryTemplate::new(TemplateId(1), 600.0, 0.0)
    }

    fn nonlinear() -> QueryTemplate {
        QueryTemplate::new(TemplateId(19), 600.0, 0.3)
    }

    /// Speedup on `nodes` nodes over one node, data size held constant
    /// (the y-axis of Figures 1.1a/1.1c).
    fn speedup(template: &QueryTemplate, nodes: usize) -> f64 {
        isolated_latency_ms(template, 1.0, 1) / isolated_latency_ms(template, 1.0, nodes)
    }

    #[test]
    fn linear_template_scales_linearly() {
        let t = linear();
        for n in 1..=32 {
            let s = speedup(&t, n);
            assert!((s - n as f64).abs() < 1e-9, "speedup at {n} nodes was {s}");
        }
    }

    #[test]
    fn nonlinear_template_saturates() {
        let t = nonlinear();
        // Amdahl bound: speedup < 1/f.
        assert!(speedup(&t, 1024) < 1.0 / t.serial_fraction);
        // ... and is monotone increasing.
        let mut prev = 0.0;
        for n in 1..=64 {
            let s = speedup(&t, n);
            assert!(s > prev);
            prev = s;
        }
    }

    #[test]
    fn latency_scales_with_data_size() {
        let t = linear();
        let l1 = isolated_latency_ms(&t, 100.0, 4);
        let l2 = isolated_latency_ms(&t, 200.0, 4);
        assert!((l2 / l1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn equal_data_per_node_keeps_latency_flat_for_linear_queries() {
        // A tenant with n nodes holds 100 GB per node; for a linear query the
        // latency is then independent of n — which is why the SLA baseline of
        // a larger tenant is not automatically worse.
        let t = linear();
        let l2 = isolated_latency_ms(&t, 200.0, 2);
        let l8 = isolated_latency_ms(&t, 800.0, 8);
        assert!((l2 - l8).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = isolated_latency_ms(&linear(), 1.0, 0);
    }
}
