//! Sparse matrix–vector multiplication (SpMV) over the edge-list sparse
//! matrix view: `y[dst] += weight · x[src]` for every non-zero.
//!
//! SpMV is the canonical irregular reduction the paper's related work
//! optimizes (Liu et al., Tang et al.); it is PageRank's edge phase with a
//! per-edge coefficient, and exercises the same five implementation
//! strategies. Provided as a library feature beyond the paper's evaluated
//! applications.

use std::time::Instant;

use invector_core::backend::Backend;
use invector_core::masking::PositionFeeder;
use invector_core::reduce_alg1_with;
use invector_core::stats::{DepthHistogram, Utilization};
use invector_graph::group::Grouping;
use invector_graph::tile::DEFAULT_BLOCK_VERTICES;
use invector_graph::EdgeList;
use invector_simd::{conflict_free_subset, F32x16, I32x16, Mask16};

use crate::common::{inspect_static_edges, RunResult, Timings, Variant};

/// Computes `y = A·x` where `A` is the weighted adjacency matrix of
/// `graph` (entry `A[dst][src] = weight`), using the chosen strategy.
///
/// Duplicate edges accumulate, matching the COO semantics of the paper's
/// Sparse Matrix View.
///
/// # Panics
///
/// Panics if `x.len() != graph.num_vertices()`.
pub fn spmv(graph: &EdgeList, x: &[f32], variant: Variant) -> RunResult<f32> {
    spmv_single(graph, x, variant, invector_core::backend::current())
}

/// [`spmv`] under an explicit [`ExecPolicy`](crate::common::ExecPolicy):
/// resolves `policy.backend` for the in-vector sweep. SpMV is a single
/// edge sweep, so `policy.threads` does not apply (the result records
/// `threads: 1`).
///
/// # Panics
///
/// Panics if `x.len() != graph.num_vertices()`.
pub fn spmv_with_policy(
    graph: &EdgeList,
    x: &[f32],
    variant: Variant,
    policy: &crate::common::ExecPolicy,
) -> RunResult<f32> {
    spmv_single(graph, x, variant, policy.backend.resolve())
}

fn spmv_single(graph: &EdgeList, x: &[f32], variant: Variant, backend: Backend) -> RunResult<f32> {
    assert_eq!(x.len(), graph.num_vertices(), "input vector length mismatch");
    let mut timings = Timings::default();
    let (working, grouping) =
        inspect_static_edges(graph, variant, DEFAULT_BLOCK_VERTICES, &mut timings);

    let mut y = vec![0.0f32; graph.num_vertices()];
    let mut utilization = Utilization::default();
    let mut depth = DepthHistogram::new();
    let instr_before = invector_simd::count::read();
    let t = Instant::now();
    match variant {
        Variant::Serial | Variant::SerialTiled => spmv_serial(&working, x, &mut y),
        Variant::Invec => spmv_invec(&working, backend, x, &mut y, &mut depth),
        Variant::Masked => spmv_masked(&working, x, &mut y, &mut utilization),
        Variant::Grouped => {
            spmv_grouped(&working, grouping.as_ref().expect("grouping built above"), x, &mut y)
        }
    }
    timings.compute = t.elapsed();

    RunResult {
        values: y,
        iterations: 1,
        timings,
        instructions: invector_simd::count::read().wrapping_sub(instr_before),
        utilization: variant.records_utilization().then_some(utilization),
        depth: variant.records_depth().then_some(depth),
        threads: 1,
    }
}

/// Modeled scalar cost of one non-zero: index loads, `x` load, weight load,
/// multiply, and the load-add-store on `y`.
pub const SERIAL_NNZ_COST: u64 = 8;

fn spmv_serial(g: &EdgeList, x: &[f32], y: &mut [f32]) {
    let (src, dst, w) = (g.src(), g.dst(), g.weight());
    for j in 0..g.num_edges() {
        y[dst[j] as usize] += w[j] * x[src[j] as usize];
    }
    invector_simd::count::bump(SERIAL_NNZ_COST * g.num_edges() as u64);
}

fn spmv_invec(
    g: &EdgeList,
    backend: Backend,
    x: &[f32],
    y: &mut [f32],
    depth: &mut DepthHistogram,
) {
    let (src, dst, w) = (g.src(), g.dst(), g.weight());
    let mut j = 0;
    while j < g.num_edges() {
        let (vsrc, active) = I32x16::load_partial(&src[j..], 0);
        let (vdst, _) = I32x16::load_partial(&dst[j..], 0);
        let (vw, _) = F32x16::load_partial(&w[j..], 0.0);
        let vx = F32x16::zero().mask_gather(active, x, vsrc);
        let mut prod = vw * vx;
        let (safe, d) =
            reduce_alg1_with::<f32, invector_core::ops::Sum, 16>(backend, active, vdst, &mut prod);
        depth.record(d);
        let old = F32x16::zero().mask_gather(safe, y, vdst);
        (old + prod).mask_scatter(safe, y, vdst);
        j += 16;
    }
}

fn spmv_masked(g: &EdgeList, x: &[f32], y: &mut [f32], util: &mut Utilization) {
    let (src, dst, w) = (g.src(), g.dst(), g.weight());
    let mut feeder = PositionFeeder::new(0, g.num_edges());
    let mut vpos = I32x16::zero();
    let mut active = Mask16::none();
    loop {
        active |= feeder.refill(!active, &mut vpos);
        if active.is_empty() {
            break;
        }
        let vsrc = I32x16::zero().mask_gather(active, src, vpos);
        let vdst = I32x16::zero().mask_gather(active, dst, vpos);
        let vw = F32x16::zero().mask_gather(active, w, vpos);
        let vx = F32x16::zero().mask_gather(active, x, vsrc);
        let prod = vw * vx;
        let safe = conflict_free_subset(active, vdst);
        let old = F32x16::zero().mask_gather(safe, y, vdst);
        (old + prod).mask_scatter(safe, y, vdst);
        util.record(u64::from(safe.count_ones()), 16);
        active = active.and_not(safe);
    }
}

fn spmv_grouped(g: &EdgeList, grouping: &Grouping, x: &[f32], y: &mut [f32]) {
    let (src, dst, w) = (g.src(), g.dst(), g.weight());
    for win in 0..grouping.num_windows() {
        let (slots, maskbits) = grouping.window(win);
        let active = Mask16::from_bits(u32::from(maskbits));
        let vpos = I32x16::from_array(std::array::from_fn(|i| slots[i] as i32));
        let vsrc = I32x16::zero().mask_gather(active, src, vpos);
        let vdst = I32x16::zero().mask_gather(active, dst, vpos);
        let vw = F32x16::zero().mask_gather(active, w, vpos);
        let vx = F32x16::zero().mask_gather(active, x, vsrc);
        let prod = vw * vx;
        let old = F32x16::zero().mask_gather(active, y, vdst);
        (old + prod).mask_scatter(active, y, vdst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invector_graph::gen;

    fn dense_reference(g: &EdgeList, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f64; g.num_vertices()];
        for j in 0..g.num_edges() {
            y[g.dst()[j] as usize] += f64::from(g.weight()[j]) * f64::from(x[g.src()[j] as usize]);
        }
        y.into_iter().map(|v| v as f32).collect()
    }

    #[test]
    fn identity_like_matrix() {
        // Each vertex forwards its own value: y = x (weights 1, self loops).
        let edges: Vec<(i32, i32, f32)> = (0..8).map(|v| (v, v, 1.0)).collect();
        let g = EdgeList::from_weighted_edges(8, &edges);
        let x: Vec<f32> = (0..8).map(|i| i as f32).collect();
        for variant in Variant::ALL {
            let r = spmv(&g, &x, variant);
            assert_eq!(r.values, x, "{variant}");
        }
    }

    #[test]
    fn all_variants_match_dense_reference() {
        let g = gen::rmat(256, 3000, gen::RmatParams::SOCIAL, 61);
        let x: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin()).collect();
        let expect = dense_reference(&g, &x);
        for variant in Variant::ALL {
            let r = spmv(&g, &x, variant);
            for (v, (a, b)) in r.values.iter().zip(&expect).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-3 * (a.abs() + b.abs() + 1e-3),
                    "{variant} row {v}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn duplicate_nonzeros_accumulate() {
        let g = EdgeList::from_weighted_edges(2, &[(0, 1, 2.0), (0, 1, 3.0)]);
        let r = spmv(&g, &[10.0, 0.0], Variant::Invec);
        assert_eq!(r.values, vec![0.0, 50.0]);
    }

    #[test]
    fn empty_matrix_gives_zero_vector() {
        let g = EdgeList::from_weighted_edges(3, &[]);
        let r = spmv(&g, &[1.0, 2.0, 3.0], Variant::Masked);
        assert_eq!(r.values, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_input_length_rejected() {
        let g = EdgeList::from_weighted_edges(2, &[(0, 1, 1.0)]);
        let _ = spmv(&g, &[1.0], Variant::Serial);
    }

    #[cfg(feature = "count")]
    #[test]
    fn invec_cheaper_than_masked_in_model() {
        let g = gen::rmat(512, 8000, gen::RmatParams::SOCIAL, 62);
        let x = vec![1.0f32; 512];
        let m = spmv(&g, &x, Variant::Masked);
        let i = spmv(&g, &x, Variant::Invec);
        assert!(i.instructions < m.instructions, "{} !< {}", i.instructions, m.instructions);
    }
}
