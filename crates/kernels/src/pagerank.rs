//! PageRank — the paper's motivating application (Figure 1, Figure 8).
//!
//! The inner loop is an associative irregular reduction: for every edge,
//! `sum[ny] += rank[nx] / nneighbor[nx]`. Because the edge set is static,
//! the inspector phases run once: tiling for all vectorized variants, plus
//! conflict-free grouping for the `tiling_and_grouping` variant.

use std::time::Instant;

use invector_core::accumulate::{adaptive_accumulate_with, invec_accumulate_with, InvecStats};
use invector_core::backend::Backend;
use invector_core::exec::{run_plan, ExecPlan, ExecVariant, TaskItems};
use invector_core::masking::PositionFeeder;
use invector_core::ops::Sum;
use invector_core::stats::{DepthHistogram, Utilization};
use invector_core::{reduce_alg1_with, serial_accumulate};
use invector_graph::group::{group_by_key, Grouping};
use invector_graph::tile::{tile_edges, DEFAULT_BLOCK_VERTICES};
use invector_graph::EdgeList;
use invector_simd::{conflict_free_subset, F32x16, I32x16, Mask16};

use crate::common::{ExecPolicy, RunResult, Timings, Variant};

/// PageRank parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (0.85 in the classic formulation).
    pub damping: f32,
    /// Convergence threshold on the relative total rank change — the paper
    /// terminates when the change drops below 0.1% (`1e-3`).
    pub tolerance: f32,
    /// Iteration cap.
    pub max_iters: u32,
    /// Cache-tile block side for the tiled variants.
    pub block_vertices: usize,
    /// Execution-engine policy. `threads == 1` (the default) reproduces the
    /// paper's single-core runs; `threads > 1` partitions the edge phase
    /// across the persistent pool (the plan is built once, the edge set
    /// being static). In parallel runs the per-worker strategy follows
    /// [`Variant::exec_variant`]; `policy.variant` is overridden.
    pub exec: ExecPolicy,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-3,
            max_iters: 500,
            block_vertices: DEFAULT_BLOCK_VERTICES,
            exec: ExecPolicy::default(),
        }
    }
}

/// Runs PageRank with the chosen implementation strategy.
///
/// Returns per-vertex ranks plus the phase timing breakdown of Figure 8
/// (`tiling` / `grouping` / `computing`). The masked variant reports SIMD
/// utilization; the in-vector variant reports the conflict-depth histogram.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn pagerank(graph: &EdgeList, variant: Variant, config: &PageRankConfig) -> RunResult<f32> {
    use crate::common::Variant::{Grouped, Invec, Masked, Serial, SerialTiled};
    let nv = graph.num_vertices();
    assert!(nv > 0, "PageRank needs at least one vertex");
    let mut timings = Timings::default();

    // Inspector: tiling (all vectorized variants + tiling_serial).
    let working = match variant {
        Serial => graph.clone(),
        _ => {
            let t0 = Instant::now();
            let tiling = tile_edges(graph, config.block_vertices);
            let tiled = graph.permuted(&tiling.perm);
            timings.tiling = t0.elapsed();
            tiled
        }
    };

    // Inspector: grouping (tiling_and_grouping only; reused every iteration
    // because PageRank's edge set is static).
    let grouping: Option<Grouping> = if variant.needs_grouping() {
        let t0 = Instant::now();
        let positions: Vec<u32> = (0..working.num_edges() as u32).collect();
        let g = group_by_key(&positions, working.dst());
        timings.grouping = t0.elapsed();
        Some(g)
    } else {
        None
    };

    // Engine plan (parallel runs only): the edge set is static, so the
    // stream partition is built once and reused by every iteration.
    let plan: Option<ExecPlan> = if config.exec.threads > 1 {
        let t0 = Instant::now();
        let p = ExecPlan::new(working.dst(), nv, &config.exec);
        timings.partition = t0.elapsed();
        Some(p)
    } else {
        None
    };

    let deg: Vec<f32> = graph.out_degrees().iter().map(|&d| d as f32).collect();
    let mut rank = vec![1.0 / nv as f32; nv];
    let mut sum = vec![0.0f32; nv];
    let mut utilization = Utilization::default();
    let mut depth = DepthHistogram::new();
    let mut iterations = 0;
    // Resolve the reduction backend once per run (Auto → native when the
    // CPU supports AVX-512); the hot loops below never re-probe.
    let backend = config.exec.backend.resolve();

    let instr_before = invector_simd::count::read();
    let t_compute = Instant::now();
    while iterations < config.max_iters {
        iterations += 1;
        sum.fill(0.0);
        match (&plan, variant) {
            (Some(plan), _) => {
                edge_phase_parallel(
                    plan, variant, backend, &working, &rank, &deg, &mut sum, &mut depth,
                );
            }
            (None, Serial | SerialTiled) => {
                edge_phase_serial(&working, &rank, &deg, &mut sum);
            }
            (None, Invec) => {
                edge_phase_invec(&working, backend, &rank, &deg, &mut sum, &mut depth);
            }
            (None, Masked) => {
                edge_phase_masked(&working, &rank, &deg, &mut sum, &mut utilization);
            }
            (None, Grouped) => {
                edge_phase_grouped(
                    &working,
                    grouping.as_ref().expect("grouping built above"),
                    &rank,
                    &deg,
                    &mut sum,
                );
            }
        }
        // Vertex phase + convergence test (identical across variants).
        let base = (1.0 - config.damping) / nv as f32;
        let mut delta = 0.0f64;
        let mut mass = 0.0f64;
        for v in 0..nv {
            let new = base + config.damping * sum[v];
            delta += f64::from((new - rank[v]).abs());
            mass += f64::from(rank[v]);
            rank[v] = new;
        }
        if delta < f64::from(config.tolerance) * mass {
            break;
        }
    }
    timings.compute = t_compute.elapsed();

    let threads = plan.as_ref().map_or(1, ExecPlan::num_tasks);
    RunResult {
        values: rank,
        iterations,
        timings,
        instructions: invector_simd::count::read().wrapping_sub(instr_before),
        utilization: (plan.is_none() && variant.records_utilization()).then_some(utilization),
        depth: (variant.exec_variant() == ExecVariant::Invec
            && (plan.is_some() || variant.records_depth()))
        .then_some(depth),
        threads,
    }
}

/// Parallel edge phase: each engine worker reduces its share of the edge
/// stream into its partition of `sum` (owner-computes: a disjoint slice of
/// `sum` itself; privatized: a touched-range-bounded scratch array).
#[allow(clippy::too_many_arguments)]
fn edge_phase_parallel(
    plan: &ExecPlan,
    variant: Variant,
    backend: Backend,
    g: &EdgeList,
    rank: &[f32],
    deg: &[f32],
    sum: &mut [f32],
    depth: &mut DepthHistogram,
) {
    let (src, dst) = (g.src(), g.dst());
    let worker = variant.exec_variant();
    let stats = run_plan::<f32, Sum, InvecStats, _>(plan, sum, |ctx, view| {
        let lo = ctx.lo as i32;
        // Gather this task's share of the stream: rebased destination keys
        // plus the per-edge contributions of Figure 1's loop body.
        let contribution = |p: usize| {
            let nx = src[p] as usize;
            (dst[p] - lo, rank[nx] / deg[nx])
        };
        let (keys, vals): (Vec<i32>, Vec<f32>) = match &ctx.items {
            TaskItems::Span(range) => range.clone().map(contribution).unzip(),
            TaskItems::Picked(picked) => picked.iter().map(|&p| contribution(p as usize)).unzip(),
        };
        match worker {
            ExecVariant::Serial => {
                serial_accumulate::<f32, Sum>(view, &keys, &vals);
                invector_simd::count::bump(SERIAL_EDGE_COST * keys.len() as u64);
                InvecStats::default()
            }
            ExecVariant::Invec => invec_accumulate_with::<f32, Sum>(backend, view, &keys, &vals),
            ExecVariant::Adaptive => {
                adaptive_accumulate_with::<f32, Sum>(backend, view, &keys, &vals)
            }
        }
    });
    for s in &stats {
        depth.merge(&s.depth);
    }
}

/// Modeled scalar cost of one edge of the Figure 1 loop: two index loads,
/// rank and degree loads, a divide, and the load-add-store on `sum`.
pub const SERIAL_EDGE_COST: u64 = 8;

/// Scalar edge phase: the paper's Figure 1 loop.
fn edge_phase_serial(g: &EdgeList, rank: &[f32], deg: &[f32], sum: &mut [f32]) {
    let (src, dst) = (g.src(), g.dst());
    for j in 0..g.num_edges() {
        let nx = src[j] as usize;
        let ny = dst[j] as usize;
        sum[ny] += rank[nx] / deg[nx];
    }
    invector_simd::count::bump(SERIAL_EDGE_COST * g.num_edges() as u64);
}

/// In-vector reduction edge phase: the vectorized loop of Figure 7.
fn edge_phase_invec(
    g: &EdgeList,
    backend: Backend,
    rank: &[f32],
    deg: &[f32],
    sum: &mut [f32],
    depth: &mut DepthHistogram,
) {
    let (src, dst) = (g.src(), g.dst());
    let mut j = 0;
    while j < g.num_edges() {
        let (vnx, active) = I32x16::load_partial(&src[j..], 0);
        let (vny, _) = I32x16::load_partial(&dst[j..], 0);
        let vrank = F32x16::zero().mask_gather(active, rank, vnx);
        let vdeg = F32x16::splat(1.0).mask_gather(active, deg, vnx);
        let mut vadd = vrank / vdeg;
        let (safe, d) =
            reduce_alg1_with::<f32, invector_core::ops::Sum, 16>(backend, active, vny, &mut vadd);
        depth.record(d);
        let vsum = F32x16::zero().mask_gather(safe, sum, vny);
        (vsum + vadd).mask_scatter(safe, sum, vny);
        j += 16;
    }
}

/// Conflict-masking edge phase (Figure 3 applied to PageRank).
fn edge_phase_masked(
    g: &EdgeList,
    rank: &[f32],
    deg: &[f32],
    sum: &mut [f32],
    util: &mut Utilization,
) {
    let (src, dst) = (g.src(), g.dst());
    let mut feeder = PositionFeeder::new(0, g.num_edges());
    let mut vpos = I32x16::zero();
    let mut active = Mask16::none();
    loop {
        active |= feeder.refill(!active, &mut vpos);
        if active.is_empty() {
            break;
        }
        let vnx = I32x16::zero().mask_gather(active, src, vpos);
        let vny = I32x16::zero().mask_gather(active, dst, vpos);
        let vrank = F32x16::zero().mask_gather(active, rank, vnx);
        let vdeg = F32x16::splat(1.0).mask_gather(active, deg, vnx);
        let vadd = vrank / vdeg;
        let safe = conflict_free_subset(active, vny);
        let vsum = F32x16::zero().mask_gather(safe, sum, vny);
        (vsum + vadd).mask_scatter(safe, sum, vny);
        util.record(u64::from(safe.count_ones()), 16);
        active = active.and_not(safe);
    }
}

/// Grouped (inspector/executor) edge phase: unmasked SIMD over
/// conflict-free windows.
fn edge_phase_grouped(
    g: &EdgeList,
    grouping: &Grouping,
    rank: &[f32],
    deg: &[f32],
    sum: &mut [f32],
) {
    let (src, dst) = (g.src(), g.dst());
    for w in 0..grouping.num_windows() {
        let (slots, maskbits) = grouping.window(w);
        let active = Mask16::from_bits(u32::from(maskbits));
        let vpos = I32x16::from_array(std::array::from_fn(|i| slots[i] as i32));
        let vnx = I32x16::zero().mask_gather(active, src, vpos);
        let vny = I32x16::zero().mask_gather(active, dst, vpos);
        let vrank = F32x16::zero().mask_gather(active, rank, vnx);
        let vdeg = F32x16::splat(1.0).mask_gather(active, deg, vnx);
        let vadd = vrank / vdeg;
        let vsum = F32x16::zero().mask_gather(active, sum, vny);
        (vsum + vadd).mask_scatter(active, sum, vny);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invector_graph::gen;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * (x.abs() + y.abs() + 1e-6), "vertex {i}: {x} vs {y}");
        }
    }

    // Cross-variant / cross-backend agreement on realistic power-law graphs
    // is covered centrally by `tests/registry_golden.rs`; these tests pin
    // hand-checkable graphs and the per-variant bookkeeping.

    #[test]
    fn small_known_graphs_for_every_variant() {
        // Cycle: uniform rank. Star: 8 leaves pointing at vertex 0. Oddball:
        // self-loop plus duplicate edges. The latter two compare against the
        // serial baseline on the same graph.
        let cycle = EdgeList::from_edges(2, &[(0, 1), (1, 0)]);
        let star_edges: Vec<(i32, i32)> = (1..9).map(|v| (v, 0)).collect();
        let star = EdgeList::from_edges(9, &star_edges);
        let oddball = EdgeList::from_edges(3, &[(0, 0), (1, 2), (1, 2), (2, 1)]);
        let serial = |g: &EdgeList| pagerank(g, Variant::Serial, &PageRankConfig::default());
        let star_serial = serial(&star);
        assert!(star_serial.values[0] > 5.0 * star_serial.values[1]);
        let oddball_serial = serial(&oddball);
        let cap2 = PageRankConfig { max_iters: 2, ..PageRankConfig::default() };
        for variant in Variant::ALL {
            let r = pagerank(&cycle, variant, &PageRankConfig::default());
            assert_close(&r.values, &[0.5, 0.5], 1e-3);
            let r = pagerank(&star, variant, &PageRankConfig::default());
            assert_close(&r.values, &star_serial.values, 1e-3);
            let r = pagerank(&oddball, variant, &PageRankConfig::default());
            assert_close(&r.values, &oddball_serial.values, 1e-3);
            // The iteration cap is honored on every path.
            assert_eq!(pagerank(&star, variant, &cap2).iterations, 2, "{variant}");
        }
    }

    #[test]
    fn ranks_are_positive_and_bounded() {
        let g = gen::uniform(256, 2000, 5);
        let r = pagerank(&g, Variant::Invec, &PageRankConfig::default());
        let total: f32 = r.values.iter().sum();
        assert!(r.values.iter().all(|&x| x > 0.0));
        assert!(total <= 1.0 + 1e-3, "rank mass {total}");
    }

    #[test]
    fn phase_and_stat_ownership_follow_variant_predicates() {
        let g = gen::rmat(256, 2000, gen::RmatParams::SOCIAL, 8);
        let config = PageRankConfig { block_vertices: 64, ..PageRankConfig::default() };
        for variant in Variant::ALL {
            let r = pagerank(&g, variant, &config);
            assert_eq!(r.utilization.is_some(), variant.records_utilization(), "{variant}");
            assert_eq!(r.depth.is_some(), variant.records_depth(), "{variant}");
            assert_eq!(
                r.timings.grouping > std::time::Duration::ZERO,
                variant.needs_grouping(),
                "{variant}"
            );
            // Only the untiled serial baseline skips the tiling inspector.
            assert_eq!(
                r.timings.tiling == std::time::Duration::ZERO,
                variant == Variant::ALL[0],
                "{variant}"
            );
            if let Some(util) = r.utilization {
                assert!(util.ratio() > 0.0 && util.ratio() <= 1.0);
            }
        }
    }

    #[test]
    fn parallel_runs_agree_with_serial_under_both_partitions() {
        use crate::common::Partition;
        let g = gen::rmat(512, 4000, gen::RmatParams::SOCIAL, 23);
        let serial = pagerank(&g, Variant::Serial, &PageRankConfig::default());
        for threads in [2, 4] {
            for partition in [Partition::OwnerComputes, Partition::Privatized] {
                let config = PageRankConfig {
                    exec: ExecPolicy::with_threads(threads).partition(partition),
                    ..PageRankConfig::default()
                };
                for variant in [Variant::Serial, Variant::Invec] {
                    let r = pagerank(&g, variant, &config);
                    assert_close(&r.values, &serial.values, 5e-3);
                    assert_eq!(r.threads, threads, "{variant} {partition:?}");
                    assert!(r.timings.partition > std::time::Duration::ZERO);
                    // Parallel vectorized workers report conflict depth.
                    assert_eq!(r.depth.is_some(), variant.exec_variant() != ExecVariant::Serial);
                    // Owner-computes preserves per-vertex update order, so
                    // scalar workers reproduce the serial ranks bit for bit.
                    if partition == Partition::OwnerComputes && r.depth.is_none() {
                        assert_eq!(r.iterations, serial.iterations);
                        assert!(r
                            .values
                            .iter()
                            .zip(&serial.values)
                            .all(|(a, b)| a.to_bits() == b.to_bits()));
                    }
                }
            }
        }
    }
}
