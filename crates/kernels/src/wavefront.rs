//! The wave-frontier driver: iterates a [`RelaxRule`] to convergence.
//!
//! Matches the paper's §4.2 experimental setup: the frontier algorithms run
//! on the original (untiled) edge order because the active edge set changes
//! every iteration; the grouped variant re-groups the active edges each
//! iteration (the data-reorganization overhead Figure 9–11 make visible).
//!
//! Every driver runs one wave loop (`wave_loop`) and differs only in its
//! per-wave step: the variant dispatch ([`run`], and [`run_with_policy`] at
//! one thread), an engine plan per wave ([`run_with_policy`] at more), or
//! window activation over a one-time grouping ([`run_reuse`]).

use std::time::Instant;

use invector_core::backend::Backend;
use invector_core::exec::{run_plan, ExecPlan, ExecVariant, TaskItems};
use invector_core::stats::{DepthHistogram, Utilization};
use invector_graph::group::group_by_key;
use invector_graph::{active_edge_positions, Csr, EdgeList, Frontier};

use crate::common::{ExecPolicy, Partition, RunResult, Timings, Variant};
use crate::relax::{
    relax_grouped, relax_invec, relax_masked, relax_serial, relax_window, RelaxRule,
};

/// Iteration cap guarding against non-terminating configurations.
pub const DEFAULT_MAX_ITERS: u32 = 10_000;

/// One wave as a driver's step sees it.
struct Wave<'a, V> {
    /// Positions of the wave's active edges (the expanded frontier).
    positions: &'a [u32],
    /// Values as of the start of the wave.
    vals: &'a [V],
    /// Values the wave relaxes into.
    new_vals: &'a mut [V],
    /// Vertices the wave improves: the next frontier.
    next: &'a mut Frontier,
    /// The run's phase timings. A step charges its own regrouping or
    /// partitioning here; the loop charges the rest of the wave, frontier
    /// expansion included, to `compute`.
    timings: &'a mut Timings,
}

/// The wave loop every driver shares. Builds the CSR, seeds the values and
/// the frontier with `init`, then until the frontier empties (or
/// `max_iters`) expands the frontier into its active edges, runs `step` on
/// them and publishes the relaxed values and the next frontier.
///
/// Returns the values, iteration count, timings and the instructions the
/// waves executed; the caller fills in the statistics and thread count it
/// recorded (`None`, `None` and 1 here).
fn wave_loop<R: RelaxRule>(
    graph: &EdgeList,
    max_iters: u32,
    init: impl FnOnce(&mut [R::Value], &mut Frontier),
    mut step: impl FnMut(Wave<'_, R::Value>),
) -> RunResult<R::Value> {
    let nv = graph.num_vertices();
    // CSR construction is input loading, shared by every variant; it is not
    // part of any phase the paper charges to an approach.
    let csr = Csr::from_edge_list(graph);

    let mut vals = vec![R::unreached(); nv];
    let mut frontier = Frontier::new(nv);
    init(&mut vals, &mut frontier);
    let mut new_vals = vals.clone();
    let mut next = Frontier::new(nv);
    let mut positions: Vec<u32> = Vec::new();

    let mut timings = Timings::default();
    let mut iterations = 0;
    let instr_before = invector_simd::count::read();

    while !frontier.is_empty() && iterations < max_iters {
        iterations += 1;
        let t = Instant::now();
        active_edge_positions(&csr, &frontier, &mut positions);
        let reorganized = timings.grouping + timings.partition;
        step(Wave {
            positions: &positions,
            vals: &vals,
            new_vals: &mut new_vals,
            next: &mut next,
            timings: &mut timings,
        });
        let reorganized = timings.grouping + timings.partition - reorganized;
        timings.compute += t.elapsed().saturating_sub(reorganized);

        vals.copy_from_slice(&new_vals);
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }

    RunResult {
        values: vals,
        iterations,
        timings,
        instructions: invector_simd::count::read().wrapping_sub(instr_before),
        utilization: None,
        depth: None,
        threads: 1,
    }
}

/// Runs rule `R` on `graph` until the frontier empties (or `max_iters`):
/// [`run_with_policy`] on one thread.
///
/// `init` receives the value array (pre-filled with `R::unreached()`) and
/// the initial frontier; it seeds sources. All variants produce bit-identical
/// value arrays because min/max relaxations are exact in floating point.
///
/// # Panics
///
/// Panics if `init` inserts an out-of-range vertex.
pub fn run<R: RelaxRule>(
    graph: &EdgeList,
    variant: Variant,
    max_iters: u32,
    init: impl FnOnce(&mut [R::Value], &mut Frontier),
) -> RunResult<R::Value> {
    run_with_policy::<R>(graph, variant, max_iters, &ExecPolicy::default(), init)
}

/// The single-threaded driver: each wave relaxes its active edges with the
/// variant's strategy against an explicitly resolved backend.
fn run_single<R: RelaxRule>(
    graph: &EdgeList,
    variant: Variant,
    max_iters: u32,
    backend: Backend,
    init: impl FnOnce(&mut [R::Value], &mut Frontier),
) -> RunResult<R::Value> {
    let (src, dst, weight) = (graph.src(), graph.dst(), graph.weight());
    let mut utilization = Utilization::default();
    let mut depth = DepthHistogram::new();
    let r = wave_loop::<R>(graph, max_iters, init, |w| match variant {
        Variant::Serial | Variant::SerialTiled => {
            relax_serial::<R>(w.positions, src, dst, weight, w.vals, w.new_vals, w.next);
        }
        Variant::Invec => relax_invec::<R>(
            backend,
            w.positions,
            src,
            dst,
            weight,
            w.vals,
            w.new_vals,
            w.next,
            &mut depth,
        ),
        Variant::Masked => relax_masked::<R>(
            w.positions,
            src,
            dst,
            weight,
            w.vals,
            w.new_vals,
            w.next,
            &mut utilization,
        ),
        Variant::Grouped => {
            // Re-grouping the changing active set every iteration is the
            // cost of reusing inspector/executor here (§4.2).
            let tg = Instant::now();
            let grouping = group_by_key(w.positions, dst);
            w.timings.grouping += tg.elapsed();
            relax_grouped::<R>(&grouping, src, dst, weight, w.vals, w.new_vals, w.next);
        }
    });
    RunResult {
        utilization: variant.records_utilization().then_some(utilization),
        depth: variant.records_depth().then_some(depth),
        ..r
    }
}

/// Runs rule `R` with the edge relaxations of every wave distributed over
/// the execution engine's thread pool.
///
/// The active edge set changes each wave, so the engine partition is
/// rebuilt per iteration from the destinations of the active edges
/// (charged to `timings.partition`). The wave drivers always run
/// **owner-computes** partitioning regardless of `policy.partition`: a
/// relaxation must compare its candidate against the *live* destination
/// value, so workers need the target itself, not an identity-filled private
/// array. Because each destination is owned by exactly one worker and
/// min/max are exact in floating point, results (values, frontiers, and
/// iteration counts) are identical to [`run`] at any thread count.
///
/// The per-worker strategy follows [`Variant::exec_variant`];
/// `policy.threads == 1` runs the single-threaded variant dispatch.
pub fn run_with_policy<R: RelaxRule>(
    graph: &EdgeList,
    variant: Variant,
    max_iters: u32,
    policy: &ExecPolicy,
    init: impl FnOnce(&mut [R::Value], &mut Frontier),
) -> RunResult<R::Value> {
    // Resolved once per run; worker closures capture the resolved value.
    let backend = policy.backend.resolve();
    if policy.threads <= 1 {
        return run_single::<R>(graph, variant, max_iters, backend, init);
    }
    let nv = graph.num_vertices();
    let (src, dst, weight) = (graph.src(), graph.dst(), graph.weight());
    let plan_policy = ExecPolicy { partition: Partition::OwnerComputes, ..*policy };
    // Scalar baselines keep scalar workers; every vectorized variant maps to
    // the in-vector worker (see the `exec_variant` mapping).
    let vector_worker = variant.exec_variant() == ExecVariant::Invec;
    let mut keys: Vec<i32> = Vec::new();
    let mut depth = DepthHistogram::new();
    let mut threads_used = 1;

    let r = wave_loop::<R>(graph, max_iters, init, |w| {
        let Wave { positions, vals, new_vals, next, timings } = w;
        let tp = Instant::now();
        keys.clear();
        keys.extend(positions.iter().map(|&p| dst[p as usize]));
        let plan = ExecPlan::new(&keys, nv, &plan_policy);
        timings.partition += tp.elapsed();
        threads_used = threads_used.max(plan.num_tasks());

        let results = run_plan::<R::Value, R::Op, (Vec<i32>, DepthHistogram), _>(
            &plan,
            new_vals,
            |ctx, view| {
                // Gather this task's active edges, destinations rebased
                // into its owned view. Stream item `k` is the active edge
                // `positions[k]`.
                let lo = ctx.lo as i32;
                let edge_ids: Vec<usize> = match &ctx.items {
                    TaskItems::Span(range) => {
                        range.clone().map(|k| positions[k] as usize).collect()
                    }
                    TaskItems::Picked(picked) => {
                        picked.iter().map(|&k| positions[k as usize] as usize).collect()
                    }
                };
                let t_pos: Vec<u32> = (0..edge_ids.len() as u32).collect();
                let t_src: Vec<i32> = edge_ids.iter().map(|&p| src[p]).collect();
                let t_dst: Vec<i32> = edge_ids.iter().map(|&p| dst[p] - lo).collect();
                let t_w: Vec<f32> = if R::USES_WEIGHT {
                    edge_ids.iter().map(|&p| weight[p]).collect()
                } else {
                    vec![0.0; edge_ids.len()]
                };
                let mut local_next = Frontier::new(view.len());
                let mut local_depth = DepthHistogram::new();
                if vector_worker {
                    relax_invec::<R>(
                        backend,
                        &t_pos,
                        &t_src,
                        &t_dst,
                        &t_w,
                        vals,
                        view,
                        &mut local_next,
                        &mut local_depth,
                    );
                } else {
                    relax_serial::<R>(&t_pos, &t_src, &t_dst, &t_w, vals, view, &mut local_next);
                }
                let improved: Vec<i32> = local_next.vertices().iter().map(|&v| v + lo).collect();
                (improved, local_depth)
            },
        );
        for (improved, local_depth) in results {
            for v in improved {
                next.insert(v);
            }
            depth.merge(&local_depth);
        }
    });
    RunResult { depth: vector_worker.then_some(depth), threads: threads_used, ..r }
}

/// Runs rule `R` with the **grouping-reuse** technique of Jiang et al.
/// (ICS'16, the paper's reference \[11\]) — the realization the paper's
/// `nontiling_and_grouping` bars actually measure:
///
/// * the **whole** edge list is grouped once up front, together with an
///   edge→(window, lane) index (this one-time inspector cost is charged to
///   `timings.grouping`);
/// * each iteration activates the window lanes of the active edges through
///   the index and processes only the touched windows — conflict-free by
///   construction, no per-iteration regrouping.
///
/// Produces bit-identical results to [`run`].
pub fn run_reuse<R: RelaxRule>(
    graph: &EdgeList,
    max_iters: u32,
    init: impl FnOnce(&mut [R::Value], &mut Frontier),
) -> RunResult<R::Value> {
    // One-time inspector: group all edges by destination and build the
    // reuse index.
    let t0 = Instant::now();
    let all_positions: Vec<u32> = (0..graph.num_edges() as u32).collect();
    let grouping = group_by_key(&all_positions, graph.dst());
    let mut slot_of_edge = vec![(0u32, 0u8); graph.num_edges()];
    for (slot_idx, &p) in grouping.slots.iter().enumerate() {
        if p != u32::MAX {
            slot_of_edge[p as usize] = ((slot_idx / 16) as u32, (slot_idx % 16) as u8);
        }
    }
    let inspector = t0.elapsed();

    let (src, dst, weight) = (graph.src(), graph.dst(), graph.weight());
    let mut window_bits = vec![0u16; grouping.num_windows()];
    let mut touched: Vec<u32> = Vec::new();
    let r = wave_loop::<R>(graph, max_iters, init, |w| {
        // Activate the window lanes of the active edges.
        for &p in w.positions {
            let (win, lane) = slot_of_edge[p as usize];
            if window_bits[win as usize] == 0 {
                touched.push(win);
            }
            window_bits[win as usize] |= 1 << lane;
        }
        // Process only the touched windows.
        for &win in &touched {
            let (slots, _) = grouping.window(win as usize);
            let active = invector_simd::Mask16::from_bits(u32::from(window_bits[win as usize]));
            relax_window::<R>(slots, active, src, dst, weight, w.vals, w.new_vals, w.next);
            window_bits[win as usize] = 0;
        }
        touched.clear();
    });
    RunResult { timings: Timings { grouping: inspector, ..r.timings }, ..r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::{SsspRule, SswpRule, WccRule};
    use invector_graph::gen;

    // Cross-variant / cross-backend / parallel agreement on realistic graphs
    // is covered centrally by `tests/registry_golden.rs`; these tests pin the
    // driver's behaviour against hand-computed values and check the
    // per-variant bookkeeping the golden suite does not inspect.

    fn line_graph() -> EdgeList {
        // 0 -1.0-> 1 -2.0-> 2 -3.0-> 3, plus shortcut 0 -10.0-> 3.
        EdgeList::from_weighted_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 10.0)])
    }

    #[test]
    fn line_graph_known_values_for_every_variant() {
        for variant in Variant::ALL {
            let sssp = run::<SsspRule>(&line_graph(), variant, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(sssp.values, vec![0.0, 1.0, 3.0, 6.0], "{variant}");
            assert!(sssp.iterations >= 3, "{variant}");

            let sswp = run::<SswpRule>(&line_graph(), variant, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = f32::INFINITY;
                f.insert(0);
            });
            // Widest path 0->3: direct edge width 10 beats 1-2-3 (width 1).
            assert_eq!(sswp.values, vec![f32::INFINITY, 1.0, 1.0, 10.0], "{variant}");

            // Two components: {0,1,2} and {3,4}.
            let g = EdgeList::from_edges(5, &[(1, 0), (1, 2), (4, 3)]).symmetrized();
            let wcc = run::<WccRule>(&g, variant, DEFAULT_MAX_ITERS, |vals, f| {
                for (v, val) in vals.iter_mut().enumerate() {
                    *val = v as i32;
                    f.insert(v as i32);
                }
            });
            assert_eq!(wcc.values, vec![0, 0, 0, 3, 3], "{variant}");

            // Vertex 2 has no in-path from the source: stays unreached.
            let g = EdgeList::from_weighted_edges(3, &[(0, 1, 1.0)]);
            let r = run::<SsspRule>(&g, variant, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(r.values[2], f32::INFINITY, "{variant}");

            // The iteration cap cuts convergence short.
            let capped = run::<SsspRule>(&line_graph(), variant, 1, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(capped.iterations, 1, "{variant}");
        }
    }

    #[test]
    fn stat_ownership_follows_variant_predicates() {
        let g = gen::rmat(256, 2000, gen::RmatParams::SOCIAL, 3);
        for variant in Variant::ALL {
            let r = run::<SsspRule>(&g, variant, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(r.utilization.is_some(), variant.records_utilization(), "{variant}");
            assert_eq!(r.depth.is_some(), variant.records_depth(), "{variant}");
            assert_eq!(
                r.timings.grouping > std::time::Duration::ZERO,
                variant.needs_grouping(),
                "{variant}"
            );
        }
    }

    #[test]
    fn reuse_variant_matches_run_exactly() {
        for seed in 0..5 {
            let g = gen::rmat(200, 1500, gen::RmatParams::SOCIAL, seed + 40);
            let reference = run::<SsspRule>(&g, Variant::Serial, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            let reuse = run_reuse::<SsspRule>(&g, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(reuse.values, reference.values, "seed {seed}");
            assert_eq!(reuse.iterations, reference.iterations, "seed {seed}");
            assert!(reuse.timings.grouping > std::time::Duration::ZERO);
        }
    }

    #[test]
    fn reuse_variant_groups_once_not_per_iteration() {
        // WCC with every vertex active stresses the dense-frontier path of
        // the reuse index while comparing against per-iteration regrouping.
        let g = gen::uniform(400, 4000, 50).symmetrized();
        let init = |vals: &mut [i32], f: &mut Frontier| {
            for (v, val) in vals.iter_mut().enumerate() {
                *val = v as i32;
                f.insert(v as i32);
            }
        };
        let per_iter = run::<WccRule>(&g, Variant::Grouped, DEFAULT_MAX_ITERS, init);
        let reuse = run_reuse::<WccRule>(&g, DEFAULT_MAX_ITERS, init);
        assert_eq!(reuse.values, per_iter.values);
        // Reuse pays grouping once; the per-iteration variant pays it every
        // round (typically several times more).
        assert!(
            reuse.timings.grouping < per_iter.timings.grouping,
            "reuse {:?} !< per-iter {:?}",
            reuse.timings.grouping,
            per_iter.timings.grouping
        );
    }

    #[test]
    fn parallel_wcc_with_dense_frontier_uses_multiple_workers() {
        let g = gen::uniform(400, 3000, 61).symmetrized();
        let init = |vals: &mut [i32], f: &mut Frontier| {
            for (v, val) in vals.iter_mut().enumerate() {
                *val = v as i32;
                f.insert(v as i32);
            }
        };
        let reference = run::<WccRule>(&g, Variant::Serial, DEFAULT_MAX_ITERS, init);
        let policy = ExecPolicy::with_threads(4);
        let r = run_with_policy::<WccRule>(&g, Variant::Invec, DEFAULT_MAX_ITERS, &policy, init);
        assert_eq!(r.values, reference.values);
        assert!(r.threads > 1, "dense frontier should fan out, used {}", r.threads);
        assert!(r.timings.partition > std::time::Duration::ZERO);
        assert!(r.depth.is_some());
    }
}
