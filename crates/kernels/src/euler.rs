//! Edge-based unstructured-grid solver ("Euler", §2.2).
//!
//! The paper lists unstructured-grid solvers like Euler (Huo et al.) among
//! the associative irregular applications: the solver sweeps over mesh
//! *edges*, computes a flux from the two endpoint states, and accumulates
//! it into **both** endpoints with opposite signs — the same two-target
//! reduction pattern as Moldyn, but with a 4-component state vector
//! (density, x/y momentum, energy).
//!
//! The flux function here is a Rusanov-style diffusive exchange rather than
//! a full compressible-flow flux — the published performance question is
//! about the reduction/memory pattern, which is preserved exactly.

use std::ops::Range;
use std::time::Instant;

use invector_core::backend::Backend;
use invector_core::exec::parallel_chunks;
use invector_core::invec::reduce_alg1_arr_with;
use invector_core::ops::Sum;
use invector_core::stats::{DepthHistogram, Utilization};
use invector_graph::group::{group_by_two_keys, Grouping};
use invector_graph::EdgeList;
use invector_simd::{F32x16, I32x16, Mask16};

use crate::common::{touched_window, ExecPolicy, ExecVariant, Timings, Variant};

/// Number of conserved components per mesh node.
pub const COMPONENTS: usize = 4;

/// Per-node state: `COMPONENTS` structure-of-arrays fields.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// One array per conserved component.
    pub fields: [Vec<f32>; COMPONENTS],
}

impl NodeState {
    /// A zeroed state over `n` nodes.
    pub fn zeroed(n: usize) -> Self {
        NodeState { fields: std::array::from_fn(|_| vec![0.0; n]) }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.fields[0].len()
    }

    /// `true` when the mesh has no nodes.
    pub fn is_empty(&self) -> bool {
        self.fields[0].is_empty()
    }
}

/// Generates a structured-triangulated `n × n` mesh: nodes on a grid,
/// edges to the right / below / diagonal neighbors (the classic way to get
/// an *unstructured-looking* edge list with irregular reuse).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn triangle_mesh(n: usize) -> EdgeList {
    assert!(n >= 2, "mesh needs at least 2x2 nodes");
    let id = |r: usize, c: usize| (r * n + c) as i32;
    let mut edges = Vec::new();
    for r in 0..n {
        for c in 0..n {
            if c + 1 < n {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < n {
                edges.push((id(r, c), id(r + 1, c)));
            }
            if r + 1 < n && c + 1 < n {
                edges.push((id(r, c), id(r + 1, c + 1)));
            }
        }
    }
    EdgeList::from_edges(n * n, &edges)
}

/// A smooth initial field: component `c` of node `v` is
/// `sin(v · (c+1) / 7)` — deterministic and non-trivial.
pub fn initial_state(num_nodes: usize) -> NodeState {
    NodeState {
        fields: std::array::from_fn(|c| {
            (0..num_nodes).map(|v| ((v * (c + 1)) as f32 / 7.0).sin()).collect()
        }),
    }
}

/// Diffusive exchange coefficient.
const KAPPA: f32 = 0.25;

/// One edge-sweep: accumulates the per-edge flux into `update` (both
/// endpoints, opposite signs) with the chosen strategy, returning recorded
/// statistics for the vectorized variants.
///
/// # Panics
///
/// Panics if state/update sizes disagree with the mesh.
pub fn flux_sweep(
    mesh: &EdgeList,
    state: &NodeState,
    update: &mut NodeState,
    variant: Variant,
) -> (Option<Utilization>, Option<DepthHistogram>) {
    flux_sweep_with(mesh, state, update, variant, invector_core::backend::current())
}

/// [`flux_sweep`] against an explicitly resolved backend (the in-vector
/// variant is the only one that dispatches per backend).
///
/// # Panics
///
/// Panics if state/update sizes disagree with the mesh.
pub fn flux_sweep_with(
    mesh: &EdgeList,
    state: &NodeState,
    update: &mut NodeState,
    variant: Variant,
    backend: Backend,
) -> (Option<Utilization>, Option<DepthHistogram>) {
    assert_eq!(state.len(), mesh.num_vertices(), "state size mismatch");
    assert_eq!(update.len(), mesh.num_vertices(), "update size mismatch");
    match variant {
        Variant::Serial | Variant::SerialTiled => {
            sweep_serial_ranged(mesh, state, update, 0, &(0..mesh.num_edges()));
            (None, None)
        }
        Variant::Invec => {
            let mut depth = DepthHistogram::new();
            let all = 0..mesh.num_edges();
            sweep_invec_ranged(mesh, backend, state, update, None, &all, &mut depth);
            (None, Some(depth))
        }
        Variant::Masked => {
            let mut util = Utilization::default();
            sweep_masked(mesh, state, update, &mut util);
            (Some(util), None)
        }
        Variant::Grouped => {
            sweep_grouped(mesh, &group_edges(mesh), state, update);
            (None, None)
        }
    }
}

/// The grouped variant's inspector: the mesh's edges in conflict-free
/// windows of distinct endpoints.
fn group_edges(mesh: &EdgeList) -> Grouping {
    let positions: Vec<u32> = (0..mesh.num_edges() as u32).collect();
    group_by_two_keys(&positions, mesh.src(), mesh.dst())
}

/// Modeled scalar cost of one edge: endpoint loads, 4 state loads per side,
/// 4 flux ops, 8 update load-add-stores.
pub const SERIAL_EDGE_COST: u64 = 26;

/// Computes the per-component flux vectors for the active lanes.
#[inline]
fn flux_vectors(state: &NodeState, active: Mask16, va: I32x16, vb: I32x16) -> [F32x16; COMPONENTS] {
    let kappa = F32x16::splat(KAPPA);
    std::array::from_fn(|c| {
        let ua = F32x16::zero().mask_gather(active, &state.fields[c], va);
        let ub = F32x16::zero().mask_gather(active, &state.fields[c], vb);
        kappa * (ua - ub)
    })
}

/// Gather-add-scatter of the flux components into one endpoint axis.
#[inline]
fn scatter_axis(
    update: &mut NodeState,
    safe: Mask16,
    idx: I32x16,
    flux: &[F32x16; COMPONENTS],
    negate: bool,
) {
    for (c, &f) in flux.iter().enumerate() {
        let old = F32x16::zero().mask_gather(safe, &update.fields[c], idx);
        let new = if negate { old - f } else { old + f };
        new.mask_scatter(safe, &mut update.fields[c], idx);
    }
}

fn sweep_masked(
    mesh: &EdgeList,
    state: &NodeState,
    update: &mut NodeState,
    util: &mut Utilization,
) {
    let (src, dst) = (mesh.src(), mesh.dst());
    let lane_ids = I32x16::iota();
    let mut scratch = vec![0i32; mesh.num_vertices()];
    let mut j = 0;
    while j < mesh.num_edges() {
        let (va, loaded) = I32x16::load_partial(&src[j..], 0);
        let (vb, _) = I32x16::load_partial(&dst[j..], 0);
        let mut active = loaded;
        let mut stuck_guard = 0u32;
        while !active.is_empty() {
            let flux = flux_vectors(state, active, va, vb);
            // Gather-after-scatter conflict detection across both axes.
            lane_ids.mask_scatter(active, &mut scratch, va);
            lane_ids.mask_scatter(active, &mut scratch, vb);
            let got_a = I32x16::zero().mask_gather(active, &scratch, va);
            let got_b = I32x16::zero().mask_gather(active, &scratch, vb);
            let safe = got_a.simd_eq(lane_ids) & got_b.simd_eq(lane_ids) & active;
            scatter_axis(update, safe, va, &flux, true);
            scatter_axis(update, safe, vb, &flux, false);
            util.record(u64::from(safe.count_ones()), 16);
            active = active.and_not(safe);
            // Progress guarantee against gather-after-scatter starvation.
            if safe.is_empty() {
                stuck_guard += 1;
                if stuck_guard > 1 {
                    let lane = active.first_set().expect("nonempty");
                    let pos = j + lane;
                    let a = mesh.src()[pos] as usize;
                    let b = mesh.dst()[pos] as usize;
                    for c in 0..COMPONENTS {
                        let f = KAPPA * (state.fields[c][a] - state.fields[c][b]);
                        update.fields[c][a] -= f;
                        update.fields[c][b] += f;
                    }
                    util.record(1, 16);
                    active = active.with(lane, false);
                }
            } else {
                stuck_guard = 0;
            }
        }
        j += 16;
    }
}

/// One edge-sweep distributed over the execution engine's thread pool.
///
/// Every edge writes **two** endpoints, so the single-target owner-computes
/// partition does not apply; instead edges are chunked in stream order via
/// [`parallel_chunks`] and each worker accumulates into a private
/// [`NodeState`] bounded to the node range its chunk touches (not the whole
/// mesh). Private states are folded into `update` in task order, so results
/// are deterministic across runs at a fixed thread count (and within the
/// usual float-reassociation tolerance of the serial sweep).
///
/// The per-worker strategy follows [`Variant::exec_variant`]; one thread
/// delegates to [`flux_sweep`]. Returns the depth histogram (in-vector
/// workers) and the number of workers used.
pub fn flux_sweep_parallel(
    mesh: &EdgeList,
    state: &NodeState,
    update: &mut NodeState,
    variant: Variant,
    policy: &ExecPolicy,
) -> (Option<DepthHistogram>, usize) {
    assert_eq!(state.len(), mesh.num_vertices(), "state size mismatch");
    assert_eq!(update.len(), mesh.num_vertices(), "update size mismatch");
    // Resolved once per sweep; worker closures capture the resolved value.
    let backend = policy.backend.resolve();
    if policy.threads <= 1 {
        let (_, depth) = flux_sweep_with(mesh, state, update, variant, backend);
        return (depth, 1);
    }
    let worker = variant.exec_variant();
    let results = parallel_chunks(mesh.num_edges(), policy.threads, |_, range| {
        // Bound the private state to the chunk's touched node range.
        let window = touched_window(mesh.src(), mesh.dst(), &range);
        let lo = window.start;
        let mut private = NodeState::zeroed(window.len());
        let mut depth = DepthHistogram::new();
        match worker {
            ExecVariant::Serial => sweep_serial_ranged(mesh, state, &mut private, lo, &range),
            _ => {
                sweep_invec_ranged(mesh, backend, state, &mut private, Some(lo), &range, &mut depth)
            }
        }
        (lo, private, depth)
    });
    let threads = results.len();
    let mut depth = DepthHistogram::new();
    for (lo, private, d) in results {
        for c in 0..COMPONENTS {
            for (slot, p) in
                update.fields[c][lo..lo + private.len()].iter_mut().zip(&private.fields[c])
            {
                *slot += p;
            }
        }
        depth.merge(&d);
    }
    ((worker == ExecVariant::Invec).then_some(depth), threads)
}

/// Scalar sweep of one edge range into an update whose index space starts
/// at node `base`: a worker's private window, or the whole mesh at base 0
/// (the single-thread sweep).
fn sweep_serial_ranged(
    mesh: &EdgeList,
    state: &NodeState,
    update: &mut NodeState,
    base: usize,
    range: &Range<usize>,
) {
    for j in range.clone() {
        let a = mesh.src()[j] as usize;
        let b = mesh.dst()[j] as usize;
        for c in 0..COMPONENTS {
            let flux = KAPPA * (state.fields[c][a] - state.fields[c][b]);
            update.fields[c][a - base] -= flux;
            update.fields[c][b - base] += flux;
        }
    }
    invector_simd::count::bump(SERIAL_EDGE_COST * range.len() as u64);
}

/// In-vector sweep of one edge range: state is gathered with the global
/// node ids. With `base` set the update is a worker's private window
/// starting at that node, and the update scatters through ids rebased by
/// it; with `None` the update is the whole mesh (the single-thread sweep),
/// and the loop skips the rebase and the portable-model instructions it
/// would charge.
fn sweep_invec_ranged(
    mesh: &EdgeList,
    backend: Backend,
    state: &NodeState,
    update: &mut NodeState,
    base: Option<usize>,
    range: &Range<usize>,
    depth: &mut DepthHistogram,
) {
    let (src, dst) = (mesh.src(), mesh.dst());
    let vbase = base.map(|b| I32x16::splat(b as i32));
    let mut j = range.start;
    while j < range.end {
        let (va, active) = I32x16::load_partial(&src[j..range.end], 0);
        let (vb, _) = I32x16::load_partial(&dst[j..range.end], 0);
        let flux = flux_vectors(state, active, va, vb);
        let (ra, rb) = match vbase {
            Some(vbase) => (va - vbase, vb - vbase),
            None => (va, vb),
        };

        let mut comps = flux;
        let (safe_a, d1) =
            reduce_alg1_arr_with::<f32, Sum, COMPONENTS, 16>(backend, active, ra, &mut comps);
        depth.record(d1);
        scatter_axis(update, safe_a, ra, &comps, true);

        let mut comps = flux;
        let (safe_b, d2) =
            reduce_alg1_arr_with::<f32, Sum, COMPONENTS, 16>(backend, active, rb, &mut comps);
        depth.record(d2);
        scatter_axis(update, safe_b, rb, &comps, false);

        j += 16;
    }
}

fn sweep_grouped(mesh: &EdgeList, grouping: &Grouping, state: &NodeState, update: &mut NodeState) {
    let (src, dst) = (mesh.src(), mesh.dst());
    for w in 0..grouping.num_windows() {
        let (slots, maskbits) = grouping.window(w);
        let active = Mask16::from_bits(u32::from(maskbits));
        let vpos = I32x16::from_array(std::array::from_fn(|i| slots[i] as i32));
        let va = I32x16::zero().mask_gather(active, src, vpos);
        let vb = I32x16::zero().mask_gather(active, dst, vpos);
        let flux = flux_vectors(state, active, va, vb);
        scatter_axis(update, active, va, &flux, true);
        scatter_axis(update, active, vb, &flux, false);
    }
}

/// Runs `iterations` explicit edge-sweep steps (`state += dt · update`)
/// and returns the final state: [`euler_run_with_policy`] on one thread.
///
/// # Panics
///
/// Panics if `state.len() != mesh.num_vertices()`.
pub fn euler_run(
    mesh: &EdgeList,
    state: &NodeState,
    variant: Variant,
    iterations: u32,
    dt: f32,
) -> NodeState {
    euler_run_with_policy(mesh, state, variant, iterations, dt, &ExecPolicy::default()).0
}

/// Runs `iterations` explicit edge-sweep steps with every sweep distributed
/// over the execution engine; one thread delegates to the serial driver.
/// Returns the final state, the phase timings (`grouping` = the grouped
/// variant's inspector, `compute` = the sweeps and state updates) and the
/// number of workers used.
///
/// The mesh is static, so the grouped variant's single-thread sweeps share
/// one grouping, built before the first sweep.
///
/// # Panics
///
/// Panics if `state.len() != mesh.num_vertices()`.
pub fn euler_run_with_policy(
    mesh: &EdgeList,
    state: &NodeState,
    variant: Variant,
    iterations: u32,
    dt: f32,
    policy: &ExecPolicy,
) -> (NodeState, Timings, usize) {
    assert_eq!(state.len(), mesh.num_vertices(), "state size mismatch");
    let mut timings = Timings::default();
    let grouping = (variant.needs_grouping() && policy.threads <= 1).then(|| {
        let t = Instant::now();
        let grouping = group_edges(mesh);
        timings.grouping = t.elapsed();
        grouping
    });
    let start = Instant::now();
    let mut state = state.clone();
    let mut update = NodeState::zeroed(state.len());
    let mut threads = 1;
    for _ in 0..iterations {
        for field in &mut update.fields {
            field.fill(0.0);
        }
        match &grouping {
            Some(grouping) => sweep_grouped(mesh, grouping, &state, &mut update),
            None => {
                let (_, used) = flux_sweep_parallel(mesh, &state, &mut update, variant, policy);
                threads = threads.max(used);
            }
        }
        for c in 0..COMPONENTS {
            for (s, u) in state.fields[c].iter_mut().zip(&update.fields[c]) {
                *s += dt * u;
            }
        }
    }
    timings.compute = start.elapsed();
    (state, timings, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn assert_state_close(a: &NodeState, b: &NodeState, tol: f32) {
        for c in 0..COMPONENTS {
            for (v, (x, y)) in a.fields[c].iter().zip(&b.fields[c]).enumerate() {
                assert!(
                    (x - y).abs() <= tol * (x.abs() + y.abs() + 1e-3),
                    "component {c} node {v}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn mesh_has_expected_shape() {
        let mesh = triangle_mesh(4);
        assert_eq!(mesh.num_vertices(), 16);
        // 12 horizontal + 12 vertical + 9 diagonal edges.
        assert_eq!(mesh.num_edges(), 33);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_mesh_rejected() {
        let _ = triangle_mesh(1);
    }

    #[test]
    fn flux_conserves_every_component() {
        // Diffusive exchange moves mass between nodes, never creates it.
        let mesh = triangle_mesh(6);
        let state = initial_state(36);
        let mut update = NodeState::zeroed(36);
        flux_sweep(&mesh, &state, &mut update, Variant::Serial);
        for c in 0..COMPONENTS {
            let net: f32 = update.fields[c].iter().sum();
            assert!(net.abs() < 1e-4, "component {c} net {net}");
        }
    }

    #[test]
    fn all_variants_agree_on_one_sweep() {
        let mesh = triangle_mesh(8);
        let state = initial_state(64);
        let mut reference = NodeState::zeroed(64);
        flux_sweep(&mesh, &state, &mut reference, Variant::Serial);
        for variant in Variant::ALL {
            let mut update = NodeState::zeroed(64);
            let (util, depth) = flux_sweep(&mesh, &state, &mut update, variant);
            assert_state_close(&update, &reference, 1e-3);
            match variant {
                Variant::Masked => assert!(util.expect("util").slots > 0),
                Variant::Invec => assert!(depth.expect("depth").invocations() > 0),
                _ => {}
            }
        }
    }

    #[test]
    fn multi_step_runs_agree_and_diffuse() {
        let mesh = triangle_mesh(6);
        let state = initial_state(36);
        let serial = euler_run(&mesh, &state, Variant::Serial, 10, 0.05);
        for variant in [Variant::Invec, Variant::Masked, Variant::Grouped] {
            let got = euler_run(&mesh, &state, variant, 10, 0.05);
            assert_state_close(&got, &serial, 2e-3);
        }
        // Diffusion shrinks the field's variance.
        let var = |f: &[f32]| {
            let mean: f32 = f.iter().sum::<f32>() / f.len() as f32;
            f.iter().map(|x| (x - mean).powi(2)).sum::<f32>()
        };
        assert!(var(&serial.fields[0]) < var(&state.fields[0]));
    }

    #[cfg(feature = "count")]
    #[test]
    fn invec_cheaper_than_masked_in_model() {
        let mesh = triangle_mesh(24);
        let state = initial_state(mesh.num_vertices());
        let mut u1 = NodeState::zeroed(state.len());
        invector_simd::count::reset();
        flux_sweep(&mesh, &state, &mut u1, Variant::Invec);
        let invec_cost = invector_simd::count::take();
        let mut u2 = NodeState::zeroed(state.len());
        flux_sweep(&mesh, &state, &mut u2, Variant::Masked);
        let masked_cost = invector_simd::count::take();
        assert!(invec_cost < masked_cost, "{invec_cost} !< {masked_cost}");
    }

    #[test]
    fn parallel_sweeps_agree_with_serial_across_thread_counts() {
        let mesh = triangle_mesh(10);
        let state = initial_state(100);
        let mut reference = NodeState::zeroed(100);
        flux_sweep(&mesh, &state, &mut reference, Variant::Serial);
        for threads in [2, 3, 8] {
            for variant in [Variant::Serial, Variant::Invec] {
                let mut update = NodeState::zeroed(100);
                let policy = ExecPolicy::with_threads(threads);
                let (depth, used) =
                    flux_sweep_parallel(&mesh, &state, &mut update, variant, &policy);
                assert_state_close(&update, &reference, 1e-3);
                assert!(used > 1, "{variant} {threads} threads");
                assert_eq!(depth.is_some(), variant == Variant::Invec);
            }
        }
    }

    #[test]
    fn parallel_multi_step_run_is_deterministic_and_tracks_serial() {
        let mesh = triangle_mesh(8);
        let state = initial_state(64);
        let serial = euler_run(&mesh, &state, Variant::Serial, 10, 0.05);
        let policy = ExecPolicy::with_threads(4);
        let (par, _, threads) =
            euler_run_with_policy(&mesh, &state, Variant::Invec, 10, 0.05, &policy);
        assert!(threads > 1);
        assert_state_close(&par, &serial, 2e-3);
        // Fixed thread count, fold in task order: reruns are bit-identical.
        let (again, _, _) = euler_run_with_policy(&mesh, &state, Variant::Invec, 10, 0.05, &policy);
        assert_eq!(par, again);
    }

    #[test]
    fn only_the_single_thread_grouped_run_reports_grouping_time() {
        let mesh = triangle_mesh(8);
        let state = initial_state(64);
        for threads in [1, 2] {
            for variant in Variant::ALL {
                let policy = ExecPolicy::with_threads(threads);
                let (_, timings, _) =
                    euler_run_with_policy(&mesh, &state, variant, 3, 0.05, &policy);
                let grouped = variant.needs_grouping() && threads == 1;
                assert_eq!(timings.grouping > Duration::ZERO, grouped, "{variant} {threads}");
                assert!(timings.compute > Duration::ZERO);
            }
        }
    }

    #[test]
    fn grid_edges_conflict_heavily_in_vectors() {
        // Consecutive mesh edges share endpoints: the invec depth must be
        // substantial (this is why the app class needs conflict handling).
        let mesh = triangle_mesh(16);
        let state = initial_state(mesh.num_vertices());
        let mut update = NodeState::zeroed(state.len());
        let (_, depth) = flux_sweep(&mesh, &state, &mut update, Variant::Invec);
        assert!(depth.expect("depth").mean() > 1.0);
    }
}
