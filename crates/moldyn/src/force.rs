//! Lennard-Jones force kernels — one per implementation strategy.
//!
//! The force loop is a *two-target* associative irregular reduction: each
//! interaction pair `(i, j)` adds a 3-D force to molecule `i` and subtracts
//! it from molecule `j`. A SIMD lane therefore writes **two** indexed
//! locations, and conflicts can arise within the `i` vector, within the `j`
//! vector, and across them. The variants resolve this differently:
//!
//! * `grouped` — windows pre-arranged so all 32 endpoint writes are distinct;
//! * `masked` — gather-after-scatter conflict detection (Polychroniou-style,
//!   the technique the paper cites for conflict-masking) covering both axes;
//! * `invec` — two in-vector reductions (one per axis) over the 3 force
//!   components, sharing each axis's merge schedule via
//!   [`invector_core::invec::reduce_alg1_arr`].

use std::ops::Range;

use invector_core::backend::Backend;
use invector_core::exec::parallel_chunks;
use invector_core::invec::reduce_alg1_arr_with;
use invector_core::ops::Sum;
use invector_core::stats::{DepthHistogram, Utilization};
use invector_graph::group::Grouping;
use invector_kernels::{touched_window, ExecPolicy, ExecVariant, Variant};
use invector_simd::{F32x16, I32x16, Mask16};

use crate::input::Molecules;
use crate::neighbor::PairList;

/// Per-molecule force accumulators (structure of arrays).
#[derive(Debug, Clone, PartialEq)]
pub struct Forces {
    /// X components.
    pub fx: Vec<f32>,
    /// Y components.
    pub fy: Vec<f32>,
    /// Z components.
    pub fz: Vec<f32>,
}

impl Forces {
    /// Zeroed force arrays for `n` molecules.
    pub fn zeroed(n: usize) -> Self {
        Forces { fx: vec![0.0; n], fy: vec![0.0; n], fz: vec![0.0; n] }
    }

    /// Resets all components to zero (start of a force evaluation).
    pub fn clear(&mut self) {
        self.fx.fill(0.0);
        self.fy.fill(0.0);
        self.fz.fill(0.0);
    }
}

/// Lennard-Jones force magnitude factor: given `r²`, returns `s` such that
/// the force on `i` is `s · (pos_i - pos_j)` (ε = σ = 1).
#[inline(always)]
fn lj_scalar(r2: f32) -> f32 {
    let sr2 = 1.0 / r2;
    let sr6 = sr2 * sr2 * sr2;
    24.0 * sr6 * (2.0 * sr6 - 1.0) * sr2
}

/// Modeled scalar cost of the distance test of one pair: index loads, six
/// coordinate loads, the r² arithmetic, and the compare.
pub const SERIAL_PAIR_COST: u64 = 14;

/// Extra modeled scalar cost of an in-cutoff pair: the LJ arithmetic plus
/// twelve force loads/stores.
pub const SERIAL_NEAR_COST: u64 = 22;

/// Scalar force evaluation (the baseline all SIMD variants must match): the
/// engine workers' scalar loop over the whole pair list at base 0.
///
/// Pairs farther apart than `cutoff` contribute nothing (molecules drift
/// between neighbor-list rebuilds).
pub fn forces_serial(m: &Molecules, pairs: &PairList, cutoff: f32, out: &mut Forces) {
    forces_serial_ranged(m, pairs, cutoff, &(0..pairs.len()), 0, out);
}

/// Computes the pair interaction vectors for the active lanes: returns the
/// within-cutoff mask and the force components `(sx, sy, sz)` on `i`.
#[inline]
fn pair_forces(
    m: &Molecules,
    active: Mask16,
    vi: I32x16,
    vj: I32x16,
    cutoff2: f32,
) -> (Mask16, F32x16, F32x16, F32x16) {
    let pix = F32x16::zero().mask_gather(active, &m.px, vi);
    let piy = F32x16::zero().mask_gather(active, &m.py, vi);
    let piz = F32x16::zero().mask_gather(active, &m.pz, vi);
    let pjx = F32x16::zero().mask_gather(active, &m.px, vj);
    let pjy = F32x16::zero().mask_gather(active, &m.py, vj);
    let pjz = F32x16::zero().mask_gather(active, &m.pz, vj);
    let dx = pix - pjx;
    let dy = piy - pjy;
    let dz = piz - pjz;
    let r2 = dx * dx + dy * dy + dz * dz;
    let near = r2.simd_le(F32x16::splat(cutoff2)) & r2.simd_gt(F32x16::zero()) & active;
    // 1/r2 on near lanes; inactive lanes divide by 1 to stay finite.
    let safe_r2 = r2.blend(near, F32x16::splat(1.0));
    let sr2 = F32x16::splat(1.0) / safe_r2;
    let sr6 = sr2 * sr2 * sr2;
    let s = F32x16::splat(24.0) * sr6 * (sr6 + sr6 - F32x16::splat(1.0)) * sr2;
    (near, s * dx, s * dy, s * dz)
}

/// Force evaluation with **in-vector reduction**: each axis's conflicting
/// lanes are folded in-vector, then committed with one conflict-free
/// gather-add-scatter per axis. The engine workers' in-vector loop over the
/// whole pair list, writing `out` without a rebase.
pub fn forces_invec(
    backend: Backend,
    m: &Molecules,
    pairs: &PairList,
    cutoff: f32,
    out: &mut Forces,
    depth: &mut DepthHistogram,
) {
    forces_invec_ranged(backend, m, pairs, cutoff, &(0..pairs.len()), None, out, depth);
}

/// Gather-add-scatter of three force components on the safe lanes.
#[inline]
fn scatter_add(out: &mut Forces, safe: Mask16, idx: I32x16, comps: &[F32x16; 3], negate: bool) {
    let arrays: [&mut Vec<f32>; 3] = [&mut out.fx, &mut out.fy, &mut out.fz];
    for (arr, &c) in arrays.into_iter().zip(comps.iter()) {
        let old = F32x16::zero().mask_gather(safe, arr, idx);
        let new = if negate { old - c } else { old + c };
        new.mask_scatter(safe, arr, idx);
    }
}

/// Force accumulation distributed over the execution engine's thread pool.
///
/// Each pair writes **two** molecules, so the single-target owner-computes
/// partition does not apply; pairs are chunked in stream order via
/// [`parallel_chunks`] and each worker accumulates into a private
/// [`Forces`] window bounded to the molecule range its chunk touches (not
/// all molecules — the engine's touched-range rule). Private windows are
/// folded into `out` in task order: deterministic across runs at a fixed
/// thread count, within float-reassociation tolerance of [`forces_serial`].
///
/// The per-worker strategy follows [`Variant::exec_variant`] (scalar
/// baselines stay scalar, vectorized variants run in-vector reduction); one
/// thread delegates to the serial or in-vector kernel directly. Returns the
/// conflict-depth histogram (in-vector workers) and the workers used.
pub fn forces_parallel(
    m: &Molecules,
    pairs: &PairList,
    cutoff: f32,
    out: &mut Forces,
    variant: Variant,
    policy: &ExecPolicy,
) -> (Option<DepthHistogram>, usize) {
    let worker = variant.exec_variant();
    // Resolved once per evaluation; worker closures capture the resolved
    // value.
    let backend = policy.backend.resolve();
    if policy.threads <= 1 {
        let mut depth = DepthHistogram::new();
        match worker {
            ExecVariant::Serial => forces_serial(m, pairs, cutoff, out),
            _ => forces_invec(backend, m, pairs, cutoff, out, &mut depth),
        }
        return ((worker == ExecVariant::Invec).then_some(depth), 1);
    }
    let results = parallel_chunks(pairs.len(), policy.threads, |_, range| {
        // Bound the private window to the chunk's touched molecule range.
        let window = touched_window(&pairs.i, &pairs.j, &range);
        let lo = window.start;
        let mut private = Forces::zeroed(window.len());
        let mut depth = DepthHistogram::new();
        match worker {
            ExecVariant::Serial => {
                forces_serial_ranged(m, pairs, cutoff, &range, lo, &mut private);
            }
            _ => forces_invec_ranged(
                backend,
                m,
                pairs,
                cutoff,
                &range,
                Some(lo),
                &mut private,
                &mut depth,
            ),
        }
        (lo, private, depth)
    });
    let threads = results.len();
    let mut depth = DepthHistogram::new();
    for (lo, private, d) in results {
        for (slot, p) in out.fx[lo..lo + private.fx.len()].iter_mut().zip(&private.fx) {
            *slot += p;
        }
        for (slot, p) in out.fy[lo..lo + private.fy.len()].iter_mut().zip(&private.fy) {
            *slot += p;
        }
        for (slot, p) in out.fz[lo..lo + private.fz.len()].iter_mut().zip(&private.fz) {
            *slot += p;
        }
        depth.merge(&d);
    }
    ((worker == ExecVariant::Invec).then_some(depth), threads)
}

/// Scalar force evaluation of one pair range into forces whose index space
/// starts at molecule `base`: a worker's private window, or all molecules
/// at base 0 ([`forces_serial`]).
fn forces_serial_ranged(
    m: &Molecules,
    pairs: &PairList,
    cutoff: f32,
    range: &Range<usize>,
    base: usize,
    out: &mut Forces,
) {
    let mut near = 0u64;
    let cutoff2 = cutoff * cutoff;
    for p in range.clone() {
        let (a, b) = (pairs.i[p] as usize, pairs.j[p] as usize);
        let dx = m.px[a] - m.px[b];
        let dy = m.py[a] - m.py[b];
        let dz = m.pz[a] - m.pz[b];
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 <= cutoff2 && r2 > 0.0 {
            let s = lj_scalar(r2);
            let (a, b) = (a - base, b - base);
            out.fx[a] += s * dx;
            out.fy[a] += s * dy;
            out.fz[a] += s * dz;
            out.fx[b] -= s * dx;
            out.fy[b] -= s * dy;
            out.fz[b] -= s * dz;
            near += 1;
        }
    }
    invector_simd::count::bump(SERIAL_PAIR_COST * range.len() as u64 + SERIAL_NEAR_COST * near);
}

/// In-vector force evaluation of one pair range: positions are gathered
/// with the global molecule ids. With `base` set, `out` is a worker's
/// private window starting at that molecule and forces scatter through ids
/// rebased by it; with `None`, `out` covers all molecules
/// ([`forces_invec`]), and the loop skips the rebase and the portable-model
/// instructions it would charge.
#[allow(clippy::too_many_arguments)]
fn forces_invec_ranged(
    backend: Backend,
    m: &Molecules,
    pairs: &PairList,
    cutoff: f32,
    range: &Range<usize>,
    base: Option<usize>,
    out: &mut Forces,
    depth: &mut DepthHistogram,
) {
    let cutoff2 = cutoff * cutoff;
    let vbase = base.map(|b| I32x16::splat(b as i32));
    let mut k = range.start;
    while k < range.end {
        let (vi, active) = I32x16::load_partial(&pairs.i[k..range.end], 0);
        let (vj, _) = I32x16::load_partial(&pairs.j[k..range.end], 0);
        let (near, sx, sy, sz) = pair_forces(m, active, vi, vj, cutoff2);
        let (ri, rj) = match vbase {
            Some(vbase) => (vi - vbase, vj - vbase),
            None => (vi, vj),
        };

        // Axis i: accumulate +f.
        let mut comps = [sx, sy, sz];
        let (safe_i, d1) = reduce_alg1_arr_with::<f32, Sum, 3, 16>(backend, near, ri, &mut comps);
        depth.record(d1);
        scatter_add(out, safe_i, ri, &comps, false);

        // Axis j: accumulate -f (fresh copies; the i-axis reduction mutated
        // its lanes).
        let mut comps = [sx, sy, sz];
        let (safe_j, d2) = reduce_alg1_arr_with::<f32, Sum, 3, 16>(backend, near, rj, &mut comps);
        depth.record(d2);
        scatter_add(out, safe_j, rj, &comps, true);

        k += 16;
    }
}

/// Force evaluation with **conflict-masking** using gather-after-scatter
/// detection across both write axes: each lane scatters its id through both
/// endpoint indices into a scratch array and commits only if it reads its
/// own id back through both (the masking approach of Polychroniou et al.
/// that the paper benchmarks against).
///
/// `scratch` must have one slot per molecule and is clobbered.
pub fn forces_masked(
    m: &Molecules,
    pairs: &PairList,
    cutoff: f32,
    out: &mut Forces,
    scratch: &mut [i32],
    util: &mut Utilization,
) {
    assert_eq!(scratch.len(), m.len(), "scratch must cover all molecules");
    let cutoff2 = cutoff * cutoff;
    let lane_ids = I32x16::iota();
    let mut k = 0;
    while k < pairs.len() {
        let (vi, loaded) = I32x16::load_partial(&pairs.i[k..], 0);
        let (vj, _) = I32x16::load_partial(&pairs.j[k..], 0);
        let mut active = loaded;
        let mut first_round = true;
        while !active.is_empty() {
            let (near, sx, sy, sz) = pair_forces(m, active, vi, vj, cutoff2);
            // Gather-after-scatter: last writer per slot wins; a lane is
            // conflict-free iff it owns both of its slots afterwards.
            lane_ids.mask_scatter(near, scratch, vi);
            lane_ids.mask_scatter(near, scratch, vj);
            let got_i = I32x16::zero().mask_gather(near, scratch, vi);
            let got_j = I32x16::zero().mask_gather(near, scratch, vj);
            let safe = got_i.simd_eq(lane_ids) & got_j.simd_eq(lane_ids) & near;
            scatter_add(out, safe, vi, &[sx, sy, sz], false);
            scatter_add(out, safe, vj, &[sx, sy, sz], true);
            // Out-of-cutoff lanes complete quietly on their first look.
            // Utilization counts committing writers only (the paper's
            // measure).
            let done = safe | active.and_not(near);
            util.record(u64::from(safe.count_ones()), 16);
            active = active.and_not(done);
            // Guarantee progress even if gather-after-scatter starves a lane
            // pair cycle: commit the lowest remaining lane scalar-style.
            if !active.is_empty() && safe.is_empty() && !first_round {
                let lane = active.first_set().expect("nonempty");
                commit_scalar(m, pairs, cutoff2, k + lane, out);
                util.record(1, 16);
                active = active.with(lane, false);
            }
            first_round = false;
        }
        k += 16;
    }
}

/// Scalar fallback for a single pair (progress guarantee of the masked loop).
fn commit_scalar(m: &Molecules, pairs: &PairList, cutoff2: f32, pos: usize, out: &mut Forces) {
    let (a, b) = (pairs.i[pos] as usize, pairs.j[pos] as usize);
    let dx = m.px[a] - m.px[b];
    let dy = m.py[a] - m.py[b];
    let dz = m.pz[a] - m.pz[b];
    let r2 = dx * dx + dy * dy + dz * dz;
    if r2 <= cutoff2 && r2 > 0.0 {
        let s = lj_scalar(r2);
        out.fx[a] += s * dx;
        out.fy[a] += s * dy;
        out.fz[a] += s * dz;
        out.fx[b] -= s * dx;
        out.fy[b] -= s * dy;
        out.fz[b] -= s * dz;
    }
}

/// Force evaluation over **pre-grouped** windows: all 32 endpoint writes in
/// a window are distinct by construction, so both axes commit with unmasked
/// conflict handling (the inspector/executor executor phase).
pub fn forces_grouped(
    m: &Molecules,
    pairs: &PairList,
    grouping: &Grouping,
    cutoff: f32,
    out: &mut Forces,
) {
    let cutoff2 = cutoff * cutoff;
    for w in 0..grouping.num_windows() {
        let (slots, maskbits) = grouping.window(w);
        let active = Mask16::from_bits(u32::from(maskbits));
        let vpos = I32x16::from_array(std::array::from_fn(|l| slots[l] as i32));
        let vi = I32x16::zero().mask_gather(active, &pairs.i, vpos);
        let vj = I32x16::zero().mask_gather(active, &pairs.j, vpos);
        let (near, sx, sy, sz) = pair_forces(m, active, vi, vj, cutoff2);
        scatter_add(out, near, vi, &[sx, sy, sz], false);
        scatter_add(out, near, vj, &[sx, sy, sz], true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{fcc_lattice, Molecules, CUTOFF};
    use crate::neighbor::build_pairs;
    use invector_graph::group::group_by_two_keys;

    fn assert_forces_close(a: &Forces, b: &Forces, tol: f32) {
        for (x, y) in
            a.fx.iter().zip(&b.fx).chain(a.fy.iter().zip(&b.fy)).chain(a.fz.iter().zip(&b.fz))
        {
            assert!((x - y).abs() <= tol * (x.abs() + y.abs() + 1.0), "{x} vs {y}");
        }
    }

    fn two_molecules(r: f32) -> (Molecules, PairList) {
        let m = Molecules {
            px: vec![0.0, r],
            py: vec![0.0, 0.0],
            pz: vec![0.0, 0.0],
            vx: vec![0.0; 2],
            vy: vec![0.0; 2],
            vz: vec![0.0; 2],
            box_size: 10.0,
        };
        (m, PairList { i: vec![0], j: vec![1] })
    }

    #[test]
    fn lj_force_is_zero_at_potential_minimum() {
        // Minimum of LJ at r = 2^(1/6).
        let r = 2.0f32.powf(1.0 / 6.0);
        let (m, pairs) = two_molecules(r);
        let mut f = Forces::zeroed(2);
        forces_serial(&m, &pairs, CUTOFF, &mut f);
        assert!(f.fx[0].abs() < 1e-4, "force at minimum: {}", f.fx[0]);
    }

    #[test]
    fn lj_force_is_repulsive_close_and_attractive_far() {
        let (m, pairs) = two_molecules(0.9);
        let mut f = Forces::zeroed(2);
        forces_serial(&m, &pairs, CUTOFF, &mut f);
        assert!(f.fx[0] < 0.0, "molecule 0 pushed away (negative x)");
        assert_eq!(f.fx[0], -f.fx[1], "Newton's third law");

        let (m, pairs) = two_molecules(1.5);
        let mut f = Forces::zeroed(2);
        forces_serial(&m, &pairs, CUTOFF, &mut f);
        assert!(f.fx[0] > 0.0, "molecule 0 pulled toward 1");
    }

    #[test]
    fn pairs_beyond_cutoff_contribute_nothing() {
        let (m, pairs) = two_molecules(CUTOFF + 0.1);
        let mut f = Forces::zeroed(2);
        forces_serial(&m, &pairs, CUTOFF, &mut f);
        assert_eq!(f.fx, vec![0.0, 0.0]);
    }

    #[test]
    fn total_force_is_conserved() {
        let m = fcc_lattice(3, 9);
        let pairs = build_pairs(&m, CUTOFF);
        let mut f = Forces::zeroed(m.len());
        forces_serial(&m, &pairs, CUTOFF, &mut f);
        let sum_x: f32 = f.fx.iter().sum();
        assert!(sum_x.abs() < 0.5, "net force should vanish, got {sum_x}");
    }

    #[test]
    fn all_variants_match_serial_on_a_lattice() {
        let m = fcc_lattice(3, 11);
        let pairs = build_pairs(&m, CUTOFF);
        let n = m.len();

        let mut reference = Forces::zeroed(n);
        forces_serial(&m, &pairs, CUTOFF, &mut reference);

        let mut f_invec = Forces::zeroed(n);
        let mut depth = DepthHistogram::new();
        forces_invec(Backend::Portable, &m, &pairs, CUTOFF, &mut f_invec, &mut depth);
        assert_forces_close(&f_invec, &reference, 1e-3);
        assert!(depth.invocations() > 0);

        let mut f_masked = Forces::zeroed(n);
        let mut scratch = vec![0i32; n];
        let mut util = Utilization::default();
        forces_masked(&m, &pairs, CUTOFF, &mut f_masked, &mut scratch, &mut util);
        assert_forces_close(&f_masked, &reference, 1e-3);
        assert!(util.ratio() > 0.0 && util.ratio() <= 1.0);

        let positions: Vec<u32> = (0..pairs.len() as u32).collect();
        let grouping = group_by_two_keys(&positions, &pairs.i, &pairs.j);
        let mut f_grouped = Forces::zeroed(n);
        forces_grouped(&m, &pairs, &grouping, CUTOFF, &mut f_grouped);
        assert_forces_close(&f_grouped, &reference, 1e-3);
    }

    #[test]
    fn heavy_conflicts_still_correct() {
        // Star topology: molecule 0 interacts with 40 others -> every vector
        // is fully conflicted on the i axis.
        let n = 41;
        let mut m = Molecules {
            px: vec![0.0; n],
            py: vec![0.0; n],
            pz: vec![0.0; n],
            vx: vec![0.0; n],
            vy: vec![0.0; n],
            vz: vec![0.0; n],
            box_size: 100.0,
        };
        for k in 1..n {
            let angle = k as f32;
            m.px[k] = 1.1 * angle.cos();
            m.py[k] = 1.1 * angle.sin();
            m.pz[k] = 0.01 * k as f32;
        }
        let pairs = PairList { i: vec![0; n - 1], j: (1..n as i32).collect() };

        let mut reference = Forces::zeroed(n);
        forces_serial(&m, &pairs, CUTOFF, &mut reference);

        let mut f_invec = Forces::zeroed(n);
        let mut depth = DepthHistogram::new();
        forces_invec(Backend::Portable, &m, &pairs, CUTOFF, &mut f_invec, &mut depth);
        assert_forces_close(&f_invec, &reference, 1e-3);
        assert!(depth.mean() > 0.4, "i-axis fully conflicted, mean {}", depth.mean());

        let mut f_masked = Forces::zeroed(n);
        let mut scratch = vec![0i32; n];
        let mut util = Utilization::default();
        forces_masked(&m, &pairs, CUTOFF, &mut f_masked, &mut scratch, &mut util);
        assert_forces_close(&f_masked, &reference, 1e-3);
        assert!(util.ratio() < 0.5, "conflicted masking utilization {}", util.ratio());
    }

    #[test]
    fn empty_pair_list_is_noop() {
        let m = fcc_lattice(2, 1);
        let mut f = Forces::zeroed(m.len());
        let mut depth = DepthHistogram::new();
        forces_invec(Backend::Portable, &m, &PairList::default(), CUTOFF, &mut f, &mut depth);
        assert!(f.fx.iter().all(|&x| x == 0.0));
    }
}
