//! Incremental graph analytics over an evolving edge stream.
//!
//! Slot layout for both graph kinds (`n` vertices):
//!
//! ```text
//! [0, n)                 per-vertex values (f32 rank bits / i32 WCC labels)
//! [n, n + ceil(n^2/32))  adjacency bitmap, bit u*n + v  =  edge u -> v
//! ```
//!
//! Events are `(src, dst | DELETE_BIT?)` pairs; out-of-range endpoints and
//! no-op edits (inserting a present edge, deleting an absent one) are
//! ignored deterministically. Because the full edge set rides in the
//! checksummed slot array, recovery and replication rebuild the engines'
//! adjacency caches (and, for PageRank, the memoized layer pyramid) from
//! the slots alone.
//!
//! # Determinism argument
//!
//! *PageRank* maintains all `K + 1` layers of the synchronous recurrence
//! and, per slice, recomputes layer `i` only on the dirty set
//! `D_i = base ∪ out(changed_{i-1})` where `base` covers vertices whose
//! in-edge multiset or in-neighbour out-degrees changed. Each dirty vertex
//! is re-evaluated from layer `i-1` with its in-edge contributions folded
//! in ascending source order through the deterministic in-vector epoch
//! driver — the same left-to-right f32 fold the from-scratch serial
//! evaluator uses — so every layer (hence the served value region) is
//! bitwise identical to a from-scratch recompute at every snapshot point.
//!
//! *WCC* maintains the min-label fixed point of the symmetrized graph. The
//! fixed point is unique (labels are member ids; the component minimum is
//! reachable and no smaller id exists in the component), so any relaxation
//! schedule that reaches it is bitwise deterministic. Insertions seed the
//! frontier with the edge endpoints; deletions reset every vertex of each
//! touched component to its own id and seed the reset set plus its
//! neighbourhood, after which synchronous frontier waves on the in-vector
//! relax kernel re-converge.

use std::collections::BTreeSet;

use invector_core::ops::Sum;
use invector_core::stats::DepthHistogram;
use invector_core::{execute_epoch, EpochScratch, ExecPolicy, ExecVariant, InvecStats};
use invector_graph::Frontier;
use invector_kernels::relax::{relax_invec, relax_serial, WccRule};

use crate::{base_rank, bitmap_words, reference, DAMPING, DELETE_BIT};

/// Mutable adjacency (sorted out- and in-lists), mirrored by the slot
/// bitmap.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    out: Vec<Vec<u32>>,
    inn: Vec<Vec<u32>>,
}

impl Adjacency {
    fn new(n: usize) -> Self {
        Adjacency { out: vec![Vec::new(); n], inn: vec![Vec::new(); n] }
    }

    /// Inserts `u -> v`; `false` if already present.
    fn insert(&mut self, u: u32, v: u32) -> bool {
        match self.out[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.out[u as usize].insert(pos, v);
                let ipos = self.inn[v as usize].binary_search(&u).unwrap_err();
                self.inn[v as usize].insert(ipos, u);
                true
            }
        }
    }

    /// Removes `u -> v`; `false` if absent.
    fn remove(&mut self, u: u32, v: u32) -> bool {
        match self.out[u as usize].binary_search(&v) {
            Err(_) => false,
            Ok(pos) => {
                self.out[u as usize].remove(pos);
                let ipos = self.inn[v as usize].binary_search(&u).unwrap();
                self.inn[v as usize].remove(ipos);
                true
            }
        }
    }

    fn from_bitmap(slots: &[i32], n: usize) -> Self {
        let mut adj = Adjacency::new(n);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if bit_get(slots, n, u, v) {
                    adj.insert(u, v);
                }
            }
        }
        adj
    }

    /// Ascending merged out ∪ in neighbours of `u` (the symmetrized view
    /// WCC runs on).
    #[cfg(test)]
    fn undirected(&self, u: u32) -> Vec<u32> {
        let (a, b) = (&self.out[u as usize], &self.inn[u as usize]);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            merged.push(next);
        }
        merged
    }
}

#[inline]
fn bit_get(slots: &[i32], n: usize, u: u32, v: u32) -> bool {
    let bit = u as usize * n + v as usize;
    slots[n + bit / 32] & (1 << (bit % 32)) != 0
}

#[inline]
fn bit_set(slots: &mut [i32], n: usize, u: u32, v: u32) {
    let bit = u as usize * n + v as usize;
    slots[n + bit / 32] |= 1 << (bit % 32);
}

#[inline]
fn bit_clear(slots: &mut [i32], n: usize, u: u32, v: u32) {
    let bit = u as usize * n + v as usize;
    slots[n + bit / 32] &= !(1 << (bit % 32));
}

/// Decodes and applies one slice of edge events to `adj` and the slot
/// bitmap, recording which vertices' in-edge sets / out-degrees actually
/// changed and which edges were really deleted.
struct EdgeDelta {
    changed_in: BTreeSet<u32>,
    changed_out: BTreeSet<u32>,
    inserted: Vec<(u32, u32)>,
    deleted: Vec<(u32, u32)>,
}

fn apply_edges(
    adj: &mut Adjacency,
    slots: &mut [i32],
    n: usize,
    events: &[(u32, u32)],
) -> EdgeDelta {
    let mut delta = EdgeDelta {
        changed_in: BTreeSet::new(),
        changed_out: BTreeSet::new(),
        inserted: Vec::new(),
        deleted: Vec::new(),
    };
    for &(src, bits) in events {
        let dst = bits & !DELETE_BIT;
        if src as usize >= n || dst as usize >= n {
            continue;
        }
        if bits & DELETE_BIT != 0 {
            if adj.remove(src, dst) {
                bit_clear(slots, n, src, dst);
                delta.deleted.push((src, dst));
                delta.changed_in.insert(dst);
                delta.changed_out.insert(src);
            }
        } else if adj.insert(src, dst) {
            bit_set(slots, n, src, dst);
            delta.inserted.push((src, dst));
            delta.changed_in.insert(dst);
            delta.changed_out.insert(src);
        }
    }
    delta
}

/// Incrementally maintained synchronous PageRank (`iters` fixed iterations
/// from the uniform vector).
#[derive(Debug, Clone)]
pub struct PageRankEngine {
    n: usize,
    iters: usize,
    adj: Adjacency,
    /// All `iters + 1` memoized layers; layer 0 is the uniform vector.
    layers: Vec<Vec<f32>>,
    /// Dense scatter target for dirty-vertex contribution sums.
    sums: Vec<f32>,
    scratch: EpochScratch<f32>,
    /// Dense dirty-set membership stamps: `stamp[v] == gen` means `v` is in
    /// the set currently being built. Generation bumps make clearing O(1);
    /// churn streams mark the same hot vertices every slice, so set
    /// maintenance must not cost an allocation or a tree walk per member.
    stamp: Vec<u64>,
    gen: u64,
}

impl PageRankEngine {
    pub fn new(n: usize, iters: usize) -> Self {
        PageRankEngine {
            n,
            iters,
            adj: Adjacency::new(n),
            layers: Vec::new(),
            sums: vec![0.0; n],
            scratch: EpochScratch::new(),
            stamp: vec![0; n],
            gen: 0,
        }
    }

    pub fn vertices(&self) -> usize {
        self.n
    }

    pub fn init(&mut self, slots: &mut [i32]) {
        slots[self.n..self.n + bitmap_words(self.n)].fill(0);
        self.rebuild(slots);
        self.write_values(slots);
    }

    pub fn rebuild(&mut self, slots: &[i32]) {
        self.adj = Adjacency::from_bitmap(slots, self.n);
        let outdeg: Vec<u32> = self.adj.out.iter().map(|o| o.len() as u32).collect();
        self.layers = reference::pagerank_layers(self.n, self.iters, &self.adj.inn, &outdeg);
    }

    fn write_values(&self, slots: &mut [i32]) {
        for (slot, rank) in slots[..self.n].iter_mut().zip(&self.layers[self.iters]) {
            *slot = rank.to_bits() as i32;
        }
    }

    pub fn apply(
        &mut self,
        slots: &mut [i32],
        events: &[(u32, u32)],
        policy: &ExecPolicy,
    ) -> InvecStats {
        let delta = apply_edges(&mut self.adj, slots, self.n, events);
        if delta.changed_in.is_empty() && delta.changed_out.is_empty() {
            return InvecStats::default();
        }
        // Float addition is the one operator here that reassociation can
        // perturb, and every bitwise contract (from-scratch equality,
        // cross-backend identity, snapshot-install rebuilds) needs one
        // canonical per-vertex fold order. Owner-computes with the Serial
        // in-worker variant is the engine configuration the exec layer
        // guarantees bit-exact against the serial left fold, at any thread
        // count — so rank sums are pinned to it; the min/max and integer
        // engines keep the full in-vector SIMD dispatch.
        let policy = ExecPolicy {
            variant: ExecVariant::Serial,
            partition: invector_core::Partition::OwnerComputes,
            ..*policy
        };
        let policy = &policy;
        let mut stats = InvecStats::default();
        // Vertices whose layer value can change independent of upstream rank
        // movement: in-edge set changed, or an in-neighbour's out-degree did.
        // Membership is tracked with generation stamps; the per-vertex sum
        // is slot-private, so dirty-set *order* never reaches the f32 folds.
        self.gen += 1;
        let mut base_dirty: Vec<u32> = Vec::new();
        for &v in &delta.changed_in {
            if self.stamp[v as usize] != self.gen {
                self.stamp[v as usize] = self.gen;
                base_dirty.push(v);
            }
        }
        for &u in &delta.changed_out {
            for &v in &self.adj.out[u as usize] {
                if self.stamp[v as usize] != self.gen {
                    self.stamp[v as usize] = self.gen;
                    base_dirty.push(v);
                }
            }
        }
        let base = base_rank(self.n);
        let mut prev_changed: Vec<u32> = Vec::new();
        let mut dirty: Vec<u32> = Vec::new();
        let mut pairs: Vec<(i32, f32)> = Vec::new();
        for i in 1..=self.iters {
            self.gen += 1;
            dirty.clear();
            for &v in &base_dirty {
                if self.stamp[v as usize] != self.gen {
                    self.stamp[v as usize] = self.gen;
                    dirty.push(v);
                }
            }
            for &u in &prev_changed {
                for &v in &self.adj.out[u as usize] {
                    if self.stamp[v as usize] != self.gen {
                        self.stamp[v as usize] = self.gen;
                        dirty.push(v);
                    }
                }
            }
            pairs.clear();
            for &v in &dirty {
                self.sums[v as usize] = 0.0;
                for &u in &self.adj.inn[v as usize] {
                    let contrib =
                        self.layers[i - 1][u as usize] / self.adj.out[u as usize].len() as f32;
                    pairs.push((v as i32, contrib));
                }
            }
            let report = execute_epoch::<f32, Sum>(
                &mut self.sums,
                pairs.iter().copied(),
                &mut self.scratch,
                policy,
            );
            stats.merge(&report.stats);
            prev_changed.clear();
            for &v in &dirty {
                let val = base + DAMPING * self.sums[v as usize];
                if val.to_bits() != self.layers[i][v as usize].to_bits() {
                    self.layers[i][v as usize] = val;
                    prev_changed.push(v);
                }
            }
            // Even when nothing propagated (`prev_changed` empty), every
            // remaining layer still re-evaluates `base_dirty`: those
            // vertices' stored values predate the adjacency change.
        }
        self.write_values(slots);
        stats
    }
}

/// Incrementally maintained weakly-connected components (min member id per
/// component of the symmetrized graph).
#[derive(Debug, Clone)]
pub struct WccEngine {
    n: usize,
    adj: Adjacency,
    /// Generation-stamped seed-set membership (see [`PageRankEngine`]).
    stamp: Vec<u64>,
    gen: u64,
}

impl WccEngine {
    pub fn new(n: usize) -> Self {
        WccEngine { n, adj: Adjacency::new(n), stamp: vec![0; n], gen: 0 }
    }

    pub fn vertices(&self) -> usize {
        self.n
    }

    pub fn init(&mut self, slots: &mut [i32]) {
        slots[self.n..self.n + bitmap_words(self.n)].fill(0);
        for (v, slot) in slots[..self.n].iter_mut().enumerate() {
            *slot = v as i32;
        }
        self.adj = Adjacency::new(self.n);
    }

    pub fn rebuild(&mut self, slots: &[i32]) {
        self.adj = Adjacency::from_bitmap(slots, self.n);
    }

    pub fn apply(
        &mut self,
        slots: &mut [i32],
        events: &[(u32, u32)],
        policy: &ExecPolicy,
    ) -> InvecStats {
        let delta = apply_edges(&mut self.adj, slots, self.n, events);
        if delta.inserted.is_empty() && delta.deleted.is_empty() {
            return InvecStats::default();
        }
        let mut stats = InvecStats::default();
        self.gen += 1;
        let mut seed: Vec<u32> = Vec::new();
        let mark = |stamp: &mut [u64], seed: &mut Vec<u32>, v: u32| {
            if stamp[v as usize] != self.gen {
                stamp[v as usize] = self.gen;
                seed.push(v);
            }
        };
        if !delta.deleted.is_empty() {
            // Components touched by a deletion lose their labels wholesale:
            // the old label may no longer be reachable. Reset every member to
            // its own id, then let the neighbourhood re-supply the minima.
            let mut hit_labels: BTreeSet<i32> = BTreeSet::new();
            for &(u, v) in &delta.deleted {
                hit_labels.insert(slots[u as usize]);
                hit_labels.insert(slots[v as usize]);
            }
            for (v, slot) in slots.iter_mut().enumerate().take(self.n) {
                if hit_labels.contains(slot) {
                    *slot = v as i32;
                    mark(&mut self.stamp, &mut seed, v as u32);
                    // Both edge directions re-supply minima; duplicates are
                    // harmless under min, so no merged-dedup allocation.
                    for &w in &self.adj.out[v] {
                        mark(&mut self.stamp, &mut seed, w);
                    }
                    for &w in &self.adj.inn[v] {
                        mark(&mut self.stamp, &mut seed, w);
                    }
                }
            }
        }
        for &(u, v) in &delta.inserted {
            mark(&mut self.stamp, &mut seed, u);
            mark(&mut self.stamp, &mut seed, v);
        }
        seed.sort_unstable();
        // Synchronous min-label waves to the (unique) fixed point.
        let mut frontier: Vec<u32> = seed;
        let mut vals: Vec<i32> = slots[..self.n].to_vec();
        let mut new_vals = vals.clone();
        let mut src: Vec<i32> = Vec::new();
        let mut dst: Vec<i32> = Vec::new();
        let mut positions: Vec<u32> = Vec::new();
        let mut weight: Vec<f32> = Vec::new();
        let mut next = Frontier::new(self.n);
        while !frontier.is_empty() {
            src.clear();
            dst.clear();
            for &u in &frontier {
                // Out- then in-neighbours, unmerged: label relaxation is an
                // idempotent min and the next frontier dedups, so repeated
                // (u, v) pairs cannot change the fixed point or its bits.
                for &v in &self.adj.out[u as usize] {
                    src.push(u as i32);
                    dst.push(v as i32);
                }
                for &v in &self.adj.inn[u as usize] {
                    src.push(u as i32);
                    dst.push(v as i32);
                }
            }
            positions.clear();
            positions.extend(0..src.len() as u32);
            weight.clear();
            weight.resize(src.len(), 0.0);
            next.clear();
            let mut depth = DepthHistogram::new();
            if policy.variant == ExecVariant::Serial {
                relax_serial::<WccRule>(
                    &positions,
                    &src,
                    &dst,
                    &weight,
                    &vals,
                    &mut new_vals,
                    &mut next,
                );
            } else {
                relax_invec::<WccRule>(
                    policy.backend.resolve(),
                    &positions,
                    &src,
                    &dst,
                    &weight,
                    &vals,
                    &mut new_vals,
                    &mut next,
                    &mut depth,
                );
                stats.vectors += (positions.len() as u64).div_ceil(16);
            }
            stats.depth.merge(&depth);
            vals.copy_from_slice(&new_vals);
            frontier = next.vertices().iter().map(|&v| v as u32).collect();
            frontier.sort_unstable();
        }
        slots[..self.n].copy_from_slice(&vals);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_event;

    fn policy() -> ExecPolicy {
        ExecPolicy::default()
    }

    fn pagerank_table(n: usize, iters: usize) -> (PageRankEngine, Vec<i32>) {
        let mut e = PageRankEngine::new(n, iters);
        let mut slots = vec![0i32; n + bitmap_words(n)];
        e.init(&mut slots);
        (e, slots)
    }

    fn wcc_table(n: usize) -> (WccEngine, Vec<i32>) {
        let mut e = WccEngine::new(n);
        let mut slots = vec![0i32; n + bitmap_words(n)];
        e.init(&mut slots);
        (e, slots)
    }

    fn pagerank_oracle(n: usize, iters: usize, slots: &[i32]) -> Vec<i32> {
        let adj = Adjacency::from_bitmap(slots, n);
        let outdeg: Vec<u32> = adj.out.iter().map(|o| o.len() as u32).collect();
        let layers = reference::pagerank_layers(n, iters, &adj.inn, &outdeg);
        layers[iters].iter().map(|r| r.to_bits() as i32).collect()
    }

    fn wcc_oracle(n: usize, slots: &[i32]) -> Vec<i32> {
        let adj = Adjacency::from_bitmap(slots, n);
        let und: Vec<Vec<u32>> = (0..n as u32).map(|u| adj.undirected(u)).collect();
        reference::wcc_labels(n, &und)
    }

    #[test]
    fn pagerank_tracks_the_oracle_through_churn() {
        let (mut e, mut slots) = pagerank_table(6, 4);
        let slices: Vec<Vec<(u32, u32)>> = vec![
            vec![edge_event(0, 1, true), edge_event(1, 2, true)],
            vec![edge_event(2, 0, true), edge_event(0, 1, true)], // duplicate insert: no-op
            vec![edge_event(0, 1, false), edge_event(3, 4, true)],
            vec![edge_event(9, 1, true), edge_event(1, 9, true)], // out of range: ignored
            vec![edge_event(1, 2, false), edge_event(2, 0, false)],
        ];
        for s in slices {
            e.apply(&mut slots, &s, &policy());
            assert_eq!(slots[..6], pagerank_oracle(6, 4, &slots)[..]);
        }
    }

    #[test]
    fn wcc_tracks_the_oracle_through_churn_and_splits() {
        let (mut e, mut slots) = wcc_table(8);
        let slices: Vec<Vec<(u32, u32)>> = vec![
            vec![edge_event(0, 1, true), edge_event(2, 3, true), edge_event(4, 5, true)],
            vec![edge_event(1, 2, true)],  // merge {0,1} with {2,3}
            vec![edge_event(1, 2, false)], // split them again
            vec![edge_event(5, 6, true), edge_event(6, 7, true), edge_event(4, 5, false)],
            vec![edge_event(0, 7, true), edge_event(6, 7, false)],
        ];
        for s in slices {
            e.apply(&mut slots, &s, &policy());
            assert_eq!(slots[..8], wcc_oracle(8, &slots)[..]);
        }
    }

    #[test]
    fn rebuild_from_slots_is_equivalent_to_live_state() {
        let (mut e, mut slots) = pagerank_table(5, 3);
        e.apply(
            &mut slots,
            &[edge_event(0, 1, true), edge_event(1, 2, true), edge_event(2, 0, true)],
            &policy(),
        );
        let mut fresh = PageRankEngine::new(5, 3);
        fresh.rebuild(&slots);
        let mut a = slots.clone();
        let mut b = slots.clone();
        let more = [edge_event(2, 3, true), edge_event(0, 1, false)];
        e.apply(&mut a, &more, &policy());
        fresh.apply(&mut b, &more, &policy());
        assert_eq!(a, b);
    }
}
