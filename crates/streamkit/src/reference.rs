//! From-scratch serial references for the streaming engines.
//!
//! These are the oracles the incremental engines are validated against: a
//! plain-loop synchronous PageRank, a BFS component labeller, and a serial
//! window simulator. Every float fold here runs in the canonical order the
//! engines also use (ascending source vertex per destination), so agreement
//! is *bitwise*, not approximate.

use crate::{base_rank, AggOp, DAMPING};

/// All `iters + 1` synchronous PageRank layers from the uniform vector,
/// evaluated serially on adjacency lists (`inn[v]` ascending in-neighbours,
/// `outdeg[u]` out-degrees).
///
/// Layer `i` of vertex `v` is `(1-d)/n + d * sum_{u -> v} layer[i-1][u] /
/// outdeg(u)` with the sum folded left-to-right over ascending `u` in f32 —
/// the exact recurrence the incremental engine memoizes.
pub fn pagerank_layers(n: usize, iters: usize, inn: &[Vec<u32>], outdeg: &[u32]) -> Vec<Vec<f32>> {
    let mut layers = Vec::with_capacity(iters + 1);
    layers.push(vec![1.0f32 / n as f32; n]);
    let base = base_rank(n);
    for i in 1..=iters {
        let prev = &layers[i - 1];
        let mut layer = vec![0.0f32; n];
        for (v, slot) in layer.iter_mut().enumerate() {
            let mut sum = 0.0f32;
            for &u in &inn[v] {
                sum += prev[u as usize] / outdeg[u as usize] as f32;
            }
            *slot = base + DAMPING * sum;
        }
        layers.push(layer);
    }
    layers
}

/// Weakly-connected-component labels (minimum member id per component) on
/// symmetrized adjacency lists, via ascending-id BFS.
pub fn wcc_labels(n: usize, und: &[Vec<u32>]) -> Vec<i32> {
    let mut labels = vec![-1i32; n];
    let mut queue = Vec::new();
    for root in 0..n {
        if labels[root] >= 0 {
            continue;
        }
        // `root` is the smallest unvisited id, hence its component's label.
        labels[root] = root as i32;
        queue.clear();
        queue.push(root as u32);
        while let Some(v) = queue.pop() {
            for &w in &und[v as usize] {
                if labels[w as usize] < 0 {
                    labels[w as usize] = root as i32;
                    queue.push(w);
                }
            }
        }
    }
    labels
}

/// A plain-loop simulator of the window table, maintaining the exact slot
/// image the SIMD engine produces (see [`crate::window`] for the layout).
#[derive(Debug, Clone)]
pub struct WindowSim {
    keys: usize,
    buckets: usize,
    width: u64,
    timed: bool,
    op: AggOp,
    /// The simulated slot image.
    pub slots: Vec<i32>,
}

impl WindowSim {
    pub fn new(keys: usize, buckets: usize, width: u64, timed: bool, op: AggOp) -> Self {
        let len = crate::StreamKind::Window {
            keys: keys as u32,
            buckets: buckets as u32,
            width: width as u32,
            timed,
        }
        .required_len()
        .unwrap();
        let mut sim = WindowSim { keys, buckets, width, timed, op, slots: vec![0; len] };
        sim.reset();
        sim
    }

    fn base(&self) -> usize {
        self.keys + self.buckets * self.keys + self.buckets
    }

    fn reset(&mut self) {
        let id = self.op.identity();
        let (k, w) = (self.keys, self.buckets);
        self.slots[..k].fill(id);
        self.slots[k..k + w * k].fill(id);
        self.slots[k + w * k..k + w * k + w].fill(-1);
        let base = self.base();
        self.slots[base..base + crate::WINDOW_HEADER].fill(0);
        self.slots[base + 2] = -1;
        self.slots[base + crate::WINDOW_HEADER..].fill(id);
        self.slots[k + w * k] = 0; // bucket 0 is open from the start
    }

    fn fold(op: AggOp, a: i32, b: i32) -> i32 {
        match op {
            AggOp::Add => a.wrapping_add(b),
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }

    /// Applies one slice of `(index, payload)` events.
    pub fn apply(&mut self, events: &[(u32, u32)]) {
        let base = self.base();
        for &(idx, bits) in events {
            if (idx as usize) < self.keys {
                let (key, val) = (idx as usize, bits as i32);
                let cur = self.slots[base] as u32 as u64;
                let slot = (cur as usize % self.buckets) * self.keys + key;
                let ring = self.keys + slot;
                self.slots[ring] = Self::fold(self.op, self.slots[ring], val);
                self.slots[key] = Self::fold(self.op, self.slots[key], val);
                let count = (self.slots[base + 3] as u32 as u64) + 1;
                self.slots[base + 3] = count as u32 as i32;
                if !self.timed && count.is_multiple_of(self.width) && count / self.width < (1 << 31)
                {
                    self.advance_to(count / self.width);
                }
            } else if idx as usize == self.keys && self.timed {
                let nb = bits as u64;
                // Bucket ids live in i32 slots: payloads with bit 31 set are
                // not valid watermarks and are ignored like any bad event.
                if nb < (1 << 31) && nb > self.slots[base] as u32 as u64 {
                    self.advance_to(nb);
                }
            }
            // anything else: deterministically ignored
        }
    }

    fn advance_to(&mut self, nb: u64) {
        let (k, w) = (self.keys, self.buckets);
        let base = self.base();
        let id = self.op.identity();
        // Evict residents in ascending bucket-id order.
        let mut residents: Vec<(i32, usize)> = (0..w)
            .filter_map(|b| {
                let rid = self.slots[k + w * k + b];
                (rid >= 0).then_some((rid, b))
            })
            .collect();
        residents.sort_unstable();
        for (rid, b) in residents {
            let evicted_at = rid as u32 as u64 + w as u64;
            if evicted_at <= nb {
                self.slots[base + 1] += 1;
                self.slots[base + 2] = rid;
                for key in 0..k {
                    self.slots[base + crate::WINDOW_HEADER + key] = self.slots[k + b * k + key];
                }
                self.slots[k + b * k..k + (b + 1) * k].fill(id);
                self.slots[k + w * k + b] = -1;
            }
        }
        // Open the new bucket (evicting whatever held its slot, already done
        // above when it expired; a survivor in the slot is impossible since
        // survivors have id > nb - w).
        let slot = nb as usize % w;
        self.slots[k + w * k + slot] = nb as u32 as i32;
        self.slots[base] = nb as u32 as i32;
        // Re-reduce the live window in ascending bucket-id order.
        let mut live: Vec<(i32, usize)> = (0..w)
            .filter_map(|b| {
                let rid = self.slots[k + w * k + b];
                (rid >= 0).then_some((rid, b))
            })
            .collect();
        live.sort_unstable();
        for key in 0..k {
            self.slots[key] = id;
        }
        for (_, b) in live {
            for key in 0..k {
                self.slots[key] = Self::fold(self.op, self.slots[key], self.slots[k + b * k + key]);
            }
        }
    }

    /// Lifetime count of expired (retracted) buckets.
    pub fn expired(&self) -> u64 {
        self.slots[self.base() + 1] as u32 as u64
    }
}
