//! Stateful streaming engines served as table kinds.
//!
//! The serve layer's flat tables fold independent `(index, value)` updates
//! with one associative operator. This crate adds two *stateful* engines on
//! top of the same epoch loop:
//!
//! - **Incremental graph analytics** ([`graph`]): an evolving edge stream
//!   where insertions/deletions mark a dirty frontier and PageRank / WCC are
//!   re-relaxed delta-style on the in-vector accumulate drivers, bitwise
//!   identical to a from-scratch serial recompute at every snapshot point.
//! - **Windowed aggregation with retraction** ([`window`]): bucketed
//!   add/min/max over tumbling and sliding windows (count- or
//!   watermark-driven), where bucket expiry emits a retraction and min/max
//!   recovery re-reduces the live buckets on the fused SIMD drivers.
//!
//! The crucial design decision is that **all engine state lives in the
//! table's i32 slot array**. The serve layer checksums, logs, checkpoints
//! and replicates slot arrays; because the engines' state is a pure
//! function of those slots (caches are rebuilt deterministically by
//! [`Engine::rebuild`]), WAL recovery and follower replication compose with
//! the new table kinds for free. Events are ordinary updates: the slot
//! index selects the verb, the 32-bit payload carries the operand.

pub mod graph;
pub mod reference;
pub mod window;

use invector_core::{ExecPolicy, InvecStats};

pub use graph::{PageRankEngine, WccEngine};
pub use window::WindowEngine;

/// Largest vertex count a graph stream table accepts. The adjacency bitmap
/// is `n^2` bits inside the slot array, so this caps table length at
/// `4096 + 4096^2/32 = 528_384` slots (~2 MiB).
pub const MAX_VERTICES: u32 = 4096;
/// Largest PageRank iteration depth (bounds the memoized layer pyramid).
pub const MAX_ITERS: u32 = 64;
/// Largest key space for a window table.
pub const MAX_KEYS: u32 = 65_536;
/// Largest live-bucket ring for a sliding window.
pub const MAX_BUCKETS: u32 = 1024;

/// Bit 31 of a graph event payload marks an edge *deletion*; the low 31
/// bits carry the destination vertex.
pub const DELETE_BIT: u32 = 1 << 31;

/// PageRank damping factor (single precision: every arithmetic step of the
/// rank recurrence is f32 so incremental and from-scratch evaluation agree
/// bitwise).
pub const DAMPING: f32 = 0.85;

/// The teleport term `(1 - d) / n` of the rank recurrence.
#[inline]
pub fn base_rank(n: usize) -> f32 {
    (1.0 - DAMPING) / n as f32
}

/// What a served stream table computes over its update stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StreamKind {
    /// Plain associative fold — the pre-existing flat table behaviour.
    #[default]
    Flat,
    /// Evolving-graph PageRank: `iters` synchronous iterations from the
    /// uniform vector, incrementally maintained over edge churn. Values are
    /// f32 rank bits in slots `[0, vertices)`.
    GraphPageRank { vertices: u32, iters: u32 },
    /// Evolving-graph weakly-connected components: min-label fixed point on
    /// the symmetrized edge set. Labels are i32 vertex ids in slots
    /// `[0, vertices)`.
    GraphWcc { vertices: u32 },
    /// Window-bucketed aggregation: `buckets` live buckets of `width`
    /// events each (`width` is advisory when `timed`), aggregates in slots
    /// `[0, keys)`.
    Window { keys: u32, buckets: u32, width: u32, timed: bool },
}

impl StreamKind {
    /// The exact slot count a table of this kind must be declared with, or
    /// `None` for [`StreamKind::Flat`] (any length).
    pub fn required_len(&self) -> Option<usize> {
        match *self {
            StreamKind::Flat => None,
            StreamKind::GraphPageRank { vertices, .. } | StreamKind::GraphWcc { vertices } => {
                let n = vertices as usize;
                Some(n + bitmap_words(n))
            }
            StreamKind::Window { keys, buckets, .. } => {
                let (k, w) = (keys as usize, buckets as usize);
                // aggregates + ring values + ring ids + header + retraction payload
                Some(k + w * k + w + WINDOW_HEADER + k)
            }
        }
    }

    /// Validates the kind's parameters, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            StreamKind::Flat => Ok(()),
            StreamKind::GraphPageRank { vertices, iters } => {
                check_range("vertices", vertices, 1, MAX_VERTICES)?;
                check_range("iters", iters, 1, MAX_ITERS)
            }
            StreamKind::GraphWcc { vertices } => check_range("vertices", vertices, 1, MAX_VERTICES),
            StreamKind::Window { keys, buckets, width, .. } => {
                check_range("keys", keys, 1, MAX_KEYS)?;
                check_range("buckets", buckets, 1, MAX_BUCKETS)?;
                check_range("width", width, 1, u32::MAX)
            }
        }
    }
}

fn check_range(what: &str, got: u32, lo: u32, hi: u32) -> Result<(), String> {
    if got < lo || got > hi {
        Err(format!("{what} must be in [{lo}, {hi}], got {got}"))
    } else {
        Ok(())
    }
}

/// Words of the `n x n` adjacency bitmap stored after the value region.
#[inline]
pub(crate) fn bitmap_words(n: usize) -> usize {
    (n * n).div_ceil(32)
}

/// Slots of window-table header state (current bucket, expiry counter,
/// last-expired bucket id, data-event counter).
pub(crate) const WINDOW_HEADER: usize = 4;

/// The associative operator a window table folds with. Mirrors the serve
/// layer's operator enum without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    Add,
    Min,
    Max,
}

impl AggOp {
    /// The operator's identity element (the empty-bucket value).
    #[inline]
    pub fn identity(self) -> i32 {
        match self {
            AggOp::Add => 0,
            AggOp::Min => i32::MAX,
            AggOp::Max => i32::MIN,
        }
    }
}

/// How a table's value region should be interpreted by ordering queries
/// (top-k): raw i32, or f32 bit patterns widened for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRepr {
    I32,
    F32Bits,
}

/// A windowed read: the live (or just-retracted) per-key aggregates plus
/// retraction counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRead {
    /// Total buckets expired over the table's lifetime.
    pub expired: u64,
    /// The id of the bucket the values were read from.
    pub bucket: u64,
    /// Per-key aggregate bits, `keys` entries.
    pub values: Vec<u32>,
}

/// Encodes an edge insertion/deletion as an update event
/// `(slot index, payload)`.
#[inline]
pub fn edge_event(src: u32, dst: u32, insert: bool) -> (u32, u32) {
    (src, if insert { dst } else { dst | DELETE_BIT })
}

/// Encodes a window data point for `key`.
#[inline]
pub fn window_data(key: u32, value: i32) -> (u32, u32) {
    (key, value as u32)
}

/// Encodes a watermark advance to `bucket` for a timed window table with
/// `keys` keys (the control verb lives one past the key range).
#[inline]
pub fn window_advance(keys: u32, bucket: u32) -> (u32, u32) {
    (keys, bucket)
}

/// One streaming engine instance attached to a served table.
///
/// The serve layer owns the slot array; the engine owns only caches that
/// are a pure function of the slots. Contract:
///
/// - [`Engine::init`] writes the initial (empty-stream) slot image.
/// - [`Engine::apply`] folds a slice of events into the slots, exactly as
///   the epoch loop would fold flat updates: the post-state is a pure
///   function of the pre-state and the event sequence.
/// - [`Engine::rebuild`] re-derives the caches from a slot image installed
///   from a snapshot, checkpoint or WAL replay.
#[derive(Debug, Clone)]
pub enum Engine {
    PageRank(PageRankEngine),
    Wcc(WccEngine),
    Window(WindowEngine),
}

impl Engine {
    /// Builds the engine for a stream kind, or `None` for
    /// [`StreamKind::Flat`]. `op` is the table's declared operator (only
    /// window tables fold with it).
    pub fn for_kind(kind: &StreamKind, op: AggOp) -> Option<Engine> {
        match *kind {
            StreamKind::Flat => None,
            StreamKind::GraphPageRank { vertices, iters } => {
                Some(Engine::PageRank(PageRankEngine::new(vertices as usize, iters as usize)))
            }
            StreamKind::GraphWcc { vertices } => {
                Some(Engine::Wcc(WccEngine::new(vertices as usize)))
            }
            StreamKind::Window { keys, buckets, width, timed } => Some(Engine::Window(
                WindowEngine::new(keys as usize, buckets as usize, width as u64, timed, op),
            )),
        }
    }

    /// Writes the empty-stream slot image and primes the caches.
    pub fn init(&mut self, slots: &mut [i32]) {
        match self {
            Engine::PageRank(e) => e.init(slots),
            Engine::Wcc(e) => e.init(slots),
            Engine::Window(e) => e.init(slots),
        }
    }

    /// Rebuilds caches from an installed slot image.
    pub fn rebuild(&mut self, slots: &[i32]) {
        match self {
            Engine::PageRank(e) => e.rebuild(slots),
            Engine::Wcc(e) => e.rebuild(slots),
            Engine::Window(_) => {} // stateless: all window state lives in the slots
        }
    }

    /// Folds one slice of `(index, payload)` events into the slots.
    pub fn apply(
        &mut self,
        slots: &mut [i32],
        events: &[(u32, u32)],
        policy: &ExecPolicy,
    ) -> InvecStats {
        match self {
            Engine::PageRank(e) => e.apply(slots, events, policy),
            Engine::Wcc(e) => e.apply(slots, events, policy),
            Engine::Window(e) => e.apply(slots, events, policy),
        }
    }

    /// The slot range holding query-ordered values (top-k region) and how
    /// to compare them.
    pub fn value_region(&self) -> (usize, ValueRepr) {
        match self {
            Engine::PageRank(e) => (e.vertices(), ValueRepr::F32Bits),
            Engine::Wcc(e) => (e.vertices(), ValueRepr::I32),
            Engine::Window(e) => (e.keys(), ValueRepr::I32),
        }
    }

    /// Reads a window bucket (live, current aggregate via `u64::MAX`, or
    /// the most recently retracted bucket). Errors on non-window tables and
    /// unknown bucket ids.
    pub fn window_query(&self, slots: &[i32], bucket: u64) -> Result<WindowRead, String> {
        match self {
            Engine::Window(e) => e.query(slots, bucket),
            _ => Err("window query on a non-window table".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_kind_lengths() {
        assert_eq!(StreamKind::Flat.required_len(), None);
        assert_eq!(StreamKind::GraphPageRank { vertices: 8, iters: 3 }.required_len(), Some(8 + 2));
        assert_eq!(StreamKind::GraphWcc { vertices: 33 }.required_len(), Some(33 + 35));
        // keys=4 buckets=3: 4 + 12 + 3 + 4 + 4
        assert_eq!(
            StreamKind::Window { keys: 4, buckets: 3, width: 2, timed: false }.required_len(),
            Some(27)
        );
    }

    #[test]
    fn stream_kind_validation() {
        assert!(StreamKind::Flat.validate().is_ok());
        assert!(StreamKind::GraphWcc { vertices: 0 }.validate().is_err());
        assert!(StreamKind::GraphPageRank { vertices: MAX_VERTICES + 1, iters: 1 }
            .validate()
            .is_err());
        assert!(StreamKind::GraphPageRank { vertices: 16, iters: 0 }.validate().is_err());
        assert!(StreamKind::Window { keys: 1, buckets: 1, width: 0, timed: true }
            .validate()
            .is_err());
        assert!(StreamKind::Window { keys: 3, buckets: 2, width: 5, timed: false }
            .validate()
            .is_ok());
    }

    #[test]
    fn event_encoders() {
        assert_eq!(edge_event(3, 7, true), (3, 7));
        assert_eq!(edge_event(3, 7, false), (3, 7 | DELETE_BIT));
        assert_eq!(window_data(2, -1), (2, u32::MAX));
        assert_eq!(window_advance(4, 9), (4, 9));
    }
}
