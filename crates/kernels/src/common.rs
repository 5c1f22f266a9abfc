//! Shared kernel infrastructure: variants, timing breakdown, run results,
//! the static-edge-set inspector and the touched-window scan.

use std::borrow::Cow;
use std::ops::Range;
use std::time::{Duration, Instant};

use invector_core::stats::{DepthHistogram, Utilization};
use invector_graph::group::{group_by_key, Grouping};
use invector_graph::tile::tile_edges;
use invector_graph::EdgeList;

pub use invector_core::exec::{ExecPolicy, ExecVariant, Partition};

/// The implementation strategies evaluated in the paper (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Scalar loop over the original edge order (`nontiling_serial`).
    Serial,
    /// Scalar loop over cache-tiled edges (`tiling_serial`).
    SerialTiled,
    /// Inspector/executor: tiling + conflict-free grouping, then unmasked
    /// SIMD (`tiling_and_grouping` / `nontiling_and_grouping`).
    Grouped,
    /// Conflict-masking SIMD (`tiling_and_mask` / `nontiling_and_mask`).
    Masked,
    /// In-vector reduction SIMD (`tiling_and_invec` / `nontiling_and_invec`)
    /// — the paper's contribution.
    Invec,
}

/// Whether an application's experiments charge a cache-tiling inspector
/// (static edge set: PageRank, SpMV, Moldyn, Euler) or run untiled
/// wave-frontier style (§4.2: SSSP, SSWP, BFS, WCC). Selects the label
/// column of [`Variant::label`] and tells the harness which phase bars a
/// kernel reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TilingMode {
    /// Edge set is static; vectorized variants pay a one-time tiling pass.
    Tiled,
    /// Active set changes per wave; variants run on the original edge order.
    Frontier,
}

/// The single label table keyed by `(variant, tiling mode)` — the paper's
/// series names. Rows are in [`Variant::ALL`] order; columns are
/// `[Tiled, Frontier]`.
const LABELS: [[&str; 2]; 5] = [
    ["nontiling_serial", "nontiling_serial"],
    ["tiling_serial", "tiling_serial"],
    ["tiling_and_grouping", "nontiling_and_grouping"],
    ["tiling_and_mask", "nontiling_and_mask"],
    ["tiling_and_invec", "nontiling_and_invec"],
];

/// Short names accepted by [`Variant::parse`], in [`Variant::ALL`] order.
const SHORT_NAMES: [&str; 5] = ["serial", "tiled", "grouped", "masked", "invec"];

impl Variant {
    /// All variants in the paper's presentation order.
    pub const ALL: [Variant; 5] =
        [Variant::Serial, Variant::SerialTiled, Variant::Grouped, Variant::Masked, Variant::Invec];

    /// Position in [`Variant::ALL`] (the label-table row).
    const fn index(self) -> usize {
        match self {
            Variant::Serial => 0,
            Variant::SerialTiled => 1,
            Variant::Grouped => 2,
            Variant::Masked => 3,
            Variant::Invec => 4,
        }
    }

    /// The paper's series label for this variant under the given tiling
    /// mode — one table, shared by every consumer.
    pub fn label(self, mode: TilingMode) -> &'static str {
        LABELS[self.index()][mode as usize]
    }

    /// Label used for tiled experiments (PageRank, Moldyn).
    pub fn tiled_label(self) -> &'static str {
        self.label(TilingMode::Tiled)
    }

    /// Label used for wave-frontier experiments, which run untiled (§4.2).
    pub fn frontier_label(self) -> &'static str {
        self.label(TilingMode::Frontier)
    }

    /// The short name [`Variant::parse`] accepts (`serial`, `tiled`, ...).
    pub fn short_name(self) -> &'static str {
        SHORT_NAMES[self.index()]
    }

    /// Parses one short variant name — the single parser shared by the CLI
    /// and the harness registry.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<Variant, String> {
        Variant::ALL.into_iter().find(|v| v.short_name() == s).ok_or_else(|| {
            format!("unknown variant '{s}' (one of: {} | all)", SHORT_NAMES.join(" | "))
        })
    }

    /// `true` for the variants that record SIMD lane utilization (the
    /// conflict-masking strategy).
    pub fn records_utilization(self) -> bool {
        self == Variant::Masked
    }

    /// `true` for the variants that record the conflict-depth histogram
    /// (the in-vector strategy).
    pub fn records_depth(self) -> bool {
        self == Variant::Invec
    }

    /// `true` for the variants that need a conflict-free grouping inspector.
    pub fn needs_grouping(self) -> bool {
        self == Variant::Grouped
    }

    /// `true` for the variants whose conflict handling is stream-local and
    /// therefore composes with the execution engine's partitioning (the
    /// grouped and masked strategies keep whole-array inspector state).
    pub fn runs_on_engine(self) -> bool {
        !matches!(self, Variant::Grouped | Variant::Masked)
    }

    /// The in-worker reduction strategy the execution engine runs when this
    /// variant is parallelised. The scalar baselines stay scalar; the
    /// vectorized variants all map to in-vector reduction, because the
    /// masked and grouped strategies handle conflicts *within one target
    /// array* and the engine's partitioning already removes cross-worker
    /// conflicts — in-vector reduction is the per-worker strategy the paper
    /// shows dominating once conflicts are local.
    pub fn exec_variant(self) -> ExecVariant {
        match self {
            Variant::Serial | Variant::SerialTiled => ExecVariant::Serial,
            Variant::Grouped | Variant::Masked | Variant::Invec => ExecVariant::Invec,
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tiled_label())
    }
}

/// Wall-time breakdown matching the stacked bars of Figures 8–12:
/// data-reorganization phases are reported separately from computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timings {
    /// Cache-tiling (inspector) time.
    pub tiling: Duration,
    /// Conflict-free grouping (inspector) time.
    pub grouping: Duration,
    /// Execution-engine partitioning time (building / rebuilding the
    /// [`ExecPlan`](invector_core::exec::ExecPlan) for parallel runs; zero
    /// for single-threaded runs).
    pub partition: Duration,
    /// Computation (executor) time.
    pub compute: Duration,
}

impl Timings {
    /// End-to-end time: all phases.
    pub fn total(&self) -> Duration {
        self.tiling + self.grouping + self.partition + self.compute
    }
}

/// The outcome of running one application variant to convergence.
#[derive(Debug, Clone)]
pub struct RunResult<T> {
    /// Final per-vertex values (ranks, distances, widths, labels).
    pub values: Vec<T>,
    /// Iterations executed before the termination condition held.
    pub iterations: u32,
    /// Phase timing breakdown.
    pub timings: Timings,
    /// Modeled instruction count of the compute phase (SIMD instructions
    /// for vectorized variants, the documented scalar cost model for the
    /// serial baselines). Wall time of the emulated SIMD engine is not
    /// comparable against native scalar code; this counter is.
    pub instructions: u64,
    /// SIMD lane utilization (recorded by the masked variant; `None` for
    /// variants whose utilization is 100% by construction or meaningless).
    pub utilization: Option<Utilization>,
    /// Conflict-depth histogram (recorded by the in-vector variant).
    pub depth: Option<DepthHistogram>,
    /// Worker threads the execution engine used (1 for the paper's
    /// single-core configuration).
    pub threads: usize,
}

/// The inspector of the static-edge-set kernels (PageRank, SpMV). Every
/// variant but the untiled serial baseline runs on the edges cache-tiled
/// into `block_vertices`-sided blocks (charged to `timings.tiling`); the
/// grouped variant also groups the tiled edges by destination into
/// conflict-free windows (charged to `timings.grouping`).
pub(crate) fn inspect_static_edges<'g>(
    graph: &'g EdgeList,
    variant: Variant,
    block_vertices: usize,
    timings: &mut Timings,
) -> (Cow<'g, EdgeList>, Option<Grouping>) {
    let working = match variant {
        Variant::Serial => Cow::Borrowed(graph),
        _ => {
            let t0 = Instant::now();
            let tiling = tile_edges(graph, block_vertices);
            let tiled = graph.permuted(&tiling.perm);
            timings.tiling = t0.elapsed();
            Cow::Owned(tiled)
        }
    };
    let grouping = variant.needs_grouping().then(|| {
        let t0 = Instant::now();
        let positions: Vec<u32> = (0..working.num_edges() as u32).collect();
        let g = group_by_key(&positions, working.dst());
        timings.grouping = t0.elapsed();
        g
    });
    (working, grouping)
}

/// The vertex window a chunk of a two-endpoint stream touches: from the
/// lowest to one past the highest of `a[p]` and `b[p]` over `range`
/// (`0..0` for an empty range). Engine workers of the two-target reductions
/// (Euler's edges, Moldyn's pairs) size their private accumulators to it.
pub fn touched_window(a: &[i32], b: &[i32], range: &Range<usize>) -> Range<usize> {
    if range.is_empty() {
        return 0..0;
    }
    let (mut lo, mut hi) = (i32::MAX, i32::MIN);
    for p in range.clone() {
        lo = lo.min(a[p]).min(b[p]);
        hi = hi.max(a[p]).max(b[p]);
    }
    lo as usize..hi as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(Variant::Invec.tiled_label(), "tiling_and_invec");
        assert_eq!(Variant::Invec.frontier_label(), "nontiling_and_invec");
        assert_eq!(Variant::Serial.frontier_label(), "nontiling_serial");
        assert_eq!(Variant::Grouped.to_string(), "tiling_and_grouping");
        assert_eq!(Variant::Masked.label(TilingMode::Frontier), "nontiling_and_mask");
    }

    #[test]
    fn parse_round_trips_short_names() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.short_name()), Ok(v));
        }
        let err = Variant::parse("warp").unwrap_err();
        assert!(err.contains("serial") && err.contains("invec"), "{err}");
    }

    #[test]
    fn predicates_match_stat_ownership() {
        assert!(Variant::Masked.records_utilization());
        assert!(Variant::Invec.records_depth());
        assert!(Variant::Grouped.needs_grouping());
        assert!(!Variant::Grouped.runs_on_engine() && !Variant::Masked.runs_on_engine());
        assert!(Variant::Serial.runs_on_engine() && Variant::Invec.runs_on_engine());
    }

    #[test]
    fn timings_total_sums_phases() {
        let t = Timings {
            tiling: Duration::from_millis(1),
            grouping: Duration::from_millis(2),
            partition: Duration::from_millis(4),
            compute: Duration::from_millis(3),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }

    #[test]
    fn exec_variant_mapping_keeps_scalar_baselines_scalar() {
        assert_eq!(Variant::Serial.exec_variant(), ExecVariant::Serial);
        assert_eq!(Variant::SerialTiled.exec_variant(), ExecVariant::Serial);
        assert_eq!(Variant::Invec.exec_variant(), ExecVariant::Invec);
        assert_eq!(Variant::Masked.exec_variant(), ExecVariant::Invec);
        assert_eq!(Variant::Grouped.exec_variant(), ExecVariant::Invec);
    }

    #[test]
    fn touched_window_spans_both_endpoints_of_the_range() {
        let (a, b) = ([5, 2, 9, 4], [3, 7, 1, 6]);
        assert_eq!(touched_window(&a, &b, &(0..4)), 1..10);
        assert_eq!(touched_window(&a, &b, &(1..2)), 2..8);
        assert_eq!(touched_window(&a, &b, &(3..3)), 0..0);
    }

    #[test]
    fn all_variants_listed_once() {
        let set: std::collections::HashSet<_> = Variant::ALL.iter().collect();
        assert_eq!(set.len(), 5);
    }
}
