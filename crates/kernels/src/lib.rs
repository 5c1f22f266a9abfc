//! `invector-kernels` — the paper's graph applications in every
//! implementation strategy.
//!
//! The paper's graph applications ([`pagerank`], [`sssp`], [`sswp`],
//! [`wcc`]) plus library extensions ([`bfs`], [`spmv`]), each
//! runnable as any [`Variant`]: scalar baselines, inspector/executor
//! (`tiling_and_grouping`), conflict-masking, and the paper's in-vector
//! reduction. Every vectorized variant is differential-tested against the
//! serial baseline (and against textbook references: Dijkstra, union-find).
//!
//! # Example
//!
//! ```
//! use invector_graph::gen::{rmat, RmatParams};
//! use invector_kernels::{pagerank, PageRankConfig, Variant};
//!
//! let g = rmat(1 << 8, 2_000, RmatParams::SOCIAL, 1);
//! let result = pagerank(&g, Variant::Invec, &PageRankConfig::default());
//! assert_eq!(result.values.len(), g.num_vertices());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bfs;
mod common;
pub mod euler;
mod pagerank;
pub mod relax;
mod spmv;
mod sssp;
mod sswp;
pub mod wavefront;
mod wcc;

pub use bfs::{bfs, bfs_with_policy};
pub use common::{
    touched_window, ExecPolicy, ExecVariant, Partition, RunResult, TilingMode, Timings, Variant,
};
pub use pagerank::{pagerank, PageRankConfig};
pub use spmv::{spmv, spmv_with_policy};
pub use sssp::{sssp, sssp_reuse, sssp_with_policy};
pub use sswp::{sswp, sswp_reuse, sswp_with_policy};
pub use wcc::{wcc, wcc_reuse, wcc_with_policy};
