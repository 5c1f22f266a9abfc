//! `invector-graph` — graph substrate for irregular-reduction vectorization.
//!
//! Provides everything the paper's graph experiments need:
//!
//! * [`EdgeList`] (COO) and [`Csr`] representations — the "Sparse Matrix
//!   View" the applications iterate over;
//! * seeded synthetic [generators](gen) and the Table 1 [dataset
//!   registry](datasets) standing in for the SNAP graphs;
//! * [cache tiling](tile) and [conflict-free grouping](group) — the two
//!   inspector/executor phases of the `tiling_and_grouping` baseline;
//! * wave-frontier machinery ([`Frontier`], [`active_edge_positions`]) for
//!   SSSP/SSWP/WCC.
//!
//! # Example
//!
//! ```
//! use invector_graph::{datasets, tile::tile_edges, Csr};
//!
//! let d = datasets::amazon0312(datasets::TEST_SCALE);
//! let tiling = tile_edges(&d.graph, 1024);
//! assert_eq!(tiling.perm.len(), d.graph.num_edges());
//! let csr = Csr::from_edge_list(&d.graph);
//! assert_eq!(csr.num_edges(), d.graph.num_edges());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coo;
mod csr;
pub mod datasets;
mod frontier;
pub mod gen;
pub mod group;
pub mod tile;

pub use coo::EdgeList;
pub use csr::Csr;
pub use frontier::{active_edge_positions, Frontier};
