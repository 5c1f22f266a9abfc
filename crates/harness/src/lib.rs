//! Application registry and run harness: the one pipeline from application
//! selection through variant dispatch to the SIMD backend.
//!
//! Every paper application implements the [`Kernel`] trait — static
//! metadata (name, datasets, legal variants, tiling mode, agreement
//! tolerance) plus a factory producing a prepared [`Workload`]. The static
//! [`registry`] enumerates them; the CLI, the bench bins, and the
//! [`driver::run_all`] smoke matrix all consume applications only through
//! this layer, so variant parsing, policy plumbing, and reference
//! validation exist exactly once.
//!
//! ```
//! use invector_harness::{registry, RunSpec};
//! use invector_kernels::ExecPolicy;
//!
//! let app = registry::lookup("sssp").unwrap();
//! let workload = app.prepare(&RunSpec::tiny()).unwrap();
//! let record = workload.run(app.variants()[0], &ExecPolicy::default());
//! assert!(!record.values.is_empty());
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod driver;
mod kernel;
pub mod registry;
pub mod serving;
mod spec;

pub use driver::{backend_matrix, run_all, run_all_apps, run_all_matrix, CellReport, SmokeReport};
pub use kernel::{Kernel, RunRecord, Workload};
pub use spec::RunSpec;
