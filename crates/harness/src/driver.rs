//! The generic smoke driver: runs every registered cell
//! (application × variant × backend) at a given spec and cross-checks each
//! run's values against the application's serial portable reference.

use std::time::Duration;

use invector_core::{Backend, BackendChoice};
use invector_kernels::{ExecPolicy, Variant};

use crate::kernel::Kernel;
use crate::registry;
use crate::spec::RunSpec;

/// One executed cell of the smoke matrix.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Application name.
    pub app: &'static str,
    /// Input description from [`Workload::describe`](crate::Workload::describe).
    pub input: String,
    /// Variant that ran.
    pub variant: Variant,
    /// Backend the run resolved to.
    pub backend: Backend,
    /// Worker threads requested.
    pub threads: usize,
    /// Order-sensitive value digest ([`RunRecord::checksum`](crate::RunRecord::checksum)).
    pub checksum: f64,
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Throughput in million updates per second, when the application
    /// reports update counts ([`RunRecord::mupdates_per_sec`](crate::RunRecord::mupdates_per_sec)).
    pub mupdates: Option<f64>,
    /// `None` when the cell's values agree with the serial portable
    /// reference within the application's tolerance; otherwise the
    /// disagreement (or preparation failure) message.
    pub error: Option<String>,
}

/// Outcome of [`run_all`]: every cell, in registry order.
#[derive(Debug, Clone, Default)]
pub struct SmokeReport {
    /// All executed cells.
    pub cells: Vec<CellReport>,
}

impl SmokeReport {
    /// Cells whose values disagreed with the reference (or failed to run).
    pub fn failures(&self) -> impl Iterator<Item = &CellReport> {
        self.cells.iter().filter(|c| c.error.is_some())
    }

    /// Total wall time across every cell.
    pub fn total_elapsed(&self) -> Duration {
        self.cells.iter().map(|c| c.elapsed).sum()
    }

    /// Best observed throughput per application, in cell order, for the
    /// summary table. Applications that report no update counts (so every
    /// cell's `mupdates` is `None`) are omitted — printing a dash for them
    /// would bury the serve-backed rows this summary exists to surface.
    pub fn app_throughput(&self) -> Vec<(&'static str, f64)> {
        let mut best: Vec<(&'static str, f64)> = Vec::new();
        for cell in &self.cells {
            let Some(m) = cell.mupdates else { continue };
            match best.iter_mut().find(|(app, _)| *app == cell.app) {
                Some((_, peak)) => *peak = peak.max(m),
                None => best.push((cell.app, m)),
            }
        }
        best
    }
}

/// The backend requests the smoke matrix covers on this host: always the
/// portable model, plus every native ISA the CPU can execute (AVX-512,
/// AVX2, NEON), each forced explicitly so the matrix exercises the
/// narrower backends even when a wider one would win auto-resolution.
pub fn backend_matrix() -> Vec<BackendChoice> {
    let mut choices = vec![BackendChoice::Portable];
    for (backend, choice) in [
        (Backend::Avx512, BackendChoice::Avx512),
        (Backend::Avx2, BackendChoice::Avx2),
        (Backend::Neon, BackendChoice::Neon),
    ] {
        if backend.available() {
            choices.push(choice);
        }
    }
    choices
}

/// Runs the full registry at `spec` over [`backend_matrix`] — see
/// [`run_all_matrix`].
pub fn run_all(spec: &RunSpec, threads: usize) -> SmokeReport {
    run_all_matrix(spec, threads, &backend_matrix())
}

/// Runs the full registry at `spec`: for every application, a serial
/// portable reference, then every legal variant on every backend request
/// in `choices` at one thread, then — when `threads > 1` and the
/// application has an engine path — the scalar and in-vector variants on
/// the engine. Every cell's values are checked against the reference
/// within the application's tolerance.
pub fn run_all_matrix(spec: &RunSpec, threads: usize, choices: &[BackendChoice]) -> SmokeReport {
    run_all_apps(registry::all(), spec, threads, choices)
}

/// [`run_all_matrix`] restricted to an explicit application subset — the
/// `run-all --app <name>` path, which lets CI smoke a single registry
/// entry (e.g. the streamkit apps) without paying for the full matrix.
pub fn run_all_apps(
    apps: &[&'static dyn Kernel],
    spec: &RunSpec,
    threads: usize,
    choices: &[BackendChoice],
) -> SmokeReport {
    let mut cells = Vec::new();
    for app in apps {
        let workload = match app.prepare(spec) {
            Ok(w) => w,
            Err(e) => {
                cells.push(CellReport {
                    app: app.name(),
                    input: String::new(),
                    variant: app.variants()[0],
                    backend: Backend::Portable,
                    threads: 1,
                    checksum: f64::NAN,
                    elapsed: Duration::ZERO,
                    mupdates: None,
                    error: Some(format!("prepare failed: {e}")),
                });
                continue;
            }
        };
        let input = workload.describe();
        let reference = workload
            .run(app.variants()[0], &ExecPolicy::default().backend(BackendChoice::Portable));

        let mut policies = Vec::new();
        for &choice in choices {
            for &variant in app.variants() {
                policies.push((variant, ExecPolicy::default().backend(choice)));
            }
        }
        if threads > 1 && app.supports_threads() {
            for &variant in app.variants() {
                if matches!(variant, Variant::Serial | Variant::Invec) {
                    policies.push((variant, ExecPolicy::with_threads(threads)));
                }
            }
        }

        for (variant, policy) in policies {
            let r = workload.run(variant, &policy);
            r.publish_obs();
            cells.push(CellReport {
                app: app.name(),
                input: input.clone(),
                variant,
                backend: r.backend,
                threads: r.threads,
                checksum: r.checksum(),
                elapsed: r.elapsed(),
                mupdates: r.mupdates_per_sec(),
                error: r.agrees_with(&reference, app.tolerance()).err(),
            });
        }
    }
    SmokeReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_matrix_always_includes_portable_first() {
        let m = backend_matrix();
        assert_eq!(m[0], BackendChoice::Portable);
        assert!(m.len() <= 1 + Backend::ALL.len());
        // Every entry past the head must resolve to a distinct native ISA.
        for choice in &m[1..] {
            assert!(choice.resolve().is_native());
        }
    }
}
