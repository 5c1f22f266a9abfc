//! Unified observability for the invector stack: a process-wide metric
//! registry, lightweight span tracing, and exporters.
//!
//! # Layers
//!
//! - **Registry** ([`Registry`]): typed [`Counter`]s, [`Gauge`]s, and
//!   [`Histogram`]s backed by per-thread shards of relaxed atomics, merged
//!   on read. The write path takes no locks; independent subsystems use
//!   instance registries while library facilities publish into
//!   [`Registry::global`].
//! - **Spans** ([`span!`]): RAII guards recording into bounded per-thread
//!   ring buffers, exported in chrome://tracing format.
//! - **Exporters** ([`prometheus`], [`json_snapshot`], [`chrome_trace`]):
//!   Prometheus text exposition (served by `invector-serve` as the
//!   `Metrics` protocol verb), a JSON snapshot bench bins embed in their
//!   result files, and trace dumps loadable at `about:tracing`.
//!
//! # Disabling
//!
//! The subsystem is compiled into every build; its one switch is the
//! **runtime flag** ([`set_enabled`]), which gates span recording and
//! opt-in publishers (the harness `--obs` path). One relaxed load plus one
//! branch on the hot path; off by default, switched on by servers and the
//! CLI's `--obs` flag. Registry counters tied to coarse events (epoch
//! boundaries, engine task dispatch) record whatever the flag says, since
//! their cost is amortized over thousands of updates.

#![warn(missing_docs)]

mod export;
pub mod json;
mod registry;
mod span;

use std::sync::atomic::{AtomicBool, Ordering};

pub use export::{chrome_trace, json_snapshot, prometheus};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Metric, MetricValue, Registry};
pub use span::{drain_spans, span_with_cached_id, Span, SpanRecord, RING_CAPACITY};

static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` when the runtime flag is on. This is the single branch guarding
/// span recording and opt-in publishers.
#[inline(always)]
pub fn enabled() -> bool {
    RUNTIME_ENABLED.load(Ordering::Relaxed)
}

/// Switches runtime observability on or off (process-wide).
pub fn set_enabled(on: bool) {
    RUNTIME_ENABLED.store(on, Ordering::Relaxed);
}

/// Serializes tests (across this crate's modules) that toggle the global
/// runtime flag.
#[cfg(test)]
pub(crate) static TEST_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_flag_round_trips() {
        let _flag = TEST_FLAG_LOCK.lock().unwrap();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
