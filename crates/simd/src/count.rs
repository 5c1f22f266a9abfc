//! Thread-local accounting of executed (emulated) SIMD instructions.
//!
//! The portable model charges every operation that would be a single AVX-512
//! instruction exactly one unit. This lets benchmarks verify the paper's
//! analytic instruction-count claims — e.g. that an invocation of in-vector
//! reduction Algorithm 1 costs about `2 + 8 · D1` instructions — by
//! measuring, not estimating.
//!
//! Counting is a couple of cycles per operation. It is controlled by the
//! crate's on-by-default **`count`** cargo feature: with the feature enabled
//! (the default) every emulated operation is accounted, so statistics never
//! silently disagree with what the benchmarks executed; building with
//! `--no-default-features` compiles every counter call to a no-op, which is
//! what pure wall-clock benchmarks of the portable model want. [`enabled`]
//! reports at runtime which mode was compiled in, and all read-side
//! functions degrade to returning `0` when counting is off.
//!
//! # Per-thread views and the global total
//!
//! [`read`]/[`reset`]/[`take`]/[`with`] are **per-thread** views, exactly as
//! a benchmark wants them. Each thread's counter is also a process-visible
//! atomic cell, and [`global_total`] sums every thread's cell — the number
//! published into the `invector-obs` metric registry as
//! `invector_simd_instructions_total`.
//!
//! The execution engine *re-charges* its workers' counts to the calling
//! thread (so a caller's [`read`] delta covers work it fanned out) via
//! [`bump_recharged`]: the re-charge is visible to the caller's thread-local
//! view but excluded from [`global_total`], which would otherwise count
//! every fanned-out instruction twice — once on the worker that executed it
//! and once on the caller it was re-charged to.
//!
//! # Backend-labeled series
//!
//! Native backends (AVX-512, AVX2, NEON) execute real hardware instructions
//! the emulation counters never see, so the backend dispatch layer charges
//! them *coarsely* — once per fused whole-stream call — into a second,
//! process-global family of counters keyed by backend ([`tag`]):
//! [`bump_backend`] records modeled instructions and vector iterations, and
//! [`backend_instructions`]/[`backend_vectors`] read the cumulative totals.
//! The portable path is charged under [`tag::PORTABLE`] with its measured
//! emulated count, so per-ISA totals stay comparable. Each series is
//! exported as `invector_simd_instructions_{backend}_total` and
//! `invector_simd_vectors_{backend}_total`.
//!
//! # Example
//!
//! ```
//! use invector_simd::{count, F32x16};
//!
//! count::reset();
//! let v = F32x16::splat(1.0) + F32x16::splat(2.0);
//! assert!(count::read() >= 1 || !count::enabled());
//! assert_eq!(v.extract(0), 3.0);
//! ```

/// Modeled cost of one 16-lane gather, in instruction units.
///
/// Register-register AVX-512 operations cost 1 unit; hardware
/// gathers/scatters touch up to 16 cache lines and retire far slower
/// (tens of cycles on KNL/Skylake). Weighting them at 8 units keeps the
/// serial-versus-SIMD instruction model honest: a 16-lane gather does the
/// memory work of 16 scalar random loads at roughly half the cost.
pub const GATHER_COST: u64 = 8;

/// Modeled cost of one 16-lane scatter (see [`GATHER_COST`]).
pub const SCATTER_COST: u64 = 8;

/// `true` when the crate was compiled with the `count` feature (the
/// default), i.e. when [`bump`] actually records and [`read`] actually
/// reports executed instructions.
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "count")
}

/// Counting with cross-thread visibility: each thread owns an atomic cell
/// registered in a process-wide list, so [`global_total`] can merge every
/// thread's count without any hot-path synchronization (the owning thread
/// is the only writer of its cell).
#[cfg(feature = "count")]
mod imp {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, Once, OnceLock};

    /// One thread's instruction cell. `total` is everything the thread's
    /// local view saw (own work plus engine re-charges); `recharged` is the
    /// re-charged share, subtracted when merging so the global total counts
    /// each executed instruction exactly once.
    struct CountCell {
        total: AtomicU64,
        recharged: AtomicU64,
    }

    fn cells() -> &'static Mutex<Vec<Arc<CountCell>>> {
        static CELLS: OnceLock<Mutex<Vec<Arc<CountCell>>>> = OnceLock::new();
        CELLS.get_or_init(|| Mutex::new(Vec::new()))
    }

    struct Local {
        cell: Arc<CountCell>,
        /// `total` at the last [`super::reset`]/[`super::take`]; the
        /// thread-local view is `total - baseline`.
        baseline: Cell<u64>,
    }

    thread_local! {
        static LOCAL: std::cell::OnceCell<Local> = const { std::cell::OnceCell::new() };
    }

    fn with_local<R>(f: impl FnOnce(&Local) -> R) -> R {
        LOCAL.with(|slot| {
            let local = slot.get_or_init(|| {
                let cell =
                    Arc::new(CountCell { total: AtomicU64::new(0), recharged: AtomicU64::new(0) });
                cells().lock().expect("count cell list").push(Arc::clone(&cell));
                // Bridge the totals into the metric registry exactly once
                // per process.
                static REGISTER: Once = Once::new();
                REGISTER.call_once(|| {
                    invector_obs::Registry::global().register_collector(
                        "invector_simd_instructions_total",
                        "Emulated SIMD instructions executed, summed across threads \
                         (engine re-charges excluded).",
                        super::global_total,
                    );
                });
                Local { cell, baseline: Cell::new(0) }
            });
            f(local)
        })
    }

    #[inline]
    pub fn bump(n: u64) {
        with_local(|l| {
            // Single-writer cell: a relaxed load+store is enough and
            // cheaper than a fetch_add.
            let t = l.cell.total.load(Ordering::Relaxed);
            l.cell.total.store(t.wrapping_add(n), Ordering::Relaxed);
        });
    }

    #[inline]
    pub fn bump_recharged(n: u64) {
        with_local(|l| {
            let t = l.cell.total.load(Ordering::Relaxed);
            l.cell.total.store(t.wrapping_add(n), Ordering::Relaxed);
            let r = l.cell.recharged.load(Ordering::Relaxed);
            l.cell.recharged.store(r.wrapping_add(n), Ordering::Relaxed);
        });
    }

    #[inline]
    pub fn read() -> u64 {
        with_local(|l| l.cell.total.load(Ordering::Relaxed).wrapping_sub(l.baseline.get()))
    }

    #[inline]
    pub fn reset() {
        with_local(|l| l.baseline.set(l.cell.total.load(Ordering::Relaxed)));
    }

    #[inline]
    pub fn take() -> u64 {
        with_local(|l| {
            let total = l.cell.total.load(Ordering::Relaxed);
            let out = total.wrapping_sub(l.baseline.get());
            l.baseline.set(total);
            out
        })
    }

    pub fn global_total() -> u64 {
        cells()
            .lock()
            .expect("count cell list")
            .iter()
            .map(|c| {
                c.total.load(Ordering::Relaxed).wrapping_sub(c.recharged.load(Ordering::Relaxed))
            })
            .fold(0u64, u64::wrapping_add)
    }
}

/// Counting compiled out: everything is a no-op reading zero.
#[cfg(not(feature = "count"))]
mod imp {
    #[inline]
    pub fn bump(_n: u64) {}

    #[inline]
    pub fn bump_recharged(_n: u64) {}

    #[inline]
    pub fn read() -> u64 {
        0
    }

    #[inline]
    pub fn reset() {}

    #[inline]
    pub fn take() -> u64 {
        0
    }

    pub fn global_total() -> u64 {
        0
    }
}

/// Records `n` executed SIMD instructions on the current thread.
///
/// Compiles to a no-op without the `count` feature.
#[inline(always)]
pub fn bump(n: u64) {
    imp::bump(n);
}

/// Records `n` instructions that were **already executed (and counted) on
/// another thread** and are being re-charged to this one, so this thread's
/// [`read`] delta covers work it fanned out to the execution engine.
///
/// Re-charged instructions are visible to this thread's [`read`] but
/// excluded from [`global_total`] — they were counted once on the worker
/// that ran them.
#[inline(always)]
pub fn bump_recharged(n: u64) {
    imp::bump_recharged(n);
}

/// Returns the number of SIMD instructions recorded on this thread since the
/// last [`reset`] (always `0` without the `count` feature).
#[inline]
pub fn read() -> u64 {
    imp::read()
}

/// Resets this thread's instruction counter to zero.
#[inline]
pub fn reset() {
    imp::reset()
}

/// Returns the current count and resets the counter in one step (always `0`
/// without the `count` feature).
#[inline]
pub fn take() -> u64 {
    imp::take()
}

/// The process-wide instruction total: every thread's executed count,
/// merged, with engine re-charges counted once. `0` without the `count`
/// feature. Unlike [`read`], this is never
/// reset — it is the cumulative series the metric registry exports.
pub fn global_total() -> u64 {
    imp::global_total()
}

/// Runs `f` and returns its result together with the number of SIMD
/// instructions it executed on this thread (`0` without the `count`
/// feature).
///
/// The surrounding count is preserved: instructions recorded by `f` are also
/// visible to any enclosing [`with`] or [`read`].
///
/// # Example
///
/// ```
/// use invector_simd::{count, I32x16};
///
/// let (_, n) = count::with(|| I32x16::splat(3) + I32x16::splat(4));
/// assert!(n >= 1 || !count::enabled());
/// ```
pub fn with<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = read();
    let result = f();
    (result, read().wrapping_sub(before))
}

/// Stable indices for the backend-labeled counter series.
///
/// Each value doubles as the [`Isa::TAG`](crate::arch::Isa::TAG) of the
/// corresponding backend and as the index into [`BACKEND_NAMES`].
pub mod tag {
    /// The portable software model (any lane width).
    pub const PORTABLE: usize = 0;
    /// The 16-lane AVX-512 backend.
    pub const AVX512: usize = 1;
    /// The 8-lane AVX2 backend.
    pub const AVX2: usize = 2;
    /// The 4-lane NEON backend.
    pub const NEON: usize = 3;
}

/// Backend names for the labeled counter series, indexed by the constants
/// in [`tag`].
pub const BACKEND_NAMES: [&str; 4] = ["portable", "avx512", "avx2", "neon"];

/// Backend-labeled counters: one pair of process-global atomics per backend,
/// bumped once per fused whole-stream call (never per vector), so plain
/// `fetch_add` contention is irrelevant.
#[cfg(feature = "count")]
mod backend_imp {
    use std::sync::atomic::{AtomicU64, Ordering};

    const N: usize = super::BACKEND_NAMES.len();
    static INSTRUCTIONS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
    static VECTORS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];

    /// Bridges the per-backend totals into the metric registry exactly once
    /// per process, lazily on the first charge.
    fn register() {
        static REGISTER: std::sync::Once = std::sync::Once::new();
        REGISTER.call_once(|| {
            let registry = invector_obs::Registry::global();
            for (i, name) in super::BACKEND_NAMES.iter().enumerate() {
                registry.register_collector(
                    &format!("invector_simd_instructions_{name}_total"),
                    "Modeled SIMD instructions charged to this backend by the \
                     fused accumulate dispatch layer.",
                    move || super::backend_instructions(i),
                );
                registry.register_collector(
                    &format!("invector_simd_vectors_{name}_total"),
                    "Vector iterations executed by this backend's fused \
                     accumulate drivers.",
                    move || super::backend_vectors(i),
                );
            }
        });
    }

    pub fn bump(backend: usize, instructions: u64, vectors: u64) {
        register();
        INSTRUCTIONS[backend].fetch_add(instructions, Ordering::Relaxed);
        VECTORS[backend].fetch_add(vectors, Ordering::Relaxed);
    }

    pub fn instructions(backend: usize) -> u64 {
        INSTRUCTIONS[backend].load(Ordering::Relaxed)
    }

    pub fn vectors(backend: usize) -> u64 {
        VECTORS[backend].load(Ordering::Relaxed)
    }
}

/// Backend-labeled counting compiled out with the `count` feature.
#[cfg(not(feature = "count"))]
mod backend_imp {
    pub fn bump(_backend: usize, _instructions: u64, _vectors: u64) {}

    pub fn instructions(_backend: usize) -> u64 {
        0
    }

    pub fn vectors(_backend: usize) -> u64 {
        0
    }
}

/// Charges `instructions` modeled instruction units and `vectors` vector
/// iterations to `backend` (an index from [`tag`]).
///
/// Called once per fused whole-stream driver run by the backend dispatch
/// layer — native backends are charged `vectors · MODEL_COST_PER_VECTOR +
/// 8 · merge_iterations` from their depth histogram, the portable path its
/// measured emulated count. A no-op without the `count` feature.
///
/// # Panics
///
/// Panics if `backend` is not one of the [`tag`] constants.
#[inline]
pub fn bump_backend(backend: usize, instructions: u64, vectors: u64) {
    assert!(backend < BACKEND_NAMES.len(), "unknown backend tag {backend}");
    backend_imp::bump(backend, instructions, vectors);
}

/// Cumulative modeled instructions charged to `backend` via
/// [`bump_backend`] since process start (`0` without the `count` feature).
/// Never reset — this is the series the metric registry exports.
///
/// # Panics
///
/// Panics if `backend` is not one of the [`tag`] constants.
pub fn backend_instructions(backend: usize) -> u64 {
    assert!(backend < BACKEND_NAMES.len(), "unknown backend tag {backend}");
    backend_imp::instructions(backend)
}

/// Cumulative vector iterations charged to `backend` via [`bump_backend`]
/// since process start (`0` without the `count` feature).
///
/// # Panics
///
/// Panics if `backend` is not one of the [`tag`] constants.
pub fn backend_vectors(backend: usize) -> u64 {
    assert!(backend < BACKEND_NAMES.len(), "unknown backend tag {backend}");
    backend_imp::vectors(backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_reflects_feature() {
        assert_eq!(enabled(), cfg!(feature = "count"));
    }

    #[cfg(feature = "count")]
    #[test]
    fn bump_and_read_round_trip() {
        reset();
        bump(3);
        bump(4);
        assert_eq!(read(), 7);
        assert_eq!(take(), 7);
        assert_eq!(read(), 0);
    }

    #[cfg(not(feature = "count"))]
    #[test]
    fn disabled_counting_reads_zero() {
        reset();
        bump(3);
        assert_eq!(read(), 0);
        assert_eq!(take(), 0);
        let ((), n) = with(|| bump(11));
        assert_eq!(n, 0);
        assert_eq!(global_total(), 0);
    }

    #[cfg(feature = "count")]
    #[test]
    fn with_reports_nested_cost_without_losing_outer_count() {
        reset();
        bump(5);
        let ((), inner) = with(|| bump(11));
        assert_eq!(inner, 11);
        assert_eq!(read(), 16);
    }

    #[cfg(feature = "count")]
    #[test]
    fn counters_are_per_thread() {
        reset();
        bump(9);
        let other = std::thread::spawn(|| {
            reset();
            bump(1);
            read()
        })
        .join()
        .unwrap();
        assert_eq!(other, 1);
        assert_eq!(read(), 9);
    }

    #[cfg(feature = "count")]
    #[test]
    fn recharges_count_locally_but_not_globally() {
        // Spawn a dedicated thread so other tests' bumps cannot land on
        // this thread-local view mid-assertion; the *global* deltas below
        // are still safe because no other test uses bump_recharged.
        std::thread::spawn(|| {
            reset();
            let spent_before = global_total();
            bump(10);
            bump_recharged(6);
            assert_eq!(read(), 16, "re-charge is visible locally");
            let my_global_share = 10; // the re-charged 6 is excluded
            assert!(global_total().wrapping_sub(spent_before) >= my_global_share);
            assert_eq!(take(), 16);
        })
        .join()
        .unwrap();
    }

    #[cfg(feature = "count")]
    #[test]
    fn backend_counters_accumulate_per_tag() {
        let i0 = backend_instructions(tag::AVX2);
        let v0 = backend_vectors(tag::AVX2);
        let n0 = backend_instructions(tag::NEON);
        bump_backend(tag::AVX2, 38, 1);
        bump_backend(tag::AVX2, 76, 2);
        assert_eq!(backend_instructions(tag::AVX2).wrapping_sub(i0), 114);
        assert_eq!(backend_vectors(tag::AVX2).wrapping_sub(v0), 3);
        assert_eq!(backend_instructions(tag::NEON), n0, "tags are independent");
    }

    #[cfg(not(feature = "count"))]
    #[test]
    fn backend_counters_read_zero_when_disabled() {
        bump_backend(tag::AVX512, 10, 1);
        assert_eq!(backend_instructions(tag::AVX512), 0);
        assert_eq!(backend_vectors(tag::AVX512), 0);
    }

    #[test]
    #[should_panic(expected = "unknown backend tag")]
    fn backend_counters_reject_unknown_tags() {
        bump_backend(BACKEND_NAMES.len(), 1, 1);
    }

    #[cfg(feature = "count")]
    #[test]
    fn global_total_survives_thread_local_resets() {
        std::thread::spawn(|| {
            bump(21);
            let g = global_total();
            reset();
            assert_eq!(read(), 0);
            assert!(global_total() >= g, "reset is a view operation, not a rollback");
        })
        .join()
        .unwrap();
    }
}
