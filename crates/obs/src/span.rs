//! Lightweight span tracing: RAII guards recording into per-thread ring
//! buffers with bounded memory.
//!
//! A span is opened with the [`span!`](crate::span!) macro (interning the
//! `'static` name once per call site, cached in a per-site atomic) and
//! closed by dropping the guard. Completed spans land in the calling
//! thread's ring — a fixed block of atomic words overwritten oldest-first,
//! so tracing memory is bounded at [`RING_CAPACITY`] records per thread no
//! matter how long the process runs.
//!
//! Recording is gated on the runtime flag ([`crate::enabled`]): with
//! observability off, opening a span is a single branch and records
//! nothing.
//!
//! Rings are read racily by the exporter ([`drain_spans`]): a record being
//! overwritten concurrently can tear, which the reader tolerates by
//! skipping records whose name id is out of range. Spans are for coarse
//! phases (epochs, engine tasks), not per-instruction events, so in
//! practice the writer is parked while traces are dumped.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Span records kept per thread before the oldest is overwritten.
pub const RING_CAPACITY: usize = 4096;

/// Words per ring record: name id, start ns, duration ns.
const RECORD_WORDS: usize = 3;

/// One completed span, as drained from a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Interned span name.
    pub name: &'static str,
    /// Start time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Logical id of the recording thread.
    pub tid: u64,
}

/// Nanoseconds since the process-wide trace epoch (first use).
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The global intern table: span names are `'static` literals, interned
/// once per call site (the macro caches the id in a per-site atomic).
fn names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

fn intern(name: &'static str) -> u32 {
    let mut names = names().lock().expect("span name table");
    if let Some(i) = names.iter().position(|&n| n == name) {
        return i as u32;
    }
    names.push(name);
    (names.len() - 1) as u32
}

struct SpanRing {
    tid: u64,
    /// Total records ever written; the live window is the last
    /// `min(head, RING_CAPACITY)` records.
    head: AtomicUsize,
    words: Box<[AtomicU64]>,
}

impl SpanRing {
    fn new(tid: u64) -> SpanRing {
        SpanRing {
            tid,
            head: AtomicUsize::new(0),
            words: (0..RING_CAPACITY * RECORD_WORDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn push(&self, id: u32, start_ns: u64, dur_ns: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let base = (head % RING_CAPACITY) * RECORD_WORDS;
        self.words[base].store(u64::from(id), Ordering::Relaxed);
        self.words[base + 1].store(start_ns, Ordering::Relaxed);
        self.words[base + 2].store(dur_ns, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }
}

fn rings() -> &'static Mutex<Vec<Arc<SpanRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<SpanRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_RING: std::cell::OnceCell<Arc<SpanRing>> = const { std::cell::OnceCell::new() };
}

fn my_ring(f: impl FnOnce(&SpanRing)) {
    MY_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            static NEXT_TID: AtomicU64 = AtomicU64::new(1);
            let ring = Arc::new(SpanRing::new(NEXT_TID.fetch_add(1, Ordering::Relaxed)));
            rings().lock().expect("span ring list").push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

/// An open span; records on drop. Construct through
/// [`span!`](crate::span!) (or [`span_with_cached_id`] directly).
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    id: u32,
    start_ns: u64,
    armed: bool,
}

impl Span {
    /// A disabled span that records nothing.
    pub fn disabled() -> Span {
        Span { id: 0, start_ns: 0, armed: false }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        let id = self.id;
        let start = self.start_ns;
        my_ring(|ring| ring.push(id, start, end.saturating_sub(start)));
    }
}

/// Opens a span named `name`, caching the interned id in `cache` (one
/// static per call site — what the [`span!`](crate::span!) macro
/// provides). When observability is disabled this is one branch.
#[inline]
pub fn span_with_cached_id(name: &'static str, cache: &AtomicU32) -> Span {
    if !crate::enabled() {
        return Span::disabled();
    }
    let mut id = cache.load(Ordering::Relaxed);
    if id == u32::MAX {
        id = intern(name);
        cache.store(id, Ordering::Relaxed);
    }
    Span { id, start_ns: now_ns(), armed: true }
}

/// Opens an RAII span guard: `let _s = span!("epoch.apply");` records the
/// guard's lifetime into the current thread's trace ring. One branch when
/// observability is disabled.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __INVECTOR_SPAN_ID: ::std::sync::atomic::AtomicU32 =
            ::std::sync::atomic::AtomicU32::new(u32::MAX);
        $crate::span_with_cached_id($name, &__INVECTOR_SPAN_ID)
    }};
}

/// Copies every thread's live span window out of the rings, oldest kept
/// record first per thread. Torn records (concurrently overwritten) are
/// skipped.
pub fn drain_spans() -> Vec<SpanRecord> {
    let rings = rings().lock().expect("span ring list").clone();
    let names = names().lock().expect("span name table").clone();
    let mut out = Vec::new();
    for ring in rings {
        let head = ring.head.load(Ordering::Acquire);
        let live = head.min(RING_CAPACITY);
        for i in (head - live)..head {
            let base = (i % RING_CAPACITY) * RECORD_WORDS;
            let id = ring.words[base].load(Ordering::Relaxed) as usize;
            let Some(&name) = names.get(id) else { continue };
            out.push(SpanRecord {
                name,
                start_ns: ring.words[base + 1].load(Ordering::Relaxed),
                dur_ns: ring.words[base + 2].load(Ordering::Relaxed),
                tid: ring.tid,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_FLAG_LOCK;

    #[test]
    fn spans_record_when_enabled_and_wrap_at_capacity() {
        let _flag = TEST_FLAG_LOCK.lock().unwrap();
        crate::set_enabled(true);
        {
            let _s = crate::span!("test.outer");
            let _inner = crate::span!("test.inner");
        }
        let spans = drain_spans();
        assert!(spans.iter().any(|s| s.name == "test.outer"));
        assert!(spans.iter().any(|s| s.name == "test.inner"));

        // Overflow the ring; the window stays bounded and holds the most
        // recent records.
        for _ in 0..(RING_CAPACITY + 10) {
            let _s = crate::span!("test.wrap");
        }
        let mine: Vec<_> = drain_spans();
        let wraps = mine.iter().filter(|s| s.name == "test.wrap").count();
        assert!(wraps <= RING_CAPACITY);
        assert!(wraps >= RING_CAPACITY - 2, "ring keeps a full window, got {wraps}");
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        // Count only this test's span name: other tests in this binary may
        // be recording concurrently under their own names.
        let count = || drain_spans().iter().filter(|s| s.name == "test.disabled").count();
        let _flag = TEST_FLAG_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let before = count();
        {
            let _s = crate::span!("test.disabled");
        }
        assert_eq!(count(), before);
    }

    #[test]
    fn intern_is_stable_per_name() {
        let a = intern("stable.name");
        let b = intern("stable.name");
        assert_eq!(a, b);
    }
}
