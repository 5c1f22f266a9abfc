//! The metric registry: typed counters, gauges, and histograms backed by
//! per-thread shards that are merged on read.
//!
//! The write path never takes a lock. Every thread that touches a registry
//! gets its own [`Shard`] — a fixed block of `AtomicU64` slots — found
//! through a thread-local table keyed by registry id. Recording a counter
//! increment is one relaxed `fetch_add` on a slot no other thread writes;
//! the registry's shard list mutex is taken only the first time a thread
//! meets a registry (and on the read path, which merges every shard).
//!
//! Registries are instance-based so independent subsystems (e.g. two
//! server cores in one test process) do not see each other's counts;
//! [`Registry::global`] is the shared process-wide instance that
//! library-level facilities (SIMD instruction accounting, the execution
//! engine, the harness) publish into.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// `AtomicU64` slots per shard. Registration panics past this many; the
/// registry is for a curated set of subsystem metrics, not unbounded
/// cardinality.
const SHARD_SLOTS: usize = 512;

/// Upper bound on histogram bucket bounds (plus the implicit `+Inf`).
const MAX_BOUNDS: usize = 64;

static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's block of metric slots for one registry.
#[derive(Debug)]
struct Shard {
    slots: Box<[AtomicU64]>,
}

impl Shard {
    fn new() -> Shard {
        Shard { slots: (0..SHARD_SLOTS).map(|_| AtomicU64::new(0)).collect() }
    }
}

/// What a registered name means: which slots it owns and how to read them.
#[derive(Debug, Clone)]
enum Kind {
    /// One sharded slot, summed on read.
    Counter { slot: usize },
    /// One registry-global slot holding `f64` bits, last write wins.
    Gauge { slot: usize },
    /// `bounds.len() + 1` sharded bucket slots, then a count slot, then an
    /// `f64`-bits sum slot.
    Histogram { base: usize, bounds: Arc<[f64]> },
}

#[derive(Debug, Clone)]
struct Meta {
    name: String,
    help: String,
    kind: Kind,
}

type CollectorFn = Box<dyn Fn() -> u64 + Send>;

struct Inner {
    id: u64,
    metrics: Mutex<Vec<Meta>>,
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Registry-global slots (gauges; no per-thread semantics for
    /// last-write-wins values).
    globals: Shard,
    next_slot: AtomicUsize,
    next_global: AtomicUsize,
    collectors: Mutex<Vec<(String, String, CollectorFn)>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("id", &self.id).finish()
    }
}

thread_local! {
    /// This thread's shard per registry it has touched. Entries whose
    /// registry has been dropped are pruned when the table is next grown.
    static TLS_SHARDS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

struct TlsEntry {
    id: u64,
    alive: Weak<Inner>,
    shard: Arc<Shard>,
}

/// Finds (or creates and registers) the calling thread's shard of `inner`.
fn shard_for(inner: &Arc<Inner>) -> Arc<Shard> {
    TLS_SHARDS.with(|table| {
        let mut table = table.borrow_mut();
        if let Some(e) = table.iter().find(|e| e.id == inner.id) {
            return Arc::clone(&e.shard);
        }
        // Cold path: first touch of this registry from this thread. Prune
        // shards of dead registries so long-lived threads meeting many
        // short-lived registries (proptest loops) stay bounded.
        table.retain(|e| e.alive.strong_count() > 0);
        let shard = Arc::new(Shard::new());
        inner.shards.lock().expect("registry shard list").push(Arc::clone(&shard));
        table.push(TlsEntry {
            id: inner.id,
            alive: Arc::downgrade(inner),
            shard: Arc::clone(&shard),
        });
        shard
    })
}

/// A process- or subsystem-scoped metric registry. Cheap to clone (the
/// clone shares the underlying storage).
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(Inner {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                metrics: Mutex::new(Vec::new()),
                shards: Mutex::new(Vec::new()),
                globals: Shard::new(),
                next_slot: AtomicUsize::new(0),
                next_global: AtomicUsize::new(0),
                collectors: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The shared process-wide registry. Library facilities (SIMD
    /// instruction accounting, the execution engine, the harness) publish
    /// here; subsystem instances (one per server core) use their own
    /// [`Registry::new`].
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn alloc_slots(&self, n: usize) -> usize {
        let base = self.inner.next_slot.fetch_add(n, Ordering::Relaxed);
        assert!(
            base + n <= SHARD_SLOTS,
            "obs registry slot capacity exceeded ({SHARD_SLOTS} slots)"
        );
        base
    }

    /// Registers (or finds) a monotonically increasing counter.
    ///
    /// Registration is idempotent per name; the returned handle is cheap
    /// to clone and safe to share across threads.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind,
    /// or if the registry's slot capacity is exhausted.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let name = sanitize(name);
        let mut metrics = self.inner.metrics.lock().expect("registry metrics");
        if let Some(m) = metrics.iter().find(|m| m.name == name) {
            match m.kind {
                Kind::Counter { slot } => return Counter { inner: Arc::clone(&self.inner), slot },
                _ => panic!("metric '{name}' already registered with a different kind"),
            }
        }
        let slot = self.alloc_slots(1);
        metrics.push(Meta { name, help: help.to_string(), kind: Kind::Counter { slot } });
        Counter { inner: Arc::clone(&self.inner), slot }
    }

    /// Registers (or finds) a last-write-wins gauge.
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch or slot exhaustion (see
    /// [`counter`](Registry::counter)).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let name = sanitize(name);
        let mut metrics = self.inner.metrics.lock().expect("registry metrics");
        if let Some(m) = metrics.iter().find(|m| m.name == name) {
            match m.kind {
                Kind::Gauge { slot } => return Gauge { inner: Arc::clone(&self.inner), slot },
                _ => panic!("metric '{name}' already registered with a different kind"),
            }
        }
        let slot = self.inner.next_global.fetch_add(1, Ordering::Relaxed);
        assert!(slot < SHARD_SLOTS, "obs registry gauge capacity exceeded");
        metrics.push(Meta { name, help: help.to_string(), kind: Kind::Gauge { slot } });
        Gauge { inner: Arc::clone(&self.inner), slot }
    }

    /// Registers (or finds) a histogram over the given upper bucket bounds
    /// (an `+Inf` bucket is implicit). Bounds must be finite and strictly
    /// increasing.
    ///
    /// # Panics
    ///
    /// Panics on a kind mismatch, slot exhaustion, more than 64 bounds, or
    /// non-increasing bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        assert!(bounds.len() <= MAX_BOUNDS, "too many histogram bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        let name = sanitize(name);
        let mut metrics = self.inner.metrics.lock().expect("registry metrics");
        if let Some(m) = metrics.iter().find(|m| m.name == name) {
            match &m.kind {
                Kind::Histogram { base, bounds } => {
                    return Histogram {
                        inner: Arc::clone(&self.inner),
                        base: *base,
                        bounds: Arc::clone(bounds),
                    }
                }
                _ => panic!("metric '{name}' already registered with a different kind"),
            }
        }
        let bounds: Arc<[f64]> = bounds.into();
        // bounds.len()+1 buckets, one count slot, one f64-bits sum slot.
        let base = self.alloc_slots(bounds.len() + 3);
        metrics.push(Meta {
            name,
            help: help.to_string(),
            kind: Kind::Histogram { base, bounds: Arc::clone(&bounds) },
        });
        Histogram { inner: Arc::clone(&self.inner), base, bounds }
    }

    /// Registers a pull-style collector: `f` is invoked on every snapshot
    /// and its value reported as a counter named `name`. Used to bridge
    /// pre-existing accounting (e.g. the SIMD instruction totals) into the
    /// registry without double bookkeeping.
    pub fn register_collector(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + 'static) {
        let name = sanitize(name);
        let mut collectors = self.inner.collectors.lock().expect("registry collectors");
        if collectors.iter().any(|(n, _, _)| *n == name) {
            return;
        }
        collectors.push((name, help.to_string(), Box::new(f)));
    }

    /// Merges every shard and collector into a point-in-time snapshot, in
    /// registration order (collectors last).
    pub fn snapshot(&self) -> Vec<Metric> {
        let metrics = self.inner.metrics.lock().expect("registry metrics").clone();
        let shards = self.inner.shards.lock().expect("registry shard list").clone();
        let sum_slot = |slot: usize| -> u64 {
            shards.iter().map(|s| s.slots[slot].load(Ordering::Relaxed)).sum()
        };
        let mut out = Vec::with_capacity(metrics.len());
        for m in metrics {
            let value = match m.kind {
                Kind::Counter { slot } => MetricValue::Counter(sum_slot(slot)),
                Kind::Gauge { slot } => MetricValue::Gauge(f64::from_bits(
                    self.inner.globals.slots[slot].load(Ordering::Relaxed),
                )),
                Kind::Histogram { base, bounds } => {
                    let buckets: Vec<u64> =
                        (0..=bounds.len()).map(|i| sum_slot(base + i)).collect();
                    let count = sum_slot(base + bounds.len() + 1);
                    let sum = shards
                        .iter()
                        .map(|s| {
                            f64::from_bits(s.slots[base + bounds.len() + 2].load(Ordering::Relaxed))
                        })
                        .sum();
                    MetricValue::Histogram(HistogramSnapshot {
                        bounds: bounds.to_vec(),
                        buckets,
                        count,
                        sum,
                    })
                }
            };
            out.push(Metric { name: m.name, help: m.help, value });
        }
        for (name, help, f) in self.inner.collectors.lock().expect("registry collectors").iter() {
            out.push(Metric {
                name: name.clone(),
                help: help.clone(),
                value: MetricValue::Counter(f()),
            });
        }
        out
    }
}

/// Prometheus metric names admit `[a-zA-Z0-9_:]`; anything else becomes
/// `_` so registration never fails on a name.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    inner: Arc<Inner>,
    slot: usize,
}

impl Counter {
    /// Adds `n`. Lock-free: one relaxed `fetch_add` on this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        let shard = shard_for(&self.inner);
        shard.slots[self.slot].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The merged total across every thread's shard.
    pub fn value(&self) -> u64 {
        let shards = self.inner.shards.lock().expect("registry shard list");
        shards.iter().map(|s| s.slots[self.slot].load(Ordering::Relaxed)).sum()
    }
}

/// A last-write-wins gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge {
    inner: Arc<Inner>,
    slot: usize,
}

impl Gauge {
    /// Stores `v` (last write wins; a single relaxed store).
    #[inline]
    pub fn set(&self, v: f64) {
        self.inner.globals.slots[self.slot].store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.inner.globals.slots[self.slot].load(Ordering::Relaxed))
    }
}

/// A histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
    base: usize,
    bounds: Arc<[f64]>,
}

impl Histogram {
    /// Records `n` observations of `v` in one step. Lock-free; the sum
    /// slot is single-writer per shard (only the owning thread writes it),
    /// so a relaxed read-modify-write needs no CAS loop.
    pub fn observe_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let shard = shard_for(&self.inner);
        let b = self.bounds.partition_point(|&bound| bound < v);
        shard.slots[self.base + b].fetch_add(n, Ordering::Relaxed);
        shard.slots[self.base + self.bounds.len() + 1].fetch_add(n, Ordering::Relaxed);
        let sum_slot = &shard.slots[self.base + self.bounds.len() + 2];
        let old = f64::from_bits(sum_slot.load(Ordering::Relaxed));
        sum_slot.store((old + v * n as f64).to_bits(), Ordering::Relaxed);
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn observe(&self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Bucket-interpolated quantile of the merged histogram — the
    /// pull-side shorthand for `snapshot().quantile(q)`. `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// The merged snapshot across every thread's shard.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let shards = self.inner.shards.lock().expect("registry shard list").clone();
        let sum_slot = |slot: usize| -> u64 {
            shards.iter().map(|s| s.slots[slot].load(Ordering::Relaxed)).sum()
        };
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            buckets: (0..=self.bounds.len()).map(|i| sum_slot(self.base + i)).collect(),
            count: sum_slot(self.base + self.bounds.len() + 1),
            sum: shards
                .iter()
                .map(|s| {
                    f64::from_bits(
                        s.slots[self.base + self.bounds.len() + 2].load(Ordering::Relaxed),
                    )
                })
                .sum(),
        }
    }
}

/// One metric's merged value at snapshot time.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Sanitized metric name.
    pub name: String,
    /// Help text for exposition.
    pub help: String,
    /// The merged value.
    pub value: MetricValue,
}

/// The typed value of a snapshot entry.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Merged counter total.
    Counter(u64),
    /// Current gauge value.
    Gauge(f64),
    /// Merged histogram state.
    Histogram(HistogramSnapshot),
}

/// A merged histogram: per-bucket counts (the last bucket is `+Inf`),
/// total count, and the sum of observed values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (exclusive of the implicit `+Inf`).
    pub bounds: Vec<f64>,
    /// Non-cumulative bucket counts, `bounds.len() + 1` entries.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-interpolated quantile (`q` in `[0, 1]`); `0.0` when empty.
    /// Within a bucket the estimate interpolates linearly between the
    /// bucket's bounds (the `+Inf` bucket reports its lower bound).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let prev = cum;
            cum += n;
            if (cum as f64) >= rank {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let Some(&upper) = self.bounds.get(i) else { return lower };
                if n == 0 {
                    return upper;
                }
                let frac = (rank - prev as f64) / n as f64;
                return lower + (upper - lower) * frac.clamp(0.0, 1.0);
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_across_threads() {
        let r = Registry::new();
        let c = r.counter("test_total", "test");
        c.add(5);
        let c2 = c.clone();
        std::thread::spawn(move || c2.add(7)).join().unwrap();
        assert_eq!(c.value(), 12);
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let r = Registry::new();
        let a = r.counter("dup", "first");
        let b = r.counter("dup", "second");
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2, "same slot behind both handles");
        assert!(std::panic::catch_unwind(|| r.gauge("dup", "kind clash")).is_err());
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = Registry::new();
        let g = r.gauge("ratio", "test");
        g.set(0.25);
        g.set(0.75);
        assert_eq!(g.value(), 0.75);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let r = Registry::new();
        let h = r.histogram("lat", "test", &[1.0, 10.0, 100.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe_n(50.0, 2);
        h.observe(1e6); // +Inf bucket
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 1, 2, 1]);
        assert_eq!(s.count, 5);
        assert!((s.sum - (0.5 + 5.0 + 100.0 + 1e6)).abs() < 1e-9);
        assert!(s.quantile(0.5) <= 100.0);
        assert!(s.quantile(0.99) >= 100.0);
    }

    #[test]
    fn histogram_quantile_helper_matches_the_snapshot_and_orders() {
        let r = Registry::new();
        let h = r.histogram("q", "test", &[1.0, 10.0, 100.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram reads zero");
        for v in [0.5, 2.0, 3.0, 20.0, 30.0, 40.0] {
            h.observe(v);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert_eq!(p50, h.snapshot().quantile(0.50), "helper is the snapshot quantile");
        assert!(p50 <= p99, "quantiles are monotone in q: {p50} > {p99}");
        assert!(p50 > 1.0 && p50 <= 10.0, "median in the (1, 10] bucket: {p50}");
        assert!(p99 > 10.0 && p99 <= 100.0, "p99 in the (10, 100] bucket: {p99}");
    }

    #[test]
    fn exact_boundary_lands_in_its_bucket() {
        let r = Registry::new();
        let h = r.histogram("b", "test", &[1.0, 2.0]);
        h.observe(1.0); // le="1" cumulative must include it
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
    }

    #[test]
    fn collectors_appear_in_snapshots() {
        let r = Registry::new();
        r.register_collector("pulled_total", "test", || 42);
        let snap = r.snapshot();
        let m = snap.iter().find(|m| m.name == "pulled_total").unwrap();
        assert!(matches!(m.value, MetricValue::Counter(42)));
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("a.b-c"), "a_b_c");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn dropped_registries_do_not_leak_tls_entries() {
        // Touch many short-lived registries from this thread; the TLS
        // table prunes dead entries, so this stays bounded.
        for _ in 0..100 {
            let r = Registry::new();
            r.counter("x", "test").inc();
        }
        TLS_SHARDS.with(|t| assert!(t.borrow().len() < 100));
    }
}
