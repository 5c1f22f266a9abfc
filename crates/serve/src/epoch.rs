//! Epoch bookkeeping: the seq-ordered reorder buffer and per-epoch
//! statistics.
//!
//! The service applies each table's update stream in **contiguous sequence
//! order**, exactly like a replicated log: updates may arrive on any
//! connection in any interleaving, but an update is only folded into the
//! table once every earlier stream position has been. The reorder buffer
//! is the holding pen between arrival order and application order.

use std::collections::VecDeque;
use std::time::Duration;

use invector_core::stats::DepthHistogram;
use invector_core::tune::{EpochPolicy, MetricFrame};
use invector_obs::{Counter, Gauge, Histogram, Registry};

use crate::protocol::{StatsSummary, Update};

/// Buffers out-of-order arrivals and releases the contiguous prefix.
///
/// `watermark` is the next stream position to apply; everything below it
/// has already been folded into the table. Insertions below the watermark
/// or at an occupied position are duplicates and are dropped (counted).
///
/// Storage is a dense ring keyed by offset from the watermark — slot `i`
/// holds stream position `watermark + i`. Admission bounds how far ahead
/// of the watermark a sequence number may land (`config.window`), so the
/// ring stays small. The length of the gap-free run at the front of the
/// ring is kept as a field, so [`contiguous_len`](Self::contiguous_len)
/// is O(1) rather than a rescan of the ring on every cut.
///
/// An epoch hands the buffer each table's staged batch whole
/// ([`insert_batch`](Self::insert_batch)). Client batches arrive
/// seq-contiguous, so the common case — a batch continuing exactly where
/// the ring ends — is appended in one extend; only real out-of-order
/// arrivals take the per-update [`insert`](Self::insert) path.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    held: VecDeque<Option<(u32, u32)>>,
    /// Occupied slots in `held`.
    len: usize,
    /// Occupied slots at the front of `held`, up to the first gap.
    run: usize,
    watermark: u64,
    duplicates: u64,
}

impl ReorderBuffer {
    /// An empty buffer at watermark 0.
    pub fn new() -> ReorderBuffer {
        ReorderBuffer::default()
    }

    /// Next stream position to apply.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Updates currently held (contiguous or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Duplicate insertions dropped so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Buffers one update; returns `false` for duplicates (position
    /// already applied or already held).
    pub fn insert(&mut self, u: Update) -> bool {
        if u.seq < self.watermark {
            self.duplicates += 1;
            return false;
        }
        let off = (u.seq - self.watermark) as usize;
        if off >= self.held.len() {
            self.held.resize(off + 1, None);
        }
        match &mut self.held[off] {
            Some(_) => {
                self.duplicates += 1;
                false
            }
            slot @ None => {
                *slot = Some((u.idx, u.bits));
                self.len += 1;
                if off == self.run {
                    self.extend_run();
                }
                true
            }
        }
    }

    /// Buffers a batch in arrival order.
    ///
    /// The seq-contiguous prefix of `batch` that starts exactly where the
    /// ring ends is appended in one extend (those positions cannot be
    /// duplicates). The rest, if any, goes through
    /// [`insert`](Self::insert) one update at a time.
    pub fn insert_batch(&mut self, batch: &[Update]) {
        let end = self.held.len();
        let tail = self.watermark + end as u64;
        let bulk = batch.iter().zip(tail..).take_while(|(u, seq)| u.seq == *seq).count();
        self.held.extend(batch[..bulk].iter().map(|u| Some((u.idx, u.bits))));
        self.len += bulk;
        if self.run == end {
            self.run += bulk;
        }
        for &u in &batch[bulk..] {
            self.insert(u);
        }
    }

    /// Length of the contiguous run starting at the watermark.
    pub fn contiguous_len(&self) -> usize {
        self.run
    }

    /// Removes exactly `n` updates from the contiguous run into `out`
    /// (cleared first), advancing the watermark.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` contiguous updates are available — callers
    /// size `n` from [`contiguous_len`](Self::contiguous_len) under the
    /// same lock.
    pub fn pop_run(&mut self, n: usize, out: &mut Vec<Update>) {
        assert!(n <= self.run, "pop_run of {n} past the contiguous run of {}", self.run);
        let watermark = self.watermark;
        out.clear();
        out.extend(self.held.drain(..n).zip(watermark..).map(|(slot, seq)| {
            let (idx, bits) = slot.expect("the contiguous run has no gaps");
            Update { seq, idx, bits }
        }));
        self.len -= n;
        self.run -= n;
        self.watermark += n as u64;
    }

    /// Fast-forwards the watermark without popping: positions below `to`
    /// were applied externally (checkpoint install, logged-slice replay).
    /// Any update buffered below the new watermark is dropped as already
    /// applied.
    ///
    /// # Panics
    ///
    /// Panics on a watermark regression — recovery only ever moves forward.
    pub fn advance_to(&mut self, to: u64) {
        assert!(to >= self.watermark, "watermark regression {} -> {to}", self.watermark);
        let skip = ((to - self.watermark) as usize).min(self.held.len());
        self.len -= self.held.drain(..skip).flatten().count();
        self.watermark = to;
        if skip <= self.run {
            self.run -= skip;
        } else {
            self.run = 0;
            self.extend_run();
        }
    }

    /// Grows `run` over the occupied slots that follow it. Each slot is
    /// passed at most once while it stays in the ring, so the scan is
    /// amortized O(1) per update.
    fn extend_run(&mut self) {
        self.run += self.held.range(self.run..).take_while(|slot| slot.is_some()).count();
    }
}

/// One epoch's outcome: what [`tick`](crate::server::ServerCore::tick)
/// applied.
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Updates applied across all tables.
    pub applied: usize,
    /// Batch slices executed.
    pub slices: usize,
    /// Slice capacity offered (Σ per-slice quantum) — the occupancy
    /// denominator. Tracked per slice because the quantum may change
    /// between epochs under tuning.
    pub offered: usize,
    /// SIMD vector iterations the slices ran (16 lane slots each), for
    /// utilization accounting.
    pub vectors: u64,
    /// Wall time of the tick.
    pub elapsed: Duration,
}

/// Upper bucket bounds of the epoch latency histogram, in microseconds
/// (an `+Inf` bucket is implicit).
const LATENCY_BOUNDS_US: [f64; 16] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0, 20000.0,
    50000.0, 100000.0,
];

/// SIMD lanes per vector (AVX-512, 32-bit elements) — the slot count a
/// vector iteration offers for utilization accounting.
const LANES: u64 = 16;

/// Service statistics as a set of handles into a per-core metric registry.
///
/// Every record-side call is lock-free (relaxed adds on the calling
/// thread's registry shard), so the admission path and the epoch executor
/// never serialize on a stats mutex; reads merge the shards on demand.
/// With the `obs` feature disabled the handles still exist but every
/// record is a no-op and reads return zero.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// `invector_serve_epochs_total`: epochs that applied ≥ 1 slice.
    epochs: Counter,
    /// `invector_serve_slices_total`: batch slices executed.
    slices: Counter,
    /// `invector_serve_applied_total`: updates applied.
    applied: Counter,
    /// `invector_serve_rejected_total`: updates refused admission.
    rejected: Counter,
    /// `invector_serve_offered_total`: slice capacity offered
    /// (slices × quantum), for occupancy.
    offered: Counter,
    /// `invector_serve_busy_ns_total`: total epoch execution time.
    busy_ns: Counter,
    /// `invector_serve_lanes_useful_total`: lane slots that applied an
    /// update.
    lanes_useful: Counter,
    /// `invector_serve_lane_slots_total`: lane slots executed.
    lane_slots: Counter,
    /// `invector_serve_utilization_ratio`: running useful / executed.
    utilization: Gauge,
    /// `invector_serve_conflict_depth`: per-vector conflict depth (D1).
    depth: Histogram,
    /// `invector_serve_epoch_latency_us`: epoch wall time.
    latency_us: Histogram,
    /// `invector_serve_wal_appends_total`: batch records appended to the
    /// write-ahead log.
    wal_appends: Counter,
    /// `invector_serve_wal_bytes_total`: framed bytes appended to the log.
    wal_bytes: Counter,
    /// `invector_serve_wal_fsyncs_total`: explicit log syncs issued.
    wal_fsyncs: Counter,
    /// `invector_serve_wal_replayed_total`: updates replayed from the log
    /// during recovery or follower tailing.
    wal_replayed: Counter,
    /// `invector_serve_wal_checkpoints_total`: snapshot checkpoints
    /// published (each truncates the log).
    wal_checkpoints: Counter,
    /// `invector_serve_follower_lag_records`: log records the follower
    /// still has to fetch, from the last `LogRecords` head.
    follower_lag: Gauge,
    /// `invector_serve_follower_epochs_verified_total`: seal checksums a
    /// follower matched against its own state.
    follower_verified: Counter,
}

impl ServeStats {
    /// Registers the service metric set on `registry` and returns the
    /// handle bundle. Registration is idempotent: two `ServeStats` on the
    /// same registry share storage.
    pub fn new(registry: &Registry) -> ServeStats {
        let depth_bounds: Vec<f64> = (0..=16).map(f64::from).collect();
        ServeStats {
            epochs: registry
                .counter("invector_serve_epochs_total", "epochs that applied at least one slice"),
            slices: registry.counter("invector_serve_slices_total", "batch slices executed"),
            applied: registry.counter("invector_serve_applied_total", "updates applied"),
            rejected: registry
                .counter("invector_serve_rejected_total", "updates refused admission"),
            offered: registry.counter(
                "invector_serve_offered_total",
                "slice capacity offered (slices x quantum)",
            ),
            busy_ns: registry
                .counter("invector_serve_busy_ns_total", "total epoch execution time (ns)"),
            lanes_useful: registry.counter(
                "invector_serve_lanes_useful_total",
                "SIMD lane slots that applied an update",
            ),
            lane_slots: registry.counter(
                "invector_serve_lane_slots_total",
                "SIMD lane slots executed (vectors x 16)",
            ),
            utilization: registry.gauge(
                "invector_serve_utilization_ratio",
                "running SIMD lane utilization (useful / executed)",
            ),
            depth: registry.histogram(
                "invector_serve_conflict_depth",
                "conflict depth (D1) per vector iteration",
                &depth_bounds,
            ),
            latency_us: registry.histogram(
                "invector_serve_epoch_latency_us",
                "epoch wall time (microseconds)",
                &LATENCY_BOUNDS_US,
            ),
            wal_appends: registry
                .counter("invector_serve_wal_appends_total", "batch records appended to the WAL"),
            wal_bytes: registry
                .counter("invector_serve_wal_bytes_total", "framed bytes appended to the WAL"),
            wal_fsyncs: registry
                .counter("invector_serve_wal_fsyncs_total", "explicit WAL syncs issued"),
            wal_replayed: registry.counter(
                "invector_serve_wal_replayed_total",
                "updates replayed from the WAL (recovery or follower tail)",
            ),
            wal_checkpoints: registry.counter(
                "invector_serve_wal_checkpoints_total",
                "snapshot checkpoints published (each truncates the WAL)",
            ),
            follower_lag: registry.gauge(
                "invector_serve_follower_lag_records",
                "log records the follower still has to fetch",
            ),
            follower_verified: registry.counter(
                "invector_serve_follower_epochs_verified_total",
                "seal checksums a follower matched against its own state",
            ),
        }
    }

    /// Records one WAL append of `bytes` framed bytes. Lock-free.
    pub fn record_wal_append(&self, bytes: u64) {
        self.wal_appends.inc();
        self.wal_bytes.add(bytes);
    }

    /// Records one explicit WAL sync. Lock-free.
    pub fn record_wal_fsync(&self) {
        self.wal_fsyncs.inc();
    }

    /// Records `updates` replayed from the log. Lock-free.
    pub fn record_wal_replayed(&self, updates: u64) {
        self.wal_replayed.add(updates);
    }

    /// Records one published checkpoint. Lock-free.
    pub fn record_wal_checkpoint(&self) {
        self.wal_checkpoints.inc();
    }

    /// Publishes the follower's current fetch lag in log records.
    pub fn set_follower_lag(&self, records: u64) {
        self.follower_lag.set(records as f64);
    }

    /// Records one seal checksum a follower verified. Lock-free.
    pub fn record_follower_verified(&self) {
        self.follower_verified.inc();
    }

    /// Records one executed epoch. Lock-free on the record side; the
    /// utilization gauge refresh merges shards, which is fine at epoch
    /// granularity.
    pub fn record_epoch(&self, report: &EpochReport, depth: &DepthHistogram) {
        if report.slices == 0 {
            return;
        }
        self.epochs.inc();
        self.slices.add(report.slices as u64);
        self.applied.add(report.applied as u64);
        self.offered.add(report.offered as u64);
        self.busy_ns.add(report.elapsed.as_nanos() as u64);
        self.latency_us.observe(report.elapsed.as_secs_f64() * 1e6);
        for d in 0..=16u32 {
            self.depth.observe_n(f64::from(d), depth.bucket(d));
        }
        self.lanes_useful.add(report.applied as u64);
        self.lane_slots.add(report.vectors * LANES);
        let slots = self.lane_slots.value();
        if slots > 0 {
            self.utilization.set(self.lanes_useful.value() as f64 / slots as f64);
        }
    }

    /// Records refused admissions. Lock-free.
    pub fn record_rejects(&self, n: u64) {
        self.rejected.add(n);
    }

    /// Condenses the registry counters into the wire summary.
    pub fn summarize(&self, duplicates: u64) -> StatsSummary {
        let applied = self.applied.value();
        let offered = self.offered.value();
        let busy = self.busy_ns.value() as f64 / 1e9;
        StatsSummary {
            epochs: self.epochs.value(),
            slices: self.slices.value(),
            applied,
            rejected: self.rejected.value(),
            duplicates,
            occupancy: if offered == 0 { 0.0 } else { applied as f64 / offered as f64 },
            conflict_depth: self.depth.snapshot().mean(),
            updates_per_sec: if busy > 0.0 { applied as f64 / busy } else { 0.0 },
            p50_epoch_us: self.latency_us.quantile(0.50),
            p99_epoch_us: self.latency_us.quantile(0.99),
        }
    }

    /// Builds the structured per-epoch observation the tuning controller
    /// consumes — the registry's pull API at epoch granularity.
    ///
    /// The throughput fields come from the epoch report itself (real on
    /// every feature leg); the latency quantiles and the process-wide
    /// instruction total are registry enrichment that read zero with the
    /// `obs` / `count` features compiled out.
    pub fn frame(
        &self,
        epoch: u64,
        report: &EpochReport,
        depth: &DepthHistogram,
        queue_depth: u64,
        policy: EpochPolicy,
    ) -> MetricFrame {
        let iterations = depth.invocations();
        let deep: u64 = (2..=16).map(|d| depth.bucket(d)).sum();
        MetricFrame {
            epoch,
            applied: report.applied as u64,
            offered: report.offered as u64,
            busy_ns: report.elapsed.as_nanos() as u64,
            queue_depth,
            conflict_depth: depth.mean(),
            deep_frac: if iterations == 0 { 0.0 } else { deep as f64 / iterations as f64 },
            p50_epoch_us: self.latency_us.quantile(0.50),
            p99_epoch_us: self.latency_us.quantile(0.99),
            instructions: invector_simd::count::global_total(),
            policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_buffer_releases_only_the_contiguous_prefix() {
        let mut b = ReorderBuffer::new();
        for seq in [3u64, 0, 5, 1] {
            assert!(b.insert(Update::i32(seq, 0, 1)));
        }
        assert_eq!(b.contiguous_len(), 2, "0 and 1 are contiguous; 3 and 5 wait");
        let mut out = Vec::new();
        b.pop_run(2, &mut out);
        assert_eq!(out.iter().map(|u| u.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(b.watermark(), 2);
        assert_eq!(b.contiguous_len(), 0, "gap at 2");
        b.insert(Update::i32(2, 0, 1));
        b.insert(Update::i32(4, 0, 1));
        assert_eq!(b.contiguous_len(), 4, "2..=5 now contiguous");
    }

    #[test]
    fn stale_and_double_insertions_count_as_duplicates() {
        let mut b = ReorderBuffer::new();
        assert!(b.insert(Update::i32(0, 0, 1)));
        assert!(!b.insert(Update::i32(0, 9, 9)));
        let mut out = Vec::new();
        b.pop_run(1, &mut out);
        assert!(!b.insert(Update::i32(0, 0, 1)), "below watermark");
        assert_eq!(b.duplicates(), 2);
    }

    #[test]
    fn batches_extend_the_run_and_wait_behind_gaps() {
        let mut b = ReorderBuffer::new();
        let batch = |from: u64, n: u64| (from..from + n).map(|s| Update::i32(s, 0, 1)).collect();
        let first: Vec<Update> = batch(0, 5);
        b.insert_batch(&first);
        assert_eq!(b.contiguous_len(), 5);
        // Continues the ring, then jumps: 5..8 join the run, 9 waits
        // behind the gap at 8.
        let mut gapped: Vec<Update> = batch(5, 3);
        gapped.push(Update::i32(9, 0, 1));
        b.insert_batch(&gapped);
        assert_eq!((b.contiguous_len(), b.len()), (8, 9));
        // Filling the gap joins the run with everything behind it; a
        // repeated position is a duplicate.
        b.insert_batch(&[Update::i32(8, 0, 1), Update::i32(9, 0, 2)]);
        assert_eq!((b.contiguous_len(), b.len(), b.duplicates()), (10, 10, 1));
        let mut out = Vec::new();
        b.pop_run(10, &mut out);
        assert_eq!(out.iter().map(|u| u.seq).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        assert!(b.is_empty());
    }

    /// Model-based check of the ring against a `BTreeMap` of held
    /// positions: random mixes of in-order batches, gapped, duplicate
    /// and below-watermark inserts, `pop_run` and `advance_to`, compared
    /// after every step.
    mod model {
        use std::collections::BTreeMap;

        use proptest::prelude::*;
        use rand::{Rng, SeedableRng, SmallRng};

        use super::super::ReorderBuffer;
        use crate::protocol::Update;

        #[derive(Default)]
        struct Model {
            held: BTreeMap<u64, (u32, u32)>,
            watermark: u64,
            duplicates: u64,
        }

        impl Model {
            fn insert(&mut self, u: Update) -> bool {
                if u.seq < self.watermark || self.held.contains_key(&u.seq) {
                    self.duplicates += 1;
                    return false;
                }
                self.held.insert(u.seq, (u.idx, u.bits));
                true
            }

            fn contiguous_len(&self) -> usize {
                (self.watermark..).take_while(|s| self.held.contains_key(s)).count()
            }

            fn pop_run(&mut self, n: usize) -> Vec<(u64, u32, u32)> {
                (0..n)
                    .map(|_| {
                        let seq = self.watermark;
                        let (idx, bits) = self.held.remove(&seq).expect("contiguous");
                        self.watermark += 1;
                        (seq, idx, bits)
                    })
                    .collect()
            }

            fn advance_to(&mut self, to: u64) {
                self.held = self.held.split_off(&to);
                self.watermark = to;
            }

            /// One past the highest held position (the ring's tail).
            fn end(&self) -> u64 {
                self.held.keys().next_back().map_or(self.watermark, |s| s + 1)
            }
        }

        fn update(rng: &mut SmallRng, seq: u64) -> Update {
            Update { seq, idx: rng.gen_range(0u32..64), bits: rng.gen::<u32>() }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn ring_matches_a_btreemap_model(seed in any::<u64>(), steps in 1usize..200) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut ring = ReorderBuffer::new();
                let mut model = Model::default();
                let mut out = Vec::new();
                for step in 0..steps {
                    match rng.gen_range(0u32..8) {
                        // In-order batch at the ring tail (the bulk path).
                        0 | 1 => {
                            let n = rng.gen_range(0u64..40);
                            let end = model.end();
                            let batch: Vec<Update> =
                                (end..end + n).map(|s| update(&mut rng, s)).collect();
                            ring.insert_batch(&batch);
                            for &u in &batch {
                                model.insert(u);
                            }
                        }
                        // Shuffled batch around the watermark: gaps,
                        // duplicates and stale positions mixed with a
                        // contiguous prefix.
                        2 | 3 => {
                            let n = rng.gen_range(1usize..24);
                            let base = model.watermark.saturating_sub(4);
                            let batch: Vec<Update> = (0..n)
                                .map(|_| {
                                    let seq = base + rng.gen_range(0u64..48);
                                    update(&mut rng, seq)
                                })
                                .collect();
                            ring.insert_batch(&batch);
                            for &u in &batch {
                                model.insert(u);
                            }
                        }
                        // Single insert, anywhere near the live range.
                        4 => {
                            let seq = model.watermark.saturating_sub(2) + rng.gen_range(0u64..32);
                            let u = update(&mut rng, seq);
                            prop_assert_eq!(ring.insert(u), model.insert(u), "step {}", step);
                        }
                        // Pop part (or all) of the contiguous run.
                        5 | 6 => {
                            let run = model.contiguous_len();
                            let n = rng.gen_range(0..=run);
                            ring.pop_run(n, &mut out);
                            let got: Vec<(u64, u32, u32)> =
                                out.iter().map(|u| (u.seq, u.idx, u.bits)).collect();
                            prop_assert_eq!(got, model.pop_run(n), "step {}", step);
                        }
                        // External fast-forward, sometimes past the ring.
                        _ => {
                            let to = model.watermark + rng.gen_range(0u64..24);
                            ring.advance_to(to);
                            model.advance_to(to);
                        }
                    }
                    prop_assert_eq!(ring.contiguous_len(), model.contiguous_len(), "step {}", step);
                    prop_assert_eq!(ring.len(), model.held.len(), "step {}", step);
                    prop_assert_eq!(ring.watermark(), model.watermark, "step {}", step);
                    prop_assert_eq!(ring.duplicates(), model.duplicates, "step {}", step);
                }
            }
        }
    }

    #[test]
    #[cfg(feature = "obs")]
    fn stats_summary_reports_occupancy_and_percentiles() {
        let s = ServeStats::new(&Registry::new());
        let mut depth = DepthHistogram::new();
        depth.record(2);
        for i in 0..10 {
            let report = EpochReport {
                applied: 96,
                slices: 1,
                offered: 128,
                vectors: 6,
                elapsed: Duration::from_micros(100 + i * 10),
            };
            s.record_epoch(&report, &depth);
        }
        s.record_rejects(7);
        let sum = s.summarize(3);
        assert_eq!(sum.epochs, 10);
        assert_eq!(sum.applied, 960);
        assert_eq!(sum.rejected, 7);
        assert_eq!(sum.duplicates, 3);
        assert!((sum.occupancy - 0.75).abs() < 1e-9);
        // Latencies 100..=190µs land in the (50, 100] and (100, 200]
        // histogram buckets; the interpolated percentiles must stay inside
        // that envelope and be ordered.
        assert!(sum.p50_epoch_us >= 50.0 && sum.p50_epoch_us <= 200.0, "{}", sum.p50_epoch_us);
        assert!(sum.p99_epoch_us >= sum.p50_epoch_us);
        assert!((sum.conflict_depth - 2.0).abs() < 1e-9);
        assert!(sum.updates_per_sec > 0.0);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn stats_record_lane_utilization() {
        let s = ServeStats::new(&Registry::new());
        let report = EpochReport {
            applied: 96,
            slices: 1,
            offered: 128,
            vectors: 8,
            elapsed: Duration::from_micros(10),
        };
        s.record_epoch(&report, &DepthHistogram::new());
        // 96 useful lanes over 8 × 16 slots = 0.75.
        assert!((s.utilization.value() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_epochs_do_not_skew_statistics() {
        let s = ServeStats::new(&Registry::new());
        s.record_epoch(&EpochReport::default(), &DepthHistogram::new());
        let sum = s.summarize(0);
        assert_eq!(sum.epochs, 0);
        assert_eq!(sum.p50_epoch_us, 0.0);
    }
}
