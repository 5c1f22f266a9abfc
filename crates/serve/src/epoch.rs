//! Epoch bookkeeping: the seq-ordered reorder buffer and per-epoch
//! statistics.
//!
//! The service applies each table's update stream in **contiguous sequence
//! order**, exactly like a replicated log: updates may arrive on any
//! connection in any interleaving, but an update is only folded into the
//! table once every earlier stream position has been. The reorder buffer
//! is the holding pen between arrival order and application order.
//!
//! Updates travel in column form — a key column and a value-bits column —
//! from admission to the SIMD driver: staging keeps each table's admitted
//! updates as columns plus their seq-contiguous runs (`Staging`), the
//! reorder buffer holds the same two columns, and a cut hands the kernel a
//! borrowed [`RunView`] of them.

use std::mem::MaybeUninit;
use std::time::Duration;

use invector_core::stats::DepthHistogram;
use invector_core::Backend;
use invector_obs::{Counter, Gauge, Histogram, Registry};
use invector_simd::records::RecordVerdict;

use crate::protocol::{StatsSummary, Update, UpdatesView, UPDATE_WIRE_LEN};

/// A borrowed seq-contiguous run of updates in column form: `keys[i]` and
/// `bits[i]` are stream position `first + i`.
#[derive(Debug, Clone, Copy)]
pub struct RunView<'a> {
    /// Stream position of the run's first update.
    pub first: u64,
    /// Target slots.
    pub keys: &'a [i32],
    /// Value bit patterns, parallel to `keys`.
    pub bits: &'a [u32],
}

impl<'a> RunView<'a> {
    /// Updates in the run.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` for an empty run.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Splits off the first `n` updates as their own run, leaving the rest.
    ///
    /// # Panics
    ///
    /// Panics if the run holds fewer than `n` updates.
    pub(crate) fn split_to(&mut self, n: usize) -> RunView<'a> {
        let (keys, rest_keys) = self.keys.split_at(n);
        let (bits, rest_bits) = self.bits.split_at(n);
        let head = RunView { first: self.first, keys, bits };
        *self = RunView { first: self.first + n as u64, keys: rest_keys, bits: rest_bits };
        head
    }

    /// The run as `Update` records, in stream order.
    pub fn updates(&self) -> impl Iterator<Item = Update> + 'a {
        let columns = self.keys.iter().zip(self.bits);
        (self.first..).zip(columns).map(|(seq, (&key, &bits))| Update {
            seq,
            idx: key as u32,
            bits,
        })
    }
}

/// One table's admitted, not yet cut updates: a key column, a value-bits
/// column and the `(first_seq, len)` runs they form, in admission order.
///
/// A client batch arrives seq-contiguous, so it is one run, and a batch
/// that continues the previous one extends that run; only out-of-order
/// or repeated positions start new ones.
#[derive(Debug)]
pub(crate) struct Staging {
    keys: Vec<i32>,
    bits: Vec<u32>,
    /// `(first_seq, len)` per run; the lengths sum to `keys.len()`.
    runs: Vec<(u64, usize)>,
    /// Updates the buffer admits before it refuses; both columns are
    /// allocated this large up front, so admission never reallocates.
    capacity: usize,
}

/// What [`Staging::admit`] took from a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Admitted {
    /// Records appended: a prefix of the batch.
    pub(crate) accepted: usize,
    /// The first record the per-record rule refuses (key out of range, or
    /// seq at or past the window limit), with its position, searched up to
    /// the first record the buffer had no room for; `None` when every
    /// record searched passes. Records before it that were not accepted
    /// found the buffer full.
    pub(crate) refused: Option<(usize, Update)>,
}

impl Staging {
    /// An empty buffer with room for `capacity` updates.
    pub(crate) fn with_capacity(capacity: usize) -> Staging {
        Staging {
            keys: Vec::with_capacity(capacity),
            bits: Vec::with_capacity(capacity),
            runs: Vec::new(),
            capacity,
        }
    }

    /// Updates staged.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Admits the longest prefix of `records` that fits and passes the
    /// per-record rule: key below `slots`, seq below `limit`.
    ///
    /// One pass over the wire bytes splits every record that fits into the
    /// columns' spare capacity and judges the batch (the record kernel for
    /// `backend`, see [`split_records`]). A batch that fits whole, passes
    /// both verdicts and whose last seq `first + n − 1` is below `limit`
    /// without wrapping — a client's in-order batch — commits as one run
    /// on that alone. Otherwise the per-record search finds the refusal
    /// point and the accepted prefix commits record by record into runs.
    /// The search reads at most `fits + 1` records: the refusal point
    /// decides the outcome only up to the first record that found no room.
    pub(crate) fn admit(
        &mut self,
        records: &UpdatesView<'_>,
        slots: u32,
        limit: u64,
        backend: Backend,
    ) -> Admitted {
        let n = records.len();
        let at = self.len();
        let fits = n.min(self.capacity - at);
        let verdict = split_records(
            backend,
            &records.bytes()[..fits * UPDATE_WIRE_LEN],
            slots,
            &mut self.keys.spare_capacity_mut()[..fits],
            &mut self.bits.spare_capacity_mut()[..fits],
        );
        let first = if n > 0 { records.get(0).seq } else { 0 };
        let clean = fits == n
            && verdict == RecordVerdict::CLEAN
            && (n as u64)
                .checked_sub(1)
                .and_then(|span| first.checked_add(span))
                .is_some_and(|last| last < limit);
        let (accepted, refused) = if clean {
            (n, None)
        } else {
            // A refusal past position `fits` cannot change the outcome: the
            // buffer fills first either way. So the search stops there.
            let refused = records
                .iter()
                .enumerate()
                .take(fits + 1)
                .find(|(_, u)| u.idx >= slots || u.seq >= limit);
            (refused.map_or(n, |(i, _)| i).min(fits), refused)
        };
        // SAFETY: the spare capacity held at least `fits` elements per
        // column (the slices above would have panicked otherwise), and
        // `split_records` wrote every one of them whatever its verdict.
        // The commit is at most `fits`: the whole batch on a clean verdict
        // (`fits == n`), otherwise the prefix before the refusal point that
        // the per-record search found, clamped to `fits`.
        unsafe {
            self.keys.set_len(at + accepted);
            self.bits.set_len(at + accepted);
        }
        if clean {
            self.note_run(first, n);
        } else {
            for u in records.iter().take(accepted) {
                self.note_run(u.seq, 1);
            }
        }
        Admitted { accepted, refused }
    }

    /// Records `len` positions from `first` on, merging with the last run
    /// when they continue it.
    fn note_run(&mut self, first: u64, len: usize) {
        match self.runs.last_mut() {
            Some((from, n)) if from.wrapping_add(*n as u64) == first => *n += len,
            _ => self.runs.push((first, len)),
        }
    }

    /// The key and value-bits columns, every run back to back in
    /// admission order.
    pub(crate) fn columns(&self) -> (&[i32], &[u32]) {
        (&self.keys, &self.bits)
    }

    /// The staged runs, in admission order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = RunView<'_>> {
        let mut at = 0;
        self.runs.iter().map(move |&(first, len)| {
            let run =
                RunView { first, keys: &self.keys[at..at + len], bits: &self.bits[at..at + len] };
            at += len;
            run
        })
    }

    /// Empties the buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.bits.clear();
        self.runs.clear();
    }
}

/// The record kernel for `backend`: the AVX-512 pass on
/// [`Backend::Avx512`], the portable fused loop on every other backend.
/// Both fill every column element and return the same verdict
/// (`tests/native_differential.rs`).
fn split_records(
    backend: Backend,
    records: &[u8],
    slots: u32,
    keys: &mut [MaybeUninit<i32>],
    bits: &mut [MaybeUninit<u32>],
) -> RecordVerdict {
    assert!(records.len() == keys.len() * UPDATE_WIRE_LEN && bits.len() == keys.len());
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx512 && invector_simd::arch::avx512::available() {
        // SAFETY: `available()` reported avx512f just above, and the assert
        // above checked 16 record bytes per key and one bits element per
        // key — the kernel's whole contract.
        return unsafe { invector_simd::arch::avx512::split_records(records, slots, keys, bits) };
    }
    let _ = backend;
    invector_simd::records::split_records(records, slots, keys, bits)
}

/// Buffers out-of-order arrivals and releases the contiguous prefix.
///
/// `watermark` is the next stream position to apply; everything below it
/// has already been folded into the table. Insertions below the watermark
/// or at an occupied position are duplicates and are dropped (counted).
///
/// Storage is two parallel columns (keys and value bits) plus an occupancy
/// column, addressed from a head offset: column index `head + i` holds
/// stream position `watermark + i`. Admission bounds how far ahead of the
/// watermark a sequence number may land (`config.window`), so the columns
/// stay small. The length of the gap-free run at the head is kept as a
/// field, so [`contiguous_len`](Self::contiguous_len) is O(1) rather than
/// a rescan on every cut.
///
/// A staged run that lands at or beyond the tail (`insert_run`) is
/// appended with one `extend_from_slice` per column; positions behind the
/// tail (duplicates, stale positions, gap fills) take the per-update
/// [`insert`](Self::insert) path. A cut consumes the front of the run in
/// place (`take`) and hands the kernel a borrowed view of it; the consumed
/// prefix is reclaimed by moving the live tail to the front once it is no
/// longer than the prefix, which is amortized O(1) per update.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    keys: Vec<i32>,
    bits: Vec<u32>,
    /// Whether each column slot holds an update; gaps read `false`.
    occupied: Vec<bool>,
    /// Column index of the watermark position; slots before it are
    /// consumed and wait for compaction.
    head: usize,
    /// Occupied slots at or after `head`.
    len: usize,
    /// Occupied slots from `head` up to the first gap.
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

    /// Stream positions the columns span past the watermark (held or gap).
    fn span(&self) -> usize {
        self.keys.len() - self.head
    }

    /// Buffers one update; returns `false` for duplicates (position
    /// already applied or already held).
    pub fn insert(&mut self, u: Update) -> bool {
        if u.seq < self.watermark {
            self.duplicates += 1;
            return false;
        }
        self.compact();
        let off = (u.seq - self.watermark) as usize;
        let at = self.head + off;
        if at >= self.keys.len() {
            self.pad_to(at + 1);
        }
        if self.occupied[at] {
            self.duplicates += 1;
            return false;
        }
        self.keys[at] = u.idx as i32;
        self.bits[at] = u.bits;
        self.occupied[at] = true;
        self.len += 1;
        if off == self.run {
            self.extend_run();
        }
        true
    }

    /// Buffers a seq-contiguous run.
    ///
    /// The part of the run at or beyond the tail (one past the highest
    /// position the columns span) is appended in one extend per column,
    /// after a gap if it starts beyond the tail; those positions cannot be
    /// duplicates. The part behind the tail goes through
    /// [`insert`](Self::insert) one update at a time.
    pub(crate) fn insert_run(&mut self, run: RunView<'_>) {
        debug_assert_eq!(run.keys.len(), run.bits.len());
        self.compact();
        let span = self.span();
        let tail = self.watermark + span as u64;
        let behind = tail.saturating_sub(run.first).min(run.len() as u64) as usize;
        for u in run.updates().take(behind) {
            self.insert(u);
        }
        let (keys, bits) = (&run.keys[behind..], &run.bits[behind..]);
        if keys.is_empty() {
            return;
        }
        let gap = (run.first + behind as u64 - tail) as usize;
        if gap > 0 {
            self.pad_to(self.keys.len() + gap);
        }
        self.keys.extend_from_slice(keys);
        self.bits.extend_from_slice(bits);
        self.occupied.resize(self.keys.len(), true);
        self.len += keys.len();
        if gap == 0 && self.run == span {
            self.run += keys.len();
        }
    }

    /// Length of the contiguous run starting at the watermark.
    pub fn contiguous_len(&self) -> usize {
        self.run
    }

    /// Consumes the first `n` updates of the contiguous run, advancing the
    /// watermark, and returns them as a borrowed column view: a
    /// [`take`](Self::take) read back at once.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` contiguous updates are available — callers
    /// size `n` from [`contiguous_len`](Self::contiguous_len) under the
    /// same lock.
    pub(crate) fn take_run(&mut self, n: usize) -> RunView<'_> {
        let first = self.watermark;
        let at = self.take(n);
        self.consumed(at, first, n)
    }

    /// Consumes the first `n` updates of the contiguous run, advancing the
    /// watermark, and returns the column index they start at. They stay
    /// readable there through [`consumed`](Self::consumed) until the next
    /// insert, which may compact them away.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` contiguous updates are available.
    pub(crate) fn take(&mut self, n: usize) -> usize {
        assert!(n <= self.run, "take of {n} past the contiguous run of {}", self.run);
        let at = self.head;
        self.head += n;
        self.len -= n;
        self.run -= n;
        self.watermark += n as u64;
        at
    }

    /// The `n` updates a [`take`](Self::take) consumed from column `at`, as
    /// the run from stream position `first` they were.
    pub(crate) fn consumed(&self, at: usize, first: u64, n: usize) -> RunView<'_> {
        debug_assert!(at + n <= self.head, "columns {at}..{} not consumed", at + n);
        RunView { first, keys: &self.keys[at..at + n], bits: &self.bits[at..at + n] }
    }

    /// Removes exactly `n` updates from the contiguous run into `out`
    /// (cleared first), advancing the watermark — the epoch cut's column
    /// view, as `Update` records.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` contiguous updates are available.
    pub fn pop_run(&mut self, n: usize, out: &mut Vec<Update>) {
        let run = self.take_run(n);
        out.clear();
        out.extend(run.updates());
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
        let skip = (to - self.watermark).min(self.span() as u64) as usize;
        let skipped = &self.occupied[self.head..self.head + skip];
        self.len -= skipped.iter().filter(|&&held| held).count();
        self.head += skip;
        self.watermark = to;
        if skip <= self.run {
            self.run -= skip;
        } else {
            self.run = 0;
            self.extend_run();
        }
    }

    /// Grows `run` over the occupied slots that follow it. Each slot is
    /// passed at most once while it stays in the buffer, so the scan is
    /// amortized O(1) per update.
    fn extend_run(&mut self) {
        let from = self.head + self.run;
        self.run += self.occupied[from..].iter().take_while(|&&held| held).count();
    }

    /// Extends the columns to `len` slots with gaps.
    fn pad_to(&mut self, len: usize) {
        self.keys.resize(len, 0);
        self.bits.resize(len, 0);
        self.occupied.resize(len, false);
    }

    /// Moves the live slots to the front once the consumed prefix is at
    /// least as long as they are, so each move is paid for by the updates
    /// consumed since the last one.
    fn compact(&mut self) {
        let span = self.span();
        if self.head == 0 || self.head < span {
            return;
        }
        self.keys.copy_within(self.head.., 0);
        self.bits.copy_within(self.head.., 0);
        self.occupied.copy_within(self.head.., 0);
        self.keys.truncate(span);
        self.bits.truncate(span);
        self.occupied.truncate(span);
        self.head = 0;
    }
}

/// One epoch's outcome: what [`tick`](crate::server::ServerCore::tick)
/// cut and applied.
///
/// A tick that handed its epoch to the worker pool returns at the cut, so
/// its report carries the cut alone: `applied`, `slices` and `offered`
/// are the epoch's, `vectors` reads 0 and `elapsed` is the wait for the
/// cut. The fold's own figures (vectors, conflict depth, epoch wall time)
/// reach [`ServeStats`] when the epoch completes.
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Updates cut (and applied, once the epoch completes) across all
    /// tables.
    pub applied: usize,
    /// Batch slices cut.
    pub slices: usize,
    /// Slice capacity offered (Σ per-slice quantum) — the occupancy
    /// denominator. Tracked per slice because the quantum may change
    /// between epochs under tuning.
    pub offered: usize,
    /// SIMD vector iterations the slices ran (16 lane slots each), for
    /// utilization accounting; 0 in a report returned at the cut.
    pub vectors: u64,
    /// Wall time of the epoch, or of the wait for its cut in a report
    /// returned at the cut.
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
    /// `invector_serve_epoch_cut_wait_us`: how long a requester waited for
    /// the cut of an epoch it handed to the pool.
    cut_wait_us: Histogram,
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
    /// `invector_serve_follower_bootstraps_total`: pinned leader states a
    /// follower installed (its first, then one per checkpoint reset).
    follower_bootstraps: Counter,
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
            cut_wait_us: registry.histogram(
                "invector_serve_epoch_cut_wait_us",
                "wait for the cut of an epoch handed to the worker pool (microseconds)",
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
            follower_bootstraps: registry.counter(
                "invector_serve_follower_bootstraps_total",
                "pinned leader states a follower installed",
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

    /// Records one bootstrap a follower installed. Lock-free.
    pub fn record_follower_bootstrap(&self) {
        self.follower_bootstraps.inc();
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

    /// Records one requester's wait for the cut of an epoch it handed to
    /// the pool. Lock-free.
    pub fn record_cut_wait(&self, waited: Duration) {
        self.cut_wait_us.observe(waited.as_secs_f64() * 1e6);
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

    /// A run over `seqs` with key `seq % 64` and value bits `seq`.
    fn columns(seqs: std::ops::Range<u64>) -> (Vec<i32>, Vec<u32>) {
        seqs.map(|s| ((s % 64) as i32, s as u32)).unzip()
    }

    #[test]
    fn batches_extend_the_run_and_wait_behind_gaps() {
        let mut b = ReorderBuffer::new();
        let (keys, bits) = columns(0..5);
        b.insert_run(RunView { first: 0, keys: &keys, bits: &bits });
        assert_eq!(b.contiguous_len(), 5);
        // A run starting beyond the tail waits behind the gap at 5..8.
        let (keys, bits) = columns(8..10);
        b.insert_run(RunView { first: 8, keys: &keys, bits: &bits });
        assert_eq!((b.contiguous_len(), b.len()), (5, 7));
        // A run from behind the tail: 3 and 4 are duplicates, 5..8 fill
        // the gap and join the run with everything behind it.
        let (keys, bits) = columns(3..8);
        b.insert_run(RunView { first: 3, keys: &keys, bits: &bits });
        assert_eq!((b.contiguous_len(), b.len(), b.duplicates()), (10, 10, 2));
        let run = b.take_run(4);
        assert_eq!((run.first, run.keys, run.bits), (0, &[0, 1, 2, 3][..], &[0, 1, 2, 3][..]));
        let mut out = Vec::new();
        b.pop_run(6, &mut out);
        assert_eq!(out.iter().map(|u| u.seq).collect::<Vec<_>>(), (4..10).collect::<Vec<_>>());
        assert_eq!(out.iter().map(|u| u.bits).collect::<Vec<_>>(), (4..10).collect::<Vec<_>>());
        assert!(b.is_empty());
    }

    /// Admits `seqs` (key `seq % 64`) into `staging` under 64 slots and an
    /// unbounded window, on both record kernels the host runs.
    fn admit(staging: &mut Staging, seqs: &[u64], backend: Backend) -> Admitted {
        let batch: Vec<Update> = seqs.iter().map(|&s| Update::i32(s, (s % 64) as u32, 1)).collect();
        let bytes = Update::wire_bytes(&batch);
        staging.admit(&UpdatesView::new(&bytes), 64, u64::MAX, backend)
    }

    #[test]
    fn staging_merges_continuing_batches_into_one_run() {
        for backend in [Backend::Portable, invector_core::BackendChoice::Auto.resolve()] {
            let mut staging = Staging::with_capacity(10);
            admit(&mut staging, &[0, 1, 2], backend);
            admit(&mut staging, &[3, 4], backend);
            // Contiguous, then a jump and a repeat: each break starts a
            // run. The buffer fills before the last record.
            let got = admit(&mut staging, &[5, 6, 9, 9, 10, 11], backend);
            assert_eq!(got, Admitted { accepted: 5, refused: None });
            let runs: Vec<(u64, usize)> = staging.runs().map(|r| (r.first, r.len())).collect();
            assert_eq!(runs, vec![(0, 7), (9, 1), (9, 2)]);
            let keys: Vec<i32> = staging.runs().flat_map(|r| r.keys.to_vec()).collect();
            assert_eq!(keys, vec![0, 1, 2, 3, 4, 5, 6, 9, 9, 10]);
            staging.clear();
            assert_eq!((staging.len(), staging.runs().count()), (0, 0));
        }
    }

    #[test]
    fn staging_admits_the_prefix_before_the_first_refusal() {
        let backend = invector_core::BackendChoice::Auto.resolve();
        let mut staging = Staging::with_capacity(64);
        let batch = [Update::i32(0, 1, 1), Update::i32(1, 2, 1), Update::i32(2, 64, 1)];
        let bytes = Update::wire_bytes(&batch);
        let view = UpdatesView::new(&bytes);
        // A key past the slot count stops the batch at its position...
        let got = staging.admit(&view, 64, u64::MAX, backend);
        assert_eq!(got, Admitted { accepted: 2, refused: Some((2, batch[2])) });
        // ...and so does a seq at the window limit, for a clean batch too.
        let got = staging.admit(&view, 65, 1, backend);
        assert_eq!(got, Admitted { accepted: 1, refused: Some((1, batch[1])) });
        let runs: Vec<(u64, usize)> = staging.runs().map(|r| (r.first, r.len())).collect();
        assert_eq!(runs, vec![(0, 2), (0, 1)]);
    }

    /// With the buffer full partway through a batch, admission reads the
    /// refusing record up to the first record that found no room and stops
    /// there: a refusal one record past it (`fits + 1`) is a full buffer,
    /// as it was when the search read the whole batch.
    #[test]
    fn a_full_buffer_stops_the_refusal_search_one_past_its_room() {
        let bad = |at: usize| -> Vec<Update> {
            (0..8u64).map(|s| Update::i32(s, if s as usize == at { 64 } else { 1 }, 1)).collect()
        };
        for backend in [Backend::Portable, invector_core::BackendChoice::Auto.resolve()] {
            // Room for 5 of the 8 records: `fits` is 5.
            for (at, want) in [
                (4, Admitted { accepted: 4, refused: Some((4, bad(4)[4])) }),
                (5, Admitted { accepted: 5, refused: Some((5, bad(5)[5])) }),
                (6, Admitted { accepted: 5, refused: None }),
            ] {
                let mut staging = Staging::with_capacity(5);
                let batch = bad(at);
                let bytes = Update::wire_bytes(&batch);
                let got = staging.admit(&UpdatesView::new(&bytes), 64, u64::MAX, backend);
                assert_eq!(got, want, "bad key at {at} on {backend:?}");
                assert_eq!(staging.len(), want.accepted);
            }
        }
    }

    /// Model-based check of the reorder buffer against a `BTreeMap` of
    /// held positions: random mixes of staged runs at, behind and beyond
    /// the tail, shuffled batches split into runs by [`Staging`], single
    /// inserts, column-view and `Update` pops, and `advance_to`, compared
    /// after every step. Pops and fast-forwards move the head offset, so
    /// later inserts compact the columns across it.
    mod model {
        use std::collections::BTreeMap;

        use proptest::prelude::*;
        use rand::{Rng, SeedableRng, SmallRng};

        use invector_core::Backend;

        use super::super::{ReorderBuffer, RunView, Staging};
        use crate::protocol::{Update, UpdatesView};

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

            /// One past the highest held position (the buffer's tail).
            fn end(&self) -> u64 {
                self.held.keys().next_back().map_or(self.watermark, |s| s + 1)
            }
        }

        fn update(rng: &mut SmallRng, seq: u64) -> Update {
            Update { seq, idx: rng.gen_range(0u32..64), bits: rng.gen::<u32>() }
        }

        /// A seq-contiguous run of `n` random updates from `first`.
        fn run(rng: &mut SmallRng, first: u64, n: u64) -> Vec<Update> {
            (first..first + n).map(|s| update(rng, s)).collect()
        }

        /// Feeds `batch` (seq-contiguous) to the buffer as one staged run,
        /// and to the model one update at a time.
        fn insert_run(ring: &mut ReorderBuffer, model: &mut Model, batch: &[Update]) {
            let keys: Vec<i32> = batch.iter().map(|u| u.idx as i32).collect();
            let bits: Vec<u32> = batch.iter().map(|u| u.bits).collect();
            let first = batch.first().map_or(model.watermark, |u| u.seq);
            ring.insert_run(RunView { first, keys: &keys, bits: &bits });
            for &u in batch {
                model.insert(u);
            }
        }

        fn columns(run: RunView<'_>) -> Vec<(u64, u32, u32)> {
            run.updates().map(|u| (u.seq, u.idx, u.bits)).collect()
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
                    match rng.gen_range(0u32..11) {
                        // A staged run at the tail (the bulk path).
                        0 | 1 => {
                            let n = rng.gen_range(0u64..40);
                            let batch = run(&mut rng, model.end(), n);
                            insert_run(&mut ring, &mut model, &batch);
                        }
                        // A run that starts behind the tail (duplicates,
                        // stale positions, gap fills), possibly reaching
                        // past it.
                        2 => {
                            let back = rng.gen_range(1u64..12);
                            let n = rng.gen_range(1u64..24);
                            let batch = run(&mut rng, model.end().saturating_sub(back), n);
                            insert_run(&mut ring, &mut model, &batch);
                        }
                        // A run that starts beyond the tail, leaving a gap.
                        3 => {
                            let first = model.end() + rng.gen_range(1u64..8);
                            let n = rng.gen_range(1u64..24);
                            let batch = run(&mut rng, first, n);
                            insert_run(&mut ring, &mut model, &batch);
                        }
                        // A shuffled batch around the watermark, split into
                        // runs by staging as admission splits it.
                        4 => {
                            let n = rng.gen_range(1usize..24);
                            let base = model.watermark.saturating_sub(4);
                            let batch: Vec<Update> = (0..n)
                                .map(|_| {
                                    let seq = base + rng.gen_range(0u64..48);
                                    update(&mut rng, seq)
                                })
                                .collect();
                            let bytes = Update::wire_bytes(&batch);
                            let view = UpdatesView::new(&bytes);
                            let mut staging = Staging::with_capacity(n);
                            staging.admit(&view, 64, u64::MAX, Backend::Portable);
                            for r in staging.runs() {
                                ring.insert_run(r);
                            }
                            for &u in &batch {
                                model.insert(u);
                            }
                        }
                        // Single insert, anywhere near the live range.
                        5 => {
                            let seq = model.watermark.saturating_sub(2) + rng.gen_range(0u64..32);
                            let u = update(&mut rng, seq);
                            prop_assert_eq!(ring.insert(u), model.insert(u), "step {}", step);
                        }
                        // Column-view pop of part (or all) of the run.
                        6 | 7 => {
                            let n = rng.gen_range(0..=model.contiguous_len());
                            let got = columns(ring.take_run(n));
                            prop_assert_eq!(got, model.pop_run(n), "step {}", step);
                        }
                        // The same pop as `Update` records.
                        8 => {
                            let n = rng.gen_range(0..=model.contiguous_len());
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
                // Drain: whatever the run holds must match the model too.
                let n = model.contiguous_len();
                prop_assert_eq!(columns(ring.take_run(n)), model.pop_run(n));
            }
        }
    }

    #[test]
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
