//! Resident tables: the datasets the service folds update streams into.
//!
//! A table is a dense array of `f32` or `i32` slots under one associative
//! operator. Every supported `(type, operator)` pair maps onto an engine
//! driver that the native AVX-512 backend fuses (`accumulate_{add,min,max}`
//! over `f32`/`i32`), so the serving hot path is exactly the paper's
//! in-vector reduction.

use invector_core::exec::{execute, ExecPolicy};
use invector_core::ops::{Max, Min, ReduceOp, Sum};
use invector_core::stats::DepthHistogram;
use invector_core::tune::{EpochPolicy, PolicySchedule};
use invector_core::InvecStats;
use invector_simd::SimdElement;
use invector_streamkit::{AggOp, Engine, StreamKind};

use crate::epoch::{ReorderBuffer, RunView, Staging};
use crate::protocol::{slot_crc, Update};

/// Element type of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ValueKind {
    /// IEEE-754 single-precision slots.
    F32 = 0,
    /// 32-bit signed integer slots.
    I32 = 1,
}

/// Associative operator of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// Accumulation (`invec_add`); slots start at 0.
    Add = 0,
    /// Relaxation toward the minimum (`invec_min`); slots start at the
    /// type's maximum (`+∞` / `i32::MAX`).
    Min = 1,
    /// Relaxation toward the maximum (`invec_max`); slots start at the
    /// type's minimum (`-∞` / `i32::MIN`).
    Max = 2,
}

impl OpKind {
    /// Short operator name, matching the paper's `invec_*` interface.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Min => "min",
            OpKind::Max => "max",
        }
    }
}

impl ValueKind {
    /// Short type name.
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::F32 => "f32",
            ValueKind::I32 => "i32",
        }
    }
}

/// Static description of one table, fixed at server construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Table name (diagnostics only; requests address tables by id).
    pub name: String,
    /// Element type.
    pub kind: ValueKind,
    /// Associative operator.
    pub op: OpKind,
    /// Number of slots.
    pub len: usize,
    /// What the table computes over its stream: a flat associative fold
    /// (the default), or one of the stateful streamkit engines. Stream
    /// tables are always `i32` (graph ranks ride as f32 bit patterns) and
    /// their length is fixed by the kind's geometry.
    pub stream: StreamKind,
}

impl TableSpec {
    /// An `f32` table under `op`.
    pub fn f32(name: &str, op: OpKind, len: usize) -> TableSpec {
        TableSpec {
            name: name.to_string(),
            kind: ValueKind::F32,
            op,
            len,
            stream: StreamKind::Flat,
        }
    }

    /// An `i32` table under `op`.
    pub fn i32(name: &str, op: OpKind, len: usize) -> TableSpec {
        TableSpec {
            name: name.to_string(),
            kind: ValueKind::I32,
            op,
            len,
            stream: StreamKind::Flat,
        }
    }

    /// An incremental-PageRank graph table over an evolving edge stream.
    pub fn pagerank(name: &str, vertices: u32, iters: u32) -> TableSpec {
        Self::stream_table(name, OpKind::Add, StreamKind::GraphPageRank { vertices, iters })
    }

    /// An incremental weakly-connected-components graph table.
    pub fn wcc(name: &str, vertices: u32) -> TableSpec {
        Self::stream_table(name, OpKind::Min, StreamKind::GraphWcc { vertices })
    }

    /// A window-bucketed aggregation table under `op`.
    pub fn window(
        name: &str,
        op: OpKind,
        keys: u32,
        buckets: u32,
        width: u32,
        timed: bool,
    ) -> TableSpec {
        Self::stream_table(name, op, StreamKind::Window { keys, buckets, width, timed })
    }

    fn stream_table(name: &str, op: OpKind, stream: StreamKind) -> TableSpec {
        TableSpec {
            name: name.to_string(),
            kind: ValueKind::I32,
            op,
            len: stream.required_len().unwrap_or(0),
            stream,
        }
    }

    /// Validates the spec's stream geometry (parameter ranges, value kind,
    /// slot count). Flat tables always pass.
    pub fn validate_stream(&self) -> Result<(), String> {
        self.stream.validate().map_err(|e| format!("table '{}': {e}", self.name))?;
        if let Some(required) = self.stream.required_len() {
            if self.kind != ValueKind::I32 {
                return Err(format!("table '{}': stream tables must be i32", self.name));
            }
            if self.len != required {
                return Err(format!(
                    "table '{}': stream geometry requires {required} slots, spec has {}",
                    self.name, self.len
                ));
            }
        }
        Ok(())
    }

    /// The streamkit operator equivalent of the table's [`OpKind`].
    pub(crate) fn agg_op(&self) -> AggOp {
        match self.op {
            OpKind::Add => AggOp::Add,
            OpKind::Min => AggOp::Min,
            OpKind::Max => AggOp::Max,
        }
    }
}

/// Typed table contents.
#[derive(Debug, Clone, PartialEq)]
pub enum TableData {
    /// `f32` slots.
    F32(Vec<f32>),
    /// `i32` slots.
    I32(Vec<i32>),
}

impl TableData {
    fn identity(spec: &TableSpec) -> TableData {
        match spec.kind {
            ValueKind::F32 => {
                let id = match spec.op {
                    OpKind::Add => 0.0f32,
                    OpKind::Min => f32::INFINITY,
                    OpKind::Max => f32::NEG_INFINITY,
                };
                TableData::F32(vec![id; spec.len])
            }
            ValueKind::I32 => {
                let id = match spec.op {
                    OpKind::Add => 0i32,
                    OpKind::Min => i32::MAX,
                    OpKind::Max => i32::MIN,
                };
                TableData::I32(vec![id; spec.len])
            }
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            TableData::F32(v) => v.len(),
            TableData::I32(v) => v.len(),
        }
    }

    /// `true` for a zero-slot table.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw bit patterns of every slot, in order — the wire representation,
    /// and the unit of the bitwise determinism contract.
    pub fn to_bits(&self) -> Vec<u32> {
        match self {
            TableData::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
            TableData::I32(v) => v.iter().map(|&x| x as u32).collect(),
        }
    }

    /// CRC-32 over the slot bit patterns, little-endian
    /// ([`crate::protocol::snapshot_checksum`] of [`to_bits`](Self::to_bits)),
    /// computed over the typed slots in place.
    pub(crate) fn slot_crc(&self) -> u32 {
        match self {
            TableData::F32(v) => slot_crc(v),
            TableData::I32(v) => slot_crc(v),
        }
    }

    /// Slots widened to `f64` (exact for both kinds), for harness records.
    pub fn to_f64(&self) -> Vec<f64> {
        match self {
            TableData::F32(v) => v.iter().map(|&x| f64::from(x)).collect(),
            TableData::I32(v) => v.iter().map(|&x| f64::from(x)).collect(),
        }
    }
}

/// Outcome of applying one batch slice.
#[derive(Debug, Clone, Default)]
pub struct SliceReport {
    /// Updates in the slice.
    pub applied: usize,
    /// Slice capacity under the quantum the slice was cut at (the
    /// occupancy denominator; `applied < offered` only for drain tails
    /// and scheduled-boundary cuts).
    pub offered: usize,
    /// SIMD vector iterations the slice ran (16 lane slots each).
    pub vectors: u64,
    /// Conflict-depth histogram of the slice's in-vector reduction.
    pub depth: DepthHistogram,
}

impl SliceReport {
    fn new(applied: usize, offered: usize, stats: InvecStats) -> SliceReport {
        SliceReport { applied, offered, vectors: stats.vectors, depth: stats.depth }
    }
}

/// Where a planned slice's columns are read from when it is folded.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The epoch's staged batch: a full quantum of an in-order run, cut in
    /// place.
    Staged,
    /// The reorder buffer, where the plan consumed it.
    Ring,
}

/// One slice of a [`CutPlan`]: `take` updates from stream position
/// `first`, at column `at` of their source, under `policy`.
#[derive(Debug, Clone, Copy)]
struct PlannedSlice {
    source: Source,
    at: usize,
    first: u64,
    policy: EpochPolicy,
    take: usize,
}

/// One table's share of an epoch cut ([`TableState::plan`]): the slices,
/// in stream order, that [`TableState::fold`] applies.
#[derive(Debug, Default)]
pub(crate) struct CutPlan {
    slices: Vec<PlannedSlice>,
}

impl CutPlan {
    /// `true` when the cut took nothing from the table.
    pub(crate) fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Slices in the cut.
    pub(crate) fn slices(&self) -> usize {
        self.slices.len()
    }

    /// Updates in the cut.
    pub(crate) fn applied(&self) -> usize {
        self.slices.iter().map(|s| s.take).sum()
    }

    /// Slice capacity offered: the sum of each slice's quantum.
    pub(crate) fn offered(&self) -> usize {
        self.slices.iter().map(|s| s.policy.quantum).sum()
    }
}

/// One resident table plus its ingest bookkeeping: the seq-ordered reorder
/// buffer and the policy schedule its cuts follow.
#[derive(Debug)]
pub struct TableState {
    spec: TableSpec,
    data: TableData,
    pending: ReorderBuffer,
    /// Watermark-keyed policy schedule the scheduled cut path follows —
    /// the per-table half of the tuning determinism contract.
    schedule: PolicySchedule,
    /// The streamkit engine for stream tables (`None` for flat folds). Its
    /// caches are a pure function of the slot array, rebuilt on install.
    engine: Option<Engine>,
    /// Memoized `(watermark, crc)` of the current state: snapshots and WAL
    /// seals both checksum the full table, and between applies the answer
    /// cannot change, so repeated reads cost one cache probe instead of a
    /// multi-megabyte CRC pass.
    checksum_cache: std::cell::Cell<Option<(u64, u32)>>,
}

impl TableState {
    /// A fresh table with every slot at the operator's identity, cutting
    /// under `initial` until a policy change is scheduled.
    pub fn new(spec: TableSpec, initial: EpochPolicy) -> TableState {
        let mut data = TableData::identity(&spec);
        let mut engine = Engine::for_kind(&spec.stream, spec.agg_op());
        if let (Some(engine), TableData::I32(slots)) = (engine.as_mut(), &mut data) {
            engine.init(slots);
        }
        let state = TableState {
            spec,
            data,
            pending: ReorderBuffer::new(),
            schedule: PolicySchedule::fixed(initial),
            engine,
            checksum_cache: std::cell::Cell::new(None),
        };
        // Warm the memo at construction: the first snapshot/seal of a large
        // table should not pay a full-table CRC on the serving path (for a
        // 1M-slot table about 0.4 ms with PCLMULQDQ and 3 ms without, on an
        // Intel Xeon guest).
        state.checksum();
        state
    }

    /// The table's static description.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// The applied watermark: updates with `seq < watermark` are folded in.
    pub fn watermark(&self) -> u64 {
        self.pending.watermark()
    }

    /// Buffered updates not yet applied (contiguous or not).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Duplicate sequence numbers dropped so far.
    pub fn duplicates(&self) -> u64 {
        self.pending.duplicates()
    }

    /// Current table contents.
    pub fn data(&self) -> &TableData {
        &self.data
    }

    /// Buffers one update for ordered application. Returns `false` when the
    /// sequence number was already seen (dropped as a duplicate).
    pub fn absorb(&mut self, update: Update) -> bool {
        debug_assert!(
            (update.idx as usize) < self.spec.len,
            "index {} out of bounds for table '{}' of {} slots",
            update.idx,
            self.spec.name,
            self.spec.len
        );
        self.pending.insert(update)
    }

    /// Schedules `policy` for every slice starting at watermark `from` or
    /// beyond — the tuning install point (and the trace replay loader).
    ///
    /// # Panics
    ///
    /// Panics if `from` precedes an already-scheduled change; installs
    /// happen in watermark order by construction.
    pub fn push_policy(&mut self, from: u64, policy: EpochPolicy) {
        self.schedule.push(from, policy);
    }

    /// The table's watermark-keyed policy schedule.
    pub fn schedule(&self) -> &PolicySchedule {
        &self.schedule
    }

    /// Applies pending updates under the table's own policy schedule.
    /// Each slice starts at the current watermark and runs under the
    /// schedule's policy there: exactly `quantum` updates, or with `drain`
    /// the contiguous remainder, and never past a scheduled policy change.
    pub fn cut_scheduled(&mut self, drain: bool) -> Vec<SliceReport> {
        let nothing_staged = Staging::with_capacity(0);
        let plan = self.plan(&nothing_staged, drain);
        self.fold(&plan, &nothing_staged, &mut |_| {})
    }

    /// Cuts an epoch's staged runs, in admission order, under the table's
    /// policy schedule — the first half of the serving epoch path. The plan
    /// fixes every slice's boundaries and advances the watermark past them;
    /// [`fold`](Self::fold) then applies them. Nothing is applied in
    /// between, so the caller holds the table's lock from the plan through
    /// the fold and no reader sees the advanced watermark over unfolded
    /// slots.
    ///
    /// A run that starts at the watermark while the reorder buffer holds
    /// nothing has no earlier position to wait for, so its full quanta are
    /// cut straight from the staging columns and never copied. The rest —
    /// the sub-quantum tail of such a run, and every run behind a gap, a
    /// repeat or held updates — enters the reorder buffer, whose cut then
    /// follows, draining with `drain`. A tail an earlier epoch left in the
    /// buffer therefore sends the next epoch's whole run through it: the
    /// direct path serves epochs that stage whole quanta.
    ///
    /// Cut positions are what make snapshots reproducible: under a fixed
    /// schedule they depend only on the stream itself (and on explicitly
    /// client-requested drains), never on arrival timing. Both paths take
    /// every slice from the watermark at the length [`next_slice`] sets,
    /// and the direct path takes one only when the run alone holds a full
    /// quantum, which the buffer would then hold too. So which path a
    /// slice took never moves a cut. A scheduled policy change is a hard
    /// cut point — a slice never spans one — so a changing quantum keeps
    /// the same property: boundaries are a pure function of (stream
    /// content, schedule), and replaying a recorded schedule reproduces
    /// every slice (and every table bit) of the original run.
    pub(crate) fn plan(&mut self, staged: &Staging, drain: bool) -> CutPlan {
        let mut slices = Vec::new();
        let mut at = 0;
        for mut run in staged.runs() {
            debug_assert!(
                run.keys.iter().all(|&k| (k as u32 as usize) < self.spec.len),
                "index out of bounds for table '{}' of {} slots",
                self.spec.name,
                self.spec.len
            );
            let end = at + run.len();
            if self.pending.is_empty() && run.first == self.pending.watermark() {
                while let Some((policy, take)) =
                    next_slice(&self.schedule, self.pending.watermark(), run.len(), false)
                {
                    let first = run.split_to(take).first;
                    self.pending.advance_to(first + take as u64);
                    slices.push(PlannedSlice { source: Source::Staged, at, first, policy, take });
                    at += take;
                }
            }
            self.pending.insert_run(run);
            at = end;
        }
        while let Some((policy, take)) = next_slice(
            &self.schedule,
            self.pending.watermark(),
            self.pending.contiguous_len(),
            drain,
        ) {
            let first = self.pending.watermark();
            let at = self.pending.take(take);
            slices.push(PlannedSlice { source: Source::Ring, at, first, policy, take });
        }
        CutPlan { slices }
    }

    /// Applies a [`plan`](Self::plan)'s slices in stream order — the second
    /// half of the serving epoch path. `staged` is the batch the plan was
    /// made from; the ring slices are read where the plan consumed them,
    /// which stays valid because nothing is inserted between the two
    /// halves. `log` sees every slice exactly as cut, before it is applied
    /// — the write-ahead point. A slice that reaches `log` is already
    /// admitted, so replaying logged slices in order through
    /// [`apply_logged`](Self::apply_logged) reproduces the same cuts, and
    /// therefore the same bits.
    pub(crate) fn fold(
        &mut self,
        plan: &CutPlan,
        staged: &Staging,
        log: &mut dyn FnMut(RunView<'_>),
    ) -> Vec<SliceReport> {
        let (keys, bits) = staged.columns();
        let mut reports = Vec::with_capacity(plan.slices.len());
        for &PlannedSlice { source, at, first, policy, take } in &plan.slices {
            let slice = match source {
                Source::Staged => {
                    RunView { first, keys: &keys[at..at + take], bits: &bits[at..at + take] }
                }
                // Consumed from the reorder buffer in place: the kernel
                // reads the slice as borrowed key/value columns.
                Source::Ring => self.pending.consumed(at, first, take),
            };
            log(slice);
            let stats =
                apply_run(&mut self.data, self.engine.as_mut(), self.spec.op, slice, &policy.exec);
            reports.push(SliceReport::new(take, policy.quantum, stats));
        }
        reports
    }

    /// Replays one logged slice: the updates must start exactly at the
    /// current watermark and be `seq`-contiguous (they were cut that way).
    /// The slice bypasses the reorder buffer: it is split into key/value
    /// columns once and applied as a single chunk under the schedule's
    /// policy at its watermark — the same execution the original cut ran,
    /// so the result is bitwise identical.
    ///
    /// # Errors
    ///
    /// Rejects a slice that is empty, does not start at the watermark, is
    /// not contiguous, or indexes out of the table's bounds.
    pub fn apply_logged(&mut self, updates: &[Update]) -> Result<SliceReport, String> {
        let wm = self.pending.watermark();
        let first = updates.first().ok_or("empty logged slice")?;
        if first.seq != wm {
            return Err(format!(
                "logged slice for table '{}' starts at seq {}, watermark is {wm}",
                self.spec.name, first.seq
            ));
        }
        for (i, u) in updates.iter().enumerate() {
            if u.seq != wm + i as u64 {
                return Err(format!(
                    "logged slice for table '{}' is not seq-contiguous at offset {i}",
                    self.spec.name
                ));
            }
            if (u.idx as usize) >= self.spec.len {
                return Err(format!(
                    "logged update indexes slot {} beyond table '{}' of {} slots",
                    u.idx, self.spec.name, self.spec.len
                ));
            }
        }
        let policy = self.schedule.at(wm);
        let keys: Vec<i32> = updates.iter().map(|u| u.idx as i32).collect();
        let bits: Vec<u32> = updates.iter().map(|u| u.bits).collect();
        self.pending.advance_to(wm + updates.len() as u64);
        let run = RunView { first: wm, keys: &keys, bits: &bits };
        let stats =
            apply_run(&mut self.data, self.engine.as_mut(), self.spec.op, run, &policy.exec);
        Ok(SliceReport::new(updates.len(), policy.quantum, stats))
    }

    /// Installs externally recovered contents (checkpoint load, follower
    /// bootstrap or re-bootstrap): replaces the slot values and
    /// fast-forwards the watermark. The watermark may only advance, and
    /// nothing may be buffered — installs happen on fresh cores and on
    /// caught-up read-only followers, never mid-ingest.
    ///
    /// # Errors
    ///
    /// Rejects data of the wrong kind or length, buffered updates, or a
    /// watermark regression.
    pub fn install(&mut self, data: TableData, watermark: u64) -> Result<(), String> {
        if self.pending_len() != 0 {
            return Err(format!(
                "table '{}' has buffered updates; cannot install a snapshot",
                self.spec.name
            ));
        }
        if watermark < self.watermark() {
            return Err(format!(
                "snapshot watermark {watermark} regresses table '{}' at {}",
                self.spec.name,
                self.watermark()
            ));
        }
        let kind_ok = matches!(
            (&data, self.spec.kind),
            (TableData::F32(_), ValueKind::F32) | (TableData::I32(_), ValueKind::I32)
        );
        if !kind_ok {
            return Err(format!("snapshot kind mismatch for table '{}'", self.spec.name));
        }
        if data.len() != self.spec.len {
            return Err(format!(
                "snapshot of {} slots for table '{}' of {} slots",
                data.len(),
                self.spec.name,
                self.spec.len
            ));
        }
        self.data = data;
        if let (Some(engine), TableData::I32(slots)) = (self.engine.as_mut(), &self.data) {
            engine.rebuild(slots);
        }
        self.pending.advance_to(watermark);
        self.checksum_cache.set(None);
        Ok(())
    }

    /// The table's streamkit engine, for stream-table queries.
    pub fn engine(&self) -> Option<&Engine> {
        self.engine.as_ref()
    }

    /// CRC-32 over the current slot bit patterns, little-endian — the
    /// per-epoch state checksum sealed into the WAL and compared across
    /// leader/follower. The same slot CRC as
    /// [`crate::protocol::snapshot_checksum`], computed without
    /// materializing the bit vector.
    ///
    /// Memoized per watermark: state only changes when updates apply, and
    /// every apply advances the watermark, so a hit is always exact.
    pub fn checksum(&self) -> u32 {
        let wm = self.watermark();
        if let Some((at, crc)) = self.checksum_cache.get() {
            if at == wm {
                return crc;
            }
        }
        let out = self.data.slot_crc();
        self.checksum_cache.set(Some((wm, out)));
        out
    }
}

/// The slice a cut at watermark `wm` takes from `available` contiguous
/// updates under `schedule`: exactly the quantum of the policy in effect at
/// `wm`, or with `drain` whatever is available, and never past the
/// schedule's next policy change. `None` when no slice is due.
fn next_slice(
    schedule: &PolicySchedule,
    wm: u64,
    available: usize,
    drain: bool,
) -> Option<(EpochPolicy, usize)> {
    let policy = schedule.at(wm);
    let mut take = if available >= policy.quantum {
        policy.quantum
    } else if drain && available > 0 {
        available
    } else {
        return None;
    };
    if let Some(next) = schedule.next_change_after(wm) {
        take = take.min((next - wm) as usize);
    }
    Some((policy, take))
}

/// Folds one cut slice into the table: through the stream engine for
/// stream tables, otherwise straight from the run's columns into the SIMD
/// driver.
fn apply_run(
    data: &mut TableData,
    engine: Option<&mut Engine>,
    op: OpKind,
    run: RunView<'_>,
    policy: &ExecPolicy,
) -> InvecStats {
    fn fold<T: FromBits, Op: ReduceOp<T>>(
        target: &mut [T],
        run: RunView<'_>,
        policy: &ExecPolicy,
    ) -> InvecStats {
        execute::<T, Op>(target, run.keys, typed(run.bits), policy).stats
    }

    // Stream tables route the slice through their engine: the events are
    // the same logged updates, so WAL replay and replication take this
    // exact path too.
    if let Some(engine) = engine {
        let TableData::I32(slots) = data else {
            unreachable!("stream tables are validated to be i32")
        };
        let events: Vec<(u32, u32)> =
            run.keys.iter().zip(run.bits).map(|(&k, &b)| (k as u32, b)).collect();
        return engine.apply(slots, &events, policy);
    }
    match (data, op) {
        (TableData::F32(v), OpKind::Add) => fold::<f32, Sum>(v, run, policy),
        (TableData::F32(v), OpKind::Min) => fold::<f32, Min>(v, run, policy),
        (TableData::F32(v), OpKind::Max) => fold::<f32, Max>(v, run, policy),
        (TableData::I32(v), OpKind::Add) => fold::<i32, Sum>(v, run, policy),
        (TableData::I32(v), OpKind::Min) => fold::<i32, Min>(v, run, policy),
        (TableData::I32(v), OpKind::Max) => fold::<i32, Max>(v, run, policy),
    }
}

/// Table element types a value-bits column can be read as in place:
/// implemented for `f32` and `i32` only.
trait FromBits: SimdElement {}

impl FromBits for f32 {}
impl FromBits for i32 {}

/// Views a value-bits column as the table's element type, without a copy.
fn typed<T: FromBits>(bits: &[u32]) -> &[T] {
    const {
        assert!(std::mem::size_of::<T>() == std::mem::size_of::<u32>());
        assert!(std::mem::align_of::<T>() == std::mem::align_of::<u32>());
    }
    // SAFETY: `FromBits` is private to this module and implemented only
    // for `f32` and `i32`. Both have the size and alignment of `u32` (the
    // const block above checks it), and every 32-bit pattern is a valid
    // value of either (for `f32` that includes every NaN payload, -0.0 and
    // the subnormals), so the `bits.len()` initialized `u32`s read as
    // `bits.len()` valid `T`s. The result borrows `bits`, so the column
    // cannot change or be freed while the view lives.
    unsafe { std::slice::from_raw_parts(bits.as_ptr().cast::<T>(), bits.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table whose schedule cuts at `quantum` from watermark 0.
    fn state(spec: TableSpec, quantum: usize) -> TableState {
        TableState::new(spec, EpochPolicy::new(ExecPolicy::default(), quantum))
    }

    #[test]
    fn identity_initialization_per_op() {
        let t = state(TableSpec::f32("m", OpKind::Min, 3), 4096);
        assert_eq!(t.data(), &TableData::F32(vec![f32::INFINITY; 3]));
        let t = state(TableSpec::i32("c", OpKind::Add, 2), 4096);
        assert_eq!(t.data(), &TableData::I32(vec![0; 2]));
        let t = state(TableSpec::i32("x", OpKind::Max, 1), 4096);
        assert_eq!(t.data(), &TableData::I32(vec![i32::MIN]));
    }

    #[test]
    fn quantum_slices_apply_only_full_batches_until_drained() {
        let mut t = state(TableSpec::i32("c", OpKind::Add, 8), 4);
        for seq in 0..10u64 {
            assert!(t.absorb(Update::i32(seq, (seq % 8) as u32, 1)));
        }
        // Quantum 4: two full slices apply, two updates stay pending.
        let slices = t.cut_scheduled(false);
        assert_eq!(slices.len(), 2);
        assert_eq!(t.watermark(), 8);
        assert_eq!(t.pending_len(), 2);
        // Drain cuts the partial tail.
        let slices = t.cut_scheduled(true);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].applied, 2);
        assert_eq!(t.watermark(), 10);
        let TableData::I32(v) = t.data() else { panic!("i32 table") };
        assert_eq!(v.iter().sum::<i32>(), 10);
    }

    #[test]
    fn scheduled_policy_changes_cut_on_their_watermark() {
        let mut t = state(TableSpec::i32("c", OpKind::Add, 8), 4);
        for seq in 0..20u64 {
            t.absorb(Update::i32(seq, (seq % 8) as u32, 1));
        }
        // Quantum 4 until watermark 8, then quantum 8.
        t.push_policy(8, EpochPolicy::new(ExecPolicy::default(), 8));
        let slices = t.cut_scheduled(false);
        let sizes: Vec<(usize, usize)> = slices.iter().map(|s| (s.applied, s.offered)).collect();
        assert_eq!(sizes, vec![(4, 4), (4, 4), (8, 8)], "4+4 under q=4, then one q=8 slice");
        assert_eq!(t.watermark(), 16);
        assert_eq!(t.pending_len(), 4, "partial q=8 tail waits for a drain");
        // A change scheduled mid-run acts as a hard cut point.
        t.push_policy(18, EpochPolicy::new(ExecPolicy::default(), 2));
        let slices = t.cut_scheduled(true);
        let sizes: Vec<usize> = slices.iter().map(|s| s.applied).collect();
        assert_eq!(sizes, vec![2, 2], "drain stops at the boundary, then cuts under q=2");
        assert_eq!(t.watermark(), 20);
        assert_eq!(t.schedule().len(), 3);
    }

    #[test]
    fn out_of_order_arrival_is_held_back_until_contiguous() {
        let mut t = state(TableSpec::i32("c", OpKind::Add, 4), 1);
        t.absorb(Update::i32(2, 0, 1));
        t.absorb(Update::i32(1, 0, 1));
        assert!(t.cut_scheduled(true).is_empty(), "gap at seq 0 blocks");
        t.absorb(Update::i32(0, 0, 1));
        let slices = t.cut_scheduled(true);
        assert_eq!(slices.len(), 3);
        assert_eq!(t.watermark(), 3);
    }

    #[test]
    fn duplicates_are_dropped_and_counted() {
        let mut t = state(TableSpec::f32("m", OpKind::Min, 4), 1);
        assert!(t.absorb(Update::f32(0, 1, 5.0)));
        assert!(!t.absorb(Update::f32(0, 1, 9.0)), "same seq again");
        t.cut_scheduled(true);
        assert!(!t.absorb(Update::f32(0, 2, 1.0)), "seq below watermark");
        assert_eq!(t.duplicates(), 2);
        let TableData::F32(v) = t.data() else { panic!("f32 table") };
        assert_eq!(v[1], 5.0, "first arrival wins");
    }

    #[test]
    fn every_op_kind_folds_through_the_engine() {
        let cases = [
            (TableSpec::f32("a", OpKind::Add, 4), [2.0f32, 3.0], 5.0f32),
            (TableSpec::f32("b", OpKind::Min, 4), [2.0, 3.0], 2.0),
            (TableSpec::f32("c", OpKind::Max, 4), [2.0, 3.0], 3.0),
        ];
        for (spec, vals, expect) in cases {
            let mut t = state(spec, 16);
            t.absorb(Update::f32(0, 1, vals[0]));
            t.absorb(Update::f32(1, 1, vals[1]));
            t.cut_scheduled(true);
            let TableData::F32(v) = t.data() else { panic!("f32 table") };
            assert_eq!(v[1], expect);
        }
        for (op, vals, expect) in
            [(OpKind::Add, [2, 3], 5i32), (OpKind::Min, [2, 3], 2), (OpKind::Max, [2, 3], 3)]
        {
            let mut t = state(TableSpec::i32("t", op, 4), 16);
            t.absorb(Update::i32(0, 1, vals[0]));
            t.absorb(Update::i32(1, 1, vals[1]));
            t.cut_scheduled(true);
            let TableData::I32(v) = t.data() else { panic!("i32 table") };
            assert_eq!(v[1], expect);
        }
    }
}
