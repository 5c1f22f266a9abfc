//! The service core and its TCP front end.
//!
//! [`ServerCore`] is the transport-independent heart: per-table bounded
//! staging buffers, per-table reorder buffers, and the epoch executor that
//! drains micro-batches through the reduction engine. The in-process
//! client and the TCP connection handlers call the same core entry points
//! ([`submit`](ServerCore::submit), [`tick`](ServerCore::tick),
//! [`snapshot`](ServerCore::snapshot)), so behavior over the wire and in
//! process is identical by construction.
//!
//! [`Server`] wraps a core with the readiness-based reactor front end
//! ([`crate::reactor`]: nonblocking listener, a small fixed set of I/O
//! threads, zero-copy frame decode) and a background epoch thread cutting
//! batches on a timer (or as soon as a full quantum is queued).

use std::any::Any;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use invector_core::exec::{pool, ExecPolicy, ExecVariant, Partition};
use invector_core::stats::DepthHistogram;
use invector_core::tune::{Controller, EpochPolicy, MetricFrame, PolicyTrace, TraceEntry};
use invector_core::{Backend, BackendChoice, TuneConfig};
use invector_obs::Registry;
use invector_simd::count;
use invector_streamkit::{StreamKind, ValueRepr};

use crate::epoch::{Admitted, EpochReport, ServeStats, Staging};
use crate::protocol::{
    write_snapshot_reply, EdgeOp, RejectReason, StatsSummary, Update, UpdatesView,
    MAX_SNAPSHOT_SLOTS,
};
use crate::reactor::{self, ReactorKind};
use crate::table::{TableData, TableSpec, TableState, ValueKind};
use crate::wal::{
    batch_record_len, checkpoint_table_len, encode_checkpoint_table, ManifestEntry, WalOptions,
    WalRecord, WalState,
};

/// Server configuration: the resident tables plus sizing/batching knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The resident tables, addressed by position.
    pub tables: Vec<TableSpec>,
    /// Inert: admission stages each table's batches in one buffer, so
    /// nothing is sharded. Kept only because the protocol's `Hello` reply
    /// still carries a shard count and the `perfbench` ingest ledger
    /// replay reads it.
    pub shards: usize,
    /// Epoch batch quantum: micro-batches are exactly this many updates.
    /// A smaller final batch runs only on an explicit flush or the
    /// shutdown drain, which keeps batch cut positions — and therefore
    /// snapshots — independent of arrival timing.
    pub quantum: usize,
    /// Per-table staging capacity: updates admitted but not yet taken by
    /// an epoch. A submit that would overflow it is rejected with
    /// retry-after instead of blocking or dropping. Each table's staging
    /// buffer and its spare are allocated at this capacity up front.
    pub queue_capacity: usize,
    /// Reorder window: an update whose `seq` is this far beyond the
    /// table's watermark is rejected (bounds the reorder buffer).
    pub window: u64,
    /// Worker threads for the reduction engine.
    pub threads: usize,
    /// Reduction backend request.
    pub backend: BackendChoice,
    /// Reactor I/O threads multiplexing every TCP connection.
    pub io_threads: usize,
    /// Open-connection ceiling; accepts beyond it are refused (and
    /// counted) rather than queued.
    pub max_connections: usize,
    /// Write-ring backpressure cap (bytes): past this, the reactor stops
    /// reading from the connection until its replies drain — a slow reader
    /// cannot balloon server memory.
    pub write_buffer_cap: usize,
    /// Readiness backend (`auto` picks epoll on Linux).
    pub reactor: ReactorKind,
    /// Epoch-level self-tuning mode (off, online controller, or trace
    /// replay).
    pub tune: TuneMode,
    /// Durability: log admitted slices to a write-ahead log and publish
    /// periodic snapshot checkpoints (`--wal-dir`). `None` keeps the
    /// server purely in-memory.
    pub wal: Option<WalOptions>,
}

/// How the core manages its execution policy across epochs.
#[derive(Debug, Clone, Default)]
pub enum TuneMode {
    /// The startup policy and quantum stay fixed for the server's life.
    #[default]
    Off,
    /// An online [`Controller`] adapts the policy and quantum between
    /// epochs from completed-epoch metrics; its decisions are recorded as
    /// a [`PolicyTrace`] ([`ServerCore::policy_trace`]).
    Auto(TuneConfig),
    /// Replays a recorded trace: each entry's policy takes effect at the
    /// recorded per-table watermarks, reproducing the tuned run's slice
    /// boundaries — and snapshots — bitwise, without a controller.
    Replay(PolicyTrace),
}

impl ServeConfig {
    /// A configuration with serving defaults for the given tables.
    pub fn new(tables: Vec<TableSpec>) -> ServeConfig {
        ServeConfig {
            tables,
            shards: 4,
            quantum: 4096,
            queue_capacity: 1 << 16,
            window: 1 << 20,
            threads: 1,
            backend: BackendChoice::Auto,
            io_threads: 2,
            max_connections: 4096,
            write_buffer_cap: 256 << 10,
            reactor: ReactorKind::Auto,
            tune: TuneMode::Off,
            wal: None,
        }
    }

    /// The engine policy epochs start under: in-vector reduction and
    /// owner-computes partitioning — a combination whose results are a
    /// pure function of (batch content, thread count, quantum), which is
    /// what the snapshot contract leans on. Under tuning this is the
    /// controller's starting cell; the variant and thread count may change
    /// between epochs, but partitioning and the backend request are held
    /// fixed.
    pub fn policy(&self) -> ExecPolicy {
        ExecPolicy::with_threads(self.threads)
            .variant(ExecVariant::Invec)
            .partition(Partition::OwnerComputes)
            .backend(self.backend)
    }

    /// The initial epoch policy pair ([`policy`](Self::policy) at the
    /// configured quantum) — the policy in effect until tuning installs
    /// another.
    pub fn initial_policy(&self) -> EpochPolicy {
        EpochPolicy::new(self.policy(), self.quantum)
    }

    fn validate(&self) -> Result<(), String> {
        if self.tables.is_empty() {
            return Err("at least one table is required".into());
        }
        if self.tables.len() > u16::MAX as usize {
            return Err("table ids are u16".into());
        }
        if let Some(t) = self.tables.iter().find(|t| t.len == 0) {
            return Err(format!("table '{}' has zero slots", t.name));
        }
        // A `Snapshot` reply is length-prefixed by a `u32`. The bound also
        // keeps every key an `i32`, as the kernel's key columns need.
        if let Some(t) = self.tables.iter().find(|t| t.len > MAX_SNAPSHOT_SLOTS) {
            return Err(format!(
                "table '{}' has {} slots; a Snapshot reply carries at most {MAX_SNAPSHOT_SLOTS}",
                t.name, t.len
            ));
        }
        for t in &self.tables {
            t.validate_stream().map_err(|e| format!("table '{}': {e}", t.name))?;
        }
        if self.quantum == 0 || self.queue_capacity == 0 || self.threads == 0 {
            return Err("quantum, queue_capacity, and threads must be >= 1".into());
        }
        if self.window == 0 {
            return Err("reorder window must be >= 1".into());
        }
        if self.io_threads == 0 || self.max_connections == 0 {
            return Err("io_threads and max_connections must be >= 1".into());
        }
        if self.write_buffer_cap < 1024 {
            return Err("write buffer cap must be >= 1 KiB".into());
        }
        if self.wal.is_some() && matches!(self.tune, TuneMode::Auto(_)) {
            // Online tuning decisions are not captured in batch records, so
            // replaying the log could cut different slice boundaries and
            // recover different bits. Record a trace and use Replay.
            return Err("a WAL cannot be combined with online tuning (TuneMode::Auto); \
                        record a policy trace and use TuneMode::Replay"
                .into());
        }
        if self.wal.is_some() {
            self.validate_log_records()?;
        }
        Ok(())
    }

    /// Refuses a durable configuration whose checkpoint or batch records
    /// would not fit one log record: the log refuses to write a longer
    /// one, and recovery would read it as a torn tail.
    fn validate_log_records(&self) -> Result<(), String> {
        let limit = invector_replog::MAX_RECORD_LEN;
        if let Some(t) = self.tables.iter().find(|t| checkpoint_table_len(t.len) > limit) {
            return Err(format!(
                "table '{}' has {} slots; its checkpoint record of {} bytes exceeds the log's \
                 {limit}-byte record limit",
                t.name,
                t.len,
                checkpoint_table_len(t.len)
            ));
        }
        // A slice is at most one quantum of the policy in effect, and never
        // more than the reorder window admits past the watermark.
        let quantum = match &self.tune {
            TuneMode::Replay(trace) => {
                trace.iter().map(|e| e.policy.quantum).fold(self.quantum, usize::max)
            }
            _ => self.quantum,
        };
        let slice = (quantum as u64).min(self.window) as usize;
        if batch_record_len(slice) > limit {
            return Err(format!(
                "slices of up to {slice} updates (quantum {quantum}, reorder window {}) make \
                 batch records of {} bytes, over the log's {limit}-byte record limit",
                self.window,
                batch_record_len(slice)
            ));
        }
        Ok(())
    }
}

/// Outcome of one [`ServerCore::submit`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Every update was admitted.
    Accepted {
        /// Updates admitted (the whole batch).
        accepted: u32,
        /// The table's applied watermark when the batch was admitted.
        watermark: u64,
    },
    /// Admission stopped early; retry the remainder after the backoff.
    Rejected {
        /// Updates admitted before the refusal point (a prefix of the
        /// batch — nothing after it was admitted, preserving per-client
        /// submission order).
        accepted: u32,
        /// Suggested backoff.
        retry_after_ms: u32,
        /// Why admission stopped.
        reason: RejectReason,
    },
    /// Client error (unknown table, index out of range); nothing admitted
    /// beyond `accepted` and the batch must not be retried as-is.
    Failed(String),
}

/// One table snapshot: applied watermark plus the slot bit patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Table id.
    pub table: u16,
    /// Stream positions folded in (`seq < watermark`).
    pub watermark: u64,
    /// CRC-32 over the slot bit patterns
    /// ([`crate::protocol::snapshot_checksum`]), computed
    /// under the table lock so it always matches `data`.
    pub checksum: u32,
    /// Typed table contents.
    pub data: TableData,
}

impl Snapshot {
    /// Raw slot bit patterns — the unit of bitwise comparison.
    pub fn bits(&self) -> Vec<u32> {
        self.data.to_bits()
    }

    /// One table's snapshot, read under its lock.
    fn of(table: u16, state: &TableState) -> Snapshot {
        Snapshot {
            table,
            watermark: state.watermark(),
            checksum: state.checksum(),
            data: state.data().clone(),
        }
    }

    /// Writes the snapshot as a `Snapshot` reply body
    /// ([`write_table_reply`]).
    pub(crate) fn write_reply(&self, out: &mut impl Write) -> std::io::Result<()> {
        write_table_reply(out, self.table, self.watermark, self.checksum, &self.data)
    }
}

/// Writes a `Snapshot` reply body over typed slots: header, then the slot
/// image, read in place.
fn write_table_reply(
    out: &mut impl Write,
    table: u16,
    watermark: u64,
    checksum: u32,
    data: &TableData,
) -> std::io::Result<()> {
    match data {
        TableData::F32(v) => write_snapshot_reply(out, table, watermark, checksum, v),
        TableData::I32(v) => write_snapshot_reply(out, table, watermark, checksum, v),
    }
}

/// One window-bucket read ([`ServerCore::window_query`]): the bucket's
/// per-key aggregate values, tagged with the table watermark they were
/// consistent at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Table id.
    pub table: u16,
    /// Stream positions folded in when the bucket was read.
    pub watermark: u64,
    /// Bucket id the values belong to.
    pub bucket: u64,
    /// Buckets retracted so far.
    pub expired: u64,
    /// Per-key aggregate bit patterns.
    pub values: Vec<u32>,
}

/// One top-k read ([`ServerCore::top_k`]): the k largest slots of the
/// table's query region, value-descending with index-ascending ties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKPage {
    /// Table id.
    pub table: u16,
    /// Stream positions folded in when the page was read.
    pub watermark: u64,
    /// `(slot index, value bit pattern)` pairs, largest value first.
    pub entries: Vec<(u32, u32)>,
}

/// A consistent all-table state ([`ServerCore::pin_state`]): every table
/// at the same epoch boundary, plus the log position the tables
/// correspond to — the follower bootstrap point. The leader pins one per
/// `SnapshotBegin` and drops it once the reply is written;
/// [`TcpClient::snapshot_begin`](crate::TcpClient::snapshot_begin) returns
/// the one it received.
#[derive(Debug)]
pub struct PinnedState {
    /// Checkpoint generation of the pinned log position.
    pub checkpoint: u64,
    /// Log index within the generation (records before it are already
    /// folded into the pinned tables).
    pub index: u64,
    /// Every table's snapshot at the pin point, in id order.
    pub tables: Vec<Snapshot>,
}

/// A follower's log-tail fetch result ([`ServerCore::log_tail`]).
#[derive(Debug)]
pub struct LogTailPage {
    /// The server's current checkpoint generation.
    pub checkpoint: u64,
    /// Index to request next.
    pub next_index: u64,
    /// Records currently in the generation (fetch lag = `head - next`).
    pub head: u64,
    /// True when the requested generation is gone (a checkpoint
    /// truncated it) — the follower must re-bootstrap.
    pub reset: bool,
    /// Framed record payloads `[index, next_index)`.
    pub records: Vec<Vec<u8>>,
}

/// The transport-independent service: ingest, epoch execution, snapshots.
#[derive(Debug)]
pub struct ServerCore {
    /// The core's own `Arc`, which an epoch handed to the pool holds until
    /// it completes.
    me: Weak<ServerCore>,
    config: ServeConfig,
    /// Every epoch runs on the thread that asks for it: the core logs to a
    /// WAL, or a policy it may run fans slices across the pool.
    inline_epochs: bool,
    /// Instructions that epochs folded on pool workers have counted and no
    /// inline epoch has re-charged to its caller yet.
    uncharged: AtomicU64,
    /// Epochs handed to the pool and not yet started, and whether a runner
    /// is on the pool to start them.
    handoffs: Mutex<Handoffs>,
    /// The panic of a pool epoch that had already released its requester;
    /// the next `tick` or `flush` re-raises it.
    failure: Mutex<Option<Box<dyn Any + Send>>>,
    /// The quantum in effect (mirrors `TuneState::policy`): admission
    /// wakes the epoch thread once this many updates are staged.
    quantum: AtomicUsize,
    /// Per-table bounded staging buffers (key/value columns plus their
    /// seq-contiguous runs): admission appends a batch's admitted prefix
    /// under one lock, an epoch swaps the whole buffer out.
    staging: Vec<Mutex<Staging>>,
    /// `config.backend`, resolved once: it picks the record kernel that
    /// admission runs.
    backend: Backend,
    /// Per-table state (values + reorder buffer), locked independently.
    tables: Vec<Mutex<TableState>>,
    /// Published per-table watermarks (read by admission without taking
    /// table locks).
    watermarks: Vec<AtomicU64>,
    /// Updates sitting in staging buffers (not yet taken by an epoch).
    queued: AtomicUsize,
    /// Serializes epoch execution and guards the state only an epoch
    /// writes: the spare staging buffers, the WAL and the tuning state.
    /// An epoch holds it from its staging swap to its statistics, on
    /// whichever thread runs it. Lock order: tick lock → table locks.
    tick_lock: Mutex<EpochState>,
    /// Per-core metric registry the stats handles point into (also the
    /// scrape source for the `Metrics` verb).
    registry: Registry,
    /// Registry-backed service statistics. Record-side calls are
    /// lock-free, so admission and the epoch executor never serialize on
    /// a stats mutex.
    stats: ServeStats,
    /// A read-only core (follower mode) fails every submit; epochs are
    /// driven by replica application instead of the ingest path.
    read_only: AtomicBool,
    draining: AtomicBool,
    /// Signals the background epoch thread that a full quantum is queued.
    wake: Condvar,
    /// Whether a wake is pending: set (and signalled) only on its flip
    /// from `false`, consumed by the epoch loop before it waits.
    wake_lock: Mutex<bool>,
}

/// What the tick lock guards: every piece of core state that only epochs
/// (and the installs and replays that stand in for them) write.
#[derive(Debug)]
struct EpochState {
    /// Each table's spare staging buffer (empty, capacity kept), which an
    /// epoch swaps in for the staged batch.
    spares: Vec<Staging>,
    /// Durability state, present when the config names a WAL directory.
    /// Held across a whole cut, so a log fetch never sees half an epoch.
    wal: Option<WalState>,
    /// Tuning state. The admission path never sees it.
    tuning: TuneState,
}

/// The core's tuning state: the policy in effect, the optional controller,
/// and the recorded decision trace.
#[derive(Debug, Default)]
struct TuneState {
    /// The policy in effect: the initial policy, then each installed
    /// decision.
    policy: EpochPolicy,
    /// The online controller (`TuneMode::Auto` only).
    controller: Option<Controller>,
    /// Every policy install, keyed by per-table watermarks.
    trace: Vec<TraceEntry>,
    /// Completed epochs that applied at least one slice (counted while a
    /// controller runs).
    epochs: u64,
    /// When the previous non-empty epoch completed, for end-to-end frame
    /// cost attribution (see [`ServerCore::tune_observe`]).
    last_epoch: Option<Instant>,
}

/// Cap on how much inter-epoch wall time an epoch frame may report,
/// as a multiple of its in-epoch execution time. Under saturating load
/// the admission path costs a small multiple of execution; anything far
/// beyond that is client idle time, which would otherwise be billed to
/// whatever policy happens to be active.
const TUNE_IDLE_CLAMP: u64 = 64;

/// Period of the background epoch thread's timer.
const EPOCH_INTERVAL: Duration = Duration::from_millis(1);

/// Backoff suggested to rejected clients.
const RETRY_AFTER_MS: u32 = 2;

impl ServerCore {
    /// Builds a core from `config`.
    ///
    /// # Errors
    ///
    /// Returns a message for structurally invalid configurations (no
    /// tables, zero-sized knobs).
    pub fn new(config: ServeConfig) -> Result<Arc<ServerCore>, String> {
        config.validate()?;
        let initial = config.initial_policy();
        // Admission never stages more than `queue_capacity` updates per
        // table, and a closed-loop client that outruns the epochs fills the
        // buffer to exactly that. Sized to the bound once, a staging buffer
        // never reallocates under its lock, and the swap keeps the capacity.
        let staged_batch = || Staging::with_capacity(config.queue_capacity);
        let staging = config.tables.iter().map(|_| Mutex::new(staged_batch())).collect();
        let spares = config.tables.iter().map(|_| staged_batch()).collect();
        let mut tables: Vec<Mutex<TableState>> = config
            .tables
            .iter()
            .map(|spec| Mutex::new(TableState::new(spec.clone(), initial)))
            .collect();
        let controller = match &config.tune {
            TuneMode::Off => None,
            TuneMode::Auto(tc) => Some(Controller::new(tc.clone(), initial)?),
            TuneMode::Replay(trace) => {
                // Preload every table's schedule up front: replay needs no
                // per-epoch decisions, only the recorded cut boundaries.
                for (i, entry) in trace.iter().enumerate() {
                    if entry.at.len() != tables.len() {
                        return Err(format!(
                            "trace entry {i} records {} table watermarks, server has {}",
                            entry.at.len(),
                            tables.len()
                        ));
                    }
                }
                for (t, table) in tables.iter_mut().enumerate() {
                    let state = table.get_mut().expect("table lock");
                    for entry in trace {
                        state.push_policy(entry.at[t], entry.policy);
                    }
                }
                None
            }
        };
        let (wal, recovery) = match config.wal.clone() {
            None => (None, None),
            Some(options) => {
                let (state, recovery) = WalState::open(options, &config.tables)?;
                (Some(state), Some(recovery))
            }
        };
        let watermarks = tables.iter().map(|_| AtomicU64::new(0)).collect();
        let registry = Registry::new();
        let stats = ServeStats::new(&registry);
        let backend = config.backend.resolve();
        let fans_out = config.threads > 1
            || match &config.tune {
                TuneMode::Off => false,
                TuneMode::Auto(tc) => tc.thread_ladder.iter().any(|&t| t > 1),
                TuneMode::Replay(trace) => trace.iter().any(|e| e.policy.exec.threads > 1),
            };
        let inline_epochs = wal.is_some() || fans_out;
        let core = Arc::new_cyclic(|me| ServerCore {
            me: me.clone(),
            config,
            inline_epochs,
            uncharged: AtomicU64::new(0),
            handoffs: Mutex::new(Handoffs::default()),
            failure: Mutex::new(None),
            quantum: AtomicUsize::new(initial.quantum),
            staging,
            backend,
            tables,
            watermarks,
            queued: AtomicUsize::new(0),
            tick_lock: Mutex::new(EpochState {
                spares,
                wal,
                tuning: TuneState { policy: initial, controller, ..TuneState::default() },
            }),
            registry,
            stats,
            read_only: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            wake: Condvar::new(),
            wake_lock: Mutex::new(false),
        });
        // Durable mode: install the latest checkpoint and replay the log
        // tail through the follower's record path (under any replayed
        // policy schedule, loaded above) before serving a single request.
        // Any integrity failure is a refusal to serve, never a silent
        // fresh start over data that existed.
        if let Some(recovery) = recovery {
            if !recovery.installed.is_empty() {
                core.install_snapshot(recovery.installed)?;
            }
            for (i, record) in recovery.replay.iter().enumerate() {
                core.apply_record(record).map_err(|e| format!("WAL record {i}: {e}"))?;
            }
        }
        // Duplicates live in the tables' reorder buffers; bridge them into
        // the scrape as a pull collector (table locks are only taken at
        // scrape/summary time, never on the hot path).
        let weak = Arc::downgrade(&core);
        core.registry.register_collector(
            "invector_serve_duplicates_total",
            "duplicate sequence numbers dropped by the reorder buffers",
            move || {
                weak.upgrade().map_or(0, |core| {
                    core.tables.iter().map(|t| t.lock().expect("table lock").duplicates()).sum()
                })
            },
        );
        Ok(core)
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Admits a batch of updates for `table` into its staging buffer.
    ///
    /// Admission is all-or-prefix: updates are considered in order and the
    /// first refusal (full staging buffer, reorder window, drain mode)
    /// stops the batch, returning how many were admitted. Nothing is ever
    /// silently dropped — a refused update is the client's to retry.
    ///
    /// The batch is admitted as its wire image ([`Update::wire_bytes`]),
    /// through the same record path as [`submit_view`](Self::submit_view).
    pub fn submit(&self, table: u16, updates: &[Update]) -> SubmitOutcome {
        self.submit_view(table, &UpdatesView::new(&Update::wire_bytes(updates)))
    }

    /// Admits a borrowed wire-format batch — the reactor's zero-copy path.
    ///
    /// The records go from the frame bytes straight into the staging
    /// columns; the batch never exists as a `Vec<Update>`. Every submit
    /// entry point ends here.
    ///
    /// The drain flag, the reorder window and the staging room are all read
    /// under the table's staging lock; under it, one pass over the records
    /// splits them into the staging columns and judges the batch (the
    /// record kernel of the core's backend), and the admitted prefix is
    /// appended with one `queued` add. The epoch takes the same lock to swap
    /// the buffer out: once [`begin_shutdown`](Self::begin_shutdown) has
    /// set the flag and flushed, no batch can be admitted behind the final
    /// drain.
    pub fn submit_view(&self, table: u16, updates: &UpdatesView<'_>) -> SubmitOutcome {
        let t = table as usize;
        if t >= self.tables.len() {
            return SubmitOutcome::Failed(format!(
                "unknown table {table} ({} registered)",
                self.tables.len()
            ));
        }
        if self.read_only.load(Ordering::Acquire) {
            return SubmitOutcome::Failed("read-only follower: submit to the leader".into());
        }
        let spec = &self.config.tables[t];
        let total = updates.len();
        let mut staged = self.staging[t].lock().expect("staging lock");
        if self.draining.load(Ordering::Acquire) {
            drop(staged);
            return self.reject(0, total, RejectReason::Draining);
        }
        let limit = self.watermarks[t].load(Ordering::Acquire).saturating_add(self.config.window);
        // `validate` bounds every table's slot count below `i32::MAX`.
        let Admitted { accepted, refused } =
            staged.admit(updates, spec.len as u32, limit, self.backend);
        // Counted under the lock: the epoch subtracts what it takes under
        // the same lock, so the count never dips below zero.
        let queued = self.queued.fetch_add(accepted, Ordering::AcqRel) + accepted;
        drop(staged);

        if accepted < refused.map_or(total, |(i, _)| i) {
            return self.reject(accepted, total, RejectReason::QueueFull);
        }
        match refused {
            Some((_, u)) if (u.idx as usize) >= spec.len => {
                self.stats.record_rejects((total - accepted) as u64);
                SubmitOutcome::Failed(format!(
                    "index {} out of range for table '{}' ({} slots); {} admitted",
                    u.idx, spec.name, spec.len, accepted
                ))
            }
            Some(_) => self.reject(accepted, total, RejectReason::WindowExceeded),
            None => {
                if queued >= self.quantum.load(Ordering::Acquire) {
                    self.notify_epoch_thread();
                }
                SubmitOutcome::Accepted {
                    accepted: accepted as u32,
                    watermark: self.watermarks[t].load(Ordering::Acquire),
                }
            }
        }
    }

    fn reject(&self, accepted: usize, batch: usize, reason: RejectReason) -> SubmitOutcome {
        self.stats.record_rejects((batch - accepted) as u64);
        // Any staged full quantum should get cut promptly so the retry
        // succeeds.
        self.notify_epoch_thread();
        SubmitOutcome::Rejected {
            accepted: accepted as u32,
            retry_after_ms: RETRY_AFTER_MS,
            reason,
        }
    }

    /// Runs one epoch: takes each table's staged batch, buffers its runs in
    /// the table's reorder buffer, and applies full-quantum batch slices
    /// (plus, with `drain`, each table's final partial slice) through the
    /// reduction engine.
    ///
    /// Ticks are serialized; concurrent callers line up. Safe to call from
    /// any thread — tests and the in-process client drive it directly; a
    /// live server's background epoch thread runs the same epoch routine.
    ///
    /// A plain tick (`drain == false`) with updates staged hands the epoch
    /// to the `invector_core::exec` worker pool and returns at its cut, so
    /// the caller's next admissions overlap the fold. By then every table's
    /// new watermark is published, and the tables with slices to fold stay
    /// locked until they are folded (and, with a WAL, sealed): every later
    /// tick, flush, read, log fetch, statistics read or
    /// [`pin_state`](Self::pin_state) sees the finished epoch, and
    /// [`watermarks`](Self::watermarks) never runs ahead of what a read
    /// returns. The report then holds the cut alone; the fold's statistics
    /// reach [`ServeStats`] when the epoch completes (see [`EpochReport`]).
    ///
    /// The epoch runs on the calling thread instead for a drain, with
    /// nothing staged, on a pool worker, on a core with a WAL (whose log
    /// and checkpoint files a caller may go on to read) and on a core whose
    /// policies fan slices across the pool (`threads > 1`). An inline tick
    /// also re-charges to its caller the SIMD instructions that pool epochs
    /// counted since the last one, as the engine re-charges its workers'.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the epoch routine: on the requester while it
    /// waits for the cut, otherwise on the next `tick` or `flush`. The
    /// locks it poisoned make every later reader fail-stop.
    pub fn tick(&self, drain: bool) -> EpochReport {
        if !drain
            && !self.inline_epochs
            && self.queued.load(Ordering::Acquire) > 0
            && !pool::on_worker()
        {
            if let Some(core) = self.me.upgrade() {
                return core.hand_off(|core, handoff| {
                    core.epoch(false, Some(handoff));
                });
            }
        }
        let report = self.epoch(drain, None);
        count::bump_recharged(self.uncharged.swap(0, Ordering::AcqRel));
        report
    }

    /// Queues `routine` for the core's runner on the pool and waits for it
    /// to post its cut to the [`Handoff`] — the hand-off behind every
    /// asynchronous [`tick`](Self::tick). Without a runner on the pool, one
    /// is spawned holding an `Arc` of the core; a runner already there
    /// takes the routine when it finishes the epoch in hand. So a tick that
    /// arrives while the previous epoch still folds wakes no second worker
    /// only to have it block on the tick lock.
    fn hand_off(
        self: &Arc<Self>,
        routine: impl FnOnce(&ServerCore, &Handoff) + Send + 'static,
    ) -> EpochReport {
        let handoff = Arc::new(Handoff::new());
        let asked = Instant::now();
        let spawn = {
            let mut queue = self.handoffs.lock().expect("hand-off queue");
            queue.pending.push_back((Arc::clone(&handoff), Box::new(routine)));
            !std::mem::replace(&mut queue.running, true)
        };
        if spawn {
            let core = Arc::clone(self);
            pool::global().spawn(move || core.run_handoffs());
        }
        let cut = handoff.wait();
        let waited = asked.elapsed();
        self.stats.record_cut_wait(waited);
        match cut {
            Ok(report) => EpochReport { elapsed: waited, ..report },
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// The core's runner on the pool: starts queued routines in order until
    /// none is left. A panic in a routine is caught here: posted to its
    /// requester if that one still waits for the cut (and re-raised
    /// there), kept for the next `tick` otherwise.
    fn run_handoffs(&self) {
        loop {
            let next = {
                let mut queue = self.handoffs.lock().expect("hand-off queue");
                let next = queue.pending.pop_front();
                queue.running = next.is_some();
                next
            };
            let Some((handoff, routine)) = next else { return };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                routine(self, &handoff);
            }));
            if let Err(payload) = run {
                if let Some(Err(payload)) = handoff.post(Err(payload)) {
                    *self.failure.lock().expect("failure slot") = Some(payload);
                }
            }
        }
    }

    /// Takes the tick lock for an epoch, or re-raises the panic of a pool
    /// epoch that had already released its requester. When that panic
    /// poisoned the lock, the runner that caught it is waited out first, so
    /// the next epoch raises the panic itself rather than the poisoning.
    fn lock_epoch(&self) -> std::sync::MutexGuard<'_, EpochState> {
        let epoch = self.tick_lock.lock().ok();
        if epoch.is_none() && !pool::on_worker() {
            while self.failure.lock().expect("failure slot").is_none()
                && self.handoffs.lock().expect("hand-off queue").running
            {
                std::thread::yield_now();
            }
        }
        if let Some(payload) = self.failure.lock().expect("failure slot").take() {
            std::panic::resume_unwind(payload);
        }
        epoch.expect("tick lock poisoned by a failed epoch")
    }

    /// The epoch routine, the one place an epoch's work is done, run inline
    /// or handed to the pool by [`tick`](Self::tick). Under the tick lock:
    /// swap staging, plan every table's cut, publish the watermarks and
    /// post the cut to `handoff`; then log, fold and seal each table, sync,
    /// checkpoint, and record statistics and tuning. On a pool worker it
    /// also banks the instructions it counted for the next inline tick to
    /// re-charge.
    fn epoch(&self, drain: bool, handoff: Option<&Handoff>) -> EpochReport {
        let mut epoch = self.lock_epoch();
        let EpochState { spares: batches, wal, tuning } = &mut *epoch;
        let start = Instant::now();
        let counted = count::read();

        // Take every table's staged batch in O(1) before cutting any: swap
        // the empty spare in under the staging lock. The epoch is then one
        // admission cut across tables; a table taken only when its turn
        // came would also pick up arrivals made while earlier tables were
        // cut, merging what would be separate epochs (and, with a WAL,
        // stretching the epoch-counted checkpoint cadence).
        for (staging, batch) in self.staging.iter().zip(batches.iter_mut()) {
            let mut staged = staging.lock().expect("staging lock");
            std::mem::swap(&mut *staged, batch);
            self.queued.fetch_sub(batch.len(), Ordering::AcqRel);
            drop(staged);
        }

        // Plan every table's cut in id order, each under its own
        // watermark-keyed policy schedule, and publish its new watermark.
        // A table with slices to fold stays locked until they are folded
        // and sealed, so no reader sees the watermark over unfolded slots.
        let mut report = EpochReport::default();
        let mut cuts = Vec::with_capacity(self.tables.len());
        for (t, (table, batch)) in self.tables.iter().zip(batches.iter()).enumerate() {
            let mut state = table.lock().expect("table lock");
            let plan = state.plan(batch, drain);
            report.applied += plan.applied();
            report.slices += plan.slices();
            report.offered += plan.offered();
            self.watermarks[t].store(state.watermark(), Ordering::Release);
            cuts.push((!plan.is_empty()).then_some((state, plan)));
        }
        if let Some(handoff) = handoff {
            handoff.post(Ok(report.clone()));
        }

        // Fold the cut, one table at a time. With a WAL, every slice is
        // appended *before* it is applied — the write-ahead point — and the
        // log keeps the order of a cut folded table by table. A WAL I/O
        // failure is a deliberate panic: continuing would apply unlogged
        // slices, and a crash here is exactly what recovery is built for.
        let mut depth = DepthHistogram::new();
        for (t, (cut, batch)) in cuts.into_iter().zip(batches.iter_mut()).enumerate() {
            if let Some((mut state, plan)) = cut {
                let slices = match wal.as_mut() {
                    None => state.fold(&plan, batch, &mut |_| {}),
                    Some(wal) => state.fold(&plan, batch, &mut |run| {
                        let record =
                            WalRecord::Batch { table: t as u16, updates: run.updates().collect() };
                        let bytes = wal.append(&record).expect("WAL append failed");
                        self.stats.record_wal_append(bytes);
                    }),
                };
                for slice in &slices {
                    report.vectors += slice.vectors;
                    depth.merge(&slice.depth);
                }
                if let Some(wal) = wal.as_mut() {
                    // Seal the table's epoch: watermark + post-apply state
                    // CRC, the per-epoch checksum recovery verifies and
                    // followers compare.
                    let record = WalRecord::Seal {
                        table: t as u16,
                        watermark: state.watermark(),
                        crc: state.checksum(),
                    };
                    let bytes = wal.append(&record).expect("WAL append failed");
                    self.stats.record_wal_append(bytes);
                }
            }
            // Cleared, capacity kept: this is the table's next spare.
            batch.clear();
        }
        if let Some(wal) = wal.as_mut() {
            if report.slices > 0 {
                if wal.sync_epoch().expect("WAL sync failed") {
                    self.stats.record_wal_fsync();
                }
                if wal.note_epoch() {
                    self.checkpoint_locked(wal).expect("WAL checkpoint publish failed");
                    self.stats.record_wal_checkpoint();
                }
            }
        }
        report.elapsed = start.elapsed();
        self.stats.record_epoch(&report, &depth);
        self.tune_observe(tuning, &report);
        if handoff.is_some() {
            self.uncharged.fetch_add(count::read().wrapping_sub(counted), Ordering::AcqRel);
        }
        report
    }

    /// Publishes a snapshot checkpoint (caller holds the tick lock): each
    /// table's record streams from its slots into the checkpoint file under
    /// that table's lock alone; then, with no table lock held, the file is
    /// fsynced and published under a manifest of per-table checksums, and
    /// the log truncates.
    fn checkpoint_locked(&self, wal: &mut WalState) -> std::io::Result<()> {
        let mut checkpoint = wal.begin_checkpoint()?;
        let mut entries = Vec::with_capacity(self.tables.len());
        for (t, table) in self.tables.iter().enumerate() {
            let state = table.lock().expect("table lock");
            let (spec, watermark, data) = (state.spec(), state.watermark(), state.data());
            checkpoint.record(checkpoint_table_len(data.len()), |out| {
                encode_checkpoint_table(t as u16, watermark, data, out)
            })?;
            entries.push(ManifestEntry {
                table: t as u16,
                kind: spec.kind,
                op: spec.op,
                len: spec.len as u64,
                watermark,
                checksum: state.checksum(),
            });
        }
        wal.publish_checkpoint(checkpoint, &entries)
    }

    /// The epoch-boundary tuning hook, still under the tick lock.
    ///
    /// Feeds the completed epoch's metric frame to the controller; an
    /// accepted decision is scheduled on every table at its **current
    /// watermark** — an exact slice boundary, since all cutting for this
    /// epoch is done and admission never advances watermarks. Decisions
    /// therefore depend only on completed-epoch metrics and take effect
    /// only at recorded boundaries, which is what keeps tuned snapshots
    /// replayable bitwise from the trace.
    fn tune_observe(&self, tuning: &mut TuneState, report: &EpochReport) {
        if report.slices == 0 || tuning.controller.is_none() {
            return;
        }
        tuning.epochs += 1;
        let epoch = tuning.epochs;
        let mut frame = MetricFrame {
            applied: report.applied as u64,
            busy_ns: report.elapsed.as_nanos() as u64,
        };
        // Score end-to-end, not just in-epoch: the updates applied this
        // epoch cost everything since the last non-empty epoch — admission,
        // reorder-buffer residency, and execution. In-epoch time alone
        // would reward huge quanta whose cost hides on the submit path.
        // Clamped so client idle time is not billed to the active policy.
        let now = Instant::now();
        if let Some(prev) = tuning.last_epoch {
            let delta = now.duration_since(prev).as_nanos() as u64;
            let floor = frame.busy_ns.max(1);
            frame.busy_ns = delta.clamp(floor, floor.saturating_mul(TUNE_IDLE_CLAMP));
        }
        tuning.last_epoch = Some(now);
        let controller = tuning.controller.as_mut().expect("checked above");
        if let Some(next) = controller.observe(&frame) {
            let mut at = Vec::with_capacity(self.tables.len());
            for table in &self.tables {
                let mut state = table.lock().expect("table lock");
                let wm = state.watermark();
                state.push_policy(wm, next);
                at.push(wm);
            }
            self.quantum.store(next.quantum, Ordering::Release);
            tuning.policy = next;
            tuning.trace.push(TraceEntry { epoch, policy: next, at });
        }
    }

    /// Forces a full drain of every contiguous pending update (including
    /// partial batches) — the `Flush` request. A barrier: it runs on the
    /// calling thread after any epoch still folding on the pool, and
    /// returns with everything applied (and, with a WAL, sealed and synced
    /// by the policy) and the epoch's full report.
    pub fn flush(&self) -> EpochReport {
        self.tick(true)
    }

    /// Snapshots one table: watermark plus a copy of the slot values.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown table ids.
    pub fn snapshot(&self, table: u16) -> Result<Snapshot, String> {
        let state = self
            .tables
            .get(table as usize)
            .ok_or_else(|| format!("unknown table {table}"))?
            .lock()
            .expect("table lock");
        Ok(Snapshot::of(table, &state))
    }

    /// Writes one table's `Snapshot` reply body — header, then slot image —
    /// into `out`, straight from the locked table: the slots are read once
    /// and never copied into a buffer of their own. The body is as long as
    /// the table's spec says (`19 + 4 * len` bytes), so a caller can make
    /// room for it before the lock is taken.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown table ids and for write failures.
    pub fn write_snapshot_reply(&self, table: u16, out: &mut impl Write) -> Result<(), String> {
        let state = self
            .tables
            .get(table as usize)
            .ok_or_else(|| format!("unknown table {table}"))?
            .lock()
            .expect("table lock");
        write_table_reply(out, table, state.watermark(), state.checksum(), state.data())
            .map_err(|e| format!("write snapshot of table {table}: {e}"))
    }

    /// Admits a batch of edge ops for a graph stream table (the `EdgeOps`
    /// verb). Endpoints are validated against the table's vertex range up
    /// front, then the batch goes through the ordinary all-or-prefix
    /// record admission — on the wire, in the WAL and in replication an
    /// edge op *is* an update record. The ops are converted into an owned
    /// record batch first (one allocation per call); the reactor's
    /// [`submit_edge_ops_view`](Self::submit_edge_ops_view) admits the
    /// frame's records without one.
    pub fn submit_edge_ops(&self, table: u16, ops: &[EdgeOp]) -> SubmitOutcome {
        if let Err(refusal) = self.check_edges(table, ops.len(), ops.iter().copied()) {
            return refusal;
        }
        let updates: Vec<Update> = ops.iter().map(|op| op.to_update()).collect();
        self.submit(table, &updates)
    }

    /// Admits a borrowed wire-format edge-op batch — the reactor's
    /// zero-copy path for the `EdgeOps` verb.
    pub fn submit_edge_ops_view(&self, table: u16, ops: &UpdatesView<'_>) -> SubmitOutcome {
        if let Err(refusal) =
            self.check_edges(table, ops.len(), ops.iter().map(EdgeOp::from_update))
        {
            return refusal;
        }
        self.submit_view(table, ops)
    }

    /// Fails an edge batch for a table that is not a graph stream table, or
    /// with an endpoint outside its vertex range.
    fn check_edges(
        &self,
        table: u16,
        total: usize,
        mut ops: impl Iterator<Item = EdgeOp>,
    ) -> Result<(), SubmitOutcome> {
        let Some(spec) = self.config.tables.get(table as usize) else {
            return Err(SubmitOutcome::Failed(format!(
                "unknown table {table} ({} registered)",
                self.tables.len()
            )));
        };
        let vertices = match spec.stream {
            StreamKind::GraphPageRank { vertices, .. } | StreamKind::GraphWcc { vertices } => {
                vertices
            }
            _ => {
                return Err(SubmitOutcome::Failed(format!(
                    "table '{}' is not a graph stream table",
                    spec.name
                )))
            }
        };
        match ops.find(|op| op.src >= vertices || op.dst >= vertices) {
            Some(op) => {
                self.stats.record_rejects(total as u64);
                Err(SubmitOutcome::Failed(format!(
                    "edge ({}, {}) out of range for table '{}' of {vertices} vertices",
                    op.src, op.dst, spec.name
                )))
            }
            None => Ok(()),
        }
    }

    /// Reads one bucket of a window stream table (the `WindowQuery` verb):
    /// a live bucket id, the most recently retracted bucket, or `u64::MAX`
    /// for the current window aggregate.
    ///
    /// # Errors
    ///
    /// Fails on unknown tables, non-window tables, and bucket ids that are
    /// neither live nor the last retracted.
    pub fn window_query(&self, table: u16, bucket: u64) -> Result<WindowSnapshot, String> {
        let state = self
            .tables
            .get(table as usize)
            .ok_or_else(|| format!("unknown table {table}"))?
            .lock()
            .expect("table lock");
        let engine = state
            .engine()
            .ok_or_else(|| format!("table '{}' is not a stream table", state.spec().name))?;
        let TableData::I32(slots) = state.data() else {
            return Err(format!("table '{}' is not a stream table", state.spec().name));
        };
        let read = engine
            .window_query(slots, bucket)
            .map_err(|e| format!("table '{}': {e}", state.spec().name))?;
        Ok(WindowSnapshot {
            table,
            watermark: state.watermark(),
            bucket: read.bucket,
            expired: read.expired,
            values: read.values,
        })
    }

    /// Reads the `k` largest slots of a table's query region (the `TopK`
    /// verb): graph per-vertex values, window per-key aggregates, or the
    /// whole table when flat. Entries come back value-descending with ties
    /// broken by ascending slot index.
    ///
    /// # Errors
    ///
    /// Fails on unknown tables and `k` outside `[1, region]`.
    pub fn top_k(&self, table: u16, k: u32) -> Result<TopKPage, String> {
        let state = self
            .tables
            .get(table as usize)
            .ok_or_else(|| format!("unknown table {table}"))?
            .lock()
            .expect("table lock");
        let bits = state.data().to_bits();
        let (region, repr) = match state.engine() {
            Some(engine) => engine.value_region(),
            None => (
                bits.len(),
                match state.spec().kind {
                    ValueKind::F32 => ValueRepr::F32Bits,
                    ValueKind::I32 => ValueRepr::I32,
                },
            ),
        };
        if k == 0 || k as usize > region {
            return Err(format!(
                "top-k of {k} out of range for table '{}' with a query region of {region} slots",
                state.spec().name
            ));
        }
        let mut entries: Vec<(u32, u32)> =
            bits[..region].iter().enumerate().map(|(i, &b)| (i as u32, b)).collect();
        entries.sort_by(|a, b| {
            let ord = match repr {
                ValueRepr::F32Bits => f32::from_bits(b.1).total_cmp(&f32::from_bits(a.1)),
                ValueRepr::I32 => (b.1 as i32).cmp(&(a.1 as i32)),
            };
            ord.then(a.0.cmp(&b.0))
        });
        entries.truncate(k as usize);
        Ok(TopKPage { table, watermark: state.watermark(), entries })
    }

    /// Pins a consistent all-table state (the follower bootstrap): a copy
    /// of every table at one epoch boundary, plus the log position it
    /// corresponds to (generation 0, index 0 without a WAL). Runs under the
    /// tick lock so no epoch can interleave between tables; the copy is
    /// what the reactor writes to the socket, with no lock held.
    pub fn pin_state(&self) -> PinnedState {
        let epoch = self.tick_lock.lock().expect("tick lock");
        let (checkpoint, index) = epoch.wal.as_ref().map_or((0, 0), |w| (w.checkpoint(), w.head()));
        let tables = self
            .tables
            .iter()
            .enumerate()
            .map(|(t, table)| Snapshot::of(t as u16, &table.lock().expect("table lock")))
            .collect();
        PinnedState { checkpoint, index, tables }
    }

    /// Serves a follower's log fetch from `index` within `checkpoint`. The
    /// records are read back from the log file.
    ///
    /// # Errors
    ///
    /// Fails when the server has no WAL, `index` is beyond the head, or
    /// the log file cannot be read back intact.
    pub fn log_tail(
        &self,
        checkpoint: u64,
        index: u64,
        max_bytes: u32,
    ) -> Result<LogTailPage, String> {
        let epoch = self.tick_lock.lock().expect("tick lock");
        let wal = epoch
            .wal
            .as_ref()
            .ok_or("server has no WAL; start the leader with --wal-dir to replicate")?;
        if checkpoint != wal.checkpoint() {
            // The requested generation was truncated by a checkpoint (or
            // never existed): the follower must re-bootstrap.
            return Ok(LogTailPage {
                checkpoint: wal.checkpoint(),
                next_index: 0,
                head: wal.head(),
                reset: true,
                records: Vec::new(),
            });
        }
        if index > wal.head() {
            return Err(format!("log index {index} beyond head {}", wal.head()));
        }
        let records = wal
            .records_from(index, max_bytes)
            .map_err(|e| format!("read log from index {index}: {e}"))?;
        Ok(LogTailPage {
            checkpoint: wal.checkpoint(),
            next_index: index + records.len() as u64,
            head: wal.head(),
            reset: false,
            records,
        })
    }

    /// Marks the core read-only (follower mode): every submit fails and
    /// state advances only through [`apply_replica`](Self::apply_replica).
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only.store(read_only, Ordering::Release);
    }

    /// Installs bootstrap state on a fresh core: every table's contents and
    /// watermark from a leader's pinned state (follower) or a recovered
    /// checkpoint (restart).
    ///
    /// # Errors
    ///
    /// Fails if the table count mismatches or any table is not fresh.
    pub fn install_snapshot(&self, installs: Vec<(TableData, u64)>) -> Result<(), String> {
        let _epoch = self.tick_lock.lock().expect("tick lock");
        if installs.len() != self.tables.len() {
            return Err(format!(
                "snapshot has {} tables, core has {}",
                installs.len(),
                self.tables.len()
            ));
        }
        for (t, (data, watermark)) in installs.into_iter().enumerate() {
            let mut state = self.tables[t].lock().expect("table lock");
            state.install(data, watermark)?;
            self.watermarks[t].store(watermark, Ordering::Release);
        }
        Ok(())
    }

    /// Applies one replicated log record — the follower's epoch path.
    /// `Batch` records replay a logged slice; `Seal` records verify the
    /// table's watermark and state checksum against the leader's, so any
    /// divergence surfaces exactly at the epoch that introduced it.
    ///
    /// # Errors
    ///
    /// Fails on a malformed record, a non-contiguous slice, an unknown
    /// table, or a seal mismatch (divergence).
    pub fn apply_replica(&self, record: &WalRecord) -> Result<(), String> {
        self.apply_record(record)?;
        if let WalRecord::Seal { .. } = record {
            self.stats.record_follower_verified();
        }
        Ok(())
    }

    /// Applies one log record. Crash recovery replays the WAL through
    /// this and [`apply_replica`](Self::apply_replica) runs it for every
    /// fetched record, so both refuse a bad log for the same reason.
    fn apply_record(&self, record: &WalRecord) -> Result<(), String> {
        let _epoch = self.tick_lock.lock().expect("tick lock");
        let (WalRecord::Batch { table, .. } | WalRecord::Seal { table, .. }) = record;
        let t = *table as usize;
        let mut state = self
            .tables
            .get(t)
            .ok_or_else(|| {
                format!(
                    "divergence: record names unknown table {table} ({} configured) \
                     — refusing to serve diverged state",
                    self.tables.len()
                )
            })?
            .lock()
            .expect("table lock");
        match record {
            WalRecord::Batch { updates, .. } => {
                state.apply_logged(updates)?;
                self.watermarks[t].store(state.watermark(), Ordering::Release);
                self.stats.record_wal_replayed(updates.len() as u64);
            }
            WalRecord::Seal { watermark, crc, .. } => {
                if state.watermark() != *watermark {
                    return Err(format!(
                        "divergence: table {table} at watermark {}, sealed at {watermark} \
                         — refusing to serve diverged state",
                        state.watermark()
                    ));
                }
                let got = state.checksum();
                if got != *crc {
                    return Err(format!(
                        "divergence: table {table} state checksum {got:#010x} != sealed \
                         {crc:#010x} at watermark {watermark} — refusing to serve diverged state",
                    ));
                }
            }
        }
        Ok(())
    }

    /// The follower-lag gauge hook (records still to fetch).
    pub fn note_follower_lag(&self, records: u64) {
        self.stats.set_follower_lag(records);
    }

    /// The follower-bootstrap counter hook: one pinned state installed.
    pub fn note_follower_bootstrap(&self) {
        self.stats.record_follower_bootstrap();
    }

    /// Current aggregate statistics, after any epoch still folding on the
    /// pool has recorded its own.
    pub fn stats_summary(&self) -> StatsSummary {
        drop(self.tick_lock.lock().expect("tick lock"));
        let duplicates =
            self.tables.iter().map(|t| t.lock().expect("table lock").duplicates()).sum();
        self.stats.summarize(duplicates)
    }

    /// The per-core metric registry (service counters, histograms, and
    /// the duplicates collector).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Prometheus text exposition: this core's service metrics followed by
    /// the process-wide registry (SIMD instruction accounting, engine and
    /// pool counters). The two registries use disjoint name prefixes
    /// (`invector_serve_` vs `invector_simd_` / `invector_exec_`), so the
    /// concatenation is a valid single exposition. Like
    /// [`stats_summary`](Self::stats_summary) it waits out an epoch still
    /// folding on the pool.
    pub fn metrics_text(&self) -> String {
        drop(self.tick_lock.lock().expect("tick lock"));
        let mut text = invector_obs::prometheus(&self.registry);
        text.push_str(&invector_obs::prometheus(Registry::global()));
        text
    }

    /// The active epoch policy (the tuned values under `TuneMode::Auto`).
    pub fn current_policy(&self) -> EpochPolicy {
        self.tick_lock.lock().expect("tick lock").tuning.policy
    }

    /// Every policy install so far, keyed by per-table watermarks —
    /// feed it to `TuneMode::Replay` to reproduce this run's snapshots
    /// bitwise without a controller.
    pub fn policy_trace(&self) -> PolicyTrace {
        self.tick_lock.lock().expect("tick lock").tuning.trace.clone()
    }

    /// Applied watermark per table, in id order.
    pub fn watermarks(&self) -> Vec<u64> {
        self.watermarks.iter().map(|w| w.load(Ordering::Acquire)).collect()
    }

    /// Begins shutdown: admission switches to reject-with-`Draining`, then
    /// every contiguous pending update is applied. Returns the final
    /// per-table watermarks. Admission reads the flag under the staging
    /// lock the final flush takes, so every update acknowledged before
    /// the flag flipped is in that flush, and none is acknowledged after.
    pub fn begin_shutdown(&self) -> Vec<u64> {
        self.draining.store(true, Ordering::Release);
        self.flush();
        self.notify_epoch_thread();
        self.watermarks()
    }

    /// Wakes the epoch thread. Edge-triggered: only the flip of the
    /// pending flag from `false` signals the condvar, whose `notify_all`
    /// is a futex syscall on every call. A flag already set needs no
    /// signal: the epoch loop consumes the flag before it waits, so it
    /// either sees it then or is already waiting and was signalled.
    fn notify_epoch_thread(&self) {
        let mut pending = self.wake_lock.lock().expect("wake lock");
        if !*pending {
            *pending = true;
            self.wake.notify_all();
        }
    }

    /// The background epoch loop: cut batches when a quantum is ready or
    /// the interval elapses, until shutdown.
    fn epoch_loop(&self) {
        let mut pending = self.wake_lock.lock().expect("wake lock");
        loop {
            if !*pending {
                pending = self.wake.wait_timeout(pending, EPOCH_INTERVAL).expect("wake lock").0;
            }
            *pending = false;
            if self.draining.load(Ordering::Acquire) {
                return;
            }
            drop(pending);
            // Already off every client's path: the epoch runs right here.
            self.epoch(false, None);
            pending = self.wake_lock.lock().expect("wake lock");
        }
    }
}

/// A routine handed to the pool by [`ServerCore::hand_off`].
type Routine = Box<dyn FnOnce(&ServerCore, &Handoff) + Send>;

/// The hand-off queue: routines waiting for the core's runner, in tick
/// order, and whether the runner is on the pool.
#[derive(Default)]
struct Handoffs {
    pending: std::collections::VecDeque<(Arc<Handoff>, Routine)>,
    running: bool,
}

impl std::fmt::Debug for Handoffs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handoffs")
            .field("pending", &self.pending.len())
            .field("running", &self.running)
            .finish()
    }
}

/// The requester's end of an epoch handed to the pool: the routine posts
/// the cut report (or its panic) here and unparks the requester, which
/// polls through the pool's spin window (`pool::poll_window`) before it
/// parks.
#[derive(Debug)]
struct Handoff {
    requester: std::thread::Thread,
    posted: AtomicBool,
    outcome: Mutex<Option<std::thread::Result<EpochReport>>>,
}

impl Handoff {
    /// A hand-off answering the calling thread.
    fn new() -> Handoff {
        Handoff {
            requester: std::thread::current(),
            posted: AtomicBool::new(false),
            outcome: Mutex::new(None),
        }
    }

    /// Posts `outcome` to the requester. Only the first post lands; a later
    /// one gets its outcome back.
    fn post(
        &self,
        outcome: std::thread::Result<EpochReport>,
    ) -> Option<std::thread::Result<EpochReport>> {
        let mut slot = self.outcome.lock().expect("hand-off slot");
        if self.posted.load(Ordering::Acquire) {
            return Some(outcome);
        }
        *slot = Some(outcome);
        self.posted.store(true, Ordering::Release);
        drop(slot);
        self.requester.unpark();
        None
    }

    /// Waits for the post: polls within the pool's spin window, then parks.
    fn wait(&self) -> std::thread::Result<EpochReport> {
        pool::poll_window(|| self.posted.load(Ordering::Acquire));
        while !self.posted.load(Ordering::Acquire) {
            std::thread::park();
        }
        self.outcome.lock().expect("hand-off slot").take().expect("posted outcome")
    }
}

/// A live TCP server: a [`ServerCore`] plus the readiness-based reactor
/// ([`crate::reactor`]) and a background epoch thread.
#[derive(Debug)]
pub struct Server {
    core: Arc<ServerCore>,
    addr: SocketAddr,
    control: Arc<reactor::Control>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the reactor I/O threads and the epoch thread.
    ///
    /// # Errors
    ///
    /// Returns bind failures and invalid configurations.
    pub fn bind(config: ServeConfig, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let core = ServerCore::new(config).map_err(std::io::Error::other)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (mut threads, control) = reactor::spawn(Arc::clone(&core), listener)?;

        let epoch_core = Arc::clone(&core);
        let epoch = std::thread::Builder::new()
            .name("invector-serve-epoch".into())
            .spawn(move || epoch_core.epoch_loop())
            .expect("spawn epoch thread");
        threads.push(epoch);

        Ok(Server { core, addr, control, threads })
    }

    /// Binds `addr` over an existing core without starting an epoch
    /// thread — the front end for a follower, whose core is advanced by
    /// log replay rather than by local ticks.
    ///
    /// # Errors
    ///
    /// Returns bind failures.
    pub fn serve_core(core: Arc<ServerCore>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (threads, control) = reactor::spawn(Arc::clone(&core), listener)?;
        Ok(Server { core, addr, control, threads })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared core, for in-process clients.
    pub fn core(&self) -> Arc<ServerCore> {
        Arc::clone(&self.core)
    }

    /// Programmatic shutdown: drains and stops the worker threads (the
    /// same path a `Shutdown` frame takes).
    pub fn shutdown(&self) -> Vec<u64> {
        let watermarks = self.core.begin_shutdown();
        self.control.stop();
        watermarks
    }

    /// Waits for the accept and epoch threads to finish (after a
    /// `Shutdown` frame or [`shutdown`](Server::shutdown)).
    pub fn join(mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::OpKind;

    fn config() -> ServeConfig {
        ServeConfig {
            quantum: 8,
            queue_capacity: 64,
            ..ServeConfig::new(vec![
                TableSpec::i32("counts", OpKind::Add, 32),
                TableSpec::f32("mins", OpKind::Min, 16),
            ])
        }
    }

    #[test]
    fn invalid_configs_are_refused() {
        assert!(ServerCore::new(ServeConfig::new(vec![])).is_err());
        let mut c = config();
        c.quantum = 0;
        assert!(ServerCore::new(c).is_err());
        let mut c = config();
        c.tables[0].len = 0;
        assert!(ServerCore::new(c).is_err());
        // Validation runs before any table is allocated.
        let mut c = config();
        c.tables[0].len = i32::MAX as usize + 1;
        assert!(ServerCore::new(c).is_err());
    }

    #[test]
    fn tables_and_slices_the_formats_cannot_frame_are_refused() {
        // `ServerCore::new` validates before it allocates a table or opens a
        // log, so checking `validate` alone allocates nothing.
        let refused = |c: ServeConfig| c.validate().expect_err("refused");
        let mut c = config();
        c.tables[0].len = MAX_SNAPSHOT_SLOTS + 1;
        let err = refused(c.clone());
        assert_eq!(
            err,
            "table 'counts' has 1073741820 slots; a Snapshot reply carries at most 1073741819"
        );
        c.tables[0].len = MAX_SNAPSHOT_SLOTS;
        assert_eq!(c.validate(), Ok(()), "the largest table whose reply can be framed");

        let durable = || ServeConfig { wal: Some(WalOptions::new("unused")), ..config() };
        let mut c = durable();
        c.tables[1].len = 67_108_861;
        let err = refused(c.clone());
        assert_eq!(
            err,
            "table 'mins' has 67108861 slots; its checkpoint record of 268435458 bytes exceeds \
             the log's 268435456-byte record limit"
        );
        c.tables[1].len = 67_108_860;
        assert_eq!(c.validate(), Ok(()), "the largest table a checkpoint record carries");

        // A slice is at most the quantum, and at most the reorder window.
        let mut c = durable();
        (c.quantum, c.window) = (1 << 24, 1 << 30);
        let err = refused(c.clone());
        assert_eq!(
            err,
            "slices of up to 16777216 updates (quantum 16777216, reorder window 1073741824) make \
             batch records of 268435463 bytes, over the log's 268435456-byte record limit"
        );
        c.window = (1 << 24) - 1;
        assert_eq!(c.validate(), Ok(()), "the window bounds the slice");
        (c.quantum, c.window) = ((1 << 24) - 1, 1 << 30);
        assert_eq!(c.validate(), Ok(()), "the largest slice a batch record carries");
        // A replayed trace's largest quantum counts as well.
        let mut c = durable();
        c.window = 1 << 30;
        let policy = EpochPolicy::new(c.policy(), 1 << 24);
        c.tune = TuneMode::Replay(vec![TraceEntry { epoch: 3, policy, at: vec![64, 0] }]);
        assert!(refused(c.clone()).starts_with("slices of up to 16777216 updates"));
        // Without a WAL nothing is logged, so nothing bounds the slice.
        c.wal = None;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn submit_tick_snapshot_round_trip() {
        let core = ServerCore::new(config()).unwrap();
        let updates: Vec<Update> = (0..20).map(|i| Update::i32(i, (i % 32) as u32, 2)).collect();
        match core.submit(0, &updates) {
            SubmitOutcome::Accepted { accepted, watermark } => {
                assert_eq!(accepted, 20);
                assert_eq!(watermark, 0, "nothing applied before a tick");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Quantum 8: a plain tick applies 16 of 20.
        let report = core.tick(false);
        assert_eq!(report.applied, 16);
        assert_eq!(report.slices, 2);
        assert_eq!(core.snapshot(0).unwrap().watermark, 16);
        // Flush drains the partial tail.
        let report = core.flush();
        assert_eq!(report.applied, 4);
        let snap = core.snapshot(0).unwrap();
        assert_eq!(snap.watermark, 20);
        let TableData::I32(v) = &snap.data else { panic!("i32 table") };
        assert_eq!(v.iter().sum::<i32>(), 40);
        assert!(core.snapshot(7).is_err());
    }

    #[test]
    fn unknown_table_and_bad_index_fail_without_retry() {
        let core = ServerCore::new(config()).unwrap();
        assert!(matches!(core.submit(9, &[Update::i32(0, 0, 1)]), SubmitOutcome::Failed(_)));
        match core.submit(1, &[Update::f32(0, 0, 1.0), Update::f32(1, 99, 1.0)]) {
            SubmitOutcome::Failed(m) => assert!(m.contains("1 admitted"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_staging_buffer_rejects_the_suffix_with_retry_after() {
        let mut c = config();
        c.queue_capacity = 4;
        let core = ServerCore::new(c).unwrap();
        let updates: Vec<Update> = (0..10).map(|i| Update::i32(i, 0, 1)).collect();
        match core.submit(0, &updates) {
            SubmitOutcome::Rejected { accepted, retry_after_ms, reason } => {
                assert_eq!(accepted, 4);
                assert!(retry_after_ms >= 1);
                assert_eq!(reason, RejectReason::QueueFull);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Ticks free the queue; retrying the refused suffix admits it all.
        let mut rest = &updates[4..];
        while !rest.is_empty() {
            core.tick(true);
            match core.submit(0, rest) {
                SubmitOutcome::Accepted { .. } => break,
                SubmitOutcome::Rejected { accepted, .. } => rest = &rest[accepted as usize..],
                other => panic!("unexpected {other:?}"),
            }
        }
        core.flush();
        assert!(core.stats_summary().rejected >= 6);
        assert_eq!(
            core.snapshot(0).unwrap().watermark,
            10,
            "rejected updates were retried, not lost"
        );
    }

    #[test]
    fn staging_capacity_is_per_table() {
        let mut c = config();
        c.queue_capacity = 4;
        let core = ServerCore::new(c).unwrap();
        let counts: Vec<Update> = (0..4).map(|i| Update::i32(i, 0, 1)).collect();
        let mins: Vec<Update> = (0..6).map(|i| Update::f32(i, 0, 1.0)).collect();
        assert!(matches!(core.submit(0, &counts), SubmitOutcome::Accepted { accepted: 4, .. }));
        // A full `counts` buffer does not throttle `mins`, which has its own.
        match core.submit(1, &mins) {
            SubmitOutcome::Rejected { accepted: 4, reason: RejectReason::QueueFull, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shutdown_never_acks_an_update_it_does_not_apply() {
        // A submitter races `begin_shutdown`. Every update acknowledged
        // before the refusal must be in the final drain: Σ accepted equals
        // the final watermark, round after round.
        for round in 0..1000u64 {
            let core = ServerCore::new(config()).unwrap();
            let start = Arc::new(std::sync::Barrier::new(2));
            let submitter = {
                let core = Arc::clone(&core);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut next = 0u64;
                    loop {
                        let batch: Vec<Update> =
                            (next..next + 3).map(|s| Update::i32(s, (s % 32) as u32, 1)).collect();
                        match core.submit(0, &batch) {
                            SubmitOutcome::Accepted { accepted, .. } => next += u64::from(accepted),
                            SubmitOutcome::Rejected { accepted, reason, .. } => {
                                next += u64::from(accepted);
                                if reason == RejectReason::Draining {
                                    return next;
                                }
                                core.tick(false);
                            }
                            SubmitOutcome::Failed(m) => panic!("round {round}: {m}"),
                        }
                    }
                })
            };
            start.wait();
            if round % 2 == 1 {
                std::thread::yield_now();
            }
            let watermarks = core.begin_shutdown();
            let accepted = submitter.join().expect("submitter thread");
            assert_eq!(watermarks[0], accepted, "round {round}: acked updates lost in shutdown");
        }
    }

    #[test]
    fn reorder_window_bounds_how_far_ahead_clients_may_run() {
        let mut c = config();
        c.window = 16;
        let core = ServerCore::new(c).unwrap();
        match core.submit(0, &[Update::i32(99, 0, 1)]) {
            SubmitOutcome::Rejected { reason, .. } => {
                assert_eq!(reason, RejectReason::WindowExceeded);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn draining_server_rejects_new_updates_but_serves_snapshots() {
        let core = ServerCore::new(config()).unwrap();
        core.submit(0, &[Update::i32(0, 5, 7)]);
        let watermarks = core.begin_shutdown();
        assert_eq!(watermarks, vec![1, 0]);
        match core.submit(0, &[Update::i32(1, 5, 7)]) {
            SubmitOutcome::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Draining),
            other => panic!("unexpected {other:?}"),
        }
        let TableData::I32(v) = &core.snapshot(0).unwrap().data else { panic!("i32") };
        assert_eq!(v[5], 7);
    }

    #[test]
    fn stats_track_applied_occupancy_and_conflict_depth() {
        let core = ServerCore::new(config()).unwrap();
        // All-conflict stream: every update hits slot 0.
        let updates: Vec<Update> = (0..16).map(|i| Update::i32(i, 0, 1)).collect();
        core.submit(0, &updates);
        core.tick(false);
        let s = core.stats_summary();
        assert_eq!(s.applied, 16);
        assert_eq!(s.slices, 2);
        assert!((s.occupancy - 1.0).abs() < 1e-9);
        assert!(s.conflict_depth > 0.0, "all-conflict batches must show depth");
        assert!(s.updates_per_sec > 0.0);
    }

    #[test]
    fn metrics_text_exposes_service_series() {
        let core = ServerCore::new(config()).unwrap();
        let updates: Vec<Update> = (0..16).map(|i| Update::i32(i, 0, 1)).collect();
        core.submit(0, &updates);
        core.tick(false);
        let text = core.metrics_text();
        for series in [
            "invector_serve_epochs_total",
            "invector_serve_applied_total",
            "invector_serve_conflict_depth",
            "invector_serve_epoch_latency_us",
            "invector_serve_utilization_ratio",
            "invector_serve_duplicates_total",
        ] {
            assert!(text.contains(series), "exposition missing {series}:\n{text}");
        }
        assert!(text.contains("invector_serve_epochs_total 1"), "{text}");
        assert!(text.contains("invector_serve_applied_total 16"), "{text}");
    }

    /// The staging and reorder columns carry value bits as `u32` and the
    /// kernel reads them in place as `f32` / `i32`. Bit patterns at the
    /// edges of both types — NaN payloads (quiet, signalling, negative),
    /// signed zeros, subnormals, infinities, the integer extremes — must
    /// come out of a flush exactly as a serial fold of the same stream
    /// produces them. Each edge value gets a slot of its own, then the
    /// values that fold to one answer in any order (no NaN, no opposite
    /// infinities under add, no ±0 ties under min/max) meet again on a
    /// shared slot, so the comparison isolates the view from
    /// reassociation.
    #[test]
    fn edge_bit_patterns_fold_like_a_serial_loop() {
        use invector_core::ops::{Max, Min, ReduceOp, Sum};
        use invector_core::serial_accumulate;

        let f32_edges: Vec<f32> = [
            0x7fc0_1234u32, // quiet NaN with a payload
            0x7f80_0001,    // signalling NaN
            0xffc0_0007,    // negative quiet NaN
            0x8000_0000,    // -0.0
            0x0000_0000,    // +0.0
            0x0000_0001,    // smallest subnormal
            0x007f_ffff,    // largest subnormal
            0x8000_0003,    // negative subnormal
            0x7f80_0000,    // +inf
            0xff80_0000,    // -inf
            0x7f7f_ffff,    // f32::MAX
            0x0080_0000,    // f32::MIN_POSITIVE
        ]
        .into_iter()
        .map(f32::from_bits)
        .collect();
        let i32_edges = [i32::MIN, i32::MAX, -1, 0, 1, i32::MIN + 1, i32::MAX - 1];

        /// One update per edge value on its own slot, then the `shared`
        /// ones three times over on the slot behind them: conflicts inside
        /// the vector.
        fn stream<T: Copy>(edges: &[T], shared: impl Fn(&T) -> bool) -> Vec<(u32, T)> {
            let mut out: Vec<(u32, T)> =
                edges.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect();
            let slot = edges.len() as u32;
            for _ in 0..3 {
                out.extend(edges.iter().filter(|v| shared(v)).map(|&v| (slot, v)));
            }
            out
        }

        fn check<T, Op>(
            spec: TableSpec,
            backend: BackendChoice,
            stream: &[(u32, T)],
            to_bits: fn(T) -> u32,
        ) where
            T: invector_simd::SimdElement,
            Op: ReduceOp<T>,
        {
            let len = spec.len;
            let core = ServerCore::new(ServeConfig {
                quantum: 4,
                backend,
                ..ServeConfig::new(vec![spec.clone()])
            })
            .unwrap();
            let updates: Vec<Update> = stream
                .iter()
                .enumerate()
                .map(|(seq, &(idx, v))| Update { seq: seq as u64, idx, bits: to_bits(v) })
                .collect();
            assert!(matches!(core.submit(0, &updates), SubmitOutcome::Accepted { .. }));
            core.flush();
            let mut want = vec![Op::identity(); len];
            let idx: Vec<i32> = stream.iter().map(|&(i, _)| i as i32).collect();
            let vals: Vec<T> = stream.iter().map(|&(_, v)| v).collect();
            serial_accumulate::<T, Op>(&mut want, &idx, &vals);
            let want: Vec<u32> = want.into_iter().map(to_bits).collect();
            let got = core.snapshot(0).unwrap().bits();
            assert_eq!(got, want, "{} {} on {backend:?}", spec.name, spec.op.name());
        }

        let host = BackendChoice::Auto;
        let f32_len = f32_edges.len() + 1;
        let adds = stream(&f32_edges, |v| v.is_finite() && v.abs() < 1.0);
        let add = TableSpec::f32("f32-add", OpKind::Add, f32_len);
        check::<f32, Sum>(add, host, &adds, f32::to_bits);
        let ordered = stream(&f32_edges, |v| !v.is_nan() && *v != 0.0);
        let min = TableSpec::f32("f32-min", OpKind::Min, f32_len);
        check::<f32, Min>(min, host, &ordered, f32::to_bits);
        let max = TableSpec::f32("f32-max", OpKind::Max, f32_len);
        check::<f32, Max>(max, host, &ordered, f32::to_bits);

        let len = i32_edges.len() + 1;
        let ints = stream(&i32_edges, |_| true);
        let bits = |v: i32| v as u32;
        check::<i32, Sum>(TableSpec::i32("i32-add", OpKind::Add, len), host, &ints, bits);
        check::<i32, Min>(TableSpec::i32("i32-min", OpKind::Min, len), host, &ints, bits);
        check::<i32, Max>(TableSpec::i32("i32-max", OpKind::Max, len), host, &ints, bits);
    }

    /// A routine that panics before its cut reaches the requester still
    /// waiting for it: the requester re-raises the panic instead of
    /// hanging, and the core, whose locks the routine never took, serves on.
    #[test]
    fn a_routine_panicking_before_its_cut_reraises_on_the_requester() {
        let core = ServerCore::new(config()).unwrap();
        let routine = |_: &ServerCore, _: &Handoff| panic!("routine exploded");
        let raised =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| core.hand_off(routine)))
                .expect_err("the requester re-raises the routine's panic");
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"routine exploded"));
        let updates: Vec<Update> = (0..16).map(|i| Update::i32(i, 3, 1)).collect();
        assert!(matches!(core.submit(0, &updates), SubmitOutcome::Accepted { .. }));
        assert_eq!(core.tick(false).applied, 16);
        assert_eq!(core.snapshot(0).unwrap().watermark, 16);
    }

    /// A routine that panics after releasing its requester, under the tick
    /// lock as an epoch's fold would: the next flush re-raises that panic,
    /// and the core stays fail-stop after it.
    #[test]
    fn a_routine_panicking_after_its_cut_reraises_on_the_next_flush() {
        let core = ServerCore::new(config()).unwrap();
        let report = core.hand_off(|core, handoff| {
            let _epoch = core.tick_lock.lock().expect("tick lock");
            handoff.post(Ok(EpochReport { applied: 7, ..EpochReport::default() }));
            panic!("fold exploded");
        });
        assert_eq!(report.applied, 7, "the requester got the cut");
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| core.flush()))
            .expect_err("the next flush re-raises the fold's panic");
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"fold exploded"));
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| core.tick(false)));
        assert!(again.is_err(), "a failed epoch leaves the core fail-stop");
    }

    /// The epoch a tick hands to the pool holds the core: dropping the last
    /// outside handle mid-fold frees the core only once the fold is done.
    #[test]
    fn dropping_the_last_handle_mid_fold_frees_the_core_after_the_fold() {
        let core = ServerCore::new(ServeConfig {
            quantum: 4096,
            queue_capacity: 1 << 16,
            ..ServeConfig::new(vec![TableSpec::i32("counts", OpKind::Add, 4096)])
        })
        .unwrap();
        let updates: Vec<Update> =
            (0..1u64 << 16).map(|s| Update::i32(s, (s * 7 % 4096) as u32, 1)).collect();
        assert!(matches!(core.submit(0, &updates), SubmitOutcome::Accepted { .. }));
        let applied = core.registry().counter("invector_serve_applied_total", "");
        let freed = Arc::downgrade(&core);
        assert_eq!(core.tick(false).applied, 1 << 16, "the cut takes every quantum");
        drop(core);
        let deadline = Instant::now() + Duration::from_secs(30);
        while freed.strong_count() > 0 {
            assert!(Instant::now() < deadline, "the core was never freed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(applied.value(), 1 << 16, "the fold completed before the core went");
    }

    #[test]
    fn metrics_text_is_never_poisoned_by_a_dropped_core() {
        // The duplicates collector holds a Weak to the core; after the core
        // drops, a scrape of the global registry must not panic.
        let core = ServerCore::new(config()).unwrap();
        let registry = core.registry().clone();
        drop(core);
        let _ = invector_obs::prometheus(&registry);
    }
}
