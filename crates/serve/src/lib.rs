//! `invector-serve`: a micro-batching update-stream service over the
//! in-vector reduction kernels.
//!
//! The batch tooling in this workspace answers "how fast can one kernel
//! chew through one dataset". This crate answers the serving-side question:
//! keep datasets resident, accept streams of associative updates from many
//! concurrent clients, and fold them in through the same conflict-free
//! SIMD engine — without giving up reproducibility.
//!
//! # Architecture
//!
//! ```text
//! clients ──► admission ──► staging ───────► reorder buffer ──► epoch
//! (TCP /      (bounded,     (key/value       (key/value         executor
//!  in-proc)    reject +      columns per      columns in seq     (quantum
//!              retry-after)  table, swapped   order per table)   slices, as
//!                            out per epoch)                      borrowed
//!                                                                columns →
//!                                                                exec engine)
//! ```
//!
//! Three decisions carry the design:
//!
//! 1. **Replicated-log ordering.** Every update carries a producer-assigned
//!    per-table sequence number; the server folds updates in contiguous
//!    `seq` order no matter which connection delivered them or how their
//!    batches interleaved in staging.
//! 2. **Exact-quantum batch cuts.** The epoch executor only ever applies
//!    slices of exactly `quantum` updates; partial tails wait for an
//!    explicit `Flush` or the shutdown drain. Batch boundaries therefore
//!    depend only on stream content, so replays see identical batches and
//!    the engine produces bitwise-identical tables —
//!    the snapshot determinism contract.
//! 3. **Reject, never block or drop.** Full staging buffers and reorder
//!    windows refuse admission with a retry-after hint; an admitted update
//!    is never lost and a refused one is the client's to resubmit.
//!
//! # Example
//!
//! ```
//! use invector_serve::{
//!     LocalClient, OpKind, ServeClient, ServeConfig, ServerCore, TableSpec, Update,
//! };
//!
//! let mut config = ServeConfig::new(vec![TableSpec::i32("degree", OpKind::Add, 1 << 10)]);
//! config.quantum = 256;
//! let core = ServerCore::new(config).unwrap();
//! let mut client = LocalClient::new(core);
//!
//! let updates: Vec<Update> =
//!     (0..1000).map(|seq| Update::i32(seq, (seq % 1024) as u32, 1)).collect();
//! client.submit_all(0, &updates).unwrap();
//! client.flush().unwrap();
//! assert_eq!(client.snapshot(0).unwrap().watermark, 1000);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod epoch;
pub mod follower;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod table;
pub mod wal;

pub use client::{LocalClient, ServeClient, TcpClient};
pub use epoch::{EpochReport, ReorderBuffer, ServeStats};
pub use follower::{FollowStatus, Follower};
pub use invector_core::tune::{EpochPolicy, PolicyTrace, TraceEntry, TuneConfig};
pub use invector_replog::SyncPolicy;
pub use invector_streamkit::{AggOp, StreamKind};
pub use protocol::{
    snapshot_checksum, RejectReason, RequestView, StatsSummary, Update, UpdatesView,
    PROTOCOL_VERSION,
};
pub use reactor::{ReactorKind, Ring};
pub use server::{
    LogTailPage, PinnedState, ServeConfig, Server, ServerCore, Snapshot, SubmitOutcome, TopKPage,
    TuneMode, WindowSnapshot,
};
pub use table::{OpKind, SliceReport, TableData, TableSpec, ValueKind};
pub use wal::{ManifestEntry, WalOptions, WalRecord, WalState};
