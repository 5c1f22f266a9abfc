//! The wire protocol: length-prefixed binary frames over any byte stream.
//!
//! Every frame is `u32` little-endian body length followed by the body;
//! the first body byte is the opcode. Values travel as raw 32-bit patterns
//! (`f32::to_bits` / `i32 as u32`), so a snapshot round-trips bitwise —
//! the determinism contract of the serving layer is checkable over the
//! wire, not just in process.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! frame    := len:u32 body
//! body     := opcode:u8 payload
//!
//! requests
//!   0x01 Hello     version:u16
//!   0x02 Update    table:u16 count:u32 count x (seq:u64 idx:u32 bits:u32)
//!   0x03 Flush
//!   0x04 Snapshot  table:u16
//!   0x05 Stats
//!   0x06 Shutdown
//!   0x07 Metrics
//!   0x08 SnapshotBegin
//!   0x09 SnapshotChunk table:u16 chunk:u32
//!   0x0A LogTail   checkpoint:u64 index:u64 max_bytes:u32
//!   0x0B EdgeOps   table:u16 count:u32 count x (seq:u64 src:u32 dstflag:u32)
//!                  (dstflag bit 31 set = delete, low 31 bits = dst vertex)
//!   0x0C WindowQuery table:u16 bucket:u64
//!   0x0D TopK      table:u16 k:u32
//!
//! replies
//!   0x81 Hello     version:u16 shards:u16 quantum:u32 tables:u16
//!                  tables x (kind:u8 op:u8 len:u32 stream name_len:u16 name:utf8)
//!                  stream := 0x00                                  (flat)
//!                          | 0x01 vertices:u32 iters:u32           (pagerank)
//!                          | 0x02 vertices:u32                     (wcc)
//!                          | 0x03 keys:u32 buckets:u32 width:u32 timed:u8
//!   0x82 Ack       accepted:u32 watermark:u64
//!   0x83 Reject    accepted:u32 retry_after_ms:u32 reason:u8
//!   0x84 Snapshot  table:u16 watermark:u64 checksum:u32 len:u32 len x bits:u32
//!   0x85 Stats     5 x u64 then 5 x f64 (see [`StatsSummary`])
//!   0x86 Bye       tables:u16 tables x watermark:u64
//!   0x87 Metrics   text_len:u32 text:utf8
//!   0x88 SnapshotMeta checkpoint:u64 index:u64 chunk_values:u32 tables:u16
//!                  tables x (table:u16 watermark:u64 len:u64 checksum:u32)
//!   0x89 SnapshotChunk table:u16 chunk:u32 count:u32 count x bits:u32
//!   0x8A LogRecords checkpoint:u64 next_index:u64 head:u64 reset:u8
//!                  count:u32 count x (len:u32 bytes)
//!   0x8B Window    table:u16 watermark:u64 bucket:u64 expired:u64
//!                  count:u32 count x bits:u32
//!   0x8C TopK      table:u16 watermark:u64 count:u32
//!                  count x (idx:u32 bits:u32)
//!   0xFF Error     msg_len:u16 msg:utf8
//! ```
//!
//! The chunked-snapshot verbs (`SnapshotBegin` + `SnapshotChunk`) pin a
//! consistent all-table state server-side and stream it in bounded frames,
//! so a table of any size transfers without ever approaching
//! [`MAX_FRAME_LEN`]; `LogTail` streams the admitted-batch log from the
//! pinned position — together they are the follower bootstrap path.

use std::io::{Read, Write};

use invector_streamkit::StreamKind;

use crate::table::{OpKind, TableSpec, ValueKind};

/// Protocol version spoken by this build. Bumped on any frame layout
/// change; the server rejects mismatched clients at `Hello`. Version 2
/// added the `Snapshot` checksum field and the chunked-snapshot /
/// log-tail verbs; version 3 added stream table kinds to the `Hello`
/// table registry and the edge-op / window-query / top-k verbs.
pub const PROTOCOL_VERSION: u16 = 3;

/// Upper bound on one frame body, protecting the decoder from hostile or
/// corrupt length prefixes. A single-frame snapshot is bounded by this
/// (64 MiB covers a 16M-slot table); larger tables transfer through the
/// chunked verbs, which never exceed [`SNAPSHOT_CHUNK_VALUES`] values per
/// frame.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Values per `SnapshotChunk` frame (4 MiB of payload): the fixed chunk
/// geometry both sides derive chunk counts from. The last chunk of a table
/// is the only one allowed to be smaller.
pub const SNAPSHOT_CHUNK_VALUES: usize = 1 << 20;

/// Checksum of a snapshot value stream: CRC-32 over the slot bit patterns
/// in slot order, little-endian — the integrity check carried by
/// `Reply::Snapshot` and verified chunk-assembled transfers.
pub fn snapshot_checksum(values: &[u32]) -> u32 {
    let mut crc = invector_replog::Crc32::new();
    for &v in values {
        crc.update(&v.to_le_bytes());
    }
    crc.finish()
}

/// Reassembles one table's value stream from `SnapshotChunk` replies.
///
/// Chunks must arrive strictly in order (`0, 1, 2, …`): the assembler
/// rejects an out-of-order or repeated chunk id immediately rather than
/// buffering holes, so a scrambled transfer fails deterministically at the
/// first wrong frame. [`SnapshotAssembler::finish`] then verifies the total
/// length and the checksum announced in `SnapshotMeta`, making a chunked
/// transfer exactly as trustworthy as a single checksummed frame.
#[derive(Debug)]
pub struct SnapshotAssembler {
    table: u16,
    expected_len: usize,
    expected_checksum: u32,
    chunk_values: usize,
    next_chunk: u32,
    values: Vec<u32>,
}

impl SnapshotAssembler {
    /// Starts assembly for `table` from its `SnapshotMeta` row and the
    /// transfer's chunk geometry.
    pub fn new(table: u16, len: u64, checksum: u32, chunk_values: u32) -> SnapshotAssembler {
        SnapshotAssembler {
            table,
            expected_len: len as usize,
            expected_checksum: checksum,
            chunk_values: (chunk_values as usize).max(1),
            next_chunk: 0,
            values: Vec::new(),
        }
    }

    /// Number of chunks the full transfer takes (an empty table is a
    /// zero-chunk transfer).
    pub fn chunk_count(&self) -> u32 {
        (self.expected_len.div_ceil(self.chunk_values)) as u32
    }

    /// The next chunk id [`push`](Self::push) will accept.
    pub fn next_chunk(&self) -> u32 {
        self.next_chunk
    }

    /// True once every chunk has been pushed.
    pub fn complete(&self) -> bool {
        self.next_chunk == self.chunk_count()
    }

    /// Accepts the next chunk in sequence.
    ///
    /// # Errors
    ///
    /// Rejects a chunk for the wrong table, an out-of-order or repeated
    /// chunk id, a full-size chunk that is not exactly `chunk_values` long,
    /// or a final chunk that overruns the announced length.
    pub fn push(&mut self, table: u16, chunk: u32, values: &[u32]) -> Result<(), ProtoError> {
        if table != self.table {
            return Err(ProtoError::Malformed(format!(
                "snapshot chunk for table {table}, expected table {}",
                self.table
            )));
        }
        if chunk != self.next_chunk {
            return Err(ProtoError::Malformed(format!(
                "out-of-order snapshot chunk {chunk}, expected {}",
                self.next_chunk
            )));
        }
        if chunk >= self.chunk_count() {
            return Err(ProtoError::Malformed(format!(
                "snapshot chunk {chunk} beyond the {}-chunk transfer",
                self.chunk_count()
            )));
        }
        let expected = if (chunk + 1) == self.chunk_count() {
            self.expected_len - self.chunk_values * chunk as usize
        } else {
            self.chunk_values
        };
        if values.len() != expected {
            return Err(ProtoError::Malformed(format!(
                "snapshot chunk {chunk} carries {} values, expected {expected}",
                values.len()
            )));
        }
        self.values.extend_from_slice(values);
        self.next_chunk += 1;
        Ok(())
    }

    /// Verifies completeness and checksum, yielding the value stream.
    ///
    /// # Errors
    ///
    /// Fails if chunks are missing or the assembled stream's checksum does
    /// not match the one announced in `SnapshotMeta`.
    pub fn finish(self) -> Result<Vec<u32>, ProtoError> {
        if !self.complete() {
            return Err(ProtoError::Malformed(format!(
                "snapshot transfer incomplete: {} of {} chunks",
                self.next_chunk,
                self.chunk_count()
            )));
        }
        debug_assert_eq!(self.values.len(), self.expected_len);
        let got = snapshot_checksum(&self.values);
        if got != self.expected_checksum {
            return Err(ProtoError::Malformed(format!(
                "snapshot checksum mismatch for table {}: computed {got:#010x}, announced {:#010x}",
                self.table, self.expected_checksum
            )));
        }
        Ok(self.values)
    }
}

/// One associative update: apply `value` (a raw 32-bit pattern) to
/// `target[idx]` with the table's operator, ordered by `seq`.
///
/// `seq` is assigned by the producer of the logical stream and must be
/// unique per table; the server applies updates in contiguous `seq` order
/// regardless of which connection delivered them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Update {
    /// Position in the logical update stream (per table, starting at 0).
    pub seq: u64,
    /// Target slot.
    pub idx: u32,
    /// Value bit pattern (`f32::to_bits` for float tables).
    pub bits: u32,
}

impl Update {
    /// An update carrying an `f32` value.
    pub fn f32(seq: u64, idx: u32, value: f32) -> Update {
        Update { seq, idx, bits: value.to_bits() }
    }

    /// An update carrying an `i32` value.
    pub fn i32(seq: u64, idx: u32, value: i32) -> Update {
        Update { seq, idx, bits: value as u32 }
    }
}

/// One edge mutation for a graph stream table. On the wire an edge op is
/// exactly an [`Update`] record (`idx` = source vertex, `bits` = destination
/// with bit 31 flagging deletion), so edge streams share the update codec,
/// the WAL batch layout and the replication path unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOp {
    /// Position in the table's logical stream.
    pub seq: u64,
    /// Source vertex.
    pub src: u32,
    /// Destination vertex (must be below 2^31; bit 31 is the delete flag).
    pub dst: u32,
    /// `true` to insert the edge, `false` to delete it.
    pub insert: bool,
}

impl EdgeOp {
    /// An edge insertion.
    pub fn insert(seq: u64, src: u32, dst: u32) -> EdgeOp {
        EdgeOp { seq, src, dst, insert: true }
    }

    /// An edge deletion.
    pub fn delete(seq: u64, src: u32, dst: u32) -> EdgeOp {
        EdgeOp { seq, src, dst, insert: false }
    }

    /// The op as the update record it travels (and is logged) as.
    pub fn to_update(self) -> Update {
        let (idx, bits) = invector_streamkit::edge_event(
            self.src,
            self.dst & !invector_streamkit::DELETE_BIT,
            self.insert,
        );
        Update { seq: self.seq, idx, bits }
    }

    /// Decodes an update record back into an edge op.
    pub fn from_update(u: Update) -> EdgeOp {
        EdgeOp {
            seq: u.seq,
            src: u.idx,
            dst: u.bits & !invector_streamkit::DELETE_BIT,
            insert: u.bits & invector_streamkit::DELETE_BIT == 0,
        }
    }
}

/// Why an update batch was (partially) refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The table's staging buffer is at capacity — back off and retry.
    QueueFull,
    /// The update's `seq` is beyond the reorder window — earlier stream
    /// positions must drain first.
    WindowExceeded,
    /// The server is draining for shutdown and admits nothing new.
    Draining,
}

impl RejectReason {
    fn to_byte(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::WindowExceeded => 1,
            RejectReason::Draining => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => RejectReason::QueueFull,
            1 => RejectReason::WindowExceeded,
            2 => RejectReason::Draining,
            other => return Err(ProtoError::Malformed(format!("unknown reject reason {other}"))),
        })
    }
}

/// Aggregate service statistics, as served by a `Stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSummary {
    /// Epochs executed (ticks that applied at least one slice).
    pub epochs: u64,
    /// Batch slices executed across all epochs.
    pub slices: u64,
    /// Updates applied to tables.
    pub applied: u64,
    /// Updates refused admission (client must retry).
    pub rejected: u64,
    /// Duplicate sequence numbers dropped.
    pub duplicates: u64,
    /// Mean batch occupancy: applied updates per slice relative to the
    /// epoch quantum, in `[0, 1]`.
    pub occupancy: f64,
    /// Mean in-vector conflict depth (D1) across applied slices.
    pub conflict_depth: f64,
    /// Applied updates per second of epoch execution time.
    pub updates_per_sec: f64,
    /// Median epoch latency, microseconds.
    pub p50_epoch_us: f64,
    /// 99th-percentile epoch latency, microseconds.
    pub p99_epoch_us: f64,
}

/// Client-to-server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake; must be the first frame on a connection.
    Hello {
        /// Client protocol version.
        version: u16,
    },
    /// A batch of updates for one table.
    Update {
        /// Table id (position in the server's table list).
        table: u16,
        /// The updates, in the client's stream order.
        updates: Vec<Update>,
    },
    /// Force an epoch that drains every contiguous pending update,
    /// including a final partial batch.
    Flush,
    /// Request the current values of one table.
    Snapshot {
        /// Table id.
        table: u16,
    },
    /// Request aggregate service statistics.
    Stats,
    /// Drain everything and stop the server.
    Shutdown,
    /// Request the Prometheus text exposition of the server's metric
    /// registries (additive in protocol version 1).
    Metrics,
    /// Pin a consistent all-table snapshot plus the matching log position
    /// for chunked transfer; answered by `SnapshotMeta`. Re-pinning
    /// releases the previous pin on the same connection.
    SnapshotBegin,
    /// Fetch one chunk of a pinned table ([`SNAPSHOT_CHUNK_VALUES`] values
    /// per chunk, the final chunk possibly smaller).
    SnapshotChunk {
        /// Table id.
        table: u16,
        /// Zero-based chunk index.
        chunk: u32,
    },
    /// Stream admitted-batch log records from `(checkpoint, index)`,
    /// bounded by `max_bytes` of payload per reply.
    LogTail {
        /// Checkpoint epoch the index counts from.
        checkpoint: u64,
        /// Record index within the checkpoint interval.
        index: u64,
        /// Soft payload budget for the reply (at least one record is
        /// returned when available).
        max_bytes: u32,
    },
    /// A batch of edge insertions/deletions for a graph stream table.
    EdgeOps {
        /// Table id (must be a graph stream table).
        table: u16,
        /// The edge ops, in the client's stream order.
        ops: Vec<EdgeOp>,
    },
    /// Read a window table's per-key aggregates: a live bucket id, the most
    /// recently retracted bucket, or `u64::MAX` for the current window.
    WindowQuery {
        /// Table id (must be a window stream table).
        table: u16,
        /// Bucket id to read.
        bucket: u64,
    },
    /// Read the `k` largest slots of a table's query region (graph values,
    /// window aggregates, or the whole table when flat).
    TopK {
        /// Table id.
        table: u16,
        /// Number of entries requested; must be in `[1, region]`.
        k: u32,
    },
}

/// Server-to-client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Handshake answer: server configuration and table registry.
    Hello {
        /// Server protocol version.
        version: u16,
        /// The server's `ServeConfig::shards`: inert since admission
        /// stages per table, kept so the v2 wire format stays unchanged.
        shards: u16,
        /// Epoch batch quantum.
        quantum: u32,
        /// Registered tables, in id order.
        tables: Vec<TableSpec>,
    },
    /// Whole batch admitted.
    Ack {
        /// Updates admitted (the full batch).
        accepted: u32,
        /// The table's applied watermark at reply time.
        watermark: u64,
    },
    /// Batch admitted only up to `accepted`; retry the rest later.
    Reject {
        /// Updates admitted before the refusal point.
        accepted: u32,
        /// Suggested client backoff.
        retry_after_ms: u32,
        /// Why admission stopped.
        reason: RejectReason,
    },
    /// One table's values.
    Snapshot {
        /// Table id.
        table: u16,
        /// Stream positions applied (`seq < watermark` are folded in).
        watermark: u64,
        /// [`snapshot_checksum`] of `values`, computed server-side under
        /// the table lock — clients verify it after decode, so transport
        /// or server-memory corruption is caught end-to-end.
        checksum: u32,
        /// Value bit patterns, one per slot.
        values: Vec<u32>,
    },
    /// Aggregate statistics.
    Stats(StatsSummary),
    /// Prometheus text exposition of the server's metric registries.
    Metrics(String),
    /// Shutdown acknowledged; final per-table watermarks after the drain.
    Bye {
        /// Applied watermark per table, in id order.
        watermarks: Vec<u64>,
    },
    /// Answer to `SnapshotBegin`: the pinned state's geometry.
    SnapshotMeta {
        /// Checkpoint epoch of the pinned log position.
        checkpoint: u64,
        /// Record index of the pinned log position (the first record a
        /// tail from this pin should fetch).
        index: u64,
        /// Chunk geometry the server will answer `SnapshotChunk` with.
        chunk_values: u32,
        /// Per-table geometry of the pinned snapshot, in id order.
        tables: Vec<SnapshotMetaTable>,
    },
    /// One chunk of a pinned table's value stream.
    SnapshotChunk {
        /// Table id.
        table: u16,
        /// Zero-based chunk index.
        chunk: u32,
        /// Value bit patterns of this chunk, in slot order.
        values: Vec<u32>,
    },
    /// Answer to `LogTail`: admitted-batch log records from the requested
    /// position.
    LogRecords {
        /// Current checkpoint epoch server-side.
        checkpoint: u64,
        /// Index of the record after the last one returned — the next
        /// `LogTail` position.
        next_index: u64,
        /// Records currently in the log (the tail head); `head -
        /// next_index` is the follower's lag.
        head: u64,
        /// `true` when the requested position predates the current
        /// checkpoint interval (the log was truncated): the records are
        /// empty and the follower must re-bootstrap from a fresh pin.
        reset: bool,
        /// Raw record payloads, in log order (empty when `reset`).
        records: Vec<Vec<u8>>,
    },
    /// Answer to `WindowQuery`: one bucket's per-key aggregates.
    Window {
        /// Table id.
        table: u16,
        /// The table's applied watermark at reply time.
        watermark: u64,
        /// The bucket the values were read from (the currently open bucket
        /// id when `u64::MAX` was queried).
        bucket: u64,
        /// Lifetime count of expired (retracted) buckets.
        expired: u64,
        /// Per-key aggregate bit patterns.
        values: Vec<u32>,
    },
    /// Answer to `TopK`: the largest slots of the query region, value
    /// descending, index ascending on ties.
    TopK {
        /// Table id.
        table: u16,
        /// The table's applied watermark at reply time.
        watermark: u64,
        /// `(slot index, value bits)` pairs.
        entries: Vec<(u32, u32)>,
    },
    /// The request could not be served.
    Error(String),
}

/// One table's entry in a `SnapshotMeta` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMetaTable {
    /// Table id.
    pub table: u16,
    /// Applied watermark of the pinned state.
    pub watermark: u64,
    /// Slot count (chunk count is `len.div_ceil(chunk_values)`).
    pub len: u64,
    /// [`snapshot_checksum`] of the table's full value stream; verified
    /// after chunk reassembly.
    pub checksum: u32,
}

/// Decode/transport failure.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying stream failure.
    Io(std::io::Error),
    /// Structurally invalid frame.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// --- encoding helpers ------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over one frame body (also used by
/// the serve WAL record codec, which shares this module's wire layouts).
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.pos + n > self.buf.len() {
            return Err(ProtoError::Malformed(format!(
                "frame truncated: wanted {n} bytes at offset {}, body is {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn finish(self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(ProtoError::Malformed(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// A borrowed view of an `Update` batch, straight over the wire bytes.
///
/// The reactor's zero-copy decode path hands the 16-byte-per-update
/// payload region of an `Update` frame to admission without ever copying
/// it into an intermediate `Vec<Update>`: each update is materialized
/// lazily, one register-sized record at a time, as the admission loop
/// walks the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdatesView<'a> {
    bytes: &'a [u8],
}

/// Wire size of one encoded update (`seq:u64 idx:u32 bits:u32`).
pub const UPDATE_WIRE_LEN: usize = 16;

/// Encodes a batch of updates in wire order (`seq:u64 idx:u32 bits:u32`
/// per record) — the payload layout [`UpdatesView`] reads back. Shared by
/// the `Update` request codec and the WAL batch-record codec, so log
/// replay and wire replay decode through the same bytes.
pub fn encode_updates(out: &mut Vec<u8>, updates: &[Update]) {
    out.reserve(UPDATE_WIRE_LEN * updates.len());
    for u in updates {
        put_u64(out, u.seq);
        put_u32(out, u.idx);
        put_u32(out, u.bits);
    }
}

impl<'a> UpdatesView<'a> {
    /// Wraps a payload region; `bytes.len()` must be a multiple of
    /// [`UPDATE_WIRE_LEN`].
    fn new(bytes: &'a [u8]) -> UpdatesView<'a> {
        debug_assert_eq!(bytes.len() % UPDATE_WIRE_LEN, 0);
        UpdatesView { bytes }
    }

    /// Wraps an encoded update region (the [`encode_updates`] layout).
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] unless `bytes.len()` is a
    /// multiple of [`UPDATE_WIRE_LEN`].
    pub fn over(bytes: &'a [u8]) -> Result<UpdatesView<'a>, ProtoError> {
        if !bytes.len().is_multiple_of(UPDATE_WIRE_LEN) {
            return Err(ProtoError::Malformed(format!(
                "update region of {} bytes is not a whole number of {UPDATE_WIRE_LEN}-byte records",
                bytes.len()
            )));
        }
        Ok(UpdatesView::new(bytes))
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.bytes.len() / UPDATE_WIRE_LEN
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Materializes the `i`-th update.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Update {
        let r = &self.bytes[i * UPDATE_WIRE_LEN..(i + 1) * UPDATE_WIRE_LEN];
        Update {
            seq: u64::from_le_bytes(r[0..8].try_into().expect("8 bytes")),
            idx: u32::from_le_bytes(r[8..12].try_into().expect("4 bytes")),
            bits: u32::from_le_bytes(r[12..16].try_into().expect("4 bytes")),
        }
    }

    /// Iterates the batch in wire order, materializing lazily.
    pub fn iter(&self) -> impl Iterator<Item = Update> + Clone + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }

    /// Copies the batch into an owned vector (the non-zero-copy path).
    pub fn to_vec(&self) -> Vec<Update> {
        self.iter().collect()
    }
}

/// A borrowed decode of one request frame body: the zero-copy twin of
/// [`Request`]. Payload bytes of an `Update` batch are *not* copied out of
/// `body`; everything else is register-sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestView<'a> {
    /// Version handshake.
    Hello {
        /// Client protocol version.
        version: u16,
    },
    /// A batch of updates for one table, still in wire form.
    Update {
        /// Table id.
        table: u16,
        /// Borrowed update batch.
        updates: UpdatesView<'a>,
    },
    /// Force a drain epoch.
    Flush,
    /// Request one table's values.
    Snapshot {
        /// Table id.
        table: u16,
    },
    /// Request aggregate statistics.
    Stats,
    /// Drain everything and stop.
    Shutdown,
    /// Request the Prometheus exposition.
    Metrics,
    /// Pin a consistent state for chunked transfer.
    SnapshotBegin,
    /// Fetch one chunk of a pinned table.
    SnapshotChunk {
        /// Table id.
        table: u16,
        /// Zero-based chunk index.
        chunk: u32,
    },
    /// Stream log records from a position.
    LogTail {
        /// Checkpoint epoch the index counts from.
        checkpoint: u64,
        /// Record index within the checkpoint interval.
        index: u64,
        /// Soft payload budget for the reply.
        max_bytes: u32,
    },
    /// A batch of edge ops for a graph stream table, still in wire form
    /// (edge-op records share the update record layout).
    EdgeOps {
        /// Table id.
        table: u16,
        /// Borrowed edge-op batch.
        ops: UpdatesView<'a>,
    },
    /// Read one bucket of a window table.
    WindowQuery {
        /// Table id.
        table: u16,
        /// Bucket id.
        bucket: u64,
    },
    /// Read the `k` largest slots of a table's query region.
    TopK {
        /// Table id.
        table: u16,
        /// Entries requested.
        k: u32,
    },
}

impl<'a> RequestView<'a> {
    /// Parses one frame body without copying payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] on unknown opcodes, truncated
    /// payloads, or trailing bytes.
    pub fn decode(body: &'a [u8]) -> Result<RequestView<'a>, ProtoError> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            0x01 => RequestView::Hello { version: c.u16()? },
            0x02 => {
                let table = c.u16()?;
                let count = c.u32()? as usize;
                if count > body.len() / UPDATE_WIRE_LEN + 1 {
                    return Err(ProtoError::Malformed(format!(
                        "update count {count} exceeds frame size"
                    )));
                }
                let payload = c.take(count * UPDATE_WIRE_LEN)?;
                RequestView::Update { table, updates: UpdatesView::new(payload) }
            }
            0x03 => RequestView::Flush,
            0x04 => RequestView::Snapshot { table: c.u16()? },
            0x05 => RequestView::Stats,
            0x06 => RequestView::Shutdown,
            0x07 => RequestView::Metrics,
            0x08 => RequestView::SnapshotBegin,
            0x09 => RequestView::SnapshotChunk { table: c.u16()?, chunk: c.u32()? },
            0x0A => {
                RequestView::LogTail { checkpoint: c.u64()?, index: c.u64()?, max_bytes: c.u32()? }
            }
            0x0B => {
                let table = c.u16()?;
                let count = c.u32()? as usize;
                if count > body.len() / UPDATE_WIRE_LEN + 1 {
                    return Err(ProtoError::Malformed(format!(
                        "edge op count {count} exceeds frame size"
                    )));
                }
                let payload = c.take(count * UPDATE_WIRE_LEN)?;
                RequestView::EdgeOps { table, ops: UpdatesView::new(payload) }
            }
            0x0C => RequestView::WindowQuery { table: c.u16()?, bucket: c.u64()? },
            0x0D => RequestView::TopK { table: c.u16()?, k: c.u32()? },
            op => return Err(ProtoError::Malformed(format!("unknown request opcode {op:#04x}"))),
        };
        c.finish()?;
        Ok(req)
    }

    /// Materializes the borrowed view into an owned [`Request`].
    pub fn to_owned(&self) -> Request {
        match *self {
            RequestView::Hello { version } => Request::Hello { version },
            RequestView::Update { table, updates } => {
                Request::Update { table, updates: updates.to_vec() }
            }
            RequestView::Flush => Request::Flush,
            RequestView::Snapshot { table } => Request::Snapshot { table },
            RequestView::Stats => Request::Stats,
            RequestView::Shutdown => Request::Shutdown,
            RequestView::Metrics => Request::Metrics,
            RequestView::SnapshotBegin => Request::SnapshotBegin,
            RequestView::SnapshotChunk { table, chunk } => Request::SnapshotChunk { table, chunk },
            RequestView::LogTail { checkpoint, index, max_bytes } => {
                Request::LogTail { checkpoint, index, max_bytes }
            }
            RequestView::EdgeOps { table, ops } => {
                Request::EdgeOps { table, ops: ops.iter().map(EdgeOp::from_update).collect() }
            }
            RequestView::WindowQuery { table, bucket } => Request::WindowQuery { table, bucket },
            RequestView::TopK { table, k } => Request::TopK { table, k },
        }
    }
}

impl Request {
    /// Serializes the request as one frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version } => {
                out.push(0x01);
                put_u16(&mut out, *version);
            }
            Request::Update { table, updates } => {
                out.reserve(7 + UPDATE_WIRE_LEN * updates.len());
                out.push(0x02);
                put_u16(&mut out, *table);
                put_u32(&mut out, updates.len() as u32);
                encode_updates(&mut out, updates);
            }
            Request::Flush => out.push(0x03),
            Request::Snapshot { table } => {
                out.push(0x04);
                put_u16(&mut out, *table);
            }
            Request::Stats => out.push(0x05),
            Request::Shutdown => out.push(0x06),
            Request::Metrics => out.push(0x07),
            Request::SnapshotBegin => out.push(0x08),
            Request::SnapshotChunk { table, chunk } => {
                out.push(0x09);
                put_u16(&mut out, *table);
                put_u32(&mut out, *chunk);
            }
            Request::LogTail { checkpoint, index, max_bytes } => {
                out.push(0x0A);
                put_u64(&mut out, *checkpoint);
                put_u64(&mut out, *index);
                put_u32(&mut out, *max_bytes);
            }
            Request::EdgeOps { table, ops } => {
                out.reserve(7 + UPDATE_WIRE_LEN * ops.len());
                out.push(0x0B);
                put_u16(&mut out, *table);
                put_u32(&mut out, ops.len() as u32);
                for op in ops {
                    let u = op.to_update();
                    put_u64(&mut out, u.seq);
                    put_u32(&mut out, u.idx);
                    put_u32(&mut out, u.bits);
                }
            }
            Request::WindowQuery { table, bucket } => {
                out.push(0x0C);
                put_u16(&mut out, *table);
                put_u64(&mut out, *bucket);
            }
            Request::TopK { table, k } => {
                out.push(0x0D);
                put_u16(&mut out, *table);
                put_u32(&mut out, *k);
            }
        }
        out
    }

    /// Parses one frame body (by materializing the borrowing decode, so
    /// the owned and zero-copy paths cannot drift apart).
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] on unknown opcodes, truncated
    /// payloads, or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        RequestView::decode(body).map(|v| v.to_owned())
    }
}

fn encode_table_spec(out: &mut Vec<u8>, spec: &TableSpec) {
    out.push(spec.kind as u8);
    out.push(spec.op as u8);
    put_u32(out, spec.len as u32);
    match spec.stream {
        StreamKind::Flat => out.push(0x00),
        StreamKind::GraphPageRank { vertices, iters } => {
            out.push(0x01);
            put_u32(out, vertices);
            put_u32(out, iters);
        }
        StreamKind::GraphWcc { vertices } => {
            out.push(0x02);
            put_u32(out, vertices);
        }
        StreamKind::Window { keys, buckets, width, timed } => {
            out.push(0x03);
            put_u32(out, keys);
            put_u32(out, buckets);
            put_u32(out, width);
            out.push(u8::from(timed));
        }
    }
    let name = spec.name.as_bytes();
    put_u16(out, name.len() as u16);
    out.extend_from_slice(name);
}

fn decode_table_spec(c: &mut Cursor<'_>) -> Result<TableSpec, ProtoError> {
    let kind = match c.u8()? {
        0 => ValueKind::F32,
        1 => ValueKind::I32,
        other => return Err(ProtoError::Malformed(format!("unknown value kind {other}"))),
    };
    let op = match c.u8()? {
        0 => OpKind::Add,
        1 => OpKind::Min,
        2 => OpKind::Max,
        other => return Err(ProtoError::Malformed(format!("unknown op kind {other}"))),
    };
    let len = c.u32()? as usize;
    let stream = match c.u8()? {
        0x00 => StreamKind::Flat,
        0x01 => StreamKind::GraphPageRank { vertices: c.u32()?, iters: c.u32()? },
        0x02 => StreamKind::GraphWcc { vertices: c.u32()? },
        0x03 => {
            let keys = c.u32()?;
            let buckets = c.u32()?;
            let width = c.u32()?;
            let timed = match c.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(ProtoError::Malformed(format!("bad window timed flag {other}")))
                }
            };
            StreamKind::Window { keys, buckets, width, timed }
        }
        other => return Err(ProtoError::Malformed(format!("unknown stream kind {other}"))),
    };
    let name_len = c.u16()? as usize;
    let name = std::str::from_utf8(c.take(name_len)?)
        .map_err(|_| ProtoError::Malformed("table name is not UTF-8".into()))?
        .to_string();
    Ok(TableSpec { name, kind, op, len, stream })
}

impl Reply {
    /// Serializes the reply as one frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Reply::Hello { version, shards, quantum, tables } => {
                out.push(0x81);
                put_u16(&mut out, *version);
                put_u16(&mut out, *shards);
                put_u32(&mut out, *quantum);
                put_u16(&mut out, tables.len() as u16);
                for t in tables {
                    encode_table_spec(&mut out, t);
                }
            }
            Reply::Ack { accepted, watermark } => {
                out.push(0x82);
                put_u32(&mut out, *accepted);
                put_u64(&mut out, *watermark);
            }
            Reply::Reject { accepted, retry_after_ms, reason } => {
                out.push(0x83);
                put_u32(&mut out, *accepted);
                put_u32(&mut out, *retry_after_ms);
                out.push(reason.to_byte());
            }
            Reply::Snapshot { table, watermark, checksum, values } => {
                out.reserve(19 + 4 * values.len());
                out.push(0x84);
                put_u16(&mut out, *table);
                put_u64(&mut out, *watermark);
                put_u32(&mut out, *checksum);
                put_u32(&mut out, values.len() as u32);
                for &v in values {
                    put_u32(&mut out, v);
                }
            }
            Reply::Stats(s) => {
                out.push(0x85);
                put_u64(&mut out, s.epochs);
                put_u64(&mut out, s.slices);
                put_u64(&mut out, s.applied);
                put_u64(&mut out, s.rejected);
                put_u64(&mut out, s.duplicates);
                put_f64(&mut out, s.occupancy);
                put_f64(&mut out, s.conflict_depth);
                put_f64(&mut out, s.updates_per_sec);
                put_f64(&mut out, s.p50_epoch_us);
                put_f64(&mut out, s.p99_epoch_us);
            }
            Reply::Metrics(text) => {
                let bytes = text.as_bytes();
                out.reserve(5 + bytes.len());
                out.push(0x87);
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            Reply::Bye { watermarks } => {
                out.push(0x86);
                put_u16(&mut out, watermarks.len() as u16);
                for &w in watermarks {
                    put_u64(&mut out, w);
                }
            }
            Reply::SnapshotMeta { checkpoint, index, chunk_values, tables } => {
                out.push(0x88);
                put_u64(&mut out, *checkpoint);
                put_u64(&mut out, *index);
                put_u32(&mut out, *chunk_values);
                put_u16(&mut out, tables.len() as u16);
                for t in tables {
                    put_u16(&mut out, t.table);
                    put_u64(&mut out, t.watermark);
                    put_u64(&mut out, t.len);
                    put_u32(&mut out, t.checksum);
                }
            }
            Reply::SnapshotChunk { table, chunk, values } => {
                out.reserve(11 + 4 * values.len());
                out.push(0x89);
                put_u16(&mut out, *table);
                put_u32(&mut out, *chunk);
                put_u32(&mut out, values.len() as u32);
                for &v in values {
                    put_u32(&mut out, v);
                }
            }
            Reply::LogRecords { checkpoint, next_index, head, reset, records } => {
                out.push(0x8A);
                put_u64(&mut out, *checkpoint);
                put_u64(&mut out, *next_index);
                put_u64(&mut out, *head);
                out.push(u8::from(*reset));
                put_u32(&mut out, records.len() as u32);
                for r in records {
                    put_u32(&mut out, r.len() as u32);
                    out.extend_from_slice(r);
                }
            }
            Reply::Window { table, watermark, bucket, expired, values } => {
                out.reserve(31 + 4 * values.len());
                out.push(0x8B);
                put_u16(&mut out, *table);
                put_u64(&mut out, *watermark);
                put_u64(&mut out, *bucket);
                put_u64(&mut out, *expired);
                put_u32(&mut out, values.len() as u32);
                for &v in values {
                    put_u32(&mut out, v);
                }
            }
            Reply::TopK { table, watermark, entries } => {
                out.reserve(15 + 8 * entries.len());
                out.push(0x8C);
                put_u16(&mut out, *table);
                put_u64(&mut out, *watermark);
                put_u32(&mut out, entries.len() as u32);
                for &(idx, bits) in entries {
                    put_u32(&mut out, idx);
                    put_u32(&mut out, bits);
                }
            }
            Reply::Error(msg) => {
                out.push(0xFF);
                let bytes = msg.as_bytes();
                let n = bytes.len().min(u16::MAX as usize);
                put_u16(&mut out, n as u16);
                out.extend_from_slice(&bytes[..n]);
            }
        }
        out
    }

    /// Parses one frame body.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] on unknown opcodes, truncated
    /// payloads, or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Reply, ProtoError> {
        let mut c = Cursor::new(body);
        let reply = match c.u8()? {
            0x81 => {
                let version = c.u16()?;
                let shards = c.u16()?;
                let quantum = c.u32()?;
                let count = c.u16()? as usize;
                let mut tables = Vec::with_capacity(count);
                for _ in 0..count {
                    tables.push(decode_table_spec(&mut c)?);
                }
                Reply::Hello { version, shards, quantum, tables }
            }
            0x82 => Reply::Ack { accepted: c.u32()?, watermark: c.u64()? },
            0x83 => Reply::Reject {
                accepted: c.u32()?,
                retry_after_ms: c.u32()?,
                reason: RejectReason::from_byte(c.u8()?)?,
            },
            0x84 => {
                let table = c.u16()?;
                let watermark = c.u64()?;
                let checksum = c.u32()?;
                let len = c.u32()? as usize;
                if len > body.len() / 4 + 1 {
                    return Err(ProtoError::Malformed(format!(
                        "snapshot length {len} exceeds frame size"
                    )));
                }
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    values.push(c.u32()?);
                }
                Reply::Snapshot { table, watermark, checksum, values }
            }
            0x85 => Reply::Stats(StatsSummary {
                epochs: c.u64()?,
                slices: c.u64()?,
                applied: c.u64()?,
                rejected: c.u64()?,
                duplicates: c.u64()?,
                occupancy: c.f64()?,
                conflict_depth: c.f64()?,
                updates_per_sec: c.f64()?,
                p50_epoch_us: c.f64()?,
                p99_epoch_us: c.f64()?,
            }),
            0x87 => {
                let n = c.u32()? as usize;
                let text = std::str::from_utf8(c.take(n)?)
                    .map_err(|_| ProtoError::Malformed("metrics text is not UTF-8".into()))?
                    .to_string();
                Reply::Metrics(text)
            }
            0x86 => {
                let count = c.u16()? as usize;
                let mut watermarks = Vec::with_capacity(count);
                for _ in 0..count {
                    watermarks.push(c.u64()?);
                }
                Reply::Bye { watermarks }
            }
            0x88 => {
                let checkpoint = c.u64()?;
                let index = c.u64()?;
                let chunk_values = c.u32()?;
                let count = c.u16()? as usize;
                let mut tables = Vec::with_capacity(count);
                for _ in 0..count {
                    tables.push(SnapshotMetaTable {
                        table: c.u16()?,
                        watermark: c.u64()?,
                        len: c.u64()?,
                        checksum: c.u32()?,
                    });
                }
                Reply::SnapshotMeta { checkpoint, index, chunk_values, tables }
            }
            0x89 => {
                let table = c.u16()?;
                let chunk = c.u32()?;
                let count = c.u32()? as usize;
                if count > body.len() / 4 + 1 {
                    return Err(ProtoError::Malformed(format!(
                        "chunk length {count} exceeds frame size"
                    )));
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(c.u32()?);
                }
                Reply::SnapshotChunk { table, chunk, values }
            }
            0x8A => {
                let checkpoint = c.u64()?;
                let next_index = c.u64()?;
                let head = c.u64()?;
                let reset = match c.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(ProtoError::Malformed(format!("bad reset flag {other}"))),
                };
                let count = c.u32()? as usize;
                if count > body.len() / 4 + 1 {
                    return Err(ProtoError::Malformed(format!(
                        "record count {count} exceeds frame size"
                    )));
                }
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    let n = c.u32()? as usize;
                    records.push(c.take(n)?.to_vec());
                }
                Reply::LogRecords { checkpoint, next_index, head, reset, records }
            }
            0x8B => {
                let table = c.u16()?;
                let watermark = c.u64()?;
                let bucket = c.u64()?;
                let expired = c.u64()?;
                let count = c.u32()? as usize;
                if count > body.len() / 4 + 1 {
                    return Err(ProtoError::Malformed(format!(
                        "window value count {count} exceeds frame size"
                    )));
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(c.u32()?);
                }
                Reply::Window { table, watermark, bucket, expired, values }
            }
            0x8C => {
                let table = c.u16()?;
                let watermark = c.u64()?;
                let count = c.u32()? as usize;
                if count > body.len() / 8 + 1 {
                    return Err(ProtoError::Malformed(format!(
                        "top-k entry count {count} exceeds frame size"
                    )));
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((c.u32()?, c.u32()?));
                }
                Reply::TopK { table, watermark, entries }
            }
            0xFF => {
                let n = c.u16()? as usize;
                let msg = std::str::from_utf8(c.take(n)?)
                    .map_err(|_| ProtoError::Malformed("error message is not UTF-8".into()))?
                    .to_string();
                Reply::Error(msg)
            }
            op => return Err(ProtoError::Malformed(format!("unknown reply opcode {op:#04x}"))),
        };
        c.finish()?;
        Ok(reply)
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one length-prefixed frame body. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed the connection).
///
/// # Errors
///
/// Returns [`ProtoError::Malformed`] for frames over [`MAX_FRAME_LEN`] and
/// [`ProtoError::Io`] for mid-frame stream failures.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                )))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Malformed(format!("frame of {len} bytes exceeds limit")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn round_trip_reply(reply: Reply) {
        let body = reply.encode();
        assert_eq!(Reply::decode(&body).unwrap(), reply);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello { version: PROTOCOL_VERSION });
        round_trip_request(Request::Update {
            table: 3,
            updates: vec![Update::f32(0, 5, -1.5), Update::i32(1, 9, -42), Update::i32(2, 0, 7)],
        });
        round_trip_request(Request::Update { table: 0, updates: vec![] });
        round_trip_request(Request::Flush);
        round_trip_request(Request::Snapshot { table: 65535 });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::SnapshotBegin);
        round_trip_request(Request::SnapshotChunk { table: 9, chunk: u32::MAX });
        round_trip_request(Request::LogTail { checkpoint: 7, index: 1 << 40, max_bytes: 65536 });
        round_trip_request(Request::EdgeOps {
            table: 4,
            ops: vec![EdgeOp::insert(0, 3, 7), EdgeOp::delete(1, 7, 3), EdgeOp::insert(2, 0, 0)],
        });
        round_trip_request(Request::EdgeOps { table: 0, ops: vec![] });
        round_trip_request(Request::WindowQuery { table: 2, bucket: u64::MAX });
        round_trip_request(Request::TopK { table: 1, k: 10 });
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(Reply::Hello {
            version: 1,
            shards: 8,
            quantum: 4096,
            tables: vec![
                TableSpec::f32("ranks", OpKind::Add, 64),
                TableSpec::i32("dist", OpKind::Min, 128),
                TableSpec::pagerank("pr", 256, 10),
                TableSpec::wcc("cc", 512),
                TableSpec::window("mins", OpKind::Min, 32, 8, 4, true),
                TableSpec::window("adds", OpKind::Add, 16, 4, 100, false),
            ],
        });
        round_trip_reply(Reply::Ack { accepted: 100, watermark: 4096 });
        round_trip_reply(Reply::Reject {
            accepted: 12,
            retry_after_ms: 5,
            reason: RejectReason::QueueFull,
        });
        round_trip_reply(Reply::Reject {
            accepted: 0,
            retry_after_ms: 1,
            reason: RejectReason::Draining,
        });
        let values = vec![0, u32::MAX, 0x3f80_0000];
        round_trip_reply(Reply::Snapshot {
            table: 1,
            watermark: 77,
            checksum: snapshot_checksum(&values),
            values,
        });
        round_trip_reply(Reply::SnapshotMeta {
            checkpoint: 3,
            index: 41,
            chunk_values: SNAPSHOT_CHUNK_VALUES as u32,
            tables: vec![
                SnapshotMetaTable {
                    table: 0,
                    watermark: 1024,
                    len: 1 << 24,
                    checksum: 0xdead_beef,
                },
                SnapshotMetaTable { table: 1, watermark: 0, len: 0, checksum: 0 },
            ],
        });
        round_trip_reply(Reply::SnapshotChunk { table: 1, chunk: 17, values: vec![5, 0, 9] });
        round_trip_reply(Reply::LogRecords {
            checkpoint: 3,
            next_index: 44,
            head: 46,
            reset: false,
            records: vec![vec![1, 2, 3], vec![], vec![0xFF]],
        });
        round_trip_reply(Reply::LogRecords {
            checkpoint: 0,
            next_index: 0,
            head: 0,
            reset: true,
            records: vec![],
        });
        round_trip_reply(Reply::Stats(StatsSummary {
            epochs: 10,
            slices: 40,
            applied: 163840,
            rejected: 12,
            duplicates: 1,
            occupancy: 0.96,
            conflict_depth: 1.25,
            updates_per_sec: 1.5e7,
            p50_epoch_us: 120.0,
            p99_epoch_us: 340.5,
        }));
        round_trip_reply(Reply::Bye { watermarks: vec![4096, 77] });
        round_trip_reply(Reply::Metrics(String::new()));
        round_trip_reply(Reply::Metrics(
            "# HELP invector_serve_epochs_total epochs\n\
             # TYPE invector_serve_epochs_total counter\n\
             invector_serve_epochs_total 3\n"
                .into(),
        ));
        round_trip_reply(Reply::Error("nope".into()));
        round_trip_reply(Reply::Window {
            table: 2,
            watermark: 4096,
            bucket: 17,
            expired: 15,
            values: vec![0, u32::MAX, 0x3f80_0000],
        });
        round_trip_reply(Reply::Window {
            table: 0,
            watermark: 0,
            bucket: u64::MAX,
            expired: 0,
            values: vec![],
        });
        round_trip_reply(Reply::TopK {
            table: 1,
            watermark: 99,
            entries: vec![(4, u32::MAX), (0, 17), (11, 0)],
        });
        round_trip_reply(Reply::TopK { table: 0, watermark: 0, entries: vec![] });
    }

    #[test]
    fn decoder_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x42]).is_err());
        assert!(Reply::decode(&[0x42]).is_err());
        // Truncated update batch.
        let mut body = Request::Update { table: 0, updates: vec![Update::i32(0, 0, 1)] }.encode();
        body.truncate(body.len() - 1);
        assert!(Request::decode(&body).is_err());
        // Trailing bytes.
        let mut body = Request::Flush.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
        // Count field larger than the frame could hold.
        let mut body = vec![0x02, 0, 0];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        write_frame(&mut wire, &Request::Snapshot { table: 2 }.encode()).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(), Request::Stats);
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Snapshot { table: 2 }
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at frame boundary");
    }

    #[test]
    fn oversized_frame_is_refused_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(read_frame(&mut wire.as_slice()), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn decoder_rejects_malformed_follower_verbs() {
        // LogRecords with a reset byte that is neither 0 nor 1.
        let mut body = Reply::LogRecords {
            checkpoint: 1,
            next_index: 2,
            head: 3,
            reset: false,
            records: vec![],
        }
        .encode();
        let reset_at = 1 + 8 + 8 + 8;
        body[reset_at] = 2;
        assert!(Reply::decode(&body).is_err());
        // SnapshotChunk whose count field exceeds what the frame holds.
        let mut body = vec![0x89, 0, 0];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Reply::decode(&body).is_err());
        // LogRecords record length running past the frame.
        let mut body = vec![0x8A];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&3u64.to_le_bytes());
        body.push(0);
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Reply::decode(&body).is_err());
    }

    #[test]
    fn snapshot_assembler_accepts_an_in_order_transfer() {
        let values: Vec<u32> = (0..10).collect();
        let mut asm = SnapshotAssembler::new(2, 10, snapshot_checksum(&values), 4);
        assert_eq!(asm.chunk_count(), 3);
        asm.push(2, 0, &values[0..4]).unwrap();
        asm.push(2, 1, &values[4..8]).unwrap();
        assert!(!asm.complete());
        asm.push(2, 2, &values[8..10]).unwrap();
        assert!(asm.complete());
        assert_eq!(asm.finish().unwrap(), values);
    }

    #[test]
    fn snapshot_assembler_rejects_out_of_order_and_corrupt_chunks() {
        let values: Vec<u32> = (0..8).collect();
        let checksum = snapshot_checksum(&values);
        // Skipped chunk id.
        let mut asm = SnapshotAssembler::new(0, 8, checksum, 4);
        assert!(asm.push(0, 1, &values[4..8]).is_err());
        // Repeated chunk id.
        asm.push(0, 0, &values[0..4]).unwrap();
        assert!(asm.push(0, 0, &values[0..4]).is_err());
        // Wrong table.
        assert!(asm.push(1, 1, &values[4..8]).is_err());
        // Wrong chunk size for a non-final chunk.
        let mut asm = SnapshotAssembler::new(0, 8, checksum, 4);
        assert!(asm.push(0, 0, &values[0..3]).is_err());
        // Chunk past the end of the transfer.
        let mut asm = SnapshotAssembler::new(0, 8, checksum, 4);
        asm.push(0, 0, &values[0..4]).unwrap();
        asm.push(0, 1, &values[4..8]).unwrap();
        assert!(asm.push(0, 2, &[]).is_err());
        // Incomplete transfer refuses to finish.
        let mut asm = SnapshotAssembler::new(0, 8, checksum, 4);
        asm.push(0, 0, &values[0..4]).unwrap();
        assert!(asm.finish().is_err());
        // Bit flip fails the final checksum, not any per-chunk step.
        let mut asm = SnapshotAssembler::new(0, 8, checksum, 4);
        let mut flipped = values.clone();
        flipped[6] ^= 1;
        asm.push(0, 0, &flipped[0..4]).unwrap();
        asm.push(0, 1, &flipped[4..8]).unwrap();
        assert!(asm.finish().is_err());
        // Empty table: zero chunks, immediate finish.
        let asm = SnapshotAssembler::new(0, 0, snapshot_checksum(&[]), 4);
        assert!(asm.complete());
        assert_eq!(asm.finish().unwrap(), Vec::<u32>::new());
    }
}
