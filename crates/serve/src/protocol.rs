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
//!   0x0A LogTail   checkpoint:u64 index:u64 max_bytes:u32
//!   0x0C WindowQuery table:u16 bucket:u64
//!   0x0D TopK      table:u16 k:u32
//!
//! replies
//!   0x81 Hello     version:u16 quantum:u32 tables:u16
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
//!   0x88 SnapshotMeta checkpoint:u64 index:u64 tables:u16
//!   0x8A LogRecords checkpoint:u64 next_index:u64 head:u64 reset:u8
//!                  count:u32 count x (len:u32 bytes)
//!   0x8B Window    table:u16 watermark:u64 bucket:u64 expired:u64
//!                  count:u32 count x bits:u32
//!   0x8C TopK      table:u16 watermark:u64 count:u32
//!                  count x (idx:u32 bits:u32)
//!   0xFF Error     msg_len:u16 msg:utf8
//! ```
//!
//! `Update` is the one ingest verb, for every table kind. A graph stream
//! table's edge insertion or deletion is an ordinary update record built by
//! [`invector_streamkit::edge_event`]: `idx` is the source vertex and
//! `bits` the destination, with bit 31 set for a deletion. Admission
//! refuses the whole batch if any endpoint is outside the table's vertices.
//!
//! `SnapshotBegin` pins a consistent all-table state server-side and is
//! answered by a `SnapshotMeta` frame, then one ordinary `Snapshot` frame
//! per table, in table-id order; `LogTail` streams the admitted-batch log
//! from the pinned position. Together they are the follower bootstrap path.
//! A `Snapshot` frame is bounded by the table it claims to be, not by
//! [`MAX_FRAME_LEN`], so a table of any servable size bootstraps.

use std::borrow::Cow;
use std::io::{Read, Write};

use invector_streamkit::StreamKind;

use crate::table::{OpKind, TableSpec, ValueKind};

/// Protocol version spoken by this build. Bumped on any frame layout
/// change; the server rejects mismatched clients at `Hello`. Version 2
/// added the `Snapshot` checksum field and the chunked-snapshot /
/// log-tail verbs; version 3 added stream table kinds to the `Hello`
/// table registry and the edge-op / window-query / top-k verbs; version 4
/// answers `SnapshotBegin` with a `SnapshotMeta` frame and one `Snapshot`
/// frame per table, and drops the chunk verb (opcodes 0x09 and 0x89);
/// version 5 drops the edge-op verb (opcode 0x0B: edges travel as `Update`
/// records) and the `Hello` reply's shard count.
pub const PROTOCOL_VERSION: u16 = 5;

/// Upper bound on one frame body, protecting the decoder from hostile or
/// corrupt length prefixes. Every frame but a `Snapshot` reply is held to
/// it. A `Snapshot` reply is bounded by the table it claims to be: the
/// client checks its table, its count against that table's announced
/// length and its length against the count before reading the slots, so
/// it never allocates more than a table it was told about. A server
/// refuses tables whose `Snapshot` frame a `u32` length cannot prefix
/// (over 1,073,741,819 slots).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The most slots a table may have: a `Snapshot` reply of more could not
/// be length-prefixed (`19 + 4 * slots` must fit a `u32`).
pub(crate) const MAX_SNAPSHOT_SLOTS: usize = (u32::MAX as usize - SNAPSHOT_HEADER_LEN) / 4;

/// The most entries a `TopK` reply may carry: its body is 15 bytes of
/// header and 8 a entry, and must fit [`MAX_FRAME_LEN`].
pub(crate) const MAX_TOP_K: usize = (MAX_FRAME_LEN - 15) / 8;

/// Checksum of a snapshot value stream: CRC-32 over the slot bit patterns
/// in slot order, little-endian — the integrity check carried by
/// `Reply::Snapshot`.
pub fn snapshot_checksum(values: &[u32]) -> u32 {
    slot_crc(values)
}

/// A 32-bit slot value. Its bit pattern is what goes on the wire, into
/// checkpoints and into the slot CRC.
///
/// Implemented for `u32`, `i32` and `f32` only: four-byte values with the
/// layout of `u32` for which every bit pattern is valid (for `f32` that
/// includes every NaN payload, -0.0 and the subnormals). The byte views
/// ([`slot_bytes`], [`slot_bytes_mut`]) rely on both.
pub(crate) trait Slot: Copy + Default {
    /// The slot's bit pattern.
    fn bits(self) -> u32;
    /// The slot with bit pattern `bits`.
    fn from_bits(bits: u32) -> Self;
}

impl Slot for u32 {
    fn bits(self) -> u32 {
        self
    }

    fn from_bits(bits: u32) -> u32 {
        bits
    }
}

impl Slot for i32 {
    fn bits(self) -> u32 {
        self as u32
    }

    fn from_bits(bits: u32) -> i32 {
        bits as i32
    }
}

impl Slot for f32 {
    fn bits(self) -> u32 {
        self.to_bits()
    }

    fn from_bits(bits: u32) -> f32 {
        f32::from_bits(bits)
    }
}

/// A slot slice's memory as bytes, `4 * len` of them. On little-endian
/// targets that is the slots' image (each bit pattern, little-endian, in
/// slot order). The byte view of slots: [`write_slot_bits`] writes it,
/// and [`slot_bytes_mut`] is its twin for [`read_slots`].
fn slot_bytes<S: Slot>(slots: &[S]) -> &[u8] {
    const {
        assert!(std::mem::size_of::<S>() == std::mem::size_of::<u32>());
        assert!(std::mem::align_of::<S>() == std::mem::align_of::<u32>());
    }
    // SAFETY: a `Slot` is 4 bytes with no padding (the const block above
    // checks the size), so the slice's `4 * len` bytes are all initialized.
    // `u8` has alignment 1, and the view borrows `slots`, so the memory
    // outlives it and cannot change under it.
    unsafe { std::slice::from_raw_parts(slots.as_ptr().cast::<u8>(), std::mem::size_of_val(slots)) }
}

/// [`slot_bytes`], writable: bytes written through the view become the
/// slots' bit patterns (in native byte order).
fn slot_bytes_mut<S: Slot>(slots: &mut [S]) -> &mut [u8] {
    const {
        assert!(std::mem::size_of::<S>() == std::mem::size_of::<u32>());
        assert!(std::mem::align_of::<S>() == std::mem::align_of::<u32>());
    }
    // SAFETY: as in `slot_bytes`, the view covers exactly the slice's
    // `4 * len` initialized bytes. Every byte pattern written through it
    // leaves each slot a valid value, because `Slot` is implemented only
    // for `u32`, `i32` and `f32`, for which every 32-bit pattern is valid.
    // The view borrows `slots` mutably, so nothing else reads or writes the
    // slots while it lives.
    unsafe {
        std::slice::from_raw_parts_mut(
            slots.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(slots),
        )
    }
}

/// Writes each slot's bit pattern, little-endian, in slot order. On
/// little-endian targets that is the slots' own memory ([`slot_bytes`]),
/// written in one call: one `memcpy` into a buffer, one CRC pass over the
/// slots in place. Big-endian targets stage the slots through a fixed
/// 4 KiB buffer, so nothing the size of the table is allocated there
/// either.
fn write_slot_bits<S: Slot, W: Write + ?Sized>(out: &mut W, slots: &[S]) -> std::io::Result<()> {
    if cfg!(target_endian = "little") {
        return out.write_all(slot_bytes(slots));
    }
    let mut buf = [0u8; 4096];
    for chunk in slots.chunks(buf.len() / 4) {
        let bytes = &mut buf[..4 * chunk.len()];
        for (dst, &slot) in bytes.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&slot.bits().to_le_bytes());
        }
        out.write_all(bytes)?;
    }
    Ok(())
}

/// Bytes of slot image [`read_slots`] reads, and checksums, a step: small
/// enough to stay in cache between the copy in and the CRC.
const SLOT_READ_CHUNK: usize = 256 << 10;

/// Reads `count` slots of a slot image (the bit patterns after its count
/// field) from `r` straight into the returned vector, passing each
/// [`SLOT_READ_CHUNK`]-byte step's wire bytes to `digest` (a CRC, or
/// `io::sink()`) as it lands. The one slot-image reader, over frame bytes
/// ([`Cursor::slots`]) and over a socket (`TcpClient::snapshot`). The
/// caller has checked that the frame carries `count` slots, so nothing is
/// allocated for a count it cannot carry.
///
/// # Errors
///
/// Propagates `r`'s errors, `UnexpectedEof` for an image cut short among
/// them, and `digest`'s.
pub(crate) fn read_slots<S: Slot>(
    r: &mut impl Read,
    count: usize,
    digest: &mut impl Write,
) -> std::io::Result<Vec<S>> {
    let mut slots = vec![S::default(); count];
    for chunk in slots.chunks_mut(SLOT_READ_CHUNK / 4) {
        let bytes = slot_bytes_mut(chunk);
        r.read_exact(bytes)?;
        digest.write_all(bytes)?;
        if cfg!(target_endian = "big") {
            for slot in chunk.iter_mut() {
                *slot = S::from_bits(u32::from_le(slot.bits()));
            }
        }
    }
    Ok(slots)
}

/// Writes a slot image, `count:u32 count x bits:u32` — the layout of the
/// `Snapshot` and `Window` replies and of checkpoint table records;
/// [`Cursor::slots`] reads it back. The one slot writer.
pub(crate) fn write_slots<S: Slot, W: Write + ?Sized>(
    out: &mut W,
    slots: &[S],
) -> std::io::Result<()> {
    out.write_all(&(slots.len() as u32).to_le_bytes())?;
    write_slot_bits(out, slots)
}

/// CRC-32 over a slot image: the slots' bit patterns in slot order,
/// little-endian. The one state checksum behind snapshots, WAL seals
/// ([`TableState::checksum`](crate::table::TableState::checksum)) and
/// checkpoint loads. On little-endian targets it reads the slots in place
/// ([`write_slot_bits`]): one CRC pass over the table's memory, no copy.
pub(crate) fn slot_crc<S: Slot>(slots: &[S]) -> u32 {
    let mut crc = invector_replog::Crc32::new();
    write_slot_bits(&mut crc, slots).expect("a CRC sink accepts every write");
    crc.finish()
}

/// Bytes of a `Snapshot` reply body before its slots: opcode, table,
/// watermark, checksum and slot count.
pub(crate) const SNAPSHOT_HEADER_LEN: usize = 1 + 2 + 8 + 4 + 4;

/// Body length of a `Snapshot` reply over `slots` slots: the header, then
/// 4 bytes a slot.
pub(crate) fn snapshot_reply_len(slots: usize) -> usize {
    SNAPSHOT_HEADER_LEN + 4 * slots
}

/// The fixed part of a `Snapshot` reply body.
#[derive(Debug)]
pub(crate) struct SnapshotHeader {
    /// Table id.
    pub(crate) table: u16,
    /// Stream positions applied.
    pub(crate) watermark: u64,
    /// Slot CRC the server stamped.
    pub(crate) checksum: u32,
    /// Slots in the image that follows.
    pub(crate) count: usize,
}

impl SnapshotHeader {
    /// Parses the first [`SNAPSHOT_HEADER_LEN`] bytes of a `Snapshot` reply
    /// body that is `len` bytes long, and checks that `len` is exactly the
    /// header plus `4 * count`: the check that comes before any slot is
    /// allocated. Together with [`read_slots`], the one `Snapshot` body
    /// reader, over frame bytes ([`Reply::decode`]) and over a socket
    /// (`TcpClient::snapshot`).
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] for a short header, another
    /// opcode, or a length that disagrees with the count.
    pub(crate) fn parse(head: &[u8], len: usize) -> Result<SnapshotHeader, ProtoError> {
        let mut c = Cursor::new(head.get(..SNAPSHOT_HEADER_LEN).unwrap_or(head));
        if c.u8()? != 0x84 {
            return Err(ProtoError::Malformed("not a Snapshot reply".into()));
        }
        let (table, watermark, checksum) = (c.u16()?, c.u64()?, c.u32()?);
        let count = c.u32()? as usize;
        let needed = count.checked_mul(4).and_then(|n| n.checked_add(SNAPSHOT_HEADER_LEN));
        if needed != Some(len) {
            return Err(ProtoError::Malformed(format!(
                "snapshot length mismatch: a body of {len} bytes cannot carry {count} slots"
            )));
        }
        Ok(SnapshotHeader { table, watermark, checksum, count })
    }
}

/// What [`read_snapshot_head`] found at the front of a reply frame.
#[derive(Debug)]
pub(crate) enum SnapshotHead {
    /// A `Snapshot` reply whose header has been read and checked; its
    /// `count` slots are still to be read ([`read_slots`]).
    Snapshot(SnapshotHeader),
    /// Any other reply, read whole and decoded.
    Other(Reply),
}

/// Reads the front of a reply that may be a `Snapshot` from `r`: a
/// `Snapshot` reply's header, leaving its slot image in the stream for
/// [`read_slots`] to land where the caller wants it, or any other reply
/// whole, through `rbuf` (whose allocation is reused), decoded by
/// [`Reply::decode`]. `Ok(None)` is a clean EOF at a frame boundary.
///
/// A `Snapshot` frame is not held to [`MAX_FRAME_LEN`]: the caller bounds
/// it by the table it expects before reading the image (`TcpClient`'s one
/// `Snapshot` frame reader), and [`skip`]s a frame it refuses.
///
/// # Errors
///
/// Returns [`ProtoError::Io`] for stream failures and
/// [`ProtoError::Malformed`] for other frames over [`MAX_FRAME_LEN`], a
/// `Snapshot` header whose count disagrees with the frame length (the rest
/// of that frame is skipped, unread into memory, so the stream stays at a
/// frame boundary) and other replies that do not decode.
pub(crate) fn read_snapshot_head(
    r: &mut impl Read,
    rbuf: &mut Vec<u8>,
) -> Result<Option<SnapshotHead>, ProtoError> {
    let Some(len) = read_frame_len(r)? else {
        return Ok(None);
    };
    let mut head = [0u8; SNAPSHOT_HEADER_LEN];
    let got = len.min(SNAPSHOT_HEADER_LEN);
    r.read_exact(&mut head[..got])?;
    if got < SNAPSHOT_HEADER_LEN || head[0] != 0x84 {
        check_frame_len(len)?;
        rbuf.clear();
        rbuf.extend_from_slice(&head[..got]);
        fill(r, rbuf, len - got)?;
        return Reply::decode(rbuf).map(|reply| Some(SnapshotHead::Other(reply)));
    }
    match SnapshotHeader::parse(&head, len) {
        Ok(header) => Ok(Some(SnapshotHead::Snapshot(header))),
        Err(e) => {
            skip(r, len - got)?;
            Err(e)
        }
    }
}

/// Writes a `Snapshot` reply body: header, then the slot image. The one
/// writer behind [`Reply::encode`] and the reactor's reply written
/// straight from a locked table.
pub(crate) fn write_snapshot_reply<S: Slot, W: Write + ?Sized>(
    out: &mut W,
    table: u16,
    watermark: u64,
    checksum: u32,
    slots: &[S],
) -> std::io::Result<()> {
    out.write_all(&[0x84])?;
    out.write_all(&table.to_le_bytes())?;
    out.write_all(&watermark.to_le_bytes())?;
    out.write_all(&checksum.to_le_bytes())?;
    write_slots(out, slots)
}

/// One associative update: apply `value` (a raw 32-bit pattern) to
/// `target[idx]` with the table's operator, ordered by `seq`.
///
/// `seq` is assigned by the producer of the logical stream and must be
/// unique per table; the server applies updates in contiguous `seq` order
/// regardless of which connection delivered them.
///
/// The layout is the wire record's (`seq:u64 idx:u32 bits:u32`, 16 bytes,
/// no padding), so on little-endian targets a slice of updates is its own
/// wire image ([`Update::wire_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
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

    /// The update's wire record: `seq:u64 idx:u32 bits:u32`, little-endian.
    /// Only big-endian targets encode record by record.
    #[cfg(not(target_endian = "little"))]
    fn wire_record(self) -> [u8; UPDATE_WIRE_LEN] {
        let mut record = [0u8; UPDATE_WIRE_LEN];
        record[..8].copy_from_slice(&self.seq.to_le_bytes());
        record[8..12].copy_from_slice(&self.idx.to_le_bytes());
        record[12..].copy_from_slice(&self.bits.to_le_bytes());
        record
    }

    /// The batch as wire records (the [`encode_updates`] layout). On
    /// little-endian targets that is the slice's own memory, borrowed;
    /// elsewhere an encoded copy.
    pub fn wire_bytes(updates: &[Update]) -> Cow<'_, [u8]> {
        const {
            assert!(std::mem::size_of::<Update>() == UPDATE_WIRE_LEN);
            assert!(std::mem::offset_of!(Update, seq) == 0);
            assert!(std::mem::offset_of!(Update, idx) == 8);
            assert!(std::mem::offset_of!(Update, bits) == 12);
        }
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `Update` is `repr(C)` with its fields at offsets 0, 8
            // and 12 and a size of 16 (the const block above checks all
            // four), so it has no padding and every one of the slice's
            // `16 * len` bytes is initialized. On a little-endian target
            // each field's bytes are its wire encoding. `u8` has alignment
            // 1, and the result borrows `updates`, so the memory outlives
            // it and cannot change under it.
            Cow::Borrowed(unsafe {
                std::slice::from_raw_parts(
                    updates.as_ptr().cast::<u8>(),
                    std::mem::size_of_val(updates),
                )
            })
        }
        #[cfg(not(target_endian = "little"))]
        {
            Cow::Owned(updates.iter().flat_map(|u| u.wire_record()).collect())
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
    /// A batch of updates for one table, of any kind (a graph table's
    /// edge ops are [`invector_streamkit::edge_event`] records).
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
    /// (the follower bootstrap); answered by `SnapshotMeta`, then one
    /// `Snapshot` reply per table, in table-id order.
    SnapshotBegin,
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
    /// Answer to `SnapshotBegin`: the pinned log position and the number
    /// of `Snapshot` replies that follow, one per table in id order.
    SnapshotMeta {
        /// Checkpoint epoch of the pinned log position.
        checkpoint: u64,
        /// Record index of the pinned log position (the first record a
        /// tail from this pin should fetch).
        index: u64,
        /// Tables pinned: the `Snapshot` replies that follow.
        tables: u16,
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

/// Appends a slot image ([`write_slots`]) to an encoded body.
fn put_slots(out: &mut Vec<u8>, values: &[u32]) {
    write_slots(out, values).expect("a Vec<u8> accepts every write");
}

/// A 4-byte little-endian `u32`.
fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
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
        if n > self.buf.len() - self.pos {
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
        self.take(4).map(le_u32)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Takes a counted region: `count:u32`, then `count` items of `width`
    /// bytes. The whole region is taken before any item is read, so a count
    /// the body cannot carry fails before anything is allocated for it.
    fn counted(&mut self, width: usize) -> Result<&'a [u8], ProtoError> {
        let count = self.u32()? as usize;
        self.take(count.checked_mul(width).ok_or_else(|| {
            ProtoError::Malformed(format!("count {count} overflows the address space"))
        })?)
    }

    /// Reads an update batch (`count:u32`, then `count` wire records) as a
    /// borrowed view.
    pub(crate) fn updates(&mut self) -> Result<UpdatesView<'a>, ProtoError> {
        self.counted(UPDATE_WIRE_LEN).map(UpdatesView::new)
    }

    /// Reads a slot image ([`write_slots`]) into slots of type `S`.
    pub(crate) fn slots<S: Slot>(&mut self) -> Result<Vec<S>, ProtoError> {
        let image = self.counted(4)?;
        Ok(read_slots(&mut &image[..], image.len() / 4, &mut std::io::sink())?)
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
/// it into an intermediate `Vec<Update>`: admission splits the records
/// into its staging columns in one pass over these bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdatesView<'a> {
    bytes: &'a [u8],
}

/// Wire size of one encoded update (`seq:u64 idx:u32 bits:u32`): the
/// record the admission kernel splits, so the two cannot drift apart.
pub const UPDATE_WIRE_LEN: usize = invector_simd::records::RECORD_LEN;

/// Encodes a batch of updates in wire order (`seq:u64 idx:u32 bits:u32`
/// per record) — the payload layout [`UpdatesView`] reads back. Shared by
/// the `Update` request codec and the WAL batch-record codec, so log
/// replay and wire replay decode through the same bytes. A copy of
/// [`Update::wire_bytes`]: one `memcpy` on little-endian targets.
pub fn encode_updates(out: &mut Vec<u8>, updates: &[Update]) {
    out.extend_from_slice(&Update::wire_bytes(updates));
}

impl<'a> UpdatesView<'a> {
    /// Wraps a payload region; `bytes.len()` must be a multiple of
    /// [`UPDATE_WIRE_LEN`].
    pub(crate) fn new(bytes: &'a [u8]) -> UpdatesView<'a> {
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

    /// The encoded records.
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
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
            idx: le_u32(&r[8..12]),
            bits: le_u32(&r[12..16]),
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
    /// Pin a consistent state for the follower bootstrap.
    SnapshotBegin,
    /// Stream log records from a position.
    LogTail {
        /// Checkpoint epoch the index counts from.
        checkpoint: u64,
        /// Record index within the checkpoint interval.
        index: u64,
        /// Soft payload budget for the reply.
        max_bytes: u32,
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
            0x02 => RequestView::Update { table: c.u16()?, updates: c.updates()? },
            0x03 => RequestView::Flush,
            0x04 => RequestView::Snapshot { table: c.u16()? },
            0x05 => RequestView::Stats,
            0x06 => RequestView::Shutdown,
            0x07 => RequestView::Metrics,
            0x08 => RequestView::SnapshotBegin,
            0x0A => {
                RequestView::LogTail { checkpoint: c.u64()?, index: c.u64()?, max_bytes: c.u32()? }
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
            RequestView::LogTail { checkpoint, index, max_bytes } => {
                Request::LogTail { checkpoint, index, max_bytes }
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
            Request::LogTail { checkpoint, index, max_bytes } => {
                out.push(0x0A);
                put_u64(&mut out, *checkpoint);
                put_u64(&mut out, *index);
                put_u32(&mut out, *max_bytes);
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
            Reply::Hello { version, quantum, tables } => {
                out.push(0x81);
                put_u16(&mut out, *version);
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
                out.reserve(snapshot_reply_len(values.len()));
                write_snapshot_reply(&mut out, *table, *watermark, *checksum, values)
                    .expect("a Vec<u8> accepts every write");
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
            Reply::SnapshotMeta { checkpoint, index, tables } => {
                out.push(0x88);
                put_u64(&mut out, *checkpoint);
                put_u64(&mut out, *index);
                put_u16(&mut out, *tables);
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
                put_slots(&mut out, values);
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
                // Cut at a char boundary, so a long text still decodes.
                let text = &msg[..msg.floor_char_boundary(u16::MAX as usize)];
                out.push(0xFF);
                put_u16(&mut out, text.len() as u16);
                out.extend_from_slice(text.as_bytes());
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
                let quantum = c.u32()?;
                let count = c.u16()? as usize;
                let mut tables = Vec::with_capacity(count);
                for _ in 0..count {
                    tables.push(decode_table_spec(&mut c)?);
                }
                Reply::Hello { version, quantum, tables }
            }
            0x82 => Reply::Ack { accepted: c.u32()?, watermark: c.u64()? },
            0x83 => Reply::Reject {
                accepted: c.u32()?,
                retry_after_ms: c.u32()?,
                reason: RejectReason::from_byte(c.u8()?)?,
            },
            0x84 => {
                let SnapshotHeader { table, watermark, checksum, count } =
                    SnapshotHeader::parse(body, body.len())?;
                c.take(SNAPSHOT_HEADER_LEN - 1)?;
                let values = read_slots(&mut c.take(4 * count)?, count, &mut std::io::sink())?;
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
            0x88 => Reply::SnapshotMeta { checkpoint: c.u64()?, index: c.u64()?, tables: c.u16()? },
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
            0x8B => Reply::Window {
                table: c.u16()?,
                watermark: c.u64()?,
                bucket: c.u64()?,
                expired: c.u64()?,
                values: c.slots()?,
            },
            0x8C => Reply::TopK {
                table: c.u16()?,
                watermark: c.u64()?,
                entries: c
                    .counted(8)?
                    .chunks_exact(8)
                    .map(|e| (le_u32(&e[..4]), le_u32(&e[4..])))
                    .collect(),
            },
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
/// at a frame boundary (the peer closed the connection). A fresh buffer
/// per frame, filled by the crate's one frame reader.
///
/// # Errors
///
/// Returns [`ProtoError::Malformed`] for frames over [`MAX_FRAME_LEN`] and
/// [`ProtoError::Io`] for mid-frame stream failures.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut body = Vec::new();
    Ok(read_frame_into(r, &mut body)?.then_some(body))
}

/// Reads one length-prefixed frame body into `body`, replacing its
/// contents and reusing its allocation; the bytes land in the buffer's
/// spare capacity, which is not zeroed first. The one frame reader.
/// Returns `Ok(false)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// As [`read_frame`].
pub(crate) fn read_frame_into(r: &mut impl Read, body: &mut Vec<u8>) -> Result<bool, ProtoError> {
    let Some(len) = read_frame_len(r)? else {
        return Ok(false);
    };
    check_frame_len(len)?;
    body.clear();
    fill(r, body, len)?;
    Ok(true)
}

/// Reads a frame's length prefix. `Ok(None)` is a clean EOF before the
/// prefix.
fn read_frame_len(r: &mut impl Read) -> Result<Option<usize>, ProtoError> {
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
    Ok(Some(u32::from_le_bytes(len) as usize))
}

/// Refuses a frame body over [`MAX_FRAME_LEN`] before anything is read
/// into memory for it.
fn check_frame_len(len: usize) -> Result<(), ProtoError> {
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Malformed(format!("frame of {len} bytes exceeds limit")));
    }
    Ok(())
}

/// Appends exactly `n` bytes from `r` to `buf`, in its spare capacity.
fn fill(r: &mut impl Read, buf: &mut Vec<u8>, n: usize) -> Result<(), ProtoError> {
    buf.reserve(n);
    if r.by_ref().take(n as u64).read_to_end(buf)? < n {
        return Err(eof_inside_frame());
    }
    Ok(())
}

/// Reads `n` bytes off `r` and drops them, a few KiB at a time: the rest
/// of a frame the reader refuses, so the stream stays at a frame boundary.
pub(crate) fn skip(r: &mut impl Read, n: usize) -> Result<(), ProtoError> {
    if std::io::copy(&mut r.by_ref().take(n as u64), &mut std::io::sink())? < n as u64 {
        return Err(eof_inside_frame());
    }
    Ok(())
}

fn eof_inside_frame() -> ProtoError {
    ProtoError::Io(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "EOF inside frame body"))
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
        round_trip_request(Request::LogTail { checkpoint: 7, index: 1 << 40, max_bytes: 65536 });
        round_trip_request(Request::WindowQuery { table: 2, bucket: u64::MAX });
        round_trip_request(Request::TopK { table: 1, k: 10 });
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(Reply::Hello {
            version: 1,
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
        round_trip_reply(Reply::SnapshotMeta { checkpoint: 3, index: 41, tables: 2 });
        round_trip_reply(Reply::SnapshotMeta { checkpoint: u64::MAX, index: 0, tables: 0 });
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
    fn error_text_is_cut_at_a_char_boundary() {
        // Two-byte chars: a cut at 65,535 bytes would end inside one.
        let long = "\u{e9}".repeat(40_000);
        let Reply::Error(cut) = Reply::decode(&Reply::Error(long.clone()).encode()).expect("UTF-8")
        else {
            panic!("an Error reply");
        };
        assert_eq!(cut.len(), 65_534);
        assert!(long.starts_with(&cut));
        round_trip_reply(Reply::Error("\u{e9}".repeat(100)));
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
}
