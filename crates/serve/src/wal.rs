//! Durability: the write-ahead log of admitted batch slices plus the
//! snapshot checkpoint store, built on [`invector_replog`].
//!
//! The determinism contract does the heavy lifting. Slice cut positions
//! are a pure function of (stream content, policy schedule), and a slice's
//! result bits are a pure function of (slice content, policy) — so logging
//! each slice exactly as cut, *before* it is applied, is enough to
//! reproduce every table bit by replay. Records are opaque checksummed
//! payloads to `invector-replog`; this module owns their meaning:
//!
//! ```text
//! record := 0x01 Batch  table:u16 count:u32 count x (seq:u64 idx:u32 bits:u32)
//!         | 0x02 Seal   table:u16 watermark:u64 crc:u32
//! ```
//!
//! A `Batch` is one slice, reusing the wire update layout
//! ([`encode_updates`]). A `Seal` closes a table's epoch with the CRC-32
//! of its post-apply bit stream — the per-epoch state checksum that
//! recovery verifies and followers compare for exact divergence
//! detection. A torn tail (a `Batch` whose `Seal` never made it to disk)
//! replays fine: the batch was admitted, its bits are deterministic, only
//! the verification point is missing.
//!
//! Followers read the log back from the file ([`WalState::records_from`]):
//! the state keeps each record's offset, never its payload.
//!
//! Checkpoints bound replay: every table's full state is published to the
//! [`SnapshotStore`] under a manifest carrying per-table checksums, then
//! the log is reset. Each table's record streams from its slots into the
//! checkpoint file ([`encode_checkpoint_table`]). The manifest is a single
//! framed record:
//!
//! ```text
//! manifest := version:u16 checkpoint:u64 count:u16
//!             count x (table:u16 kind:u8 op:u8 len:u64 watermark:u64 checksum:u32)
//! checkpoint-table := table:u16 watermark:u64 count:u32 count x bits:u32
//! ```

use std::io::Write;
use std::path::PathBuf;

use invector_replog::{CheckpointWriter, SnapshotStore, SyncPolicy, Wal};

use crate::protocol::{encode_updates, write_slots, Cursor, ProtoError, Update, UPDATE_WIRE_LEN};
use crate::table::{OpKind, TableData, TableSpec, ValueKind};

/// Durability configuration: where the log lives and how hard it syncs.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Directory holding `wal.log`, checkpoints, and the manifest.
    pub dir: PathBuf,
    /// When the log syncs to stable storage (`--wal-sync`).
    pub sync: SyncPolicy,
    /// Checkpoint after this many non-empty epochs (0 disables the
    /// epoch-count trigger).
    pub checkpoint_epochs: u64,
    /// Checkpoint once the log exceeds this many bytes (0 disables the
    /// size trigger). Whichever trigger fires first wins.
    pub checkpoint_bytes: u64,
}

impl WalOptions {
    /// Durability under `dir` with default sync (`epoch`) and checkpoint
    /// cadence (256 epochs or 32 MiB of log, whichever first).
    pub fn new(dir: impl Into<PathBuf>) -> WalOptions {
        WalOptions {
            dir: dir.into(),
            sync: SyncPolicy::default(),
            checkpoint_epochs: 256,
            checkpoint_bytes: 32 << 20,
        }
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// One admitted batch slice, logged before application.
    Batch {
        /// Table id.
        table: u16,
        /// The slice, exactly as cut (contiguous `seq` run).
        updates: Vec<Update>,
    },
    /// A table's epoch boundary: its watermark and state CRC after the
    /// epoch's slices applied.
    Seal {
        /// Table id.
        table: u16,
        /// Applied watermark at the seal point.
        watermark: u64,
        /// CRC-32 over the table's slot bit patterns (little-endian),
        /// matching [`crate::table::TableState::checksum`].
        crc: u32,
    },
}

impl WalRecord {
    /// Encodes the record payload (framing and checksumming belong to
    /// `invector-replog`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Batch { table, updates } => {
                out.push(0x01);
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&(updates.len() as u32).to_le_bytes());
                encode_updates(&mut out, updates);
            }
            WalRecord::Seal { table, watermark, crc } => {
                out.push(0x02);
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&watermark.to_le_bytes());
                out.extend_from_slice(&crc.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a record payload.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] for unknown kinds, truncated
    /// payloads, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, ProtoError> {
        let mut c = Cursor::new(payload);
        let record = match c.u8()? {
            0x01 => WalRecord::Batch { table: c.u16()?, updates: c.updates()?.to_vec() },
            0x02 => WalRecord::Seal { table: c.u16()?, watermark: c.u64()?, crc: c.u32()? },
            other => {
                return Err(ProtoError::Malformed(format!("unknown WAL record kind {other:#04x}")))
            }
        };
        c.finish()?;
        Ok(record)
    }
}

/// One table's row in the checkpoint manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Table id.
    pub table: u16,
    /// Element type, for spec validation on load.
    pub kind: ValueKind,
    /// Operator, for spec validation on load.
    pub op: OpKind,
    /// Slot count.
    pub len: u64,
    /// Applied watermark at checkpoint time.
    pub watermark: u64,
    /// CRC-32 over the table's slot bit patterns.
    pub checksum: u32,
}

/// Current manifest layout version.
const MANIFEST_VERSION: u16 = 1;

/// Encodes the checkpoint manifest record.
pub fn encode_manifest(checkpoint: u64, entries: &[ManifestEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + entries.len() * 24);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&checkpoint.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.table.to_le_bytes());
        out.push(e.kind as u8);
        out.push(e.op as u8);
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.watermark.to_le_bytes());
        out.extend_from_slice(&e.checksum.to_le_bytes());
    }
    out
}

/// Decodes a checkpoint manifest record.
///
/// # Errors
///
/// Returns [`ProtoError::Malformed`] for version or layout mismatches.
pub fn decode_manifest(payload: &[u8]) -> Result<(u64, Vec<ManifestEntry>), ProtoError> {
    let too_short = || ProtoError::Malformed("truncated checkpoint manifest".into());
    if payload.len() < 12 {
        return Err(too_short());
    }
    let version = u16::from_le_bytes([payload[0], payload[1]]);
    if version != MANIFEST_VERSION {
        return Err(ProtoError::Malformed(format!(
            "manifest version {version}, expected {MANIFEST_VERSION}"
        )));
    }
    let checkpoint = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
    let count = u16::from_le_bytes([payload[10], payload[11]]) as usize;
    let mut rest = &payload[12..];
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        if rest.len() < 24 {
            return Err(too_short());
        }
        let kind = match rest[2] {
            0 => ValueKind::F32,
            1 => ValueKind::I32,
            other => return Err(ProtoError::Malformed(format!("unknown value kind {other}"))),
        };
        let op = match rest[3] {
            0 => OpKind::Add,
            1 => OpKind::Min,
            2 => OpKind::Max,
            other => return Err(ProtoError::Malformed(format!("unknown op kind {other}"))),
        };
        entries.push(ManifestEntry {
            table: u16::from_le_bytes([rest[0], rest[1]]),
            kind,
            op,
            len: u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes")),
            watermark: u64::from_le_bytes(rest[12..20].try_into().expect("8 bytes")),
            checksum: u32::from_le_bytes(rest[20..24].try_into().expect("4 bytes")),
        });
        rest = &rest[24..];
    }
    if !rest.is_empty() {
        return Err(ProtoError::Malformed("trailing bytes after manifest entries".into()));
    }
    Ok((checkpoint, entries))
}

/// Length of a checkpoint table record over `slots` slots.
pub fn checkpoint_table_len(slots: usize) -> usize {
    2 + 8 + 4 + 4 * slots
}

/// Length of a `Batch` record of `updates` updates (saturating, so any
/// quantum can be checked against the log's record limit).
pub(crate) fn batch_record_len(updates: usize) -> usize {
    UPDATE_WIRE_LEN.saturating_mul(updates).saturating_add(1 + 2 + 4)
}

/// Writes one table's checkpoint record (`table watermark` plus the
/// table's slot image) into `out`, straight from the slots: one read of
/// each slot, and nothing the size of the table allocated. The record is
/// [`checkpoint_table_len`] bytes long.
///
/// # Errors
///
/// Propagates the sink's write failures.
pub fn encode_checkpoint_table<W: Write + ?Sized>(
    table: u16,
    watermark: u64,
    data: &TableData,
    out: &mut W,
) -> std::io::Result<()> {
    out.write_all(&table.to_le_bytes())?;
    out.write_all(&watermark.to_le_bytes())?;
    match data {
        TableData::F32(v) => write_slots(out, v),
        TableData::I32(v) => write_slots(out, v),
    }
}

/// Decodes one table's checkpoint record into typed data under `spec`,
/// with the state checksum of its slot image.
///
/// # Errors
///
/// Returns [`ProtoError::Malformed`] for layout damage or a slot count
/// that disagrees with `spec`.
pub fn decode_checkpoint_table(
    payload: &[u8],
    spec: &TableSpec,
) -> Result<(u16, u64, TableData, u32), ProtoError> {
    let mut c = Cursor::new(payload);
    let table = c.u16()?;
    let watermark = c.u64()?;
    let data = match spec.kind {
        ValueKind::F32 => TableData::F32(c.slots()?),
        ValueKind::I32 => TableData::I32(c.slots()?),
    };
    c.finish()?;
    if data.len() != spec.len {
        return Err(ProtoError::Malformed(format!(
            "checkpoint of {} slots for table '{}' of {} slots",
            data.len(),
            spec.name,
            spec.len
        )));
    }
    let checksum = data.slot_crc();
    Ok((table, watermark, data, checksum))
}

/// The server's live durability state. The core keeps it under its tick
/// lock, with the rest of the state only epochs write.
#[derive(Debug)]
pub struct WalState {
    options: WalOptions,
    store: SnapshotStore,
    /// The log of the current checkpoint generation: its log index `i` is
    /// the file's record `i`.
    wal: Wal,
    /// Checkpoint generation: starts at 0, bumps on every published
    /// checkpoint. A follower at a different generation re-bootstraps.
    checkpoint: u64,
    /// Non-empty epochs since the last checkpoint.
    epochs_since: u64,
}

/// What recovery reconstructed before the core applies it.
#[derive(Debug)]
pub struct WalRecovery {
    /// Per-table state to install from the checkpoint, with its
    /// watermark (empty on a fresh start). Each table's checksum already
    /// matched its manifest entry.
    pub installed: Vec<(TableData, u64)>,
    /// Decoded log records to replay through the epoch path, in order.
    pub replay: Vec<WalRecord>,
    /// Human-readable note when a torn tail was truncated.
    pub torn: Option<String>,
}

impl WalState {
    /// Opens (or creates) the durability directory and reconstructs the
    /// state to recover: latest checkpoint + valid log prefix.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a corrupt manifest or checkpoint, or a
    /// manifest that disagrees with `specs` — a damaged store refuses to
    /// serve rather than starting fresh over data that existed.
    pub fn open(
        options: WalOptions,
        specs: &[TableSpec],
    ) -> Result<(WalState, WalRecovery), String> {
        let store = SnapshotStore::open(&options.dir)
            .map_err(|e| format!("open WAL dir {}: {e}", options.dir.display()))?;
        let manifest = store.manifest().map_err(|e| format!("read checkpoint manifest: {e}"))?;
        let (checkpoint, installed) = match manifest {
            None => (0, Vec::new()),
            Some(bytes) => {
                let (checkpoint, entries) =
                    decode_manifest(&bytes).map_err(|e| format!("checkpoint manifest: {e}"))?;
                if entries.len() != specs.len() {
                    return Err(format!(
                        "checkpoint manifest has {} tables, server is configured with {}",
                        entries.len(),
                        specs.len()
                    ));
                }
                let records = store
                    .read_checkpoint(checkpoint)
                    .map_err(|e| format!("read checkpoint {checkpoint}: {e}"))?;
                if records.len() != entries.len() {
                    return Err(format!(
                        "checkpoint {checkpoint} has {} table records, manifest lists {}",
                        records.len(),
                        entries.len()
                    ));
                }
                let mut installed = Vec::with_capacity(entries.len());
                for (t, (entry, record)) in entries.iter().zip(&records).enumerate() {
                    let spec = &specs[t];
                    if entry.table as usize != t
                        || entry.kind != spec.kind
                        || entry.op != spec.op
                        || entry.len != spec.len as u64
                    {
                        return Err(format!(
                            "manifest row {t} ({:?} {:?} len {}) disagrees with configured \
                             table '{}' ({:?} {:?} len {})",
                            entry.kind,
                            entry.op,
                            entry.len,
                            spec.name,
                            spec.kind,
                            spec.op,
                            spec.len
                        ));
                    }
                    let (table, watermark, data, checksum) = decode_checkpoint_table(record, spec)
                        .map_err(|e| format!("checkpoint table {t}: {e}"))?;
                    if table as usize != t {
                        return Err(format!("checkpoint record {t} is for table {table}"));
                    }
                    if watermark != entry.watermark {
                        return Err(format!(
                            "checkpoint table {t} watermark {watermark} != manifest {}",
                            entry.watermark
                        ));
                    }
                    if checksum != entry.checksum {
                        return Err(format!(
                            "checkpoint table {t} checksum {checksum:#010x} != manifest \
                             {:#010x} — refusing to serve corrupt state",
                            entry.checksum
                        ));
                    }
                    installed.push((data, watermark));
                }
                (checkpoint, installed)
            }
        };
        let (wal, recovered) = Wal::open(&store.wal_path())
            .map_err(|e| format!("recover WAL {}: {e}", store.wal_path().display()))?;
        let mut replay = Vec::with_capacity(recovered.records.len());
        for (i, payload) in recovered.records.iter().enumerate() {
            replay.push(WalRecord::decode(payload).map_err(|e| format!("WAL record {i}: {e}"))?);
        }
        let state = WalState { options, store, wal, checkpoint, epochs_since: 0 };
        let recovery = WalRecovery { installed, replay, torn: recovered.torn };
        Ok((state, recovery))
    }

    /// The configured options.
    pub fn options(&self) -> &WalOptions {
        &self.options
    }

    /// Current checkpoint generation.
    pub fn checkpoint(&self) -> u64 {
        self.checkpoint
    }

    /// Log records in the current generation (the head index a follower
    /// catches up to).
    pub fn head(&self) -> u64 {
        self.wal.records()
    }

    /// The record payloads from log index `index`, at most `max_bytes`
    /// worth (always at least one record if any remain), read back from
    /// the log file with every frame's CRC checked.
    ///
    /// # Errors
    ///
    /// Propagates read failures and frames that fail their check.
    pub fn records_from(&self, index: u64, max_bytes: u32) -> std::io::Result<Vec<Vec<u8>>> {
        self.wal.records_from(index, max_bytes)
    }

    /// Appends one record to the log. Returns the framed byte count.
    /// Syncs immediately only under `SyncPolicy::Always`.
    ///
    /// # Errors
    ///
    /// Propagates log write failures.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<u64> {
        let payload = record.encode();
        let before = self.wal.bytes();
        self.wal.append(&payload)?;
        if self.options.sync == SyncPolicy::Always {
            self.wal.sync()?;
        }
        Ok(self.wal.bytes() - before)
    }

    /// Epoch-boundary sync under `SyncPolicy::Epoch` (a no-op otherwise).
    /// Returns whether a sync was issued.
    ///
    /// # Errors
    ///
    /// Propagates sync failures.
    pub fn sync_epoch(&mut self) -> std::io::Result<bool> {
        if self.options.sync == SyncPolicy::Os {
            return Ok(false);
        }
        if self.options.sync == SyncPolicy::Epoch {
            self.wal.sync()?;
            return Ok(true);
        }
        // Always-mode already synced per append.
        Ok(false)
    }

    /// Notes a completed non-empty epoch; `true` when a checkpoint is due
    /// by either trigger.
    pub fn note_epoch(&mut self) -> bool {
        self.epochs_since += 1;
        let by_epochs = self.options.checkpoint_epochs > 0
            && self.epochs_since >= self.options.checkpoint_epochs;
        let by_bytes =
            self.options.checkpoint_bytes > 0 && self.wal.bytes() >= self.options.checkpoint_bytes;
        by_epochs || by_bytes
    }

    /// Starts the next checkpoint: its table records stream into the
    /// returned writer, in id order, and
    /// [`publish_checkpoint`](Self::publish_checkpoint) publishes it.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn begin_checkpoint(&self) -> std::io::Result<CheckpointWriter> {
        self.store.begin_checkpoint(self.checkpoint + 1)
    }

    /// Publishes a checkpoint begun with
    /// [`begin_checkpoint`](Self::begin_checkpoint) under the manifest rows
    /// `entries` (id order, one per record written), then bumps the
    /// generation and truncates the log.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures; the previous checkpoint stays
    /// authoritative if publish fails before the manifest swap.
    pub fn publish_checkpoint(
        &mut self,
        checkpoint: CheckpointWriter,
        entries: &[ManifestEntry],
    ) -> std::io::Result<()> {
        let next = self.checkpoint + 1;
        let manifest = encode_manifest(next, entries);
        self.store.commit_checkpoint(checkpoint, &manifest)?;
        self.wal.reset()?;
        self.checkpoint = next;
        self.epochs_since = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("invector-serve-wal-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn batch(table: u16, start: u64, count: u32) -> WalRecord {
        let updates = (0..count).map(|i| Update::i32(start + u64::from(i), i, i as i32)).collect();
        WalRecord::Batch { table, updates }
    }

    /// One table's checkpoint record, streamed into memory.
    fn checkpoint_record(table: u16, watermark: u64, data: &TableData) -> Vec<u8> {
        let mut out = Vec::new();
        encode_checkpoint_table(table, watermark, data, &mut out).expect("in-memory write");
        assert_eq!(out.len(), checkpoint_table_len(data.len()));
        out
    }

    /// Publishes `tables` (id order, each with its watermark) as the next
    /// checkpoint, the way the core does.
    fn publish(state: &mut WalState, specs: &[TableSpec], tables: &[(TableData, u64)]) {
        let mut checkpoint = state.begin_checkpoint().expect("begin checkpoint");
        let mut entries = Vec::new();
        for (t, ((data, watermark), spec)) in tables.iter().zip(specs).enumerate() {
            checkpoint
                .record(checkpoint_table_len(data.len()), |out| {
                    encode_checkpoint_table(t as u16, *watermark, data, out)
                })
                .expect("stream table");
            entries.push(ManifestEntry {
                table: t as u16,
                kind: spec.kind,
                op: spec.op,
                len: spec.len as u64,
                watermark: *watermark,
                checksum: crate::protocol::snapshot_checksum(&data.to_bits()),
            });
        }
        state.publish_checkpoint(checkpoint, &entries).expect("checkpoint");
    }

    /// What a log fetch must return: the encoded records from the start
    /// of `rest` that fit `max_bytes` of payload, and at least one.
    fn expected_page(rest: &[Vec<u8>], max_bytes: u32) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut budget = max_bytes as usize;
        for payload in rest {
            if !out.is_empty() && payload.len() > budget {
                break;
            }
            budget = budget.saturating_sub(payload.len());
            out.push(payload.clone());
        }
        out
    }

    /// Checks every fetch from every start index against `payloads`, the
    /// generation's records as [`WalRecord::encode`] produced them: budgets
    /// of 0 and 1, every exact fit, one byte short of the first record,
    /// and unbounded.
    fn check_pages(state: &WalState, payloads: &[Vec<u8>]) {
        assert_eq!(state.head(), payloads.len() as u64);
        for index in 0..=payloads.len() {
            let rest = &payloads[index..];
            let fetch = |budget: u32| state.records_from(index as u64, budget).expect("read page");
            for budget in [0, 1, u32::MAX] {
                assert_eq!(fetch(budget), expected_page(rest, budget), "index {index}, {budget}");
            }
            let mut fit = 0;
            for (k, payload) in rest.iter().enumerate() {
                fit += payload.len() as u32;
                let page = fetch(fit);
                assert_eq!(page, rest[..=k], "index {index}: exact fit of {} records", k + 1);
            }
            if let Some(first) = rest.first() {
                let short = first.len() as u32 - 1;
                assert_eq!(fetch(short), rest[..1], "index {index}: one record over budget");
            }
        }
    }

    #[test]
    fn log_fetches_read_exactly_the_encoded_records_back_from_the_file() {
        use rand::{Rng, SeedableRng, SmallRng};
        let dir = temp_dir("pages");
        let specs = vec![TableSpec::i32("t", OpKind::Add, 8)];
        let options = WalOptions::new(&dir);
        let mut rng = SmallRng::seed_from_u64(19);
        let mut random_record = |i: u64| {
            if rng.gen_bool(0.6) {
                batch(rng.gen_range(0u16..3), i * 64, rng.gen_range(1u32..40))
            } else {
                WalRecord::Seal { table: rng.gen_range(0u16..3), watermark: i, crc: rng.gen() }
            }
        };
        let records: Vec<WalRecord> = (0..20).map(&mut random_record).collect();
        let mut payloads: Vec<Vec<u8>> = records.iter().map(WalRecord::encode).collect();

        let (mut state, _) = WalState::open(options.clone(), &specs).expect("fresh open");
        for r in &records {
            state.append(r).expect("append");
        }
        check_pages(&state, &payloads);

        // Reopened with no checkpoint: the offsets are rebuilt from
        // recovery, and appends continue the same index.
        drop(state);
        let (mut state, recovery) = WalState::open(options.clone(), &specs).expect("reopen");
        assert_eq!(recovery.replay, records);
        check_pages(&state, &payloads);
        for i in 20..26 {
            let r = random_record(i);
            state.append(&r).expect("append after reopen");
            payloads.push(r.encode());
        }
        check_pages(&state, &payloads);

        // A checkpoint starts a new generation at head 0.
        publish(&mut state, &specs, &[(TableData::I32(vec![3; 8]), 64)]);
        check_pages(&state, &[]);
        let after: Vec<Vec<u8>> = (26..30).map(|i| random_record(i).encode()).collect();
        for payload in &after {
            state.append(&WalRecord::decode(payload).expect("decode")).expect("append");
        }
        check_pages(&state, &after);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_round_trip_and_reject_damage() {
        for record in [
            batch(3, 100, 5),
            WalRecord::Batch { table: 0, updates: Vec::new() },
            WalRecord::Seal { table: 7, watermark: u64::MAX, crc: 0xDEAD_BEEF },
        ] {
            let bytes = record.encode();
            assert_eq!(WalRecord::decode(&bytes).expect("decode"), record);
        }

        assert!(WalRecord::decode(&[]).is_err(), "empty payload");
        assert!(WalRecord::decode(&[0x03]).is_err(), "unknown kind");
        let mut seal = WalRecord::Seal { table: 1, watermark: 2, crc: 3 }.encode();
        seal.pop();
        assert!(WalRecord::decode(&seal).is_err(), "truncated seal");
        let mut b = batch(1, 0, 2).encode();
        b.push(0);
        assert!(WalRecord::decode(&b).is_err(), "trailing byte in batch");
        // A count field that disagrees with the carried update bytes.
        let mut lying = batch(1, 0, 2).encode();
        lying[3] = 9;
        assert!(WalRecord::decode(&lying).is_err(), "count/body mismatch");
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        let entries = vec![
            ManifestEntry {
                table: 0,
                kind: ValueKind::F32,
                op: OpKind::Add,
                len: 1024,
                watermark: 4096,
                checksum: 0x1234_5678,
            },
            ManifestEntry {
                table: 1,
                kind: ValueKind::I32,
                op: OpKind::Max,
                len: 17,
                watermark: 0,
                checksum: 0,
            },
        ];
        let bytes = encode_manifest(42, &entries);
        let (checkpoint, back) = decode_manifest(&bytes).expect("decode");
        assert_eq!(checkpoint, 42);
        assert_eq!(back, entries);

        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(decode_manifest(&wrong_version).is_err(), "version check");
        assert!(decode_manifest(&bytes[..bytes.len() - 1]).is_err(), "truncated row");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_manifest(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn checkpoint_table_codec_round_trips_under_spec() {
        let spec = TableSpec::i32("t", OpKind::Add, 6);
        let data = TableData::I32(vec![1, -2, 3, -4, 5, -6]);
        let bytes = checkpoint_record(4, 99, &data);
        let (table, watermark, back, checksum) =
            decode_checkpoint_table(&bytes, &spec).expect("decode");
        assert_eq!((table, watermark), (4, 99));
        assert_eq!(back, data);
        assert_eq!(checksum, crate::protocol::snapshot_checksum(&data.to_bits()));

        let short = TableSpec::i32("t", OpKind::Add, 5);
        assert!(decode_checkpoint_table(&bytes, &short).is_err(), "spec len mismatch");
        assert!(decode_checkpoint_table(&bytes[..13], &spec).is_err(), "truncated header");
    }

    #[test]
    fn appended_records_survive_reopen_and_checkpoint_truncates() {
        let dir = temp_dir("reopen");
        let specs = vec![TableSpec::i32("t", OpKind::Add, 8)];
        let options = WalOptions::new(&dir);

        let (mut state, recovery) = WalState::open(options.clone(), &specs).expect("fresh open");
        assert!(recovery.installed.is_empty());
        assert!(recovery.replay.is_empty());
        let records = [batch(0, 0, 4), WalRecord::Seal { table: 0, watermark: 4, crc: 7 }];
        for r in &records {
            state.append(r).expect("append");
        }
        state.sync_epoch().expect("sync");
        assert_eq!(state.head(), 2);
        drop(state);

        let (mut state, recovery) = WalState::open(options.clone(), &specs).expect("reopen");
        assert_eq!(recovery.replay, records, "log replays in order");
        assert_eq!(state.head(), 2, "tail rebuilt from disk");

        // Publish a checkpoint: generation bumps, log truncates, and a
        // third open installs the checkpointed state with no replay.
        let data = TableData::I32(vec![5; 8]);
        publish(&mut state, &specs, &[(data.clone(), 4)]);
        assert_eq!(state.checkpoint(), 1);
        assert_eq!(state.head(), 0);
        drop(state);

        let (state, recovery) = WalState::open(options, &specs).expect("post-checkpoint open");
        assert_eq!(state.checkpoint(), 1);
        assert!(recovery.replay.is_empty());
        assert_eq!(recovery.installed, vec![(data, 4)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_first_bad_crc() {
        let dir = temp_dir("torn");
        let specs = vec![TableSpec::i32("t", OpKind::Add, 8)];
        let options = WalOptions::new(&dir);
        let (mut state, _) = WalState::open(options.clone(), &specs).expect("open");
        let good = batch(0, 0, 4);
        state.append(&good).expect("append good");
        state.append(&batch(0, 4, 4)).expect("append to tear");
        state.sync_epoch().expect("sync");
        let wal_path = state.store.wal_path();
        drop(state);

        // Flip a bit in the last record's payload: its frame CRC no longer
        // matches, so recovery must keep only the first record.
        let mut bytes = std::fs::read(&wal_path).expect("read log");
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40;
        std::fs::write(&wal_path, &bytes).expect("rewrite log");

        let (state, recovery) = WalState::open(options, &specs).expect("reopen");
        assert_eq!(recovery.replay, vec![good], "valid prefix survives");
        assert!(recovery.torn.is_some(), "truncation is reported");
        assert_eq!(state.head(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_table_count_mismatch_refuses_to_open() {
        let dir = temp_dir("refuse");
        let specs = vec![TableSpec::i32("t", OpKind::Add, 4)];
        let options = WalOptions::new(&dir);
        let (mut state, _) = WalState::open(options.clone(), &specs).expect("open");
        publish(&mut state, &specs, &[(TableData::I32(vec![0; 4]), 0)]);
        drop(state);

        let two = vec![TableSpec::i32("t", OpKind::Add, 4), TableSpec::i32("u", OpKind::Add, 4)];
        assert!(WalState::open(options.clone(), &two).is_err(), "table count mismatch");
        let wrong_kind = vec![TableSpec::f32("t", OpKind::Add, 4)];
        assert!(WalState::open(options, &wrong_kind).is_err(), "kind mismatch");
        std::fs::remove_dir_all(&dir).ok();
    }
}
