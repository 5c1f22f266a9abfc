//! `invector-replog`: an append-only, checksummed record log plus a
//! snapshot store — the durability substrate of the serving layer.
//!
//! The crate is deliberately transport- and schema-agnostic: records are
//! opaque byte payloads. `invector-serve` owns the payload encodings (it
//! reuses its wire-protocol codecs), this crate owns the on-disk framing,
//! corruption detection, torn-tail repair, and checkpoint atomicity.
//!
//! # On-disk formats
//!
//! Both the log and every checkpoint file are sequences of CRC-framed
//! records (all integers little-endian):
//!
//! ```text
//! record := len:u32 crc:u32 payload        crc = crc32(payload)
//! ```
//!
//! The log (`wal.log`) is append-only; a crash can leave a torn final
//! record, so [`recover`] accepts the longest valid prefix and truncates
//! the file at the first bad length or CRC. The writer indexes every
//! frame's byte offset, so readers of the log (followers) are served from
//! the file with positioned, CRC-checked reads instead of an in-memory copy.
//! Checkpoint files (`checkpoint-<id>.snap`) and the manifest (`MANIFEST`)
//! are written to a temporary name, fsynced, then renamed, so they are
//! either absent or complete — any framing error inside them is a hard
//! error, never a silent truncation. A checkpoint streams its records into
//! the temporary file one at a time ([`CheckpointWriter`]).
//!
//! # The checksum
//!
//! [`Crc32`] is the IEEE CRC-32 (zlib's), and the serve layer's table and
//! snapshot checksums use it too. On x86-64 CPUs with PCLMULQDQ, found by a
//! runtime probe, buffers of 128 bytes and more fold by carry-less
//! multiplication (Gopal et al., Intel 2009): about 0.05 ns/byte in cache on
//! an Intel Xeon KVM guest, against 0.7–0.8 for the slicing-by-8 table loop
//! that takes short buffers and every other host. The two give the same
//! values, so frames and checksums do not depend on the host that wrote them.

#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod clmul;

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Framing overhead per record (`len:u32 crc:u32`).
pub const RECORD_HEADER_LEN: usize = 8;

/// Upper bound on one record payload. Protects [`recover`] from a corrupt
/// length prefix asking for a multi-gigabyte allocation; a length beyond
/// this is treated as a torn tail, exactly like a bad CRC.
pub const MAX_RECORD_LEN: usize = 256 << 20;

// --- CRC-32 (IEEE 802.3, reflected) ----------------------------------------

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // Slicing tables: tables[n][b] is the CRC contribution of byte `b`
    // positioned n bytes deeper in the stream, letting `slicing_by_8` fold
    // eight input bytes per iteration instead of one.
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[n - 1][i];
            tables[n][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        n += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Streaming CRC-32 (IEEE polynomial, the zlib/`cksum -o 3` variant),
/// dependency-free. Used both for record framing and by the serve layer for
/// table/snapshot checksums, so one implementation defines "checksum"
/// across the durability subsystem. Where the CPU has PCLMULQDQ, buffers of
/// 128 bytes and more fold by carry-less multiplication; everything else runs
/// a slicing-by-8 table loop. Both give the same values.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    ///
    /// The serve layer checksums whole tables (megabytes) on the epoch tick
    /// path, so a long buffer takes the PCLMULQDQ kernel when the running
    /// CPU has it (a runtime probe), and its last few bytes, like every
    /// short buffer, the table loop.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `available()` found PCLMULQDQ on this CPU.
            let (state, tail) = unsafe { clmul::fold(self.state, bytes) };
            self.state = slicing_by_8(state, tail);
            return;
        }
        self.state = slicing_by_8(self.state, bytes);
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// A CRC is also a byte sink, so a checksum can sit behind the same
/// writers that produce the bytes. Writes never fail.
impl Write for Crc32 {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// CRC-32 of one contiguous buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Folds `bytes` into the CRC register `c` eight bytes an iteration, through
/// eight precomputed tables; a final partial word goes byte by byte.
fn slicing_by_8(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// --- fsync policy -----------------------------------------------------------

/// When the log writer forces appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every appended record: an admitted batch survives any
    /// crash, at per-record syscall cost.
    Always,
    /// `fsync` once per epoch (the serve layer calls [`Wal::sync`] at the
    /// end of each tick that appended): a crash can lose at most the
    /// in-flight epoch, which recovery treats as a torn tail.
    #[default]
    Epoch,
    /// Never `fsync`; leave flushing to the OS page cache. Fastest, and
    /// still crash-consistent (the CRC framing truncates whatever the OS
    /// had not written), but the durable prefix lags arbitrarily.
    Os,
}

impl SyncPolicy {
    /// The policy's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Epoch => "epoch",
            SyncPolicy::Os => "os",
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "epoch" => Ok(SyncPolicy::Epoch),
            "os" => Ok(SyncPolicy::Os),
            other => Err(format!("unknown sync policy '{other}' (always | epoch | os)")),
        }
    }
}

// --- record framing ---------------------------------------------------------

/// Appends one framed record to `out`.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Walks framed records in `bytes`, pushing each valid payload. Returns
/// the byte offset of the first invalid record (== `bytes.len()` when the
/// whole buffer parsed) plus the reason parsing stopped early.
fn walk_records(bytes: &[u8], records: &mut Vec<Vec<u8>>) -> (usize, Option<String>) {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + RECORD_HEADER_LEN) else {
            return (pos, Some(format!("partial {}-byte header", bytes.len() - pos)));
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            return (pos, Some(format!("record length {len} exceeds {MAX_RECORD_LEN}")));
        }
        let start = pos + RECORD_HEADER_LEN;
        let Some(payload) = bytes.get(start..start + len) else {
            return (pos, Some(format!("partial record: wanted {len} payload bytes")));
        };
        if crc32(payload) != crc {
            return (pos, Some("crc mismatch".into()));
        }
        records.push(payload.to_vec());
        pos = start + len;
    }
    (pos, None)
}

// --- the log ----------------------------------------------------------------

/// Outcome of [`recover`]: the valid record prefix of a log file.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every intact record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (what the file was truncated to
    /// when a torn tail was found).
    pub valid_bytes: u64,
    /// Why parsing stopped before end-of-file, if it did. A torn tail is
    /// expected after a crash (an append raced the kill) and is repaired,
    /// not fatal.
    pub torn: Option<String>,
}

/// Reads a log file, accepting the longest valid record prefix.
///
/// A missing file recovers as empty. On a torn or corrupt tail (partial
/// header, oversized length, short payload, CRC mismatch) the file is
/// truncated to the valid prefix so a subsequent [`Wal::open`] appends
/// from a clean boundary.
///
/// # Errors
///
/// Propagates I/O failures (not corruption — corruption truncates).
pub fn recover(path: &Path) -> std::io::Result<Recovered> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovered::default()),
        Err(e) => return Err(e),
    }
    let mut records = Vec::new();
    let (valid, torn) = walk_records(&bytes, &mut records);
    if torn.is_some() {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(valid as u64)?;
        f.sync_all()?;
    }
    Ok(Recovered { records, valid_bytes: valid as u64, torn })
}

/// The append-only log writer, and the reader of what it wrote.
///
/// One record per [`append`](Wal::append); durability timing is the
/// caller's via [`sync`](Wal::sync) (see [`SyncPolicy`]). [`open`](Wal::open)
/// recovers the file first, so appends start at a record boundary. The
/// writer keeps each frame's byte offset — recovered frames included — and
/// nothing else per record: [`records_from`](Wal::records_from) reads
/// payloads back from the file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    buf: Vec<u8>,
    /// Byte offset of each frame in the file, in append order; record `i`
    /// ends where record `i + 1` starts, the last one at `bytes`.
    offsets: Vec<u64>,
    bytes: u64,
    appended: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending, after
    /// [`recover`]ing it. Returns the writer, with every recovered frame
    /// indexed, and the recovered records.
    ///
    /// # Errors
    ///
    /// Propagates recovery and open failures.
    pub fn open(path: &Path) -> std::io::Result<(Wal, Recovered)> {
        let recovered = recover(path)?;
        let mut offsets = Vec::with_capacity(recovered.records.len());
        let mut bytes = 0u64;
        for record in &recovered.records {
            offsets.push(bytes);
            bytes += (RECORD_HEADER_LEN + record.len()) as u64;
        }
        debug_assert_eq!(bytes, recovered.valid_bytes);
        let file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
        Ok((Wal { file, buf: Vec::new(), offsets, bytes, appended: 0 }, recovered))
    }

    /// Appends one framed record and writes it through to the OS.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a payload over [`MAX_RECORD_LEN`], before
    /// anything is written: [`recover`] would read such a record as a torn
    /// tail and drop it with every record after it. Otherwise propagates
    /// write failures; on error the on-disk tail may be torn, which a later
    /// [`recover`] repairs.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        if payload.len() > MAX_RECORD_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("record length {} exceeds {MAX_RECORD_LEN}", payload.len()),
            ));
        }
        self.buf.clear();
        frame_into(&mut self.buf, payload);
        self.file.write_all(&self.buf)?;
        self.offsets.push(self.bytes);
        self.bytes += self.buf.len() as u64;
        self.appended += 1;
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` failures.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Truncates the log to empty (the checkpoint path: the snapshot now
    /// covers every logged record) and syncs the truncation.
    ///
    /// # Errors
    ///
    /// Propagates truncate/`fsync` failures.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_all()?;
        self.offsets.clear();
        self.bytes = 0;
        Ok(())
    }

    /// Current log size in bytes (framing included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records in the log, recovered and appended.
    pub fn records(&self) -> u64 {
        self.offsets.len() as u64
    }

    /// Records appended through this writer (not counting pre-existing
    /// records recovered from disk).
    pub fn records_appended(&self) -> u64 {
        self.appended
    }

    /// The payloads of records `index..`, at most `max_bytes` of payload
    /// (always at least one record if any remain). The page is chosen
    /// from the offset index alone, then read from the file in one
    /// positioned read, and every frame's length and CRC is checked
    /// against it. `index` at or past the end returns no records.
    ///
    /// # Errors
    ///
    /// A read failure, or a frame that no longer matches the index or its
    /// CRC (the file changed behind the writer), is an error.
    pub fn records_from(&self, index: u64, max_bytes: u32) -> std::io::Result<Vec<Vec<u8>>> {
        let start = usize::try_from(index).unwrap_or(usize::MAX).min(self.offsets.len());
        let frame_end = |i: usize| self.offsets.get(i + 1).copied().unwrap_or(self.bytes);
        let mut end = start;
        let mut budget = u64::from(max_bytes);
        while end < self.offsets.len() {
            let len = frame_end(end) - self.offsets[end] - RECORD_HEADER_LEN as u64;
            if end > start && len > budget {
                break;
            }
            budget = budget.saturating_sub(len);
            end += 1;
        }
        if end == start {
            return Ok(Vec::new());
        }
        let from = self.offsets[start];
        let mut bytes = vec![0u8; (frame_end(end - 1) - from) as usize];
        read_exact_at(&self.file, &mut bytes, from)?;
        let mut records = Vec::with_capacity(end - start);
        let (_, torn) = walk_records(&bytes, &mut records);
        match torn {
            None if records.len() == end - start => Ok(records),
            reason => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "log records {start}..{end} at byte {from}: {}",
                    reason.unwrap_or_else(|| "frame lengths disagree with the index".into())
                ),
            )),
        }
    }
}

/// Fills `buf` from `file` at byte `offset`, leaving the file's cursor (and
/// so the writer's appends) alone.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fills `buf` from `file` at byte `offset`. The log is opened in append
/// mode, so moving the cursor here cannot move where the writer appends.
#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

// --- the snapshot store -----------------------------------------------------

/// Checkpoint files plus the manifest, under one directory.
///
/// The store holds at most one *current* checkpoint: a checkpoint streams
/// into a temporary file ([`begin_checkpoint`](SnapshotStore::begin_checkpoint)),
/// and [`commit_checkpoint`](SnapshotStore::commit_checkpoint) publishes it
/// atomically (fsync + rename, manifest last), then best-effort deletes
/// older checkpoint files. The manifest payload is
/// caller-defined; by convention it names the checkpoint id and the
/// per-table checksums recovery verifies against.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if absent) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<SnapshotStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The conventional log path next to the checkpoints.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("checkpoint-{id}.snap"))
    }

    /// Reads the manifest payload, or `None` when no checkpoint has ever
    /// been published.
    ///
    /// # Errors
    ///
    /// A present-but-corrupt manifest is an error (`InvalidData`), never a
    /// silent "no checkpoint": the manifest is written atomically, so
    /// corruption means the store cannot be trusted.
    pub fn manifest(&self) -> std::io::Result<Option<Vec<u8>>> {
        match self.read_strict(&self.manifest_path()) {
            Ok(mut records) if records.len() == 1 => Ok(Some(records.pop().expect("one record"))),
            Ok(records) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("manifest holds {} records, expected exactly 1", records.len()),
            )),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reads every record of checkpoint `id`.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unpublished id; `InvalidData` for framing or CRC
    /// damage (checkpoints are atomic — damage is fatal, not truncatable).
    pub fn read_checkpoint(&self, id: u64) -> std::io::Result<Vec<Vec<u8>>> {
        self.read_strict(&self.checkpoint_path(id))
    }

    fn read_strict(&self, path: &Path) -> std::io::Result<Vec<Vec<u8>>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let mut records = Vec::new();
        let (_, torn) = walk_records(&bytes, &mut records);
        if let Some(reason) = torn {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {reason}", path.display()),
            ));
        }
        Ok(records)
    }

    /// Starts checkpoint `id`: creates (or truncates a stale) temporary
    /// file for its records to stream into.
    ///
    /// # Errors
    ///
    /// Propagates the create failure.
    pub fn begin_checkpoint(&self, id: u64) -> std::io::Result<CheckpointWriter> {
        let tmp = self.checkpoint_path(id).with_extension("tmp");
        let out = BufWriter::with_capacity(CHECKPOINT_BUFFER, File::create(&tmp)?);
        Ok(CheckpointWriter { id, tmp, out, pos: 0 })
    }

    /// Publishes a checkpoint atomically: its file first (flush + fsync +
    /// rename), then the manifest the same way, then a best-effort sweep
    /// of older checkpoint files. A crash before the checkpoint's rename
    /// leaves only a temporary file, which the next checkpoint of that id
    /// overwrites; a crash between the two renames leaves the previous
    /// manifest pointing at the previous (still present) checkpoint —
    /// never a manifest naming a missing or partial file.
    ///
    /// # Errors
    ///
    /// Propagates write/rename/`fsync` failures.
    pub fn commit_checkpoint(
        &self,
        checkpoint: CheckpointWriter,
        manifest: &[u8],
    ) -> std::io::Result<()> {
        let CheckpointWriter { id, tmp, out, .. } = checkpoint;
        let file = out.into_inner().map_err(std::io::IntoInnerError::into_error)?;
        self.install(file, &tmp, &self.checkpoint_path(id))?;
        let mut framed = Vec::with_capacity(manifest.len() + RECORD_HEADER_LEN);
        frame_into(&mut framed, manifest);
        let tmp = self.manifest_path().with_extension("tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(&framed)?;
        self.install(file, &tmp, &self.manifest_path())?;
        // Older checkpoints are garbage now; failure to unlink only wastes
        // disk, so ignore errors.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(stale) = name
                    .strip_prefix("checkpoint-")
                    .and_then(|s| s.strip_suffix(".snap").and_then(|s| s.parse::<u64>().ok()))
                {
                    if stale != id {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        Ok(())
    }

    /// Fsync, rename over `path`, fsync the directory — the all-or-nothing
    /// publish step for a fully written temporary file.
    fn install(&self, file: File, tmp: &Path, path: &Path) -> std::io::Result<()> {
        file.sync_all()?;
        drop(file);
        std::fs::rename(tmp, path)?;
        // Persist the rename itself where the platform allows directory
        // fsync; not supported everywhere, so best effort.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Write buffer of a checkpoint being streamed: fixed, whatever the size
/// of the records.
const CHECKPOINT_BUFFER: usize = 64 << 10;

/// A checkpoint being written ([`SnapshotStore::begin_checkpoint`]): each
/// [`record`](CheckpointWriter::record) streams one framed record into the
/// temporary file, and [`SnapshotStore::commit_checkpoint`] publishes it.
/// Dropped uncommitted, it leaves only the temporary file.
#[derive(Debug)]
pub struct CheckpointWriter {
    id: u64,
    tmp: PathBuf,
    out: BufWriter<File>,
    /// Bytes written so far: where the next record's header goes.
    pos: u64,
}

impl CheckpointWriter {
    /// Streams one framed record of exactly `len` payload bytes: a header
    /// placeholder, then whatever `payload` writes (folded into the
    /// record's CRC on the way through), then the 8-byte header written in
    /// place. The payload is never held in memory.
    ///
    /// # Errors
    ///
    /// Propagates write and seek failures and `payload`'s own errors;
    /// `InvalidInput` for a `len` over [`MAX_RECORD_LEN`] or a payload
    /// that wrote other than `len` bytes. After an error the checkpoint
    /// must not be committed.
    pub fn record(
        &mut self,
        len: usize,
        payload: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, m);
        if len > MAX_RECORD_LEN {
            return Err(invalid(format!("record length {len} exceeds {MAX_RECORD_LEN}")));
        }
        let mut header = [0u8; RECORD_HEADER_LEN];
        header[..4].copy_from_slice(&(len as u32).to_le_bytes());
        self.out.write_all(&header)?;
        let mut sink = RecordSink { out: &mut self.out, crc: Crc32::new(), written: 0 };
        payload(&mut sink)?;
        if sink.written != len as u64 {
            return Err(invalid(format!(
                "record payload of {} bytes, framed as {len}",
                sink.written
            )));
        }
        header[4..].copy_from_slice(&sink.crc.finish().to_le_bytes());
        // `BufWriter` writes out its buffer before it seeks.
        self.out.seek(SeekFrom::Start(self.pos))?;
        self.out.write_all(&header)?;
        self.pos += (RECORD_HEADER_LEN + len) as u64;
        self.out.seek(SeekFrom::Start(self.pos))?;
        Ok(())
    }
}

/// Where a streamed record's payload goes: on to the checkpoint file, into
/// the record's CRC, and into the count checked against its framed length.
struct RecordSink<'a> {
    out: &'a mut BufWriter<File>,
    crc: Crc32,
    written: u64,
}

impl Write for RecordSink<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let n = self.out.write(bytes)?;
        self.crc.update(&bytes[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("invector-replog-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut streaming = Crc32::new();
        streaming.update(b"1234");
        streaming.update(b"56789");
        assert_eq!(streaming.finish(), 0xCBF4_3926);
    }

    /// CRC-32 one bit at a time, straight from the reflected polynomial: the
    /// reference both fast paths answer to.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            }
        }
        !c
    }

    /// The PCLMULQDQ kernel's CRC of `bytes` at any length (the table loop
    /// takes what it leaves), or `None` where the CPU lacks the instruction.
    fn folded_crc32(bytes: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available()` found PCLMULQDQ on this CPU.
            let (state, tail) = unsafe { clmul::fold(!0, bytes) };
            return Some(!slicing_by_8(state, tail));
        }
        let _ = bytes;
        None
    }

    #[test]
    fn every_crc32_path_matches_a_bit_at_a_time_reference() {
        if folded_crc32(&[]).is_none() {
            println!("crc32: no PCLMULQDQ on this host, skipping the folding kernel's rows");
        }
        let longest = (4 << 20) + 3;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC3C3);
        let data: Vec<u8> = (0..longest + 16).map(|_| rng.gen()).collect();
        // Every length up to 1 KiB crosses the kernel's 64-byte first fold,
        // its 128-byte dispatch threshold and each tail length; the rest sit
        // around the serve layer's 4 KiB staging buffer and far past it.
        for len in (0..=1024).chain([4095, 4096, 4097, 65_541, longest]) {
            for offset in 0..16 {
                let bytes = &data[offset..offset + len];
                let want = bitwise_crc32(bytes);
                let at = format!("{len} bytes at offset {offset}");
                assert_eq!(!slicing_by_8(!0, bytes), want, "slicing-by-8, {at}");
                assert_eq!(crc32(bytes), want, "crc32, {at}");
                if let Some(got) = folded_crc32(bytes) {
                    assert_eq!(got, want, "PCLMULQDQ kernel, {at}");
                }
            }
        }
    }

    #[test]
    fn sync_policy_parses_and_displays() {
        assert_eq!("always".parse::<SyncPolicy>().unwrap(), SyncPolicy::Always);
        assert_eq!("epoch".parse::<SyncPolicy>().unwrap(), SyncPolicy::Epoch);
        assert_eq!("os".parse::<SyncPolicy>().unwrap(), SyncPolicy::Os);
        assert!("everysooften".parse::<SyncPolicy>().is_err());
        assert_eq!(SyncPolicy::Epoch.to_string(), "epoch");
    }

    #[test]
    fn log_round_trips_records_in_order() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("wal.log");
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![0xFF; 100]];
        {
            let (mut wal, rec) = Wal::open(&path).unwrap();
            assert!(rec.records.is_empty());
            for p in &payloads {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
            assert_eq!((wal.records(), wal.records_appended()), (3, 3));
        }
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records, payloads);
        assert!(rec.torn.is_none());
        // Reopening recovers the records and appends after them.
        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.records, payloads);
        assert_eq!((wal.records(), wal.records_appended()), (3, 0));
        wal.append(b"tail").unwrap();
        drop(wal);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records.len(), 4);
        assert_eq!(rec.records[3], b"tail");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What `records_from` must return: the records from `index` that fit
    /// `max_bytes` of payload, and at least one.
    fn page(payloads: &[Vec<u8>], index: usize, max_bytes: u32) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut budget = max_bytes as usize;
        for p in payloads.iter().skip(index) {
            if !out.is_empty() && p.len() > budget {
                break;
            }
            budget = budget.saturating_sub(p.len());
            out.push(p.clone());
        }
        out
    }

    #[test]
    fn records_are_read_back_from_the_file_across_reopen_and_reset() {
        let dir = temp_dir("readback");
        let path = dir.join("wal.log");
        let payloads: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 3 * usize::from(i)]).collect();
        let (mut wal, _) = Wal::open(&path).unwrap();
        for p in &payloads[..5] {
            wal.append(p).unwrap();
        }
        drop(wal);
        // The reopened writer indexes the recovered frames and keeps
        // appending after them.
        let (mut wal, _) = Wal::open(&path).unwrap();
        for p in &payloads[5..] {
            wal.append(p).unwrap();
        }
        for index in 0..=payloads.len() + 1 {
            for max_bytes in [0, 1, 12, 40, u32::MAX] {
                assert_eq!(
                    wal.records_from(index as u64, max_bytes).unwrap(),
                    page(&payloads, index, max_bytes),
                    "index {index}, budget {max_bytes}"
                );
            }
        }
        wal.reset().unwrap();
        assert!(wal.records_from(0, u32::MAX).unwrap().is_empty());
        wal.append(b"after").unwrap();
        assert_eq!(wal.records_from(0, 0).unwrap(), vec![b"after".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_changed_behind_the_writer_is_a_read_error() {
        let dir = temp_dir("behind");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for p in [b"first".as_slice(), b"second", b"third"] {
            wal.append(p).unwrap();
        }
        // A flipped payload byte fails that frame's CRC.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(wal.records_from(0, 5).unwrap(), vec![b"first".to_vec()]);
        let err = wal.records_from(1, u32::MAX).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A truncated file fails the read itself.
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(10).unwrap();
        assert!(wal.records_from(0, u32::MAX).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_log_recovers_empty() {
        let dir = temp_dir("missing");
        let rec = recover(&dir.join("nope.log")).unwrap();
        assert!(rec.records.is_empty());
        assert!(rec.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_truncates_for_the_next_checkpoint_interval() {
        let dir = temp_dir("reset");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"before").unwrap();
        wal.reset().unwrap();
        wal.append(b"after").unwrap();
        drop(wal);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records, vec![b"after".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_oversized_record_is_refused_before_anything_is_written() {
        let dir = temp_dir("toolong");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"good").unwrap();
        let before = std::fs::read(&path).unwrap();
        // Zeroed by the allocator and never read: the length check comes
        // first, so the pages stay untouched.
        let oversized = vec![0u8; MAX_RECORD_LEN + 1];
        let err = wal.append(&oversized).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(std::fs::read(&path).unwrap(), before, "nothing written");
        assert_eq!((wal.records(), wal.bytes()), (1, before.len() as u64));
        // The log goes on, and recovery keeps every record after the refusal.
        wal.append(b"after").unwrap();
        drop(wal);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records, vec![b"good".to_vec(), b"after".to_vec()]);
        assert!(rec.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_length_prefix_is_a_torn_tail_not_an_allocation() {
        let dir = temp_dir("oversize");
        let path = dir.join("wal.log");
        let mut bytes = Vec::new();
        frame_into(&mut bytes, b"good");
        let valid = bytes.len();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert_eq!(rec.valid_bytes, valid as u64);
        assert!(rec.torn.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Streams `records` into checkpoint `id` and commits it.
    fn write_checkpoint(store: &SnapshotStore, id: u64, records: &[&[u8]], manifest: &[u8]) {
        let mut checkpoint = store.begin_checkpoint(id).unwrap();
        for r in records {
            checkpoint.record(r.len(), |out| out.write_all(r)).unwrap();
        }
        store.commit_checkpoint(checkpoint, manifest).unwrap();
    }

    #[test]
    fn snapshot_store_publishes_and_reads_back() {
        let dir = temp_dir("store");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.manifest().unwrap().is_none(), "fresh store has no manifest");
        write_checkpoint(&store, 1, &[b"table0", b"table1"], b"manifest-1");
        assert_eq!(store.manifest().unwrap().unwrap(), b"manifest-1");
        assert_eq!(store.read_checkpoint(1).unwrap(), vec![b"table0".to_vec(), b"table1".to_vec()]);
        // Publishing checkpoint 2 supersedes and sweeps checkpoint 1.
        write_checkpoint(&store, 2, &[b"t0v2"], b"manifest-2");
        assert_eq!(store.manifest().unwrap().unwrap(), b"manifest-2");
        assert!(store.read_checkpoint(1).is_err(), "old checkpoint swept");
        assert_eq!(store.read_checkpoint(2).unwrap(), vec![b"t0v2".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_records_are_framed_like_appended_ones() {
        let dir = temp_dir("streamed");
        let store = SnapshotStore::open(&dir).unwrap();
        let big: Vec<u8> = (0..3 * CHECKPOINT_BUFFER + 5).map(|i| (i * 7) as u8).collect();
        let mut checkpoint = store.begin_checkpoint(4).unwrap();
        checkpoint.record(0, |_| Ok(())).unwrap();
        // Written in uneven pieces, across several buffer flushes.
        checkpoint
            .record(big.len(), |out| big.chunks(1000).try_for_each(|c| out.write_all(c)))
            .unwrap();
        checkpoint.record(3, |out| out.write_all(b"end")).unwrap();
        store.commit_checkpoint(checkpoint, b"m").unwrap();
        let mut expect = Vec::new();
        for r in [&[][..], &big, b"end"] {
            frame_into(&mut expect, r);
        }
        assert_eq!(std::fs::read(dir.join("checkpoint-4.snap")).unwrap(), expect);
        assert!(!dir.join("checkpoint-4.tmp").exists(), "temporary file renamed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_streamed_record_must_write_its_framed_length() {
        let dir = temp_dir("shortrecord");
        let store = SnapshotStore::open(&dir).unwrap();
        let mut checkpoint = store.begin_checkpoint(1).unwrap();
        let err = checkpoint.record(4, |out| out.write_all(b"abc")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let err = checkpoint.record(MAX_RECORD_LEN + 1, |_| Ok(())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_an_error_not_a_fresh_start() {
        let dir = temp_dir("badmanifest");
        let store = SnapshotStore::open(&dir).unwrap();
        write_checkpoint(&store, 1, &[b"x"], b"m");
        // Flip one byte of the manifest payload on disk.
        let path = dir.join("MANIFEST");
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.manifest().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Split updates compose: a stream fed in pieces on both sides of the
        /// 128-byte threshold gives the one-shot value.
        #[test]
        fn crc32_of_pieces_is_the_crc32_of_the_whole(
            data in prop::collection::vec(any::<u8>(), 0..2048),
            cuts in prop::collection::vec(0usize..400, 0..12),
        ) {
            let mut streaming = Crc32::new();
            let mut rest = data.as_slice();
            for cut in cuts {
                let (piece, after) = rest.split_at(cut.min(rest.len()));
                streaming.update(piece);
                rest = after;
            }
            streaming.update(rest);
            prop_assert_eq!(streaming.finish(), bitwise_crc32(&data));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn any_tail_damage_truncates_to_the_longest_valid_prefix(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..12),
            cut_frac in 0.0f64..1.0,
            flip in any::<bool>(),
        ) {
            let dir = temp_dir("torn");
            let path = dir.join("wal.log");
            let mut bytes = Vec::new();
            let mut boundaries = vec![0usize];
            for p in &payloads {
                frame_into(&mut bytes, p);
                boundaries.push(bytes.len());
            }
            // Damage point anywhere in the file (cut or bit-flip past it).
            let at = ((bytes.len() as f64) * cut_frac) as usize;
            if flip && at < bytes.len() {
                bytes[at] ^= 0x40;
            } else {
                bytes.truncate(at);
            }
            std::fs::write(&path, &bytes).unwrap();

            let rec = recover(&path).unwrap();
            // The recovered prefix is exactly the records wholly before the
            // damage point.
            let intact = boundaries.iter().filter(|&&b| b <= at).count() - 1;
            prop_assert!(rec.records.len() >= intact.min(payloads.len()));
            for (got, want) in rec.records.iter().zip(payloads.iter()) {
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(rec.valid_bytes as usize, boundaries[rec.records.len()]);
            // Idempotent: recovering the repaired file finds no damage and
            // the same records.
            let again = recover(&path).unwrap();
            prop_assert!(again.torn.is_none());
            prop_assert_eq!(again.records.len(), rec.records.len());
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
