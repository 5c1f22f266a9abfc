//! Durability costs and recovery speed for the replog-backed serve core.
//!
//! Four questions, one Zipf stream (the serving workload's i32-count +
//! f32-min table pair):
//!
//! 1. What does the WAL cost at ingest time? Live ingest throughput is
//!    measured without a log and with `--wal-sync os | epoch | always`.
//! 2. How fast is raw log replay? The whole stream is logged with
//!    checkpoints disabled, the core is dropped, and a fresh
//!    `ServerCore::new` over the directory is timed.
//! 3. How much do checkpoints help? Same, but with a checkpoint published
//!    once the log holds most of the stream, so recovery loads a snapshot
//!    and replays only the tail. The run asserts that the checkpoint was
//!    published before recovery is timed.
//! 4. How fast does a follower catch up? A durable leader ingests the
//!    stream, then a cold follower bootstraps over loopback TCP and tails
//!    until its watermarks match the leader's.
//!
//! Every recovered or followed core must report bitwise-identical per-table
//! checksums to the live reference; a mismatch aborts the run. Emits one
//! JSON document on stdout whose `durability` rows are checked in as part
//! of `BENCH_serve.json`.
//!
//! Run: `cargo run --release -p invector-bench --bin replog_recovery
//!       [--scale f | --full]`

use std::time::{Duration, Instant};

use invector_agg::dist::{self, Distribution};
use invector_bench::arg_scale;
use invector_serve::protocol::UPDATE_WIRE_LEN;
use invector_serve::{
    Follower, LocalClient, OpKind, ServeClient, ServeConfig, Server, ServerCore, SyncPolicy,
    TableSpec, Update, WalOptions,
};

/// Epoch quantum for every cell: the serving workload's fixed batch size.
const QUANTUM: usize = 4_096;
/// Client submission chunk.
const CHUNK: usize = 1_024;
/// Checkpoint cadence (non-empty epochs) of the follower row's leader.
const CHECKPOINT_EPOCHS: u64 = 16;
/// Share of the stream's logged update bytes after which the
/// checkpointed-recovery row publishes a checkpoint. The log crosses it
/// once: at full scale mid-stream, so recovery replays the remaining ~40%
/// as its tail; when the whole stream lands in one epoch (small scales),
/// at that epoch, leaving an empty tail. An epoch cadence cannot promise
/// either, since the epoch count follows the scale.
const CHECKPOINT_SHARE: f64 = 0.6;
/// Same stream seed the harness serving workload uses.
const SEED: u64 = 0x1b_f2_9d;

/// One measured row of the durability table.
struct Row {
    mode: &'static str,
    /// `--wal-sync` label, or "none" for the undurable baseline.
    sync: &'static str,
    seconds: f64,
    /// Recovered/followed state matched the live reference bitwise
    /// (trivially true for ingest rows, which *are* the reference path).
    checksum_ok: bool,
}

fn main() {
    let scale = arg_scale(1.0);
    let rows = ((100_000.0 * scale) as usize).max(10_000);
    let cardinality = 4_096.min(rows);
    let input = dist::generate(Distribution::Zipf, rows, cardinality, SEED);
    let updates = 2 * rows as u64;
    let streams = Streams::from(&input);

    let mut table = Vec::new();

    // 1. Ingest cost: no log, then each sync policy.
    let reference = {
        let (row, checksums) = ingest_cell(&streams, cardinality, None, "none");
        table.push(row);
        checksums
    };
    for (label, sync) in
        [("os", SyncPolicy::Os), ("epoch", SyncPolicy::Epoch), ("always", SyncPolicy::Always)]
    {
        let dir = scratch("ingest", label);
        let wal = wal_options(&dir, sync, 0, 0);
        let (row, checksums) = ingest_cell(&streams, cardinality, Some(wal), label);
        assert_eq!(checksums, reference, "durable ingest diverged ({label})");
        table.push(row);
        std::fs::remove_dir_all(&dir).ok();
    }

    // 2. Raw log replay: full log, no checkpoints.
    table.push(recovery_cell(&streams, cardinality, &reference, 0, "recover_replay"));
    // 3. Checkpoint + tail replay.
    let checkpoint_bytes = (updates as f64 * UPDATE_WIRE_LEN as f64 * CHECKPOINT_SHARE) as u64;
    table.push(recovery_cell(
        &streams,
        cardinality,
        &reference,
        checkpoint_bytes,
        "recover_checkpoint",
    ));
    // 4. Cold follower catchup over loopback.
    table.push(follower_cell(&streams, cardinality, &reference));

    for row in &table {
        eprintln!(
            "{:<20} sync={:<6} {:>9.2} ms  {:>8.2} Mup/s  checksum {}",
            row.mode,
            row.sync,
            row.seconds * 1e3,
            updates as f64 / row.seconds / 1e6,
            if row.checksum_ok { "ok" } else { "MISMATCH" },
        );
    }

    print_json(scale, rows, cardinality, updates, &table);
}

/// The workload's two update streams, pregenerated once.
struct Streams {
    counts: Vec<Update>,
    mins: Vec<Update>,
}

impl Streams {
    fn from(input: &dist::Input) -> Streams {
        let counts = input
            .keys
            .iter()
            .enumerate()
            .map(|(seq, &k)| Update::i32(seq as u64, k as u32, 1))
            .collect();
        let mins = input
            .keys
            .iter()
            .zip(&input.vals)
            .enumerate()
            .map(|(seq, (&k, &v))| Update::f32(seq as u64, k as u32, v))
            .collect();
        Streams { counts, mins }
    }
}

fn scratch(phase: &str, tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("invector-replog-bench-{phase}-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Log options with a checkpoint every `checkpoint_epochs` non-empty
/// epochs or `checkpoint_bytes` of log, whichever first (0 disables a
/// trigger).
fn wal_options(
    dir: &std::path::Path,
    sync: SyncPolicy,
    checkpoint_epochs: u64,
    checkpoint_bytes: u64,
) -> WalOptions {
    let mut wal = WalOptions::new(dir);
    wal.sync = sync;
    wal.checkpoint_epochs = checkpoint_epochs;
    wal.checkpoint_bytes = checkpoint_bytes;
    wal
}

fn config(cardinality: usize, wal: Option<WalOptions>) -> ServeConfig {
    let mut config = ServeConfig::new(vec![
        TableSpec::i32("counts", OpKind::Add, cardinality),
        TableSpec::f32("mins", OpKind::Min, cardinality),
    ]);
    config.quantum = QUANTUM;
    config.queue_capacity = QUANTUM * 4;
    config.wal = wal;
    config
}

/// Per-table `(watermark, checksum)` pairs — the bitwise witness every
/// recovered or followed core is held to.
type Checksums = Vec<(u64, u32)>;

fn checksums_of(core: &std::sync::Arc<ServerCore>) -> Checksums {
    let mut client = LocalClient::new(std::sync::Arc::clone(core));
    (0..2u16)
        .map(|t| {
            let snap = client.snapshot(t).expect("snapshot");
            (snap.watermark, snap.checksum)
        })
        .collect()
}

/// Stream both tables through a fresh core and time submit→flush.
fn ingest_cell(
    streams: &Streams,
    cardinality: usize,
    wal: Option<WalOptions>,
    sync: &'static str,
) -> (Row, Checksums) {
    let core = ServerCore::new(config(cardinality, wal)).expect("config is valid");
    let mut client = LocalClient::new(core.clone());
    let start = Instant::now();
    for (table, stream) in [(0u16, &streams.counts), (1u16, &streams.mins)] {
        for chunk in stream.chunks(CHUNK) {
            client.submit_all(table, chunk).expect("ingest submit");
        }
    }
    client.flush().expect("ingest flush");
    let seconds = start.elapsed().as_secs_f64();
    let checksums = checksums_of(&core);
    (Row { mode: "ingest", sync, seconds, checksum_ok: true }, checksums)
}

/// Log the whole stream durably, drop the core, and time a fresh
/// `ServerCore::new` over the directory — recovery is construction. With
/// `checkpoint_bytes` set, the logging core must have published a
/// checkpoint (recovery then loads it and replays the tail); without, it
/// must have published none (recovery replays the whole log).
fn recovery_cell(
    streams: &Streams,
    cardinality: usize,
    reference: &Checksums,
    checkpoint_bytes: u64,
    mode: &'static str,
) -> Row {
    let dir = scratch("recover", mode);
    let build =
        || config(cardinality, Some(wal_options(&dir, SyncPolicy::Os, 0, checkpoint_bytes)));
    {
        let core = ServerCore::new(build()).expect("config is valid");
        let mut client = LocalClient::new(std::sync::Arc::clone(&core));
        for (table, stream) in [(0u16, &streams.counts), (1u16, &streams.mins)] {
            for chunk in stream.chunks(CHUNK) {
                client.submit_all(table, chunk).expect("logged submit");
            }
        }
        client.flush().expect("logged flush");
        let checkpoints = core.pin_state().checkpoint;
        assert_eq!(
            checkpoints > 0,
            checkpoint_bytes > 0,
            "{mode}: the logging core published {checkpoints} checkpoints"
        );
    }
    let start = Instant::now();
    let core = ServerCore::new(build()).expect("recovery succeeds");
    let seconds = start.elapsed().as_secs_f64();
    let checksum_ok = &checksums_of(&core) == reference;
    assert!(checksum_ok, "{mode} diverged from the live reference");
    drop(core);
    std::fs::remove_dir_all(&dir).ok();
    Row { mode, sync: "os", seconds, checksum_ok }
}

/// Ingest on a durable leader, then time a cold follower from `start` to
/// watermark parity: bootstrap snapshot transfer plus log tail.
fn follower_cell(streams: &Streams, cardinality: usize, reference: &Checksums) -> Row {
    let dir = scratch("follow", "leader");
    let wal = wal_options(&dir, SyncPolicy::Os, CHECKPOINT_EPOCHS, 0);
    let server =
        Server::bind(config(cardinality, Some(wal)), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    {
        let mut client = LocalClient::new(server.core());
        for (table, stream) in [(0u16, &streams.counts), (1u16, &streams.mins)] {
            for chunk in stream.chunks(CHUNK) {
                client.submit_all(table, chunk).expect("leader submit");
            }
        }
        client.flush().expect("leader flush");
    }

    let start = Instant::now();
    let follower =
        Follower::start(&addr.to_string(), config(cardinality, None)).expect("follower starts");
    let deadline = start + Duration::from_secs(60);
    let seconds = loop {
        if &checksums_of(&follower.core()) == reference {
            break start.elapsed().as_secs_f64();
        }
        assert!(Instant::now() < deadline, "follower did not catch up within 60s");
        std::thread::sleep(Duration::from_micros(200));
    };
    follower.stop();
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
    Row { mode: "follower_catchup", sync: "os", seconds, checksum_ok: true }
}

fn print_json(scale: f64, rows: usize, cardinality: usize, updates: u64, table: &[Row]) {
    println!("{{");
    println!("  \"experiment\": \"replog_recovery\",");
    println!("  \"scale\": {scale},");
    println!("  \"rows\": {rows},");
    println!("  \"cardinality\": {cardinality},");
    println!("  \"updates\": {updates},");
    println!("  \"quantum\": {QUANTUM},");
    println!("  \"distribution\": \"zipf\",");
    println!("  \"durability\": [");
    for (i, r) in table.iter().enumerate() {
        println!("    {{");
        println!("      \"mode\": \"{}\",", r.mode);
        println!("      \"wal_sync\": \"{}\",", r.sync);
        println!("      \"elapsed_ms\": {:.3},", r.seconds * 1e3);
        println!("      \"mupdates_per_sec\": {:.3},", updates as f64 / r.seconds / 1e6);
        println!("      \"checksum_matches_reference\": {}", r.checksum_ok);
        println!("    }}{}", if i + 1 < table.len() { "," } else { "" });
    }
    println!("  ]");
    println!("}}");
}
