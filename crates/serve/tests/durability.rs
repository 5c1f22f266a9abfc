//! Durability and replication properties:
//!
//! 1. **Crash recovery.** For any admitted stream and any kill point, a
//!    server restarted over the WAL directory reconstructs tables bitwise
//!    identical to an uninterrupted run at the same watermark — the
//!    determinism contract extended through a crash.
//! 2. **Torn tails.** A log cut off (or bit-flipped) at any byte recovers
//!    the longest valid record prefix and serves exactly that state.
//! 3. **Tamper refusal.** A log record altered *consistently* (valid
//!    framing, wrong contents) is caught by the next `Seal`'s state
//!    checksum, and the server refuses to start. Recovery and a follower
//!    fed the same bad log refuse it at the same record, for the same
//!    reason.
//! 4. **Follower convergence.** A follower tailing a leader over loopback
//!    TCP verifies every epoch seal and converges bitwise, through
//!    checkpoint resets and from a table whose `Snapshot` frame is over the
//!    frame cap; a tampered record parks it in `Diverged`.
//! 5. **Interrupted publishes and a log cut behind a live leader.** A
//!    checkpoint publish cut off halfway leaves a partial temporary file
//!    that recovery ignores and the next publish replaces; a log file cut
//!    behind a live leader fails log fetches with an error reply while the
//!    leader keeps serving.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rand::{Rng, SeedableRng, SmallRng};

use invector_core::exec::ExecVariant;
use invector_replog::recover;
use invector_serve::protocol::{
    read_frame, write_frame, Reply, Request, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use invector_serve::{
    EpochPolicy, FollowStatus, Follower, LocalClient, OpKind, ServeClient, ServeConfig, Server,
    ServerCore, SubmitOutcome, SyncPolicy, TableSpec, TcpClient, TraceEntry, TuneMode, Update,
    WalOptions, WalRecord,
};

const TABLE_LEN: usize = 48;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("invector-serve-durability-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn tables() -> Vec<TableSpec> {
    vec![
        TableSpec::i32("counts", OpKind::Add, TABLE_LEN),
        TableSpec::f32("sums", OpKind::Add, TABLE_LEN),
    ]
}

fn generate_streams(rng: &mut SmallRng, len: usize) -> Vec<Vec<Update>> {
    let mut streams = vec![Vec::new(), Vec::new()];
    for seq in 0..len as u64 {
        let idx = rng.gen_range(0u32..TABLE_LEN as u32);
        streams[0].push(Update::i32(seq, idx, rng.gen_range(-100i32..100)));
        let idx = rng.gen_range(0u32..TABLE_LEN as u32);
        streams[1].push(Update::f32(seq, idx, rng.gen_range(-1.0f32..1.0)));
    }
    streams
}

fn config_with_wal(dir: &PathBuf, quantum: usize) -> ServeConfig {
    let mut config = ServeConfig::new(tables());
    config.quantum = quantum;
    let mut wal = WalOptions::new(dir);
    wal.sync = SyncPolicy::Os; // tests simulate process death, not power loss
    wal.checkpoint_epochs = 0; // explicit checkpoint control per test
    wal.checkpoint_bytes = 0;
    config.wal = Some(wal);
    config
}

/// Uninterrupted no-WAL reference: feed exactly `watermark` updates of each
/// stream through the same quantum and return the snapshot bits. Epoch
/// timing cannot matter (that is the determinism contract, proven in
/// serve_properties), so plain submit + flush is a valid reference for any
/// run whose cuts all fell on quantum boundaries.
fn reference_at(streams: &[Vec<Update>], quantum: usize, watermarks: &[u64]) -> Vec<Vec<u32>> {
    let mut config = ServeConfig::new(tables());
    config.quantum = quantum;
    let core = ServerCore::new(config).expect("reference core");
    let mut client = LocalClient::new(core);
    for (t, stream) in streams.iter().enumerate() {
        client.submit_all(t as u16, &stream[..watermarks[t] as usize]).expect("submit");
    }
    client.flush().expect("flush");
    (0..streams.len()).map(|t| client.snapshot(t as u16).expect("snapshot").bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any admitted stream, any kill point: the restarted server's tables
    /// are bitwise identical to an uninterrupted run at the same
    /// watermark. The "crash" drops the core with updates still queued and
    /// partially applied; only logged slices may survive, and all of them
    /// must.
    #[test]
    fn recovery_is_bitwise_identical_to_an_uninterrupted_run(
        seed in any::<u64>(),
        len in 1usize..400,
        quantum_pow in 2u32..6,
        kill_after in 0usize..64,
    ) {
        let quantum = 1usize << quantum_pow;
        let mut rng = SmallRng::seed_from_u64(seed);
        let streams = generate_streams(&mut rng, len);
        let dir = temp_dir("kill");

        // Interleave submissions and ticks, stopping abruptly after
        // `kill_after` steps (capped by however many steps there are).
        {
            let core = ServerCore::new(config_with_wal(&dir, quantum)).expect("core");
            let mut client = LocalClient::new(core.clone());
            let mut steps = 0usize;
            'ingest: for (t, stream) in streams.iter().enumerate() {
                for chunk in stream.chunks(13) {
                    client.submit_all(t as u16, chunk).expect("submit");
                    if rng.gen_bool(0.4) {
                        core.tick(false);
                    }
                    steps += 1;
                    if steps >= kill_after {
                        break 'ingest;
                    }
                }
            }
            core.tick(false);
            // Drop without flush/shutdown: the crash.
        }

        // Restart over the WAL dir. Whatever watermark the log carries,
        // the state must equal the reference at exactly that watermark.
        let recovered = ServerCore::new(config_with_wal(&dir, quantum)).expect("recovery");
        let watermarks: Vec<u64> =
            (0..streams.len()).map(|t| recovered.snapshot(t as u16).expect("snapshot").watermark).collect();
        for wm in &watermarks {
            prop_assert_eq!(wm % quantum as u64, 0, "non-drain cuts are whole quanta");
        }
        let expect = reference_at(&streams, quantum, &watermarks);
        for (t, want) in expect.iter().enumerate() {
            let got = recovered.snapshot(t as u16).expect("snapshot").bits();
            prop_assert_eq!(&got, want, "table {} diverged after recovery", t);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cutting the log at any byte (a torn write) recovers the longest
    /// valid record prefix: the reopen succeeds and serves the reference
    /// state at the recovered (possibly shorter) watermark.
    #[test]
    fn torn_tails_recover_the_longest_valid_prefix(
        seed in any::<u64>(),
        len in 32usize..300,
        cut_fraction in 0.0f64..1.0,
    ) {
        let quantum = 8usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let streams = generate_streams(&mut rng, len);
        let dir = temp_dir("tear");

        {
            let core = ServerCore::new(config_with_wal(&dir, quantum)).expect("core");
            let mut client = LocalClient::new(core.clone());
            for (t, stream) in streams.iter().enumerate() {
                client.submit_all(t as u16, stream).expect("submit");
            }
            core.tick(false);
        }
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).expect("read log");
        prop_assert!(!bytes.is_empty(), "len >= 32 with quantum 8 always logs slices");
        let keep = ((bytes.len() as f64) * cut_fraction) as usize;
        std::fs::write(&wal_path, &bytes[..keep]).expect("tear log");

        let recovered = ServerCore::new(config_with_wal(&dir, quantum)).expect("recovery");
        let watermarks: Vec<u64> =
            (0..streams.len()).map(|t| recovered.snapshot(t as u16).expect("snapshot").watermark).collect();
        let expect = reference_at(&streams, quantum, &watermarks);
        for (t, want) in expect.iter().enumerate() {
            let got = recovered.snapshot(t as u16).expect("snapshot").bits();
            prop_assert_eq!(&got, want, "table {} diverged after torn-tail recovery", t);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A short durable run — `n` unit increments on table 0, cut by one
/// non-draining tick — and the records its log holds, decoded.
fn logged_run(dir: &PathBuf, quantum: usize, n: u64) -> Vec<WalRecord> {
    {
        let core = ServerCore::new(config_with_wal(dir, quantum)).expect("core");
        let mut client = LocalClient::new(core.clone());
        let updates: Vec<Update> =
            (0..n).map(|seq| Update::i32(seq, (seq % TABLE_LEN as u64) as u32, 1)).collect();
        client.submit_all(0, &updates).expect("submit");
        core.tick(false);
    }
    let recovered = recover(&dir.join("wal.log")).expect("recover");
    assert!(recovered.torn.is_none());
    recovered.records.iter().map(|p| WalRecord::decode(p).expect("decode")).collect()
}

/// Rewrites the whole log as `records` with correct framing, so only the
/// record contents can give a tampering away.
fn rewrite_log(dir: &Path, records: &[WalRecord]) {
    let wal_path = dir.join("wal.log");
    std::fs::remove_file(&wal_path).expect("drop log");
    let (mut wal, _) = invector_replog::Wal::open(&wal_path).expect("fresh log");
    for r in records {
        wal.append(&r.encode()).expect("append");
    }
    wal.sync().expect("sync");
}

/// A record altered with *valid* framing — the attack a frame CRC cannot
/// catch — is caught by the next seal's state checksum: the restart fails
/// loudly instead of serving diverged state.
#[test]
fn consistently_tampered_log_refuses_to_serve() {
    let quantum = 8usize;
    let dir = temp_dir("tamper");
    let mut records = logged_run(&dir, quantum, 64);

    // Flip one bit of one batch update's value.
    let tampered = records
        .iter_mut()
        .find_map(|r| match r {
            WalRecord::Batch { updates, .. } => Some(updates),
            WalRecord::Seal { .. } => None,
        })
        .expect("a batch record");
    tampered[3] = Update::i32(tampered[3].seq, tampered[3].idx, 2);
    rewrite_log(&dir, &records);

    let err = ServerCore::new(config_with_wal(&dir, quantum))
        .expect_err("tampered log must refuse to serve");
    assert!(
        err.contains("refusing to serve") || err.contains("diverged"),
        "error must name the divergence: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash recovery and a follower run the same record path, so they refuse
/// a bad log at the same record for the same reason: a seal whose
/// watermark is off by one, a seal with one checksum bit flipped, and a
/// batch for a table that does not exist.
#[test]
fn recovery_and_followers_refuse_a_bad_log_the_same_way() {
    let quantum = 8usize;
    let dir = temp_dir("refuse");
    let records = logged_run(&dir, quantum, 32);
    let seal = records.iter().position(|r| matches!(r, WalRecord::Seal { .. })).expect("a seal");
    let batch = records.iter().position(|r| matches!(r, WalRecord::Batch { .. })).expect("a batch");

    type Tamper = fn(&mut WalRecord);
    let tampers: [(&str, usize, Tamper); 3] = [
        ("seal watermark off by one", seal, |r| {
            if let WalRecord::Seal { watermark, .. } = r {
                *watermark += 1;
            }
        }),
        ("seal checksum bit flipped", seal, |r| {
            if let WalRecord::Seal { crc, .. } = r {
                *crc ^= 1 << 7;
            }
        }),
        ("batch for an unknown table", batch, |r| {
            if let WalRecord::Batch { table, .. } = r {
                *table = tables().len() as u16;
            }
        }),
    ];
    for (what, at, tamper) in tampers {
        let mut log = records.clone();
        tamper(&mut log[at]);
        rewrite_log(&dir, &log);

        let at_recovery = ServerCore::new(config_with_wal(&dir, quantum))
            .expect_err("recovery must refuse a tampered log");
        assert!(
            at_recovery.contains("refusing to serve") || at_recovery.contains("diverged"),
            "{what}: {at_recovery}"
        );

        let replica = ServerCore::new(ServeConfig { quantum, ..ServeConfig::new(tables()) })
            .expect("replica core");
        replica.set_read_only(true);
        let (i, at_follower) = log
            .iter()
            .enumerate()
            .find_map(|(i, r)| replica.apply_replica(r).err().map(|e| (i, e)))
            .expect("the follower must refuse a tampered log");
        assert!(at_follower.contains("divergence"), "{what}: {at_follower}");
        assert_eq!(i, at, "{what}: refused at the tampered record");
        assert_eq!(at_recovery, format!("WAL record {i}: {at_follower}"), "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// With a WAL and a replayed policy trace, recovery loads the trace's
/// schedules before it replays the log, so each logged slice is applied
/// again under the policy it was cut under and every seal verifies. A
/// restart without the trace replays the same slices under the initial
/// policy, and the seals refuse it.
#[test]
fn recovery_replays_the_log_under_the_replayed_policy_schedule() {
    let quantum = 4usize;
    let dir = temp_dir("replay-schedule");
    let config = |tune: TuneMode| ServeConfig { tune, ..config_with_wal(&dir, quantum) };
    // From watermark 16 on, both tables cut at quantum 8 with the scalar
    // variant, whose left fold rounds f32 sums differently from the
    // in-vector group fold.
    let policy = ServeConfig::new(tables()).policy().variant(ExecVariant::Serial);
    let trace =
        vec![TraceEntry { epoch: 1, policy: EpochPolicy::new(policy, 8), at: vec![16, 16] }];

    // Hot f32 slots: many conflicts per slice, so the two folds disagree.
    let mut rng = SmallRng::seed_from_u64(0x5c4e);
    let sums: Vec<Update> = (0..64u64)
        .map(|seq| Update::f32(seq, rng.gen_range(0..3), rng.gen_range(-1.0..1.0)))
        .collect();
    let counts: Vec<Update> = (0..64u64).map(|seq| Update::i32(seq, (seq % 5) as u32, 1)).collect();
    let before = {
        let core = ServerCore::new(config(TuneMode::Replay(trace.clone()))).expect("core");
        let mut client = LocalClient::new(core.clone());
        client.submit_all(0, &counts).expect("submit");
        client.submit_all(1, &sums).expect("submit");
        core.tick(false);
        (0..2u16).map(|t| core.snapshot(t).expect("snapshot")).collect::<Vec<_>>()
        // Dropped without a drain: the crash.
    };

    let recovered = ServerCore::new(config(TuneMode::Replay(trace))).expect("recovery");
    for (t, want) in before.iter().enumerate() {
        let got = recovered.snapshot(t as u16).expect("snapshot");
        assert_eq!(got.watermark, 64);
        assert_eq!(got.bits(), want.bits(), "table {t} diverged after recovery");
    }
    let err = ServerCore::new(config(TuneMode::Off))
        .expect_err("replaying under the initial policy must fail a seal");
    assert!(err.contains("divergence"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Where an epoch cuts must not depend on which path a slice took. One
/// two-table stream goes to four WAL-backed cores:
/// - one admits it in order, so full quanta are cut straight from the
///   staging columns;
/// - one holds each phase's first batch back until the rest is staged, so
///   every update waits in the reorder buffer;
/// - one holds each phase's second batch back, so a direct cut of the
///   first batch is followed by runs beyond a gap and then the gap fill;
/// - one admits in order but runs an epoch after every batch, so each
///   batch first tops up the sub-quantum tail the last epoch left in the
///   reorder buffer.
///
/// The first three run the same epochs, so their decoded logs — `Batch`
/// records (first seq, length, columns) and `Seal` records (watermark,
/// crc) — and final snapshots must be bitwise equal. The fourth seals more
/// epochs, so its `Batch` records, table by table, and its snapshots must
/// equal theirs. All of it in one phase and with a mid-stream flush that
/// drains a phase's staged runs itself, under a fixed quantum and under a
/// replayed trace whose quantum changes at a watermark that is not a
/// multiple of the old one.
#[test]
fn in_order_cuts_log_the_same_slices_as_the_reorder_buffer() {
    let quantum = 8usize;
    let len = 300usize;
    let streams = generate_streams(&mut SmallRng::seed_from_u64(0x1c07), len);
    // Quantum 8 until watermark 20, then 5.
    let policy = ServeConfig::new(tables()).policy();
    let replay = TuneMode::Replay(vec![TraceEntry {
        epoch: 1,
        policy: EpochPolicy::new(policy, 5),
        at: vec![20, 20],
    }]);
    // (batch held back to the end of its phase, epoch after every batch)
    let feeds = [(None, false), (Some(0), false), (Some(1), false), (None, true)];
    for (tune, phases) in [
        (TuneMode::Off, vec![0, len]),
        (TuneMode::Off, vec![0, 151, len]),
        (replay.clone(), vec![0, len]),
        (replay, vec![0, 151, len]),
    ] {
        let [in_order, held_first, held_second, ticked] = feeds.map(|(hold, tick_each)| {
            let dir = temp_dir("cut-path");
            let config = ServeConfig {
                tune: tune.clone(),
                queue_capacity: len,
                ..config_with_wal(&dir, quantum)
            };
            let snapshots: Vec<(u64, Vec<u32>)> = {
                let core = ServerCore::new(config).expect("core");
                for (p, phase) in phases.windows(2).enumerate() {
                    for (t, stream) in streams.iter().enumerate() {
                        let mut batches: Vec<&[Update]> =
                            stream[phase[0]..phase[1]].chunks(13).collect();
                        if let Some(i) = hold {
                            let held = batches.remove(i);
                            batches.push(held);
                        }
                        for batch in batches {
                            let outcome = core.submit(t as u16, batch);
                            assert!(
                                matches!(outcome, SubmitOutcome::Accepted { .. }),
                                "{outcome:?}"
                            );
                            if tick_each {
                                core.tick(false);
                            }
                        }
                    }
                    if p + 2 < phases.len() {
                        core.flush();
                    } else {
                        core.tick(false);
                    }
                }
                core.flush();
                (0..2u16)
                    .map(|t| core.snapshot(t).expect("snapshot"))
                    .map(|s| (s.watermark, s.bits()))
                    .collect()
            };
            let recovered = recover(&dir.join("wal.log")).expect("recover");
            let records: Vec<WalRecord> =
                recovered.records.iter().map(|p| WalRecord::decode(p).expect("decode")).collect();
            std::fs::remove_dir_all(&dir).ok();
            (records, snapshots)
        });
        assert_eq!(in_order.1[0].0, len as u64, "the whole stream is applied");
        assert!(in_order.0.len() > 2 * (len / quantum), "{tune:?}: every slice is logged");
        let case = format!("{tune:?}, phases {phases:?}");
        assert_eq!(in_order, held_first, "{case}: the direct cut moved a cut");
        assert_eq!(held_second, held_first, "{case}: a direct cut before a gap moved a cut");
        // Per table: epochs interleave the two tables' slices differently.
        let batches = |records: &[WalRecord]| -> Vec<Vec<WalRecord>> {
            (0..2u16)
                .map(|t| {
                    let ours =
                        |r: &&WalRecord| matches!(r, WalRecord::Batch { table, .. } if *table == t);
                    records.iter().filter(ours).cloned().collect()
                })
                .collect()
        };
        assert_eq!(
            (batches(&ticked.0), &ticked.1),
            (batches(&held_first.0), &held_first.1),
            "{case}: a topped-up tail moved a cut"
        );
    }
}

/// Leader/follower loopback: a follower bootstraps from a streamed snapshot,
/// tails the log through >=100 epochs of concurrent ingest (crossing
/// several checkpoint resets), verifies every seal, and finishes bitwise
/// identical to the leader.
#[test]
fn follower_converges_bitwise_across_100_epochs_and_checkpoints() {
    let quantum = 16usize;
    let dir = temp_dir("follow");
    let mut config = config_with_wal(&dir, quantum);
    // Checkpoint every 32 non-empty epochs so the run crosses several
    // generations and exercises the reset/re-bootstrap path, not just the
    // steady tail.
    if let Some(wal) = config.wal.as_mut() {
        wal.checkpoint_epochs = 32;
    }
    let server = Server::bind(config, "127.0.0.1:0").expect("bind leader");
    let addr = server.local_addr().to_string();

    let follower = Follower::start(&addr, ServeConfig::new(Vec::new())).expect("follower");

    // Concurrent ingest: one quantum per table per epoch, Flush forcing
    // the epoch boundary, for 120 epochs.
    const EPOCHS: usize = 160;
    let mut ingest = TcpClient::connect(&addr).expect("ingest client");
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for epoch in 0..EPOCHS {
        for t in 0..2u16 {
            let base = (epoch * quantum) as u64;
            let updates: Vec<Update> = (0..quantum as u64)
                .map(|i| {
                    let idx = rng.gen_range(0u32..TABLE_LEN as u32);
                    if t == 0 {
                        Update::i32(base + i, idx, rng.gen_range(-9i32..9))
                    } else {
                        Update::f32(base + i, idx, rng.gen_range(-1.0f32..1.0))
                    }
                })
                .collect();
            ingest.submit_all(t, &updates).expect("submit");
        }
        ingest.flush().expect("flush");
        // Pace ingest at roughly the follower's poll cadence: the point is
        // live tailing with per-epoch verification, not a bootstrap race.
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Wait for the follower to reach the leader's watermark on both tables.
    let target = (EPOCHS * quantum) as u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let caught_up = (0..2u16)
            .all(|t| follower.core().snapshot(t).map(|s| s.watermark == target).unwrap_or(false));
        if caught_up {
            break;
        }
        if let FollowStatus::Diverged(m) = follower.status() {
            panic!("follower diverged: {m}");
        }
        assert!(std::time::Instant::now() < deadline, "follower failed to catch up");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    for t in 0..2u16 {
        let leader = ingest.snapshot(t).expect("leader snapshot");
        let follow = follower.core().snapshot(t).expect("follower snapshot");
        assert_eq!(leader.watermark, follow.watermark);
        assert_eq!(leader.checksum, follow.checksum, "table {t} checksum differs");
        assert_eq!(leader.bits(), follow.bits(), "table {t} bits differ");
    }
    assert!(matches!(follower.status(), FollowStatus::Tailing));
    let text = follower.core().metrics_text();
    let verified: u64 = text
        .lines()
        .find(|l| l.starts_with("invector_serve_follower_epochs_verified_total"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("verified series");
    assert!(verified >= 100, "only {verified} seals verified");
    let bootstraps = follower_bootstraps(&follower);
    assert!(bootstraps >= 2, "{bootstraps} bootstraps: no checkpoint reset re-bootstrapped");

    follower.stop();
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The follower's `invector_serve_follower_bootstraps_total`.
fn follower_bootstraps(follower: &Follower) -> u64 {
    follower
        .core()
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("invector_serve_follower_bootstraps_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("bootstrap series")
}

/// A table whose `Snapshot` frame is longer than `MAX_FRAME_LEN` still
/// bootstraps: the frame is bounded by the table it claims to be, not by
/// the frame cap. Updates from before the bootstrap arrive in the pinned
/// image and later ones through the log, and the follower converges
/// bitwise.
#[test]
fn a_table_whose_snapshot_frame_exceeds_the_frame_cap_bootstraps() {
    let slots = (1usize << 24) + 1;
    assert!(4 * slots > MAX_FRAME_LEN);
    let dir = temp_dir("over-cap");
    let mut config = config_with_wal(&dir, 64);
    config.tables = vec![TableSpec::i32("wide", OpKind::Add, slots)];
    let server = Server::bind(config, "127.0.0.1:0").expect("bind leader");
    let addr = server.local_addr().to_string();
    let mut ingest = TcpClient::connect(&addr).expect("ingest client");
    let batch = |from: u64| -> Vec<Update> {
        (from..from + 256)
            .map(|seq| Update::i32(seq, (seq * 65_537 % slots as u64) as u32, seq as i32 - 99))
            .collect()
    };
    ingest.submit_all(0, &batch(0)).expect("submit");
    ingest.flush().expect("flush");

    let follower = Follower::start(&addr, ServeConfig::new(Vec::new())).expect("follower");
    ingest.submit_all(0, &batch(256)).expect("submit");
    ingest.flush().expect("flush");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while follower.core().watermarks() != [512] {
        if let FollowStatus::Diverged(m) = follower.status() {
            panic!("follower diverged: {m}");
        }
        assert!(std::time::Instant::now() < deadline, "follower failed to catch up");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let leader = server.core().snapshot(0).expect("leader snapshot");
    let follow = follower.core().snapshot(0).expect("follower snapshot");
    assert_eq!((follow.watermark, follow.checksum), (leader.watermark, leader.checksum));
    assert!(follow.data == leader.data, "the follower's table differs from the leader's");
    assert_eq!(follower_bootstraps(&follower), 1);
    follower.stop();
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A single bit flipped in a replicated batch makes the follower's replayed
/// state disagree with the leader's seal — it must park in `Diverged`, not
/// serve the drifted bits.
#[test]
fn follower_detects_single_bit_divergence_exactly() {
    let quantum = 8usize;
    let dir = temp_dir("diverge");
    let core = ServerCore::new(config_with_wal(&dir, quantum)).expect("leader core");
    let mut client = LocalClient::new(core.clone());
    let updates: Vec<Update> =
        (0..32u64).map(|seq| Update::i32(seq, (seq % TABLE_LEN as u64) as u32, 1)).collect();
    client.submit_all(0, &updates).expect("submit");
    core.tick(false);

    // Replicate the leader's log into a read-only replica core, flipping
    // one value bit in one batch.
    let replica = {
        let mut config = ServeConfig::new(tables());
        config.quantum = quantum;
        ServerCore::new(config).expect("replica core")
    };
    replica.set_read_only(true);
    let page = core.log_tail(0, 0, u32::MAX).expect("tail");
    let mut tampered_once = false;
    let mut outcome = Ok(());
    for payload in &page.records {
        let mut record = WalRecord::decode(payload).expect("decode");
        if let WalRecord::Batch { updates, .. } = &mut record {
            if !tampered_once {
                updates[5] = Update::i32(updates[5].seq, updates[5].idx, 1 ^ 2);
                tampered_once = true;
            }
        }
        outcome = replica.apply_replica(&record);
        if outcome.is_err() {
            break;
        }
    }
    assert!(tampered_once, "log must contain a batch");
    let message = outcome.expect_err("tampered replication must fail the seal check");
    assert!(message.contains("divergence"), "error must name the divergence: {message}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Streaming spreads one checkpoint over many writes, so a crash can stop a
/// publish partway through its temporary file. Recovery must come back from
/// the previous checkpoint plus the log, bitwise, and the next publish must
/// replace the stale temporary file.
#[test]
fn an_interrupted_checkpoint_publish_recovers_from_the_previous_checkpoint() {
    let quantum = 8usize;
    let dir = temp_dir("interrupted");
    let mut config = config_with_wal(&dir, quantum);
    if let Some(wal) = config.wal.as_mut() {
        wal.checkpoint_epochs = 4;
    }
    let streams = generate_streams(&mut SmallRng::seed_from_u64(0xC4EC), 120);
    // One quantum per table per epoch, epochs `from..to`.
    let run_epochs = |core: &std::sync::Arc<ServerCore>, from: usize, to: usize| {
        let mut client = LocalClient::new(core.clone());
        for epoch in from..to {
            for (t, stream) in streams.iter().enumerate() {
                client.submit_all(t as u16, &stream[epoch * quantum..][..quantum]).expect("submit");
            }
            core.tick(false);
        }
    };
    let check = |core: &ServerCore, checkpoint: u64, watermark: u64| {
        assert_eq!(core.pin_state().checkpoint, checkpoint);
        let expect = reference_at(&streams, quantum, &[watermark; 2]);
        for (t, want) in expect.iter().enumerate() {
            let got = core.snapshot(t as u16).expect("snapshot");
            assert_eq!(got.watermark, watermark, "table {t}");
            assert_eq!(&got.bits(), want, "table {t} diverged after recovery");
        }
    };

    // Checkpoint 1 after four epochs, then two more epochs in the log.
    {
        let core = ServerCore::new(config.clone()).expect("core");
        run_epochs(&core, 0, 6);
        assert_eq!(core.pin_state().checkpoint, 1);
    }
    // The crash: checkpoint 2 was being streamed when the process died.
    let published = std::fs::read(dir.join("checkpoint-1.snap")).expect("checkpoint 1");
    let stale = dir.join("checkpoint-2.tmp");
    std::fs::write(&stale, &published[..published.len() / 2]).expect("partial checkpoint");

    let core = ServerCore::new(config.clone()).expect("recovery ignores the partial file");
    check(&core, 1, 6 * quantum as u64);
    // Four more epochs publish checkpoint 2 over the stale temporary file.
    run_epochs(&core, 6, 10);
    assert!(!stale.exists(), "the stale temporary file was replaced and renamed");
    assert!(dir.join("checkpoint-2.snap").exists());
    assert!(!dir.join("checkpoint-1.snap").exists(), "the old checkpoint is swept");
    drop(core);

    let core = ServerCore::new(config).expect("recovery from checkpoint 2");
    check(&core, 2, 10 * quantum as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// Log fetches read the leader's log file back. A file cut behind a live
/// leader fails them with an error, not a panic: `log_tail` returns `Err`,
/// the reactor answers `Reply::Error`, and the connection keeps serving.
#[test]
fn a_log_cut_behind_a_live_leader_fails_fetches_and_keeps_serving() {
    let dir = temp_dir("cut-behind");
    let server = Server::bind(config_with_wal(&dir, 8), "127.0.0.1:0").expect("bind");
    let core = server.core();
    let mut client = LocalClient::new(core.clone());
    let updates: Vec<Update> =
        (0..32u64).map(|seq| Update::i32(seq, (seq % TABLE_LEN as u64) as u32, 1)).collect();
    client.submit_all(0, &updates).expect("submit");
    client.flush().expect("flush");
    let page = core.log_tail(0, 0, u32::MAX).expect("the intact log reads back");
    assert!(!page.records.is_empty());

    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("wal.log"))
        .and_then(|f| f.set_len(5))
        .expect("cut the log");
    let err = core.log_tail(0, 0, u32::MAX).expect_err("a cut log cannot be read back");
    assert!(err.contains("read log"), "{err}");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let mut round_trip = |request: Request| {
        write_frame(&mut writer, &request.encode()).expect("send");
        let body = read_frame(&mut reader).expect("receive").expect("a reply frame");
        Reply::decode(&body).expect("decode")
    };
    assert!(matches!(
        round_trip(Request::Hello { version: PROTOCOL_VERSION }),
        Reply::Hello { .. }
    ));
    let reply = round_trip(Request::LogTail { checkpoint: 0, index: 0, max_bytes: u32::MAX });
    assert!(matches!(&reply, Reply::Error(m) if m.contains("read log")), "{reply:?}");
    match round_trip(Request::Snapshot { table: 0 }) {
        Reply::Snapshot { watermark, .. } => assert_eq!(watermark, 32),
        other => panic!("the connection stopped serving: {other:?}"),
    }
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
