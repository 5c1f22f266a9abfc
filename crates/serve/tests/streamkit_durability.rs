//! Durability and replication for streamkit stream tables: the state-in-slots
//! design means the WAL, checkpoint, seal, and follower machinery see a graph
//! or window table as just another slot array — these tests prove that
//! composition actually holds under crashes and replication.
//!
//! 1. **Kill-point recovery.** For any edge-churn + window stream and any
//!    kill point, a server restarted over the WAL reconstructs every stream
//!    table bitwise identical to an uninterrupted run at the recovered
//!    watermark — incremental engine state included, because the engines
//!    rebuild their caches from the recovered slots.
//! 2. **Follower convergence.** A follower tailing a leader that serves
//!    graph + window tables verifies every epoch seal and converges bitwise,
//!    including ring buckets, retraction payloads, and adjacency bitmaps.

use std::path::PathBuf;

use proptest::prelude::*;
use rand::{Rng, SeedableRng, SmallRng};

use invector_serve::{
    FollowStatus, Follower, LocalClient, OpKind, ServeClient, ServeConfig, Server, ServerCore,
    SyncPolicy, TableSpec, TcpClient, Update, WalOptions,
};

/// Graph-table vertex count. Small enough that proptest churn visits the
/// same edges repeatedly (so deletes hit live edges), big enough for
/// multi-vertex components and non-trivial rank propagation.
const VERTICES: u32 = 10;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("invector-serve-streamkit-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One of every stream-table kind: delta PageRank, incremental WCC, a
/// count-based add window, and a watermark-based max window.
fn tables() -> Vec<TableSpec> {
    vec![
        TableSpec::pagerank("ranks", VERTICES, 3),
        TableSpec::wcc("components", VERTICES),
        TableSpec::window("sums", OpKind::Add, 5, 3, 4, false),
        TableSpec::window("maxs", OpKind::Max, 4, 3, 2, true),
    ]
}

/// Per-table update streams: edge churn for the graph tables (update
/// records built by `edge_event`, as every graph client sends them), data +
/// watermark events for the windows.
fn generate_streams(rng: &mut SmallRng, len: usize) -> Vec<Vec<Update>> {
    let mut streams = vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut watermark = 0u32;
    for seq in 0..len as u64 {
        for t in [0usize, 1] {
            let src = rng.gen_range(0..VERTICES);
            let dst = rng.gen_range(0..VERTICES);
            let (idx, bits) = invector_streamkit::edge_event(src, dst, rng.gen_bool(0.7));
            streams[t].push(Update { seq, idx, bits });
        }
        let (idx, bits) =
            invector_streamkit::window_data(rng.gen_range(0..5), rng.gen_range(-99..99));
        streams[2].push(Update { seq, idx, bits });
        let (idx, bits) = if rng.gen_bool(0.1) {
            watermark += rng.gen_range(1..3);
            invector_streamkit::window_advance(4, watermark)
        } else {
            invector_streamkit::window_data(rng.gen_range(0..4), rng.gen_range(-99..99))
        };
        streams[3].push(Update { seq, idx, bits });
    }
    streams
}

fn config_with_wal(dir: &PathBuf, quantum: usize) -> ServeConfig {
    let mut config = ServeConfig::new(tables());
    config.quantum = quantum;
    let mut wal = WalOptions::new(dir);
    wal.sync = SyncPolicy::Os; // tests simulate process death, not power loss
    wal.checkpoint_epochs = 0;
    wal.checkpoint_bytes = 0;
    config.wal = Some(wal);
    config
}

/// Uninterrupted no-WAL reference at the given per-table watermarks — valid
/// for stream tables for the same reason as flat ones: batch cuts are a
/// pure function of stream content and quantum, and the engines are
/// deterministic functions of the applied event prefix.
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any churn stream, any kill point: the restarted server's stream
    /// tables — value regions, adjacency bitmaps, bucket rings, retraction
    /// payloads, all of it — are bitwise identical to an uninterrupted run
    /// at the recovered watermark.
    #[test]
    fn stream_tables_recover_bitwise_from_any_kill_point(
        seed in any::<u64>(),
        len in 1usize..250,
        quantum_pow in 2u32..5,
        kill_after in 0usize..48,
    ) {
        let quantum = 1usize << quantum_pow;
        let mut rng = SmallRng::seed_from_u64(seed);
        let streams = generate_streams(&mut rng, len);
        let dir = temp_dir("kill");

        {
            let core = ServerCore::new(config_with_wal(&dir, quantum)).expect("core");
            let mut client = LocalClient::new(core.clone());
            let mut steps = 0usize;
            'ingest: for (t, stream) in streams.iter().enumerate() {
                for chunk in stream.chunks(11) {
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

        let recovered = ServerCore::new(config_with_wal(&dir, quantum)).expect("recovery");
        let watermarks: Vec<u64> = (0..streams.len())
            .map(|t| recovered.snapshot(t as u16).expect("snapshot").watermark)
            .collect();
        for wm in &watermarks {
            prop_assert_eq!(wm % quantum as u64, 0, "non-drain cuts are whole quanta");
        }
        let expect = reference_at(&streams, quantum, &watermarks);
        for (t, want) in expect.iter().enumerate() {
            let got = recovered.snapshot(t as u16).expect("snapshot").bits();
            prop_assert_eq!(&got, want, "stream table {} diverged after recovery", t);
        }

        // The recovered engines must also be *live*, not just display the
        // right bits: finish the streams on the recovered core and demand
        // the full-stream reference state.
        let mut client = LocalClient::new(recovered);
        for (t, stream) in streams.iter().enumerate() {
            client.submit_all(t as u16, &stream[watermarks[t] as usize..]).expect("resume");
        }
        client.flush().expect("flush");
        let full: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();
        let expect = reference_at(&streams, quantum, &full);
        for (t, want) in expect.iter().enumerate() {
            let got = client.snapshot(t as u16).expect("snapshot").bits();
            prop_assert_eq!(&got, want, "stream table {} diverged after resuming", t);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Leader/follower smoke over a streamkit workload: the follower bootstraps
/// from a streamed snapshot (engine caches rebuilt from installed slots),
/// tails epochs of edge churn and window expiry with per-epoch seal
/// verification, and converges bitwise on every stream table.
#[test]
fn follower_converges_bitwise_on_a_streamkit_workload() {
    let quantum = 8usize;
    let dir = temp_dir("follow");
    let mut config = config_with_wal(&dir, quantum);
    // Cross at least one checkpoint reset so the follower re-bootstraps —
    // and therefore re-runs Engine::rebuild — mid-workload.
    if let Some(wal) = config.wal.as_mut() {
        wal.checkpoint_epochs = 16;
    }
    let server = Server::bind(config, "127.0.0.1:0").expect("bind leader");
    let addr = server.local_addr().to_string();

    let follower = Follower::start(&addr, ServeConfig::new(Vec::new())).expect("follower");

    const EPOCHS: usize = 60;
    let mut ingest = TcpClient::connect(&addr).expect("ingest client");
    let mut rng = SmallRng::seed_from_u64(0x57E4);
    let mut full_streams: [Vec<Update>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for epoch in 0..EPOCHS {
        let streams = generate_streams(&mut rng, quantum);
        for (t, mut stream) in streams.into_iter().enumerate() {
            for (i, u) in stream.iter_mut().enumerate() {
                u.seq = (epoch * quantum + i) as u64;
            }
            ingest.submit_all(t as u16, &stream).expect("submit");
            full_streams[t].extend(stream);
        }
        ingest.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let target = (EPOCHS * quantum) as u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let caught_up = (0..4u16)
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

    for t in 0..4u16 {
        let leader = ingest.snapshot(t).expect("leader snapshot");
        let follow = follower.core().snapshot(t).expect("follower snapshot");
        assert_eq!(leader.watermark, follow.watermark);
        assert_eq!(leader.checksum, follow.checksum, "table {t} checksum differs");
        assert_eq!(leader.bits(), follow.bits(), "table {t} bits differ");
    }
    assert!(matches!(follower.status(), FollowStatus::Tailing));
    let bootstraps: u64 = follower
        .core()
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("invector_serve_follower_bootstraps_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("bootstrap series");
    assert!(bootstraps >= 2, "{bootstraps} bootstraps: no checkpoint reset re-bootstrapped");

    // The follower's engines answer queries over the replicated state: its
    // current window aggregate and top-k agree with the leader's.
    let leader_window = ingest.window_query(2, u64::MAX).expect("leader window");
    let follow_window = follower.core().window_query(2, u64::MAX).expect("follower window");
    assert_eq!(leader_window.values, follow_window.values);
    assert_eq!(leader_window.bucket, follow_window.bucket);
    let leader_top = ingest.top_k(0, 3).expect("leader top-k");
    let follow_top = follower.core().top_k(0, 3).expect("follower top-k");
    assert_eq!(leader_top.entries, follow_top.entries);

    // The workload must actually have exercised expiry/retraction, or the
    // smoke proves less than it claims.
    assert!(
        follow_window.expired > 0 || {
            let timed = follower.core().window_query(3, u64::MAX).expect("timed window");
            timed.expired > 0
        },
        "no bucket ever expired — widen the stream"
    );

    follower.stop();
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
