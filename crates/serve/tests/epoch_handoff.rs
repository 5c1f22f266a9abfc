//! Epochs handed to the worker pool: a plain `tick` with updates staged
//! returns at the epoch's cut, and the pool folds the epoch while the caller
//! admits more. These tests pin what a caller may rely on once `tick`
//! returns — every read it makes reflects the cut — and that moving the
//! fold off the caller changes no bit, no log byte and no instruction
//! count.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng, SmallRng};

use invector_serve::{
    OpKind, ServeConfig, ServerCore, SubmitOutcome, SyncPolicy, TableSpec, Update, WalOptions,
    WalRecord,
};

const QUANTUM: usize = 64;
const KEYS: u32 = 32;
/// Window-table geometry: keys, live buckets, events per bucket.
const WINDOW: (u32, u32, u32) = (5, 3, 16);

/// A flat i32 Add table, a flat f32 Min table and a count-based Add
/// window.
fn tables() -> Vec<TableSpec> {
    let (keys, buckets, width) = WINDOW;
    vec![
        TableSpec::i32("counts", OpKind::Add, KEYS as usize),
        TableSpec::f32("mins", OpKind::Min, KEYS as usize),
        TableSpec::window("sums", OpKind::Add, keys, buckets, width, false),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("invector-serve-handoff-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Quantum 64 and room for eight quanta per table; with `wal`, a log in
/// that directory that never checkpoints.
fn config(wal: Option<&Path>) -> ServeConfig {
    let mut config = ServeConfig::new(tables());
    config.quantum = QUANTUM;
    config.queue_capacity = 8 * QUANTUM;
    if let Some(dir) = wal {
        let mut options = WalOptions::new(dir);
        options.sync = SyncPolicy::Os;
        options.checkpoint_epochs = 0;
        options.checkpoint_bytes = 0;
        config.wal = Some(options);
    }
    config
}

/// `len` updates per table from `seed`: counts, min candidates and window
/// data events.
fn streams(seed: u64, len: usize) -> Vec<Vec<Update>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut streams = vec![Vec::new(), Vec::new(), Vec::new()];
    for seq in 0..len as u64 {
        streams[0].push(Update::i32(seq, rng.gen_range(0..KEYS), rng.gen_range(-9..9)));
        streams[1].push(Update::f32(seq, rng.gen_range(0..KEYS), rng.gen_range(-1e3f32..1e3)));
        let (idx, bits) =
            invector_streamkit::window_data(rng.gen_range(0..WINDOW.0), rng.gen_range(-99..99));
        streams[2].push(Update { seq, idx, bits });
    }
    streams
}

/// Submits `updates` to `table`, which must admit all of them.
fn submit(core: &ServerCore, table: u16, updates: &[Update]) {
    let outcome = core.submit(table, updates);
    assert!(matches!(outcome, SubmitOutcome::Accepted { .. }), "table {table}: {outcome:?}");
}

/// A core that folded exactly the first `watermark` updates of every
/// stream, all at once and on the calling thread: the reference a core at
/// that watermark must equal, whichever way its epochs ran.
fn reference_at(streams: &[Vec<Update>], watermark: u64) -> Arc<ServerCore> {
    let mut config = config(None);
    config.queue_capacity = 1 << 16;
    let core = ServerCore::new(config).expect("reference core");
    for (t, stream) in streams.iter().enumerate() {
        submit(&core, t as u16, &stream[..watermark as usize]);
    }
    core.flush();
    core
}

/// After every `tick(false)`, each way to read the core — watermarks,
/// snapshots, snapshot replies, window and top-k queries, statistics, the
/// pinned state and the log — shows the epoch the tick cut, folded: the
/// state of a core that folded the same prefix in one flush. Runs on a core
/// without a WAL, whose epochs the pool folds, and on one with a WAL.
#[test]
fn every_read_after_a_tick_reflects_its_cut() {
    let streams = streams(7, 20 * QUANTUM);
    for wal in [false, true] {
        let dir = wal.then(|| temp_dir("visible"));
        let core = ServerCore::new(config(dir.as_deref())).expect("core");
        let (mut sent, mut watermark) = (0, 0u64);
        for round in 0..8 {
            // Two and a half quanta per table: the half stays staged, so the
            // next round's run continues behind it through the reorder
            // buffer, while this round's first quanta are cut from staging.
            let upto = sent + 2 * QUANTUM + if round % 2 == 0 { QUANTUM / 2 } else { 0 };
            for (t, stream) in streams.iter().enumerate() {
                submit(&core, t as u16, &stream[sent..upto]);
            }
            sent = upto;
            let report = core.tick(false);
            let cut = (upto / QUANTUM * QUANTUM) as u64;
            assert_eq!(report.applied as u64, 3 * (cut - watermark), "wal {wal} round {round}");
            watermark = cut;
            let context = format!("wal {wal}, round {round}, watermark {watermark}");

            assert_eq!(core.watermarks(), vec![watermark; 3], "{context}");
            let reference = reference_at(&streams, watermark);
            for t in 0..3u16 {
                let snap = core.snapshot(t).expect("snapshot");
                let want = reference.snapshot(t).expect("reference snapshot");
                assert_eq!((snap.watermark, snap.bits()), (watermark, want.bits()), "{context}");
                let (mut got, mut want) = (Vec::new(), Vec::new());
                core.write_snapshot_reply(t, &mut got).expect("snapshot reply");
                reference.write_snapshot_reply(t, &mut want).expect("reference reply");
                assert_eq!(got, want, "table {t} reply, {context}");
            }
            assert_eq!(
                core.window_query(2, u64::MAX).expect("window"),
                reference.window_query(2, u64::MAX).expect("reference window"),
                "{context}"
            );
            assert_eq!(
                core.top_k(0, 5).expect("top-k"),
                reference.top_k(0, 5).expect("reference top-k"),
                "{context}"
            );
            assert_eq!(core.stats_summary().applied, 3 * watermark, "{context}");
            let pinned = core.pin_state();
            for (t, table) in pinned.tables.iter().enumerate() {
                let want = reference.snapshot(t as u16).expect("reference snapshot").bits();
                assert_eq!((table.watermark, &table.bits), (watermark, &want), "{context}");
            }
            match &dir {
                Some(_) => {
                    let page = core.log_tail(0, 0, u32::MAX).expect("log tail");
                    assert_eq!(page.next_index, page.head, "{context}");
                    let mut sealed = [0u64; 3];
                    for payload in &page.records {
                        if let WalRecord::Seal { table, watermark, .. } =
                            WalRecord::decode(payload).expect("decode")
                        {
                            sealed[table as usize] = watermark;
                        }
                    }
                    assert_eq!(sealed, [watermark; 3], "every table sealed at the cut, {context}");
                }
                None => assert!(core.log_tail(0, 0, u32::MAX).is_err(), "no WAL, no log"),
            }
        }
        drop(core);
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// A reader takes snapshots while the writer streams updates through
/// ticks the pool folds: every snapshot equals the serial fold at its own
/// watermark, which is always an epoch boundary, and never trails the
/// watermark the core published before it was taken.
#[test]
fn snapshots_racing_pool_epochs_equal_the_serial_fold_at_their_watermark() {
    const LEN: usize = 96 * QUANTUM;
    let streams = streams(11, LEN);
    // The serial fold of each flat table at every quantum boundary.
    let mut counts = vec![vec![0i32; KEYS as usize]];
    let mut mins = vec![vec![f32::INFINITY; KEYS as usize]];
    for q in 0..LEN / QUANTUM {
        let (mut c, mut m) = (counts[q].clone(), mins[q].clone());
        for u in &streams[0][q * QUANTUM..(q + 1) * QUANTUM] {
            c[u.idx as usize] = c[u.idx as usize].wrapping_add(u.bits as i32);
        }
        for u in &streams[1][q * QUANTUM..(q + 1) * QUANTUM] {
            m[u.idx as usize] = m[u.idx as usize].min(f32::from_bits(u.bits));
        }
        counts.push(c);
        mins.push(m);
    }
    let want = |table: u16, watermark: u64| -> Vec<u32> {
        let q = watermark as usize / QUANTUM;
        match table {
            0 => counts[q].iter().map(|&v| v as u32).collect(),
            _ => mins[q].iter().map(|v| v.to_bits()).collect(),
        }
    };

    let core = ServerCore::new(config(None)).expect("core");
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut checked = 0usize;
            while !done.load(Ordering::Acquire) || checked == 0 {
                for table in [0u16, 1] {
                    let published = core.watermarks()[table as usize];
                    let snap = core.snapshot(table).expect("snapshot");
                    assert!(snap.watermark >= published, "a read trails the published watermark");
                    assert_eq!(snap.watermark % QUANTUM as u64, 0, "reads see whole epochs");
                    assert_eq!(snap.bits(), want(table, snap.watermark), "at {}", snap.watermark);
                    checked += 1;
                }
            }
            checked
        });
        let mut rng = SmallRng::seed_from_u64(5);
        let mut sent = 0;
        while sent < LEN {
            let upto = (sent + rng.gen_range(1..3 * QUANTUM)).min(LEN);
            for t in [0u16, 1] {
                let mut rest = &streams[t as usize][sent..upto];
                while let SubmitOutcome::Rejected { accepted, .. } = core.submit(t, rest) {
                    rest = &rest[accepted as usize..];
                    core.tick(false);
                }
            }
            sent = upto;
            if rng.gen_bool(0.5) {
                core.tick(false);
            }
        }
        core.flush();
        done.store(true, Ordering::Release);
        assert!(reader.join().expect("reader") > 0);
    });
    assert_eq!(core.snapshot(0).expect("snapshot").bits(), want(0, LEN as u64));
}

/// A core without an epoch thread folds only when asked: full quanta
/// staged, no tick, and the watermark stays at zero.
#[test]
fn a_bare_core_never_folds_unasked() {
    let core = ServerCore::new(config(None)).expect("core");
    let streams = streams(3, 4 * QUANTUM);
    for (t, stream) in streams.iter().enumerate() {
        submit(&core, t as u16, stream);
    }
    let until = Instant::now() + Duration::from_millis(50);
    while Instant::now() < until {
        assert_eq!(core.watermarks(), vec![0; 3], "an epoch ran unasked");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(core.snapshot(0).expect("snapshot").watermark, 0);
    assert_eq!(core.tick(false).applied, 3 * 4 * QUANTUM);
}

/// Runs the same stream and tick schedule on a WAL core twice, once with
/// a reader hammering every read path, and returns both logs: they must be
/// byte-identical.
#[test]
fn readers_racing_epochs_leave_the_log_bytes_unchanged() {
    let streams = streams(13, 24 * QUANTUM);
    let run = |with_reader: bool| -> Vec<u8> {
        let dir = temp_dir("bytes");
        let core = ServerCore::new(config(Some(&dir))).expect("core");
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            if with_reader {
                scope.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        for t in 0..3u16 {
                            core.snapshot(t).expect("snapshot");
                        }
                        core.pin_state();
                        core.log_tail(0, 0, u32::MAX).expect("log tail");
                        core.stats_summary();
                        std::thread::yield_now();
                    }
                });
            }
            for step in 0..12 {
                let range = step * 2 * QUANTUM..(step + 1) * 2 * QUANTUM - step % 3;
                for (t, stream) in streams.iter().enumerate() {
                    submit(&core, t as u16, &stream[range.clone()]);
                }
                core.tick(false);
            }
            core.flush();
            done.store(true, Ordering::Release);
        });
        drop(core);
        let bytes = std::fs::read(dir.join("wal.log")).expect("read log");
        std::fs::remove_dir_all(&dir).ok();
        bytes
    };
    let quiet = run(false);
    assert!(!quiet.is_empty());
    assert!(quiet == run(true), "a racing reader changed the log");
}

/// Handing folds to the pool moves no SIMD instruction off the caller's
/// count: a served run that ticks as its staging fills (epochs folded on
/// the pool, re-charged at the flush) counts exactly what the same run
/// counts when one flush folds everything on the calling thread.
#[cfg(feature = "count")]
#[test]
fn a_served_runs_instructions_stay_on_its_calling_thread() {
    let streams = streams(17, 32 * QUANTUM);
    let run = |capacity: usize| -> (u64, Vec<u32>) {
        let mut config = config(None);
        config.backend = invector_core::BackendChoice::Portable;
        config.queue_capacity = capacity;
        let core = ServerCore::new(config).expect("core");
        let before = invector_simd::count::read();
        for chunk in 0..16 {
            for t in [0u16, 1] {
                let mut rest = &streams[t as usize][chunk * 2 * QUANTUM..][..2 * QUANTUM];
                while let SubmitOutcome::Rejected { accepted, .. } = core.submit(t, rest) {
                    rest = &rest[accepted as usize..];
                    core.tick(false);
                }
            }
        }
        core.flush();
        let counted = invector_simd::count::read().wrapping_sub(before);
        (counted, core.snapshot(0).expect("snapshot").bits())
    };
    let (handed_off, bits) = run(4 * QUANTUM);
    let (inline, want) = run(1 << 16);
    assert_eq!(bits, want);
    assert!(inline > 0, "the portable fold charges the counter");
    assert_eq!(handed_off, inline, "instructions counted on the calling thread");
}
