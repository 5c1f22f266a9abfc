//! `durable-mixed`: an open loop over loopback TCP to `Server::bind` with
//! the write-ahead log on (`--wal-sync epoch`).
//!
//! One writer connection sends fixed-size batches at a fixed offered rate
//! below saturation, alternating between a 1M-slot flat i32 Add table with
//! uniform keys (4 MiB, larger than one core's L2, so conflicts are rare)
//! and a count-windowed Max window table. One reader connection issues
//! `snapshot`, `window_query` and `top_k` at a fixed rate. This is the only
//! workload on the protocol, the reactor, the WAL, the streamkit window
//! engine and reads beside writes; the kernel's share is small.
//!
//! The WAL lives under `.perfbench-out/` in the working directory and is
//! removed when the run ends.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use invector_core::BackendChoice;
use invector_replog::{Crc32, SyncPolicy};
use invector_serve::protocol::{Request, RequestView};
use invector_serve::{
    AggOp, LocalClient, OpKind, ServeClient, ServeConfig, Server, ServerCore, TableSpec, TcpClient,
    Update, WalOptions, WalRecord, WalState,
};
use invector_streamkit::WindowEngine;

use crate::input::Rng;
use crate::openloop::{Clock, Schedule, Timing, Wall};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, Summary};
use crate::trace::{Ledger, Span, Tracer, Tracks};

/// Slots of the flat table (4 MiB of i32).
const FLAT_SLOTS: u32 = 1 << 20;
/// Window table geometry: keys, live buckets, events per bucket.
const WIN_KEYS: u32 = 4096;
const WIN_BUCKETS: u32 = 8;
const WIN_WIDTH: u32 = 16_384;
/// Updates per write batch.
const BATCH: usize = 512;
/// Offered write rate, batches per second (both tables together).
const WRITE_RATE: f64 = 800.0;
/// Offered read rate, reads per second (snapshot, window, top-k in turn).
const READ_RATE: f64 = 30.0;
/// Entries a `top_k` read asks for.
const TOP_K: u32 = 16;
/// Delay from the end of set-up to the first due send.
const LEAD: Duration = Duration::from_millis(20);
/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Open-loop length of each ledger pass.
const LEDGER_SECONDS: f64 = 3.0;
/// Round trips the transport replay times.
const TRANSPORT_TRIPS: usize = 200;
/// Reads each read-side replay times.
const READ_REPLAYS: usize = 10;

/// The batches of one open loop, in send order: batch `i` goes to table
/// `i % 2`, so each table's `seq` numbers are contiguous.
struct Input {
    batches: Vec<Vec<Update>>,
}

impl Input {
    fn table(i: usize) -> u16 {
        (i % 2) as u16
    }

    fn updates(&self) -> usize {
        self.batches.len() * BATCH
    }

    /// Updates each table receives.
    fn per_table(&self) -> [u64; 2] {
        let n = self.batches.len();
        [n.div_ceil(2) as u64 * BATCH as u64, (n / 2) as u64 * BATCH as u64]
    }
}

fn generate(seed: u64, seconds: f64) -> Input {
    let n = (WRITE_RATE * seconds).ceil() as usize;
    let mut rng = Rng::new(seed, 2);
    let mut seq = [0u64; 2];
    let batches = (0..n)
        .map(|i| {
            let t = Input::table(i) as usize;
            (0..BATCH)
                .map(|_| {
                    let u = if t == 0 {
                        Update::i32(
                            seq[0],
                            rng.below(u64::from(FLAT_SLOTS)) as u32,
                            rng.range_i32(-100, 100),
                        )
                    } else {
                        Update::i32(
                            seq[1],
                            rng.below(u64::from(WIN_KEYS)) as u32,
                            rng.range_i32(-1 << 20, 1 << 20),
                        )
                    };
                    seq[t] += 1;
                    u
                })
                .collect()
        })
        .collect();
    Input { batches }
}

fn tables() -> Vec<TableSpec> {
    vec![
        TableSpec::i32("flat", OpKind::Add, FLAT_SLOTS as usize),
        TableSpec::window("window", OpKind::Max, WIN_KEYS, WIN_BUCKETS, WIN_WIDTH, false),
    ]
}

fn wal_options(dir: PathBuf) -> WalOptions {
    WalOptions { sync: SyncPolicy::Epoch, ..WalOptions::new(dir) }
}

/// A fresh WAL directory under `.perfbench-out/` in the working directory.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = PathBuf::from(".perfbench-out").join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A live server with its WAL directory and the two client connections.
struct Rig {
    server: Server,
    dir: PathBuf,
    writer: TcpClient,
    reader: TcpClient,
}

impl Rig {
    fn up() -> Result<Rig, String> {
        let dir = scratch_dir("wal");
        let mut config = ServeConfig::new(tables());
        config.wal = Some(wal_options(dir.clone()));
        let server = Server::bind(config, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let writer = TcpClient::connect(server.local_addr())?;
        let reader = TcpClient::connect(server.local_addr())?;
        Ok(Rig { server, dir, writer, reader })
    }

    /// Stops the server, waits for its threads and removes the WAL.
    fn down(self) {
        let Rig { server, dir, writer, reader } = self;
        drop((writer, reader));
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What one open loop observed.
struct Loop {
    writes: Vec<Timing>,
    refused: u64,
    reads: Vec<Timing>,
    fresh_ms: Vec<f64>,
    /// Due time of the first write to the final flush's reply, ns.
    wall: u64,
    writer_spans: Vec<Span>,
    reader_spans: Vec<Span>,
}

/// Runs the open loop on `rig` and flushes; failures are counted in `out`.
fn open_loop(rig: &mut Rig, input: &Input, trace: bool, out: &mut Outcome) -> Loop {
    let origin = Instant::now();
    let writes = Schedule { start: LEAD.as_nanos() as u64, period: (1e9 / WRITE_RATE) as u64 };
    let reads = Schedule { start: writes.start, period: (1e9 / READ_RATE) as u64 };
    let n_reads = reads.count_before(writes.due(input.batches.len()));
    // The update a read reflects last is `seq = watermark - 1` of its table.
    let due_of = |table: usize, watermark: u64| {
        let k = ((watermark - 1) / BATCH as u64) as usize;
        writes.due(2 * k + table)
    };
    let (writer, reader) = (&mut rig.writer, &mut rig.reader);
    let (w, r) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let mut tracer = Tracer::new(trace, origin);
            let (mut refused, mut errors) = (0u64, Vec::new());
            let timings = writes.run(&mut Wall { origin }, input.batches.len(), |_, i| {
                let before = writer.backoffs();
                match writer.submit_all(Input::table(i), &input.batches[i]) {
                    Ok(retries) => refused += u64::from(retries > 0 || writer.backoffs() > before),
                    Err(e) => errors.push(format!("write {i}: {e}")),
                }
            });
            for (i, t) in timings.iter().enumerate() {
                tracer.record("client.write", i as u64, t.sent, t.done);
            }
            (timings, refused, errors, tracer.into_spans())
        });
        let r = s.spawn(|| {
            let mut tracer = Tracer::new(trace, origin);
            let (mut fresh, mut errors) = (Vec::new(), Vec::new());
            let timings = reads.run(&mut Wall { origin }, n_reads, |clock, j| {
                let got = match j % 3 {
                    0 => reader.snapshot(0).and_then(|s| {
                        (s.data.len() == FLAT_SLOTS as usize)
                            .then_some((0, s.watermark))
                            .ok_or_else(|| format!("snapshot of {} slots", s.data.len()))
                    }),
                    1 => reader.window_query(1, u64::MAX).and_then(|w| {
                        (w.values.len() == WIN_KEYS as usize)
                            .then_some((1, w.watermark))
                            .ok_or_else(|| format!("window of {} keys", w.values.len()))
                    }),
                    _ => reader.top_k(1, TOP_K).and_then(|p| {
                        let sorted =
                            p.entries.windows(2).all(|e| (e[0].1 as i32) >= (e[1].1 as i32));
                        (p.entries.len() == TOP_K as usize && sorted)
                            .then_some((1, p.watermark))
                            .ok_or_else(|| "top-k page out of order or short".to_string())
                    }),
                };
                let done = clock.now();
                match got {
                    Ok((table, wm)) if wm > 0 => {
                        fresh.push((done - due_of(table, wm)) as f64 / 1e6)
                    }
                    Ok(_) => {}
                    Err(e) => errors.push(format!("read {j}: {e}")),
                }
            });
            for (j, t) in timings.iter().enumerate() {
                tracer.record("client.read", j as u64, t.sent, t.done);
            }
            (timings, fresh, errors, tracer.into_spans())
        });
        (w.join().expect("writer thread"), r.join().expect("reader thread"))
    });
    let (writes_t, refused, w_errors, writer_spans) = w;
    let (reads_t, fresh_ms, r_errors, reader_spans) = r;
    for _ in 0..(writes_t.len() + reads_t.len() - w_errors.len() - r_errors.len()) {
        out.op(true);
    }
    for e in w_errors.into_iter().chain(r_errors) {
        out.fail(e);
    }
    let flushed = rig.writer.flush();
    let wall = origin.elapsed().as_nanos() as u64 - writes.start;
    out.check(flushed.is_ok(), "final flush");
    Loop { writes: writes_t, refused, reads: reads_t, fresh_ms, wall, writer_spans, reader_spans }
}

/// Replays the acked stream in process (no WAL), timing each submit call.
/// Returns the replay core and the summed admission time.
fn replay_core(input: &Input) -> (std::sync::Arc<ServerCore>, Duration) {
    let core = ServerCore::new(ServeConfig::new(tables())).expect("valid replay config");
    let mut client = LocalClient::new(core.clone());
    let mut admit = Duration::ZERO;
    for (i, batch) in input.batches.iter().enumerate() {
        let t = Instant::now();
        client.submit_all(Input::table(i), batch).expect("in-process replay admits every batch");
        admit += t.elapsed();
    }
    client.flush().expect("in-process flush");
    (core, admit)
}

/// The final snapshots over TCP (checksums verified by the client) must
/// equal the in-process replay of the acked stream, bitwise.
fn check_final(rig: &mut Rig, input: &Input, replay: &ServerCore, out: &mut Outcome) {
    let expect_wm = input.per_table();
    for t in 0..2u16 {
        match (rig.reader.snapshot(t), replay.snapshot(t)) {
            (Ok(got), Ok(want)) => out.check(
                got.watermark == expect_wm[t as usize]
                    && got.watermark == want.watermark
                    && got.bits() == want.bits(),
                &format!("table {t} equals the in-process replay of the acked stream"),
            ),
            (Err(e), _) | (_, Err(e)) => out.fail(format!("final snapshot {t}: {e}")),
        }
    }
}

fn set_up(seed: u64, seconds: f64, out: &mut Outcome) -> Option<(Input, Rig, Vec<f64>)> {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let input = generate(seed, seconds);
        match Rig::up() {
            Ok(rig) => {
                setup.push(t.elapsed().as_secs_f64());
                if let Some((_, old)) = last.replace((input, rig)) {
                    Rig::down(old);
                }
            }
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return None;
            }
        }
    }
    last.map(|(input, rig)| (input, rig, setup))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The end-to-end run: one open loop of `seconds`.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let Some((input, mut rig, setup)) = set_up(seed, seconds, out) else { return };
    let lp = open_loop(&mut rig, &input, false, out);
    let (replay, _) = replay_core(&input);
    check_final(&mut rig, &input, &replay, out);
    rig.down();

    let wall = lp.wall as f64 / 1e9;
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", wall, "s");
    out.metric("mups", input.updates() as f64 / wall / 1e6, "Mup/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    describe(&lp, &input, out);
}

/// Notes on the read side, freshness and the generator.
fn describe(lp: &Loop, input: &Input, out: &mut Outcome) {
    let write = Summary::of(&lp.writes.iter().map(|t| us(t.latency())).collect::<Vec<_>>());
    let late = Summary::of(&lp.writes.iter().map(|t| t.late() as f64 / 1e6).collect::<Vec<_>>());
    out.note(format!(
        "offered {WRITE_RATE} batches/s of {BATCH} updates, {READ_RATE} reads/s; {} batches",
        input.batches.len()
    ));
    out.note(format!("write latency from due time: {}", write.describe("us")));
    out.note(format!("generator lateness: {}", late.describe("ms")));
    if !lp.reads.is_empty() {
        let read = Summary::of(&lp.reads.iter().map(|t| us(t.latency())).collect::<Vec<_>>());
        out.note(format!("read latency from due time: {}", read.describe("us")));
    }
    if !lp.fresh_ms.is_empty() {
        out.note(format!("freshness: {}", Summary::of(&lp.fresh_ms).describe("ms")));
    }
    out.note(format!("refused_ratio {:.5}", lp.refused as f64 / lp.writes.len().max(1) as f64));
}

/// The traced run: the open loop's per-layer ledger, with the protocol,
/// admission, WAL, CRC, window-engine and read paths replayed in isolation
/// over the exact batches the loop sent.
pub fn ledger(seed: u64, out: &mut Outcome) -> Tracks {
    let input = generate(seed, LEDGER_SECONDS);
    let updates = input.updates() as f64;

    // Untraced, then traced, each on a fresh server.
    let plain = match Rig::up() {
        Ok(mut rig) => {
            let lp = open_loop(&mut rig, &input, false, out);
            rig.down();
            lp
        }
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return Vec::new();
        }
    };
    let mut rig = match Rig::up() {
        Ok(rig) => rig,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return Vec::new();
        }
    };
    let lp = open_loop(&mut rig, &input, true, out);
    let summary = rig.server.core().stats_summary();
    let mut trips = Vec::with_capacity(TRANSPORT_TRIPS);
    for _ in 0..TRANSPORT_TRIPS {
        let t = Instant::now();
        let ok = rig.writer.stats().is_ok();
        trips.push(t.elapsed().as_secs_f64() * 1e6);
        out.op(ok);
    }
    let (replay, admit) = replay_core(&input);
    check_final(&mut rig, &input, &replay, out);
    rig.down();

    // Protocol: encode each batch as the client does, decode as the
    // reactor does (materializing every update).
    let requests: Vec<Request> = input
        .batches
        .iter()
        .enumerate()
        .map(|(i, b)| Request::Update { table: Input::table(i), updates: b.clone() })
        .collect();
    let t = Instant::now();
    let bodies: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let encode = t.elapsed();
    let t = Instant::now();
    let mut decoded = 0usize;
    for body in &bodies {
        if let Ok(RequestView::Update { updates, .. }) = RequestView::decode(body) {
            for u in updates.iter() {
                black_box(u);
                decoded += 1;
            }
        }
    }
    let decode = t.elapsed();
    out.check(decoded == input.updates(), "every encoded batch decodes");

    // WAL: the loop's slices (full quanta in seq order, then the flushed
    // tails), grouped into epochs of the loop's mean slices per epoch.
    let quantum = ServeConfig::new(tables()).quantum;
    let streams: Vec<Vec<Update>> = (0..2)
        .map(|t| input.batches.iter().skip(t).step_by(2).flatten().copied().collect())
        .collect();
    let mut slices: Vec<(u16, &[Update])> = Vec::new();
    let chunked: Vec<Vec<&[Update]>> =
        streams.iter().map(|s| s.chunks(quantum).collect()).collect();
    for k in 0..chunked[0].len().max(chunked[1].len()) {
        for (t, c) in chunked.iter().enumerate() {
            if let Some(s) = c.get(k) {
                slices.push((t as u16, s));
            }
        }
    }
    let per_epoch =
        (summary.slices as f64 / summary.epochs.max(1) as f64).round().max(1.0) as usize;
    let dir = scratch_dir("wal-replay");
    let (mut append, mut sync, mut syncs, mut bytes) = (Duration::ZERO, Duration::ZERO, 0u32, 0u64);
    let mut payload = Vec::new();
    match WalState::open(
        WalOptions { checkpoint_epochs: 0, checkpoint_bytes: 0, ..wal_options(dir.clone()) },
        &tables(),
    ) {
        Ok((mut wal, _)) => {
            for epoch in slices.chunks(per_epoch) {
                let t = Instant::now();
                for &(table, updates) in epoch {
                    let record = WalRecord::Batch { table, updates: updates.to_vec() };
                    bytes += wal.append(&record).unwrap_or(0);
                    payload.extend_from_slice(&record.encode());
                }
                for table in 0..2 {
                    let record = WalRecord::Seal { table, watermark: 0, crc: 0 };
                    bytes += wal.append(&record).unwrap_or(0);
                }
                append += t.elapsed();
                let t = Instant::now();
                out.op(wal.sync_epoch().is_ok());
                sync += t.elapsed();
                syncs += 1;
            }
        }
        Err(e) => out.fail(format!("WAL replay open: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let mut crc = Crc32::new();
    crc.update(&payload);
    black_box(crc.finish());
    let crc_time = t.elapsed();

    // Window engine over the window table's slices, serve policy.
    let policy = ServeConfig::new(tables()).policy();
    let mut engine = WindowEngine::new(
        WIN_KEYS as usize,
        WIN_BUCKETS as usize,
        u64::from(WIN_WIDTH),
        false,
        AggOp::Max,
    );
    let mut slots = vec![0i32; engine.required_len()];
    engine.init(&mut slots);
    let events: Vec<Vec<(u32, u32)>> =
        streams[1].chunks(quantum).map(|s| s.iter().map(|u| (u.idx, u.bits)).collect()).collect();
    let t = Instant::now();
    for slice in &events {
        black_box(engine.apply(&mut slots, slice, &policy));
    }
    let window = t.elapsed();
    let window_ok = replay.snapshot(1).map(|s| s.bits()).ok()
        == Some(slots.iter().map(|&v| v as u32).collect::<Vec<u32>>());
    out.check(window_ok, "window engine replay equals the served window table");

    // Read paths on the replay core: window and top-k reads, then
    // snapshots right after a state change so the checksum is recomputed.
    let t = Instant::now();
    for _ in 0..READ_REPLAYS {
        out.op(replay.window_query(1, u64::MAX).is_ok());
        out.op(replay.top_k(1, TOP_K).is_ok());
    }
    let query = t.elapsed() / (2 * READ_REPLAYS as u32);
    let mut snapshot = Duration::ZERO;
    for (k, seq) in (0..READ_REPLAYS).zip(input.per_table()[0]..) {
        replay.submit(0, &[Update::i32(seq, k as u32, 1)]);
        replay.flush();
        let t = Instant::now();
        out.op(replay.snapshot(0).is_ok());
        snapshot += t.elapsed();
    }

    let writes = lp.writes.len() as f64;
    let latency_ns: f64 = lp.writes.iter().map(|t| t.latency() as f64).sum();
    let plain_ns: f64 = plain.writes.iter().map(|t| t.latency() as f64).sum();
    let late_ns: f64 = lp.writes.iter().map(|t| t.late() as f64).sum();
    let transport_us = median(&trips);
    let mut ledger = Ledger { wall_ns: latency_ns, rows: Vec::new() };
    ledger.row("bench.gen.late", late_ns);
    ledger.row("serve.protocol.encode", encode.as_nanos() as f64);
    ledger.row("serve.transport", transport_us * 1e3 * writes);
    ledger.row("serve.protocol.decode", decode.as_nanos() as f64);
    ledger.row("serve.admit", admit.as_nanos() as f64);
    out.note("ledger over the summed write latency (due time to ack):");
    for line in ledger.describe(writes, "write") {
        out.note(line);
    }
    describe(&lp, &input, out);

    let late = Summary::of(&lp.writes.iter().map(|t| t.late() as f64 / 1e6).collect::<Vec<_>>());
    let write = Summary::of(&plain.writes.iter().map(|t| us(t.latency())).collect::<Vec<_>>());
    let read = Summary::of(&plain.reads.iter().map(|t| us(t.latency())).collect::<Vec<_>>());
    let fresh = Summary::of(&plain.fresh_ms);
    let slice_updates: usize = slices.iter().map(|s| s.1.len()).sum();
    out.metric("serve.slices", summary.slices as f64, "count");
    out.metric("serve.rejected", summary.rejected as f64, "count");
    out.metric("serve.protocol.encode_ns_per_update", encode.as_nanos() as f64 / updates, "ns");
    out.metric("serve.protocol.decode_ns_per_update", decode.as_nanos() as f64 / updates, "ns");
    out.metric("serve.admit.ns_per_update", admit.as_nanos() as f64 / updates, "ns");
    out.metric("serve.transport_us", transport_us, "us");
    out.metric("serve.snapshot_us", snapshot.as_secs_f64() * 1e6 / READ_REPLAYS as f64, "us");
    out.metric(
        "serve.wal.append_ns_per_update",
        append.as_nanos() as f64 / slice_updates as f64,
        "ns",
    );
    out.metric("serve.wal.sync_ms", sync.as_secs_f64() * 1e3 / f64::from(syncs.max(1)), "ms");
    out.metric("serve.wal.bytes_per_update", bytes as f64 / slice_updates as f64, "B");
    out.metric(
        "replog.crc_ns_per_byte",
        crc_time.as_nanos() as f64 / payload.len().max(1) as f64,
        "ns",
    );
    out.metric(
        "streamkit.window.ns_per_event",
        window.as_nanos() as f64 / streams[1].len() as f64,
        "ns",
    );
    out.metric("streamkit.window.query_us", query.as_secs_f64() * 1e6, "us");
    out.metric("bench.gen.late_p50_ms", late.p50, "ms");
    out.metric("bench.gen.late_tail_ms", late.tail, "ms");
    out.metric("e2e.write_p50_us", write.p50, "us");
    out.metric("e2e.write_tail_us", write.tail, "us");
    out.metric("e2e.read_p50_us", read.p50, "us");
    out.metric("e2e.read_tail_us", read.tail, "us");
    out.metric("e2e.fresh_p50_ms", fresh.p50, "ms");
    out.metric("e2e.fresh_tail_ms", fresh.tail, "ms");
    out.metric("e2e.refused_ratio", plain.refused as f64 / writes, "ratio");
    out.metric("e2e.error_ratio", out.error_ratio(), "ratio");
    out.metric("bench.ledger_residual", ledger.residual(), "ratio");
    out.metric("bench.trace_overhead", latency_ns / plain_ns - 1.0, "ratio");
    out.note(format!(
        "{} epochs, {} slices ({per_epoch} per epoch), {} updates rejected; backend {}",
        summary.epochs,
        summary.slices,
        summary.rejected,
        BackendChoice::Auto.resolve().name()
    ));
    vec![("writer", lp.writer_spans), ("reader", lp.reader_spans)]
}
