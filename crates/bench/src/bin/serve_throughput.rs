//! Serving-layer throughput: micro-batch size × backend.
//!
//! Drives one Zipf update stream (an i32 count table plus an f32 min
//! table, the serving workload's table pair) through an in-process
//! [`LocalClient`] against a fresh [`ServerCore`] per cell, and measures
//! end-to-end ingest→apply throughput. The batch-size axis is the epoch
//! quantum: at quantum 1 every update pays a full kernel dispatch, which
//! is exactly the degenerate case micro-batching exists to amortize — the
//! paper-shaped result is throughput growing with batch size until the
//! in-vector kernel saturates. After each timed cell both tables must match
//! the serial fold bitwise, or the run exits non-zero.
//!
//! Emits one JSON document on stdout (checked in as `BENCH_serve.json`)
//! so results can be diffed across machines.
//!
//! Run: `cargo run --release -p invector-bench --bin serve_throughput
//!       [--scale f | --full]`

use std::sync::{Arc, Barrier};
use std::time::Instant;

use invector_agg::dist::Distribution;
use invector_bench::arg_scale;
use invector_bench::autotune::{self, convergence_config};
use invector_core::BackendChoice;
use invector_harness::serving::{self, Fixture, SEED};
use invector_serve::{
    LocalClient, OpKind, ServeClient, ServeConfig, Server, ServerCore, TableSpec, TcpClient, Update,
};

/// Epoch quanta swept (updates per micro-batch slice).
const QUANTA: [usize; 4] = [1, 256, 4096, 16384];
/// Client submission batch: how many updates each `submit` call carries.
const CHUNK: usize = 1024;
/// Timed repetitions per cell; the fastest is reported, which filters
/// scheduler interference out of the short (tens of ms) timed sections.
/// Quantum-1 cells run seconds long and amortize interference on their
/// own, so they are timed once.
const REPEATS: usize = 3;

struct Cell {
    backend: &'static str,
    quantum: usize,
    seconds: f64,
    slices: u64,
    retries: u32,
    /// `invector-obs` JSON snapshot of this cell's service registry,
    /// captured after the drain (the last cell's is embedded in the
    /// result document).
    obs: String,
}

fn main() {
    let scale = arg_scale(1.0);
    let rows = ((100_000.0 * scale) as usize).max(1_000);
    let cardinality = 4_096.min(rows);
    let fixture = Fixture::new(Distribution::Zipf, rows, cardinality);
    let reference = fixture.reference();
    // Two updates per row: one count increment, one min candidate.
    let updates = 2 * rows as u64;

    let mut backends = vec![("portable", BackendChoice::Portable)];
    if invector_simd::arch::avx512::available() {
        backends.push(("native", BackendChoice::Native));
    }

    let mut cells = Vec::new();
    for &(label, backend) in &backends {
        for &quantum in &QUANTA {
            let cell = run_cell(&fixture, &reference, backend, label, quantum);
            eprintln!(
                "{label:>8} quantum={quantum:<5} {:>8.2} ms  {:>7.2} Mup/s",
                cell.seconds * 1e3,
                updates as f64 / cell.seconds / 1e6,
            );
            cells.push(cell);
        }
    }

    let sweep = connection_sweep(scale);
    let tuning = autotune_rows(rows, cardinality);

    print_json(scale, rows, cardinality, updates, &cells, &sweep, &tuning);
}

/// One row of the autotune comparison: the controller against the best
/// and worst static cells on its own ladder.
struct TuneRow {
    mode: &'static str,
    quantum: usize,
    mups: f64,
    /// Autotuned row only: steady-state (second-half) throughput, policy
    /// changes, and whether the recorded trace replayed bitwise.
    detail: Option<(f64, usize, bool)>,
}

/// Static ladder sweep + tuned run on the same zipf stream the quantum
/// cells use, emitted as autotuned / best-static / worst-static rows.
fn autotune_rows(rows: usize, cardinality: usize) -> Vec<TuneRow> {
    let cfg = convergence_config();
    let ladder = cfg.quantum_ladder.clone();
    let top = ladder.last().copied().unwrap_or(4_096);
    let w = autotune::zipf(rows, cardinality, SEED);

    let cells = autotune::sweep(&w, &ladder);
    let best = cells.iter().max_by(|a, b| a.mups.total_cmp(&b.mups)).expect("cells");
    let worst = cells.iter().min_by(|a, b| a.mups.total_cmp(&b.mups)).expect("cells");
    let tuned = autotune::run_tuned(&w, cfg);
    let bitwise = autotune::replay_trace(&w, tuned.trace.clone(), ladder[0], top) == tuned.bits;
    for (label, q, m) in [
        ("worst_static", worst.quantum, worst.mups),
        ("best_static", best.quantum, best.mups),
        ("autotuned", tuned.final_quantum, tuned.overall_mups),
    ] {
        eprintln!("  autotune {label:<13} quantum={q:<5} {m:>7.2} Mup/s");
    }
    vec![
        TuneRow { mode: "worst_static", quantum: worst.quantum, mups: worst.mups, detail: None },
        TuneRow { mode: "best_static", quantum: best.quantum, mups: best.mups, detail: None },
        TuneRow {
            mode: "autotuned",
            quantum: tuned.final_quantum,
            mups: tuned.overall_mups,
            detail: Some((tuned.steady_mups, tuned.changes, bitwise)),
        },
    ]
}

/// Client counts swept over real loopback TCP through the reactor front
/// end. The per-connection-overhead curve this produces is the headline
/// reactor result: `us_per_update` must stay flat (within 2x) from the
/// low end to the high end.
const CONN_COUNTS: [usize; 5] = [64, 128, 256, 512, 1024];
/// Submission chunk for the connection sweep (updates per round trip).
const CONN_CHUNK: usize = 256;
/// Driver threads that multiplex the sweep's client connections.
const DRIVERS: usize = 8;
/// Slot count for the sweep's table.
const SWEEP_SLOTS: usize = 4_096;

/// Scrambled slot targets, deterministic in seq.
fn update_at(seq: usize) -> Update {
    Update::i32(
        seq as u64,
        ((seq.wrapping_mul(2_654_435_761)) % SWEEP_SLOTS) as u32,
        (seq % 7) as i32 + 1,
    )
}

/// One connection-sweep measurement.
struct SweepPoint {
    conns: usize,
    /// Total updates in the fixed stream.
    total: usize,
    /// Connect + first-submit handshake time for the whole fleet.
    setup_seconds: f64,
    /// Steady-state submit→flush time for the fixed stream.
    seconds: f64,
    /// Snapshot checksum matched the in-process (blocking-path) reference.
    checksum_ok: bool,
}

/// Fixed-total update stream pushed over 64..=1024 loopback connections:
/// the stream is split into contiguous per-connection seq ranges (the
/// reorder buffer merges them), so the folded table — and its checksum —
/// must be bitwise identical to an in-process replay at every fleet size.
fn connection_sweep(scale: f64) -> Vec<SweepPoint> {
    let total = (((131_072.0 * scale) as usize).max(16_384)).next_multiple_of(1_024);
    let config = || {
        let mut c = ServeConfig::new(vec![TableSpec::i32("deg", OpKind::Add, SWEEP_SLOTS)]);
        c.quantum = 4_096;
        c.queue_capacity = 32_768;
        c.max_connections = 2_048;
        c
    };
    // Blocking-path reference: same stream, seq order, in process.
    let reference_sum = {
        let core = ServerCore::new(config()).expect("sweep config");
        let mut local = LocalClient::new(core);
        let all: Vec<Update> = (0..total).map(update_at).collect();
        local.submit_all(0, &all).expect("reference submit");
        local.flush().expect("reference flush");
        fnv64(&local.snapshot(0).expect("reference snapshot").bits())
    };

    let mut sweep = Vec::new();
    for &conns in &CONN_COUNTS {
        let mut best: Option<SweepPoint> = None;
        for _ in 0..REPEATS {
            let point = sweep_once(config(), conns, total, reference_sum);
            if best.as_ref().is_none_or(|b| point.seconds < b.seconds) {
                best = Some(point);
            }
        }
        let point = best.expect("at least one repeat");
        eprintln!(
            "  sweep conns={conns:<5} setup {:>7.2} ms  stream {:>8.2} ms  \
             {:>6.3} us/update  checksum {}",
            point.setup_seconds * 1e3,
            point.seconds * 1e3,
            point.seconds * 1e6 / total as f64,
            if point.checksum_ok { "ok" } else { "MISMATCH" },
        );
        sweep.push(point);
    }
    sweep
}

/// One timed sweep run: fresh server, `conns` live connections held open
/// across `DRIVERS` threads, contiguous seq ranges per connection.
fn sweep_once(config: ServeConfig, conns: usize, total: usize, reference_sum: u64) -> SweepPoint {
    let server = Server::bind(config, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let per_conn = total / conns;
    let drivers = DRIVERS.min(conns);

    let connected = Arc::new(Barrier::new(drivers + 1));
    let submitted = Arc::new(Barrier::new(drivers + 1));
    let setup_start = Instant::now();
    let handles: Vec<_> = (0..drivers)
        .map(|d| {
            let connected = Arc::clone(&connected);
            let submitted = Arc::clone(&submitted);
            std::thread::spawn(move || {
                let per_driver = conns / drivers;
                let mut clients: Vec<TcpClient> = (0..per_driver)
                    .map(|_| serving::connect(addr).unwrap_or_else(|e| panic!("{e}")))
                    .collect();
                connected.wait();
                // Interleave chunk submission round-robin across this
                // driver's connections so all `conns` sockets are active
                // at once, not drained one after another.
                let chunks_per_conn = per_conn.div_ceil(CONN_CHUNK);
                for round in 0..chunks_per_conn {
                    for (i, client) in clients.iter_mut().enumerate() {
                        let conn = d * per_driver + i;
                        let lo = conn * per_conn + round * CONN_CHUNK;
                        let hi = (lo + CONN_CHUNK).min((conn + 1) * per_conn);
                        let slice: Vec<Update> = (lo..hi).map(update_at).collect();
                        client.submit_all(0, &slice).expect("sweep submit");
                    }
                }
                submitted.wait();
                // Hold every socket open until the coordinator has
                // snapshotted: the server really serves `conns` live
                // connections for the whole timed section.
                submitted.wait();
                drop(clients);
            })
        })
        .collect();

    connected.wait();
    let setup_seconds = setup_start.elapsed().as_secs_f64();
    let start = Instant::now();
    submitted.wait();
    let mut coordinator = TcpClient::connect(addr).expect("coordinator connect");
    coordinator.flush().expect("sweep flush");
    let seconds = start.elapsed().as_secs_f64();
    let snap = coordinator.snapshot(0).expect("sweep snapshot");
    let checksum_ok = snap.watermark == total as u64 && fnv64(&snap.bits()) == reference_sum;
    submitted.wait();
    for h in handles {
        h.join().expect("sweep driver");
    }
    server.shutdown();
    server.join();
    SweepPoint { conns, total, setup_seconds, seconds, checksum_ok }
}

/// FNV-1a over snapshot bit patterns: a compact bitwise-equality witness.
fn fnv64(bits: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One swept configuration, best of [`REPEATS`] timed runs (quantum-1
/// cells are timed once; see [`REPEATS`]).
fn run_cell(
    fixture: &Fixture,
    reference: &[Vec<u32>; 2],
    backend: BackendChoice,
    label: &'static str,
    quantum: usize,
) -> Cell {
    let repeats = if quantum == 1 { 1 } else { REPEATS };
    let mut best: Option<Cell> = None;
    for _ in 0..repeats {
        let cell = run_cell_once(fixture, reference, backend, label, quantum);
        if best.as_ref().is_none_or(|b| cell.seconds < b.seconds) {
            best = Some(cell);
        }
    }
    best.expect("at least one repeat")
}

/// One timed run: fresh server, full stream, forced drain; then both
/// tables checked against the serial fold.
fn run_cell_once(
    fixture: &Fixture,
    reference: &[Vec<u32>; 2],
    backend: BackendChoice,
    label: &'static str,
    quantum: usize,
) -> Cell {
    let mut config = ServeConfig::new(serving::tables(fixture.cardinality));
    config.backend = backend;
    config.quantum = quantum;
    // Enough queue headroom that backpressure retries measure the apply
    // path, not an artificially starved queue.
    config.queue_capacity = quantum.max(4_096) * 4;
    let core = ServerCore::new(config).expect("config is valid");
    let mut client = LocalClient::new(core.clone());

    let start = Instant::now();
    let mut retries = 0u32;
    for (chunk_c, chunk_m) in fixture.counts.chunks(CHUNK).zip(fixture.mins.chunks(CHUNK)) {
        retries += client.submit_all(0, chunk_c).expect("local submit");
        retries += client.submit_all(1, chunk_m).expect("local submit");
    }
    client.flush().expect("local flush");
    let seconds = start.elapsed().as_secs_f64();

    for (table, expect) in (0u16..).zip(reference) {
        if client.snapshot(table).expect("local snapshot").bits() != *expect {
            eprintln!(
                "error: {label} quantum {quantum}: table {table} diverged from the serial fold"
            );
            std::process::exit(1);
        }
    }

    let stats = core.stats_summary();
    let obs = invector_obs::json_snapshot(core.registry());
    Cell { backend: label, quantum, seconds, slices: stats.slices, retries, obs }
}

fn print_json(
    scale: f64,
    rows: usize,
    cardinality: usize,
    updates: u64,
    cells: &[Cell],
    sweep: &[SweepPoint],
    tuning: &[TuneRow],
) {
    // Speedup baseline: quantum 1 on the same backend — the unbatched
    // degenerate case.
    let base = |c: &Cell| {
        cells
            .iter()
            .find(|b| b.backend == c.backend && b.quantum == 1)
            .map_or(f64::NAN, |b| b.seconds)
    };
    println!("{{");
    println!("  \"experiment\": \"serve_throughput\",");
    println!("  \"scale\": {scale},");
    println!("  \"rows\": {rows},");
    println!("  \"cardinality\": {cardinality},");
    println!("  \"updates\": {updates},");
    println!("  \"distribution\": \"zipf\",");
    println!("  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        println!("    {{");
        println!("      \"backend\": \"{}\",", c.backend);
        println!("      \"quantum\": {},", c.quantum);
        println!("      \"elapsed_ms\": {:.3},", c.seconds * 1e3);
        println!("      \"mupdates_per_sec\": {:.3},", updates as f64 / c.seconds / 1e6);
        println!("      \"slices\": {},", c.slices);
        println!("      \"reject_retries\": {},", c.retries);
        println!("      \"speedup_vs_quantum1\": {:.3}", base(c) / c.seconds.max(1e-12));
        println!("    }}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    println!("  ],");
    // Reactor front-end result: a fixed update stream over a growing fleet
    // of live loopback connections. `us_per_update` flat across the sweep
    // means per-connection overhead is constant-bounded — the event-driven
    // front end does not pay per-thread costs per socket.
    println!("  \"connection_sweep\": [");
    for (i, p) in sweep.iter().enumerate() {
        println!("    {{");
        println!("      \"clients\": {},", p.conns);
        println!("      \"stream_updates\": {},", p.total);
        println!("      \"setup_ms\": {:.3},", p.setup_seconds * 1e3);
        println!("      \"elapsed_ms\": {:.3},", p.seconds * 1e3);
        println!("      \"us_per_update\": {:.4},", p.seconds * 1e6 / p.total as f64);
        println!("      \"checksum_matches_blocking_path\": {}", p.checksum_ok);
        println!("    }}{}", if i + 1 < sweep.len() { "," } else { "" });
    }
    println!("  ],");
    // The obs→policy loop closed: the online controller, started at the
    // ladder's worst rung on the same zipf stream, against the best and
    // worst static `(quantum)` cells of its ladder. The acceptance band is
    // steady-state autotuned >= 0.8x best static and >= 2x worst static,
    // with the recorded policy trace replaying to bitwise-identical
    // snapshots.
    println!("  \"autotune\": [");
    for (i, r) in tuning.iter().enumerate() {
        println!("    {{");
        println!("      \"mode\": \"{}\",", r.mode);
        println!("      \"quantum\": {},", r.quantum);
        match r.detail {
            None => println!("      \"mupdates_per_sec\": {:.3}", r.mups),
            Some((steady, changes, bitwise)) => {
                println!("      \"mupdates_per_sec\": {:.3},", r.mups);
                println!("      \"steady_mupdates_per_sec\": {steady:.3},");
                println!("      \"policy_changes\": {changes},");
                println!("      \"trace_replay_bitwise\": {bitwise}");
            }
        }
        println!("    }}{}", if i + 1 < tuning.len() { "," } else { "" });
    }
    println!("  ],");
    // Stats recording rides the sharded invector-obs registry: per-thread
    // relaxed atomics merged on read. The Mutex<ServeStats> that used to
    // sit on the epoch path is gone, so the numbers above include no
    // stats-lock contention.
    println!(
        "  \"notes\": \"stats recorded via the sharded lock-free obs registry, \
         compiled into every build; the former Mutex<ServeStats> epoch-path \
         contention point is removed\","
    );
    // The last swept cell's service-registry snapshot.
    let obs = cells.last().map_or("{}", |c| c.obs.as_str());
    println!("  \"obs\": {obs},");
    // Cross-sweep engine/SIMD counters from the global registry.
    println!("  \"obs_global\": {}", invector_obs::json_snapshot(invector_obs::Registry::global()));
    println!("}}");
}
