//! Shared harness for the autotune-convergence experiment: synthetic
//! update streams (zipf, uniform, shifting hot key), a static
//! `(quantum)`-cell runner over the controller's lattice, and a tuned
//! runner that starts at the worst rung and reports where the online
//! controller converges.
//!
//! Every runner drives the same ingest pattern — fixed-size submission
//! chunks with an epoch tick after each — so static and tuned cells are
//! comparable, and the tuned run's policy trace can be replayed for the
//! bitwise-snapshot check.

use std::sync::Arc;
use std::time::Instant;

use invector_agg::dist::{self, Distribution};
use invector_serve::{
    LocalClient, OpKind, PolicyTrace, ServeClient, ServeConfig, ServerCore, TableSpec, TuneConfig,
    TuneMode, Update,
};
use rand::{Rng, SeedableRng, SmallRng};

/// Updates per submission chunk (one epoch tick fires after each chunk).
pub const CHUNK: usize = 256;

/// One synthetic workload: a key sequence materialized as an i32 count
/// stream and an f32 sum stream over the same keys. The float table makes
/// the replay check bitwise-meaningful — any reassociation of its fold
/// (a slice boundary in the wrong place) changes the bits.
pub struct Workload {
    /// Display name.
    pub name: &'static str,
    /// Table slot count.
    pub cardinality: usize,
    /// i32 add stream (table 0).
    pub counts: Vec<Update>,
    /// f32 add stream (table 1), same keys.
    pub sums: Vec<Update>,
}

impl Workload {
    fn from_keys(name: &'static str, cardinality: usize, keys: &[u32], seed: u64) -> Workload {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1e);
        let counts =
            keys.iter().enumerate().map(|(seq, &k)| Update::i32(seq as u64, k, 1)).collect();
        let sums = keys
            .iter()
            .enumerate()
            .map(|(seq, &k)| Update::f32(seq as u64, k, rng.gen_range(-1.0f32..1.0)))
            .collect();
        Workload { name, cardinality, counts, sums }
    }

    /// Total updates the workload submits (both streams).
    pub fn updates(&self) -> usize {
        self.counts.len() + self.sums.len()
    }
}

/// Zipf-skewed keys (the serving benchmark's distribution).
pub fn zipf(rows: usize, cardinality: usize, seed: u64) -> Workload {
    let input = dist::generate(Distribution::Zipf, rows, cardinality, seed);
    let keys: Vec<u32> = input.keys.iter().map(|&k| k as u32).collect();
    Workload::from_keys("zipf", cardinality, &keys, seed)
}

/// Uniform keys: minimal conflicts, the in-vector kernel's easy case.
pub fn uniform(rows: usize, cardinality: usize, seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let keys: Vec<u32> = (0..rows).map(|_| rng.gen_range(0u32..cardinality as u32)).collect();
    Workload::from_keys("uniform", cardinality, &keys, seed)
}

/// A hot window of keys that jumps to a new position four times over the
/// stream: 90% of updates land in the window, so the conflict profile —
/// and the best policy — shifts mid-run.
pub fn shifting_hot_key(rows: usize, cardinality: usize, seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window = (cardinality / 8).max(1) as u32;
    let phase_len = rows.div_ceil(4).max(1);
    let keys: Vec<u32> = (0..rows)
        .map(|i| {
            let base = ((i / phase_len) as u32 * window * 2) % cardinality as u32;
            if rng.gen_bool(0.9) {
                (base + rng.gen_range(0..window)) % cardinality as u32
            } else {
                rng.gen_range(0u32..cardinality as u32)
            }
        })
        .collect();
    Workload::from_keys("shifting-hot-key", cardinality, &keys, seed)
}

fn config(w: &Workload, quantum: usize, ladder_top: usize, tune: TuneMode) -> ServeConfig {
    let mut c = ServeConfig::new(vec![
        TableSpec::i32("counts", OpKind::Add, w.cardinality),
        TableSpec::f32("sums", OpKind::Add, w.cardinality),
    ]);
    c.quantum = quantum;
    // Headroom above the largest rung the controller can climb to, so
    // backpressure never throttles a probe.
    c.queue_capacity = ladder_top.max(4_096) * 4;
    c.tune = tune;
    c
}

/// Drives the workload: chunked submission with a tick per chunk, final
/// flush. Returns (total seconds, seconds at the halfway mark, core).
fn drive(config: ServeConfig, w: &Workload) -> (f64, f64, Arc<ServerCore>) {
    let core = ServerCore::new(config).expect("autotune config is valid");
    let mut client = LocalClient::new(core.clone());
    let chunks = w.counts.len().div_ceil(CHUNK);
    let half = chunks / 2;
    let start = Instant::now();
    let mut at_half = 0.0;
    for (i, (cc, cs)) in w.counts.chunks(CHUNK).zip(w.sums.chunks(CHUNK)).enumerate() {
        client.submit_all(0, cc).expect("submit counts");
        client.submit_all(1, cs).expect("submit sums");
        core.tick(false);
        if i + 1 == half {
            at_half = start.elapsed().as_secs_f64();
        }
    }
    client.flush().expect("flush");
    (start.elapsed().as_secs_f64(), at_half, core)
}

fn snapshots(core: &ServerCore) -> Vec<Vec<u32>> {
    (0..2u16).map(|t| core.snapshot(t).expect("snapshot").bits()).collect()
}

/// One static `(quantum)` cell.
pub struct StaticRun {
    /// The fixed epoch quantum.
    pub quantum: usize,
    /// Whole-run throughput, million updates per second.
    pub mups: f64,
}

/// Runs the workload at a fixed quantum (no tuning).
pub fn run_static(w: &Workload, quantum: usize, ladder_top: usize) -> StaticRun {
    let (seconds, _, _) = drive(config(w, quantum, ladder_top, TuneMode::Off), w);
    StaticRun { quantum, mups: w.updates() as f64 / seconds.max(1e-12) / 1e6 }
}

/// Every rung of the ladder as a static cell, in ladder order.
pub fn sweep(w: &Workload, ladder: &[usize]) -> Vec<StaticRun> {
    let top = ladder.last().copied().unwrap_or(4_096);
    ladder.iter().map(|&q| run_static(w, q, top)).collect()
}

/// One tuned run, started at the ladder's worst (smallest) rung.
pub struct TunedRun {
    /// Throughput over the stream's second half — the converged regime.
    pub steady_mups: f64,
    /// Whole-run throughput (climb included).
    pub overall_mups: f64,
    /// Quantum of the policy active when the stream ended.
    pub final_quantum: usize,
    /// Policy installs the controller made.
    pub changes: usize,
    /// The recorded trace (replayable via [`replay_trace`]).
    pub trace: PolicyTrace,
    /// Final snapshot bits per table.
    pub bits: Vec<Vec<u32>>,
}

/// Runs the workload under the online controller, starting from the
/// bottom rung so the result demonstrates the climb rather than the
/// starting guess.
pub fn run_tuned(w: &Workload, cfg: TuneConfig) -> TunedRun {
    let start_quantum = cfg.quantum_ladder[0];
    let top = cfg.quantum_ladder.last().copied().unwrap_or(4_096);
    let (seconds, at_half, core) = drive(config(w, start_quantum, top, TuneMode::Auto(cfg)), w);
    let total = w.updates();
    let first_half = 2 * ((w.counts.len().div_ceil(CHUNK) / 2) * CHUNK).min(w.counts.len());
    let steady_updates = (total - first_half).max(1);
    let steady_seconds = (seconds - at_half).max(1e-12);
    TunedRun {
        steady_mups: steady_updates as f64 / steady_seconds / 1e6,
        overall_mups: total as f64 / seconds.max(1e-12) / 1e6,
        final_quantum: core.current_policy().quantum,
        changes: core.policy_trace().len(),
        trace: core.policy_trace(),
        bits: snapshots(&core),
    }
}

/// Replays a tuned run's recorded trace statically (no controller) and
/// returns the snapshot bits — the bitwise-determinism witness.
pub fn replay_trace(
    w: &Workload,
    trace: PolicyTrace,
    start_quantum: usize,
    ladder_top: usize,
) -> Vec<Vec<u32>> {
    let (_, _, core) = drive(config(w, start_quantum, ladder_top, TuneMode::Replay(trace)), w);
    snapshots(&core)
}

/// Rungs between two quanta on the ladder (quanta off the ladder count
/// from rung 0).
pub fn ladder_steps(ladder: &[usize], a: usize, b: usize) -> usize {
    let pos = |q| ladder.iter().position(|&r| r == q).unwrap_or(0);
    pos(a).abs_diff(pos(b))
}

/// The convergence experiment's controller knobs, shared by the
/// `autotune_convergence` and `serve_throughput` binaries: a ladder whose
/// bottom rung is the degenerate per-update-epoch cell (the controller
/// starts there to demonstrate the climb), windows long enough that
/// sub-millisecond timing noise does not steer probes, and wide
/// hysteresis/drift bands so a converged run stops churning.
pub fn convergence_config() -> TuneConfig {
    TuneConfig {
        quantum_ladder: vec![1, 16, 128, 1024, 4096],
        thread_ladder: vec![1],
        variants: vec![invector_core::ExecVariant::Invec, invector_core::ExecVariant::Serial],
        warmup_epochs: 2,
        measure_epochs: 3,
        hysteresis: 0.1,
        hold_epochs: 128,
        drift: 1.5,
    }
}
