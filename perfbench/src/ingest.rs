//! `ingest-hot`: one in-process client in a closed loop against a
//! `ServerCore` built from the `ServeConfig` defaults (4 shards, quantum
//! 4096, one engine thread, backend auto, no WAL, tune off).
//!
//! The client sends 1024-update chunks, alternating between an i32 Add and
//! an f32 Min table over the serving workload's Zipf(0.5) stream on 4096
//! keys, then flushes. On a `Rejected` outcome it ticks an epoch and
//! resubmits the refused suffix, exactly as `submit_all` with
//! `LocalClient::backoff` does. No network or disk is involved, so the time
//! goes to admission, shard queues, the reorder buffer, epoch cuts and the
//! SIMD fold on a cache-resident table.

use std::hint::black_box;
use std::time::{Duration, Instant};

use invector_core::exec::{execute_epoch, EpochScratch, ExecPolicy};
use invector_core::ops::{Min, ReduceOp, Sum};
use invector_core::{invec_accumulate_with, Backend, BackendChoice, InvecStats};
use invector_serve::table::TableState;
use invector_serve::{
    snapshot_checksum, OpKind, ReorderBuffer, ServeConfig, ServerCore, SubmitOutcome, TableSpec,
    Update,
};
use invector_simd::SimdElement;

use crate::input::{zipf_keys, Rng};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, median3, Summary};
use crate::trace::{by_name, Ledger, Tracer, Tracks};

/// Keys per table.
const KEYS: usize = 4096;
/// Updates per submit call.
const CHUNK: usize = 1024;
/// Updates per table per pass.
const PER_TABLE: usize = 1 << 19;
/// The serving workload's Zipf exponent.
const ZIPF_EXPONENT: f64 = 0.5;
/// Set-ups per run (the reported `setup_s` is their median).
const SETUPS: usize = 25;
/// Passes per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 5;
/// Passes whose submit-call latencies the run keeps, so that peak memory
/// does not grow with the number of passes a faster build fits in.
const SUBMIT_SAMPLE_PASSES: usize = 64;
/// Traced, untraced and portable passes in the ledger run.
const LEDGER_REPS: usize = 3;

/// The two update streams and their serial folds.
struct Input {
    streams: [Vec<Update>; 2],
    expect: [Vec<u32>; 2],
}

impl Input {
    fn updates(&self) -> usize {
        self.streams[0].len() + self.streams[1].len()
    }
}

/// Generates both streams from `seed` and folds them serially: a plain
/// loop, bitwise the answer for i32 Add and f32 Min in any order.
fn generate(seed: u64) -> Input {
    let mut rng = Rng::new(seed, 1);
    let keys = zipf_keys(&mut rng, PER_TABLE, KEYS, ZIPF_EXPONENT);
    let counts: Vec<Update> =
        keys.iter().enumerate().map(|(seq, &k)| Update::i32(seq as u64, k, 1)).collect();
    let mins: Vec<Update> = keys
        .iter()
        .enumerate()
        .map(|(seq, &k)| Update::f32(seq as u64, k, rng.unit() as f32))
        .collect();
    let mut sum = vec![0i32; KEYS];
    let mut min = vec![f32::INFINITY; KEYS];
    for (c, m) in counts.iter().zip(&mins) {
        sum[c.idx as usize] = sum[c.idx as usize].wrapping_add(c.bits as i32);
        let v = f32::from_bits(m.bits);
        if v < min[m.idx as usize] {
            min[m.idx as usize] = v;
        }
    }
    let expect =
        [sum.iter().map(|&x| x as u32).collect(), min.iter().map(|x| x.to_bits()).collect()];
    Input { streams: [counts, mins], expect }
}

fn config(backend: BackendChoice) -> ServeConfig {
    let mut c = ServeConfig::new(vec![
        TableSpec::i32("counts", OpKind::Add, KEYS),
        TableSpec::f32("mins", OpKind::Min, KEYS),
    ]);
    c.backend = backend;
    c
}

/// What one pass did.
struct Pass {
    wall: Duration,
    submit_us: Vec<f64>,
    /// Submit calls refused at least once.
    refused: u64,
    /// Per-table admitted counts at every epoch the client ran; the last
    /// entry is the final flush.
    ticks: Vec<[usize; 2]>,
    error: Option<String>,
}

/// Streams the whole input through `core` and flushes.
fn drive(core: &ServerCore, input: &Input, tracer: &mut Tracer) -> Pass {
    let chunks = PER_TABLE / CHUNK;
    let mut pass = Pass {
        wall: Duration::ZERO,
        submit_us: Vec::with_capacity(2 * chunks),
        refused: 0,
        ticks: Vec::new(),
        error: None,
    };
    let mut admitted = [0usize; 2];
    let start = Instant::now();
    tracer.enter("ingest.pass", 0);
    'chunks: for c in 0..chunks {
        for t in 0..2 {
            let request = (2 * c + t) as u64;
            let mut rest = &input.streams[t][c * CHUNK..(c + 1) * CHUNK];
            let call = Instant::now();
            tracer.enter("client.submit_all", request);
            let mut refused = false;
            loop {
                tracer.enter("serve.admit", request);
                let outcome = core.submit(t as u16, rest);
                tracer.exit();
                match outcome {
                    SubmitOutcome::Accepted { .. } => {
                        admitted[t] += rest.len();
                        break;
                    }
                    SubmitOutcome::Rejected { accepted, .. } => {
                        admitted[t] += accepted as usize;
                        rest = &rest[accepted as usize..];
                        refused = true;
                        pass.ticks.push(admitted);
                        tracer.enter("serve.epoch", request);
                        core.tick(false);
                        tracer.exit();
                    }
                    SubmitOutcome::Failed(m) => {
                        tracer.exit();
                        pass.error = Some(format!("submit {request}: {m}"));
                        break 'chunks;
                    }
                }
            }
            tracer.exit();
            pass.submit_us.push(call.elapsed().as_secs_f64() * 1e6);
            pass.refused += u64::from(refused);
        }
    }
    pass.ticks.push(admitted);
    tracer.enter("serve.epoch", 2 * chunks as u64);
    core.flush();
    tracer.exit();
    tracer.exit();
    pass.wall = start.elapsed();
    pass
}

/// Counts the pass's submit calls and checks the final snapshots against
/// the serial fold, bitwise, plus each snapshot's checksum.
fn check(core: &ServerCore, input: &Input, pass: &Pass, out: &mut Outcome) {
    for _ in 0..pass.submit_us.len() {
        out.op(true);
    }
    if let Some(e) = &pass.error {
        out.fail(e.clone());
        return;
    }
    for t in 0..2u16 {
        match core.snapshot(t) {
            Ok(snap) => {
                let bits = snap.bits();
                out.check(snapshot_checksum(&bits) == snap.checksum, "snapshot checksum");
                out.check(
                    snap.watermark == PER_TABLE as u64 && bits == input.expect[t as usize],
                    &format!("table {t} equals the serial fold"),
                );
            }
            Err(e) => out.fail(format!("snapshot {t}: {e}")),
        }
    }
}

fn fresh_core(backend: BackendChoice) -> std::sync::Arc<ServerCore> {
    ServerCore::new(config(backend)).expect("the ServeConfig defaults are valid")
}

/// One untraced, checked pass on a fresh core.
fn timed_pass(input: &Input, backend: BackendChoice, out: &mut Outcome) -> Pass {
    let core = fresh_core(backend);
    let pass = drive(&core, input, &mut Tracer::new(false, Instant::now()));
    check(&core, input, &pass, out);
    pass
}

/// The end-to-end run: repeated passes for `seconds`.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut input = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let generated = generate(seed);
        black_box(fresh_core(BackendChoice::Auto));
        setup.push(t.elapsed().as_secs_f64());
        input = Some(generated);
    }
    let input = input.expect("at least one set-up");

    // Warm-up: lazy engine and allocator set-up, untimed.
    timed_pass(&input, BackendChoice::Auto, out);

    let mut off = Tracer::new(false, Instant::now());
    let (mut walls, mut submits, mut calls, mut refused) = (Vec::new(), Vec::new(), 0u64, 0u64);
    let begin = Instant::now();
    while walls.len() < MIN_PASSES || begin.elapsed().as_secs_f64() < seconds {
        let core = fresh_core(BackendChoice::Auto);
        let pass = drive(&core, &input, &mut off);
        check(&core, &input, &pass, out);
        walls.push(pass.wall.as_secs_f64());
        if walls.len() <= SUBMIT_SAMPLE_PASSES {
            submits.extend_from_slice(&pass.submit_us);
        }
        calls += pass.submit_us.len() as u64;
        refused += pass.refused;
    }
    let wall = median(&walls);
    let mups: Vec<f64> = walls.iter().map(|w| input.updates() as f64 / w / 1e6).collect();
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", wall, "s");
    out.metric("mups", median(&mups), "Mup/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.note(format!(
        "setup_s over {} set-ups; wall_s and mups over {} passes",
        setup.len(),
        walls.len()
    ));
    out.note(format!(
        "submit call latency over the first {} passes: {}",
        walls.len().min(SUBMIT_SAMPLE_PASSES),
        Summary::of(&submits).describe("us")
    ));
    out.note(format!(
        "refused_ratio {:.5} ({refused} of {calls} submit calls)",
        refused as f64 / calls as f64
    ));
}

/// Nanoseconds of a duration as `f64`.
fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// The traced run: per-layer ledger of one pass, with the inner layers
/// timed by replaying the exact batches and slices the pass produced.
pub fn ledger(seed: u64, out: &mut Outcome) -> Tracks {
    let input = generate(seed);
    let cfg = config(BackendChoice::Auto);
    let updates = input.updates() as f64;
    timed_pass(&input, BackendChoice::Auto, out);

    let (mut plain, mut traced, mut portable) = (Vec::new(), Vec::new(), Vec::new());
    let (mut submits, mut refused) = (Vec::new(), 0u64);
    let mut last = None;
    for _ in 0..LEDGER_REPS {
        let pass = timed_pass(&input, BackendChoice::Auto, out);
        plain.push(pass.wall.as_secs_f64());
        submits.extend_from_slice(&pass.submit_us);
        refused += pass.refused;
        portable.push(timed_pass(&input, BackendChoice::Portable, out).wall.as_secs_f64());
        let core = fresh_core(BackendChoice::Auto);
        let mut tracer = Tracer::new(true, Instant::now());
        let pass = drive(&core, &input, &mut tracer);
        check(&core, &input, &pass, out);
        traced.push(pass.wall.as_secs_f64());
        last = Some((core.stats_summary(), tracer, pass));
    }
    let (summary, tracer, pass) = last.expect("at least one traced pass");
    let spans = by_name(tracer.spans());
    let total = |name: &str| spans.get(name).map_or(0.0, |t| t.total as f64);
    let own = |name: &str| spans.get(name).map_or(0.0, |t| t.self_ns as f64);

    // Replays of the traced pass, in isolation, median of three each.
    let arrivals = arrivals(&input, &pass.ticks, cfg.shards);
    let quantum = cfg.quantum;
    let policy = cfg.policy();
    let backend = policy.backend.resolve();
    let reorder = median3(|| replay_reorder(&arrivals, quantum));
    let mut table_check = true;
    let table = median3(|| {
        let (d, ok) = replay_table(&cfg, &arrivals, &input);
        table_check &= ok;
        d
    });
    out.check(table_check, "table replay reproduces the serial fold");
    let exec = median3(|| {
        replay_exec::<i32, Sum>(&input.streams[0], quantum, |b| b as i32, &policy)
            + replay_exec::<f32, Min>(&input.streams[1], quantum, f32::from_bits, &policy)
    });
    let counts = split(&input.streams[0], quantum, |b| b as i32);
    let mins = split(&input.streams[1], quantum, f32::from_bits);
    let mut stats = InvecStats::default();
    let simd = |backend: Backend, stats: &mut InvecStats| {
        median3(|| {
            let (a, sa) = replay_simd::<i32, Sum>(&counts, backend);
            let (b, sb) = replay_simd::<f32, Min>(&mins, backend);
            *stats = sa;
            stats.merge(&sb);
            a + b
        })
    };
    let fused = simd(backend, &mut stats);
    let portable_simd = simd(Backend::Portable, &mut InvecStats::default());

    let mut ledger = Ledger { wall_ns: ns(pass.wall), rows: Vec::new() };
    ledger.row("client.submit_all", own("client.submit_all"));
    ledger.row("serve.admit", own("serve.admit"));
    ledger.row("serve.epoch", own("serve.epoch") - ns(table));
    ledger.row("serve.table", ns(table) - ns(reorder) - ns(exec));
    ledger.row("serve.reorder", ns(reorder));
    ledger.row("core.exec", ns(exec) - ns(fused));
    ledger.row("simd.fused", ns(fused));
    for line in ledger.describe(updates, "update") {
        out.note(line);
    }

    let invocations = stats.depth.invocations().max(1) as f64;
    out.metric("serve.admit.ns_per_update", total("serve.admit") / updates, "ns");
    out.metric("serve.epoch.ns_per_update", total("serve.epoch") / updates, "ns");
    out.metric("serve.epoch.count", summary.epochs as f64, "count");
    out.metric("serve.reorder.ns_per_update", ns(reorder) / updates, "ns");
    out.metric("serve.table.ns_per_update", ns(table) / updates, "ns");
    out.metric("serve.slices", summary.slices as f64, "count");
    out.metric("serve.rejected", summary.rejected as f64, "count");
    out.metric("core.exec.ns_per_update", ns(exec) / updates, "ns");
    out.metric("simd.fused.ns_per_update", ns(fused) / updates, "ns");
    out.metric("simd.portable.ns_per_update", ns(portable_simd) / updates, "ns");
    out.metric("simd.native_over_portable", ns(portable_simd) / ns(fused), "ratio");
    out.metric("simd.depth0_share", stats.depth.bucket(0) as f64 / invocations, "ratio");
    out.metric("simd.vectors_per_update", stats.vectors as f64 / updates, "ratio");
    out.metric("serve.native_over_portable", median(&portable) / median(&plain), "ratio");
    let submit = Summary::of(&submits);
    out.metric("e2e.submit_p50_us", submit.p50, "us");
    out.metric("e2e.submit_tail_us", submit.tail, "us");
    out.metric("e2e.refused_ratio", refused as f64 / submits.len() as f64, "ratio");
    out.metric("e2e.error_ratio", out.error_ratio(), "ratio");
    out.metric("bench.ledger_residual", ledger.residual(), "ratio");
    out.metric("bench.trace_overhead", median(&traced) / median(&plain) - 1.0, "ratio");
    out.note(format!(
        "backend {}; {} epochs, {} slices, {} updates rejected; passes: {LEDGER_REPS} each",
        backend.name(),
        summary.epochs,
        summary.slices,
        summary.rejected
    ));
    vec![("client", tracer.into_spans())]
}

/// Which ingest shard `idx` routes to: contiguous key ranges, as the core
/// partitions them.
fn shard_of(idx: u32, shards: usize) -> usize {
    (u64::from(idx) * shards as u64 / KEYS as u64) as usize
}

/// The updates each epoch of the pass absorbed, per table, in the order
/// the epoch absorbs them: shard by shard, admission order within a shard.
fn arrivals(input: &Input, ticks: &[[usize; 2]], shards: usize) -> Vec<[Vec<Update>; 2]> {
    let mut prev = [0usize; 2];
    ticks
        .iter()
        .map(|now| {
            let batch = [0, 1].map(|t| {
                let mut v = input.streams[t][prev[t]..now[t]].to_vec();
                v.sort_by_key(|u| shard_of(u.idx, shards));
                v
            });
            prev = *now;
            batch
        })
        .collect()
}

/// `ReorderBuffer::insert` + `pop_run` over the pass's arrivals, cutting
/// full quanta per epoch and draining at the final flush.
fn replay_reorder(arrivals: &[[Vec<Update>; 2]], quantum: usize) -> Duration {
    let last = arrivals.len() - 1;
    let mut out = Vec::with_capacity(quantum);
    let start = Instant::now();
    for t in 0..2 {
        let mut buffer = ReorderBuffer::new();
        for (k, batch) in arrivals.iter().enumerate() {
            for &u in &batch[t] {
                buffer.insert(u);
            }
            loop {
                let run = buffer.contiguous_len();
                let take = if run >= quantum {
                    quantum
                } else if k == last && run > 0 {
                    run
                } else {
                    break;
                };
                buffer.pop_run(take, &mut out);
                black_box(&out);
            }
        }
    }
    start.elapsed()
}

/// `TableState::absorb` + `cut_scheduled` over the pass's arrivals; also
/// reports whether the replayed tables equal the serial fold.
fn replay_table(
    cfg: &ServeConfig,
    arrivals: &[[Vec<Update>; 2]],
    input: &Input,
) -> (Duration, bool) {
    let last = arrivals.len() - 1;
    let mut states: Vec<TableState> =
        cfg.tables.iter().map(|spec| TableState::new(spec.clone(), cfg.initial_policy())).collect();
    let start = Instant::now();
    for (t, state) in states.iter_mut().enumerate() {
        for (k, batch) in arrivals.iter().enumerate() {
            for &u in &batch[t] {
                state.absorb(u);
            }
            black_box(state.cut_scheduled(k == last));
        }
    }
    let elapsed = start.elapsed();
    let ok = states.iter().zip(&input.expect).all(|(s, e)| &s.data().to_bits() == e);
    (elapsed, ok)
}

/// `exec::execute_epoch` over the pass's slices (full quanta in `seq`
/// order, then the flushed tail) under the serve policy.
fn replay_exec<T: SimdElement, Op: ReduceOp<T>>(
    stream: &[Update],
    quantum: usize,
    value: impl Fn(u32) -> T,
    policy: &ExecPolicy,
) -> Duration {
    let mut target = vec![Op::identity(); KEYS];
    let mut scratch = EpochScratch::new();
    let start = Instant::now();
    for slice in stream.chunks(quantum) {
        black_box(execute_epoch::<T, Op>(
            &mut target,
            slice.iter().map(|u| (u.idx as i32, value(u.bits))),
            &mut scratch,
            policy,
        ));
    }
    start.elapsed()
}

/// The pass's slices pre-split into index and value arrays.
fn split<T>(
    stream: &[Update],
    quantum: usize,
    value: impl Fn(u32) -> T,
) -> Vec<(Vec<i32>, Vec<T>)> {
    stream
        .chunks(quantum)
        .map(|s| {
            (s.iter().map(|u| u.idx as i32).collect(), s.iter().map(|u| value(u.bits)).collect())
        })
        .collect()
}

/// `accumulate::invec_accumulate_with` over the pre-split slices.
fn replay_simd<T: SimdElement, Op: ReduceOp<T>>(
    slices: &[(Vec<i32>, Vec<T>)],
    backend: Backend,
) -> (Duration, InvecStats) {
    let mut target = vec![Op::identity(); KEYS];
    let mut stats = InvecStats::default();
    let start = Instant::now();
    for (idx, vals) in slices {
        stats.merge(&invec_accumulate_with::<T, Op>(backend, &mut target, idx, vals));
    }
    (start.elapsed(), stats)
}
