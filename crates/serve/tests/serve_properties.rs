//! Property tests for the serving layer's two contracts:
//!
//! 1. **Deterministic snapshots.** One logical update stream produces
//!    bitwise-identical table snapshots at a fixed (quantum, threads)
//!    configuration, no matter how the stream is split across clients,
//!    how client submissions interleave, when epochs fire, or how much
//!    staging capacity the server has (nor what the inert `shards` knob
//!    says).
//! 2. **Backpressure.** A saturated staging buffer rejects with a
//!    retry-after hint — it never blocks the caller and never drops an
//!    admitted update. Both admission entry points (owned and wire-view
//!    batches) refuse at the same position for the same reason.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng, SmallRng};

use invector_core::exec::ExecVariant;
use invector_core::BackendChoice;
use invector_serve::protocol::encode_updates;
use invector_serve::{
    LocalClient, OpKind, PolicyTrace, RejectReason, ServeClient, ServeConfig, ServerCore,
    SubmitOutcome, TableSpec, TuneConfig, TuneMode, Update, UpdatesView,
};

const TABLE_LEN: usize = 64;

fn tables() -> Vec<TableSpec> {
    vec![
        TableSpec::i32("counts", OpKind::Add, TABLE_LEN),
        TableSpec::f32("mins", OpKind::Min, TABLE_LEN),
        TableSpec::f32("sums", OpKind::Add, TABLE_LEN),
    ]
}

/// One generated logical stream per table. `sums` exercises f32
/// accumulation, where any reassociation of the fold would show up
/// bitwise.
fn generate_streams(rng: &mut SmallRng, len: usize) -> Vec<Vec<Update>> {
    let mut streams = vec![Vec::new(), Vec::new(), Vec::new()];
    for seq in 0..len as u64 {
        let idx = rng.gen_range(0u32..TABLE_LEN as u32);
        streams[0].push(Update::i32(seq, idx, rng.gen_range(-100i32..100)));
        let idx = rng.gen_range(0u32..TABLE_LEN as u32);
        streams[1].push(Update::f32(seq, idx, rng.gen_range(-1.0f32..1.0)));
        let idx = rng.gen_range(0u32..TABLE_LEN as u32);
        streams[2].push(Update::f32(seq, idx, rng.gen_range(-1.0f32..1.0)));
    }
    streams
}

/// Replays `streams` against a fresh server and returns the final
/// snapshot bits per table.
///
/// `shards`, the staging capacity and the chunking/interleaving/tick
/// schedule (all driven by `rng`) are the degrees of freedom that must NOT
/// affect the result; `quantum` is part of the configuration that
/// legitimately may.
fn replay(
    streams: &[Vec<Update>],
    shards: usize,
    quantum: usize,
    rng: &mut SmallRng,
) -> Vec<Vec<u32>> {
    replay_with_tune(streams, shards, quantum, TuneMode::Off, rng).0
}

/// [`replay`], but with a tuning mode: returns the snapshot bits and the
/// run's recorded policy trace (empty unless tuning ran).
fn replay_with_tune(
    streams: &[Vec<Update>],
    shards: usize,
    quantum: usize,
    tune: TuneMode,
    rng: &mut SmallRng,
) -> (Vec<Vec<u32>>, PolicyTrace) {
    let mut config = ServeConfig::new(tables());
    config.shards = shards;
    config.quantum = quantum;
    config.queue_capacity = rng.gen_range(1usize..=256);
    config.tune = tune;
    let core = ServerCore::new(config).expect("core");
    let mut client = LocalClient::new(core.clone());

    // Cut each table's stream into client-sized chunks...
    let mut submissions: Vec<(u16, &[Update])> = Vec::new();
    for (t, stream) in streams.iter().enumerate() {
        let mut rest = stream.as_slice();
        while !rest.is_empty() {
            let n = rng.gen_range(1usize..=rest.len().min(48));
            let (chunk, tail) = rest.split_at(n);
            submissions.push((t as u16, chunk));
            rest = tail;
        }
    }
    // ...and deliver them in a random interleaving (Fisher–Yates), as if
    // from many racing connections, with epochs firing at random points.
    for i in (1..submissions.len()).rev() {
        submissions.swap(i, rng.gen_range(0usize..=i));
    }
    for (table, chunk) in submissions {
        client.submit_all(table, chunk).expect("submit");
        if rng.gen_bool(0.3) {
            core.tick(false);
        }
    }
    client.flush().expect("flush");
    let bits =
        (0..streams.len()).map(|t| client.snapshot(t as u16).expect("snapshot").bits()).collect();
    (bits, core.policy_trace())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline contract: same stream, same (quantum, threads) →
    /// bitwise-identical snapshots under every client split, interleaving,
    /// epoch timing and staging capacity (and any inert shard count).
    #[test]
    fn snapshots_are_bitwise_identical_across_interleavings(
        seed in any::<u64>(),
        len in 1usize..500,
        quantum_pow in 3u32..8,
    ) {
        let quantum = 1usize << quantum_pow;
        let mut rng = SmallRng::seed_from_u64(seed);
        let streams = generate_streams(&mut rng, len);

        // Reference: one shard, in-order submission, no mid-stream ticks.
        let reference = {
            let mut config = ServeConfig::new(tables());
            config.quantum = quantum;
            config.shards = 1;
            let core = ServerCore::new(config).expect("core");
            let mut client = LocalClient::new(core);
            for (t, stream) in streams.iter().enumerate() {
                client.submit_all(t as u16, stream).expect("submit");
            }
            client.flush().expect("flush");
            (0..streams.len())
                .map(|t| client.snapshot(t as u16).expect("snapshot").bits())
                .collect::<Vec<_>>()
        };

        for round in 0..3u64 {
            let shards = [1usize, 2, 3, 8][rng.gen_range(0usize..4)];
            let mut replay_rng = SmallRng::seed_from_u64(seed.wrapping_add(round * 7919));
            let got = replay(&streams, shards, quantum, &mut replay_rng);
            prop_assert_eq!(
                &got, &reference,
                "shards={} round={} diverged from the reference replay", shards, round
            );
        }
    }

    /// Exact operators (integer add, float min) are grouping-independent,
    /// so even *different* quanta must agree bitwise on those tables.
    #[test]
    fn exact_tables_agree_even_across_quanta(
        seed in any::<u64>(),
        len in 1usize..300,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let streams = generate_streams(&mut rng, len);
        let mut rng_a = SmallRng::seed_from_u64(seed ^ 1);
        let mut rng_b = SmallRng::seed_from_u64(seed ^ 2);
        let a = replay(&streams, 2, 32, &mut rng_a);
        let b = replay(&streams, 4, 128, &mut rng_b);
        prop_assert_eq!(&a[0], &b[0], "i32 add table must not depend on the quantum");
        prop_assert_eq!(&a[1], &b[1], "f32 min table must not depend on the quantum");
    }

    /// Duplicate deliveries (client retries after a lost ack) never change
    /// the outcome: first arrival per sequence number wins.
    #[test]
    fn duplicate_deliveries_are_idempotent(
        seed in any::<u64>(),
        len in 1usize..200,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let streams = generate_streams(&mut rng, len);
        let mut rng_a = SmallRng::seed_from_u64(seed ^ 3);
        let reference = replay(&streams, 2, 64, &mut rng_a);

        // Same replay, but every chunk is delivered twice.
        let mut config = ServeConfig::new(tables());
        config.quantum = 64;
        config.shards = 2;
        let core = ServerCore::new(config).expect("core");
        let mut client = LocalClient::new(core);
        for (t, stream) in streams.iter().enumerate() {
            for chunk in stream.chunks(17) {
                client.submit_all(t as u16, chunk).expect("submit");
                client.submit_all(t as u16, chunk).expect("redundant submit");
            }
        }
        client.flush().expect("flush");
        let stats = client.stats().expect("stats");
        prop_assert!(stats.duplicates > 0 || len == 0, "retransmissions must be counted");
        for (t, expect) in reference.iter().enumerate() {
            let got = client.snapshot(t as u16).expect("snapshot").bits();
            prop_assert_eq!(&got, expect, "table {} changed under duplicate delivery", t);
        }
    }

    /// Tuning preserves the determinism contract: a run under an
    /// aggressive live controller records a policy trace, and replaying
    /// that trace — under a *different* shard count, client split,
    /// interleaving, and epoch timing — reproduces every snapshot bitwise.
    #[test]
    fn tuned_snapshots_replay_bitwise_from_the_recorded_trace(
        seed in any::<u64>(),
        len in 32usize..400,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let streams = generate_streams(&mut rng, len);

        // Tiny windows, zero hysteresis, a quantum/thread/variant lattice:
        // the controller switches as often as it ever will, so the trace
        // is dense with mid-stream policy changes.
        let tune = TuneConfig {
            quantum_ladder: vec![4, 16, 64],
            thread_ladder: vec![1, 2],
            variants: vec![ExecVariant::Invec, ExecVariant::Serial],
            warmup_epochs: 1,
            measure_epochs: 1,
            hysteresis: 0.0,
            hold_epochs: 4,
            drift: 0.25,
        };
        let mut rng_a = SmallRng::seed_from_u64(seed ^ 0xa11ce);
        let (tuned, trace) =
            replay_with_tune(&streams, 2, 4, TuneMode::Auto(tune), &mut rng_a);

        let mut rng_b = SmallRng::seed_from_u64(seed ^ 0xb0b);
        let (replayed, _) =
            replay_with_tune(&streams, 5, 4, TuneMode::Replay(trace.clone()), &mut rng_b);
        prop_assert_eq!(
            &tuned, &replayed,
            "trace with {} entries failed to reproduce the tuned run", trace.len()
        );
    }
}

/// Where a generated admission batch is refused, if anywhere.
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    /// The update at this position indexes past the table.
    Index(usize),
    /// The update at this position runs past the reorder window.
    Window(usize),
    /// The staging buffer fills exactly at this position.
    Capacity(usize),
}

/// How a generated batch's sequence numbers run.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Seq-contiguous from the stream's tail: continues the previous batch.
    Continue,
    /// Contiguous, then jumps ahead by `gap` at this position, leaving a
    /// gap in the stream.
    Jump(usize, u64),
    /// Contiguous, with an already-sent (or already-applied) position
    /// repeated at this point.
    Repeat(usize),
    /// The positions missing below the stream's tail, ascending: runs
    /// separated by jumps that fill earlier gaps.
    Fill,
}

/// The per-update rule for one table: every position is held, dropped as
/// a duplicate (below the watermark or already held) or applied, one
/// update at a time in admission order; epochs apply whole quanta of the
/// contiguous run, a flush all of it. Values fold as a wrapping sum.
#[derive(Default)]
struct Model {
    held: BTreeMap<u64, (u32, i32)>,
    watermark: u64,
    duplicates: u64,
    sums: Vec<i32>,
}

impl Model {
    fn admit(&mut self, u: Update) {
        if u.seq < self.watermark || self.held.contains_key(&u.seq) {
            self.duplicates += 1;
        } else {
            self.held.insert(u.seq, (u.idx, u.bits as i32));
        }
    }

    fn cut(&mut self, quantum: usize, drain: bool) {
        let run = (self.watermark..).take_while(|s| self.held.contains_key(s)).count();
        let take = if drain { run } else { run / quantum * quantum };
        for _ in 0..take {
            let (idx, value) = self.held.remove(&self.watermark).expect("contiguous");
            self.sums[idx as usize] = self.sums[idx as usize].wrapping_add(value);
            self.watermark += 1;
        }
    }

    /// One past the highest position sent so far.
    fn end(&self) -> u64 {
        self.held.keys().next_back().map_or(self.watermark, |s| s + 1)
    }

    /// Positions below [`end`](Self::end) not yet held or applied.
    fn missing(&self) -> Vec<u64> {
        (self.watermark..self.end()).filter(|s| !self.held.contains_key(s)).collect()
    }
}

/// Twin cores under one configuration: one admits owned batches, the
/// other the same batches in wire form; both are held to the per-update
/// [`Model`].
struct Twins {
    owned: Arc<ServerCore>,
    viewed: Arc<ServerCore>,
    capacity: usize,
    window: u64,
    quantum: usize,
    /// Updates admitted since the last tick (the staging occupancy).
    staged: usize,
    model: Model,
}

impl Twins {
    fn tick(&mut self) {
        self.owned.tick(false);
        self.viewed.tick(false);
        self.model.cut(self.quantum, false);
        self.staged = 0;
    }

    fn flush(&mut self) {
        self.owned.flush();
        self.viewed.flush();
        self.model.cut(self.quantum, true);
        self.staged = 0;
    }

    /// Submits `batch` through both entry points, checks that both get
    /// the outcome the per-update admission rule predicts, and returns
    /// how many updates were admitted.
    fn submit(&mut self, batch: &[Update]) -> usize {
        let watermark = self.owned.watermarks()[0];
        assert_eq!(watermark, self.viewed.watermarks()[0]);
        let mut bytes = Vec::new();
        encode_updates(&mut bytes, batch);
        let a = self.owned.submit(0, batch);
        let b = self.viewed.submit_view(0, &UpdatesView::over(&bytes).expect("whole records"));
        assert_eq!(a, b, "owned and wire-view admission diverged");

        // The rule, one update at a time: the first out-of-range index
        // fails the batch, the first update past the window or past the
        // staging capacity rejects it, everything before is admitted.
        let refusal = batch.iter().enumerate().find_map(|(i, u)| {
            if u.idx as usize >= TABLE_LEN {
                Some((i, None))
            } else if u.seq >= watermark + self.window {
                Some((i, Some(RejectReason::WindowExceeded)))
            } else if self.staged + i >= self.capacity {
                Some((i, Some(RejectReason::QueueFull)))
            } else {
                None
            }
        });
        let accepted = match (&a, refusal) {
            (SubmitOutcome::Accepted { accepted, .. }, None) => *accepted as usize,
            (SubmitOutcome::Rejected { accepted, reason, retry_after_ms }, Some((i, Some(r)))) => {
                assert!(*retry_after_ms >= 1, "retry hint must be actionable");
                assert_eq!((*accepted as usize, *reason), (i, r));
                i
            }
            (SubmitOutcome::Failed(m), Some((i, None))) => {
                assert!(m.contains(&format!("; {i} admitted")), "{m}");
                i
            }
            (got, want) => panic!("admission gave {got:?}, the per-update rule {want:?}"),
        };
        for &u in &batch[..accepted] {
            self.model.admit(u);
        }
        self.staged += accepted;
        accepted
    }

    /// Both cores' table-0 snapshot, watermark and duplicate count equal
    /// the model's.
    fn check(&self) {
        for core in [&self.owned, &self.viewed] {
            let snap = core.snapshot(0).expect("snapshot");
            let want: Vec<u32> = self.model.sums.iter().map(|&v| v as u32).collect();
            assert_eq!(snap.watermark, self.model.watermark, "watermark");
            assert_eq!(snap.bits(), want, "table 0 differs from the per-update fold");
            assert_eq!(core.stats_summary().duplicates, self.model.duplicates, "duplicates");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `submit(&[Update])` and `submit_view` (the reactor's zero-copy
    /// path) are one admission path: on twin cores, every batch — each
    /// carrying an out-of-range index, a window overrun or a capacity
    /// boundary at a random position, and running contiguous, jumping
    /// ahead, repeating a position or filling earlier gaps — gets the
    /// outcome the per-update rule predicts, and the snapshots,
    /// watermarks and duplicate counts after every epoch are the rule's.
    /// The twins run on the portable backend or the host's, which picks
    /// the record kernel admission runs.
    #[test]
    fn owned_and_wire_view_admission_agree(
        seed in any::<u64>(),
        rounds in 1usize..40,
        host in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut config = ServeConfig::new(tables());
        config.backend = if host { BackendChoice::Auto } else { BackendChoice::Portable };
        config.quantum = 1 << rng.gen_range(2u32..6);
        config.queue_capacity = rng.gen_range(1usize..=96);
        config.window = rng.gen_range(8u64..=128);
        let mut twins = Twins {
            owned: ServerCore::new(config.clone()).expect("core"),
            viewed: ServerCore::new(config.clone()).expect("core"),
            capacity: config.queue_capacity,
            window: config.window,
            quantum: config.quantum,
            staged: 0,
            model: Model { sums: vec![0; TABLE_LEN], ..Model::default() },
        };
        let update = |rng: &mut SmallRng, seq: u64| {
            Update::i32(seq, rng.gen_range(0u32..TABLE_LEN as u32), rng.gen_range(-100..100))
        };
        for _ in 0..rounds {
            let n = rng.gen_range(1usize..48);
            let fault = match rng.gen_range(0u32..4) {
                0 => Fault::None,
                1 => Fault::Index(rng.gen_range(0..n)),
                2 => Fault::Window(rng.gen_range(0..n)),
                _ => Fault::Capacity(rng.gen_range(0..n)),
            };
            let shape = match rng.gen_range(0u32..5) {
                0 | 1 => Shape::Continue,
                2 => Shape::Jump(rng.gen_range(1..n.max(2)), rng.gen_range(1u64..12)),
                3 => Shape::Repeat(rng.gen_range(0..n)),
                _ => Shape::Fill,
            };
            if let Fault::Capacity(p) = fault {
                // Stage exactly `capacity - p` updates first, so the
                // buffer fills at position `p` of the batch.
                if twins.staged + p > twins.capacity {
                    twins.tick();
                }
                let from = twins.model.end();
                let fill = twins.capacity.saturating_sub(p) - twins.staged;
                let filler: Vec<Update> =
                    (from..from + fill as u64).map(|s| update(&mut rng, s)).collect();
                twins.submit(&filler);
            }
            let from = twins.model.end();
            let mut seqs: Vec<u64> = (from..from + n as u64).collect();
            match shape {
                Shape::Continue => {}
                Shape::Jump(p, gap) => seqs[p..].iter_mut().for_each(|s| *s += gap),
                Shape::Repeat(p) => {
                    // A position from this batch, the stream so far, or
                    // below the watermark.
                    let lo = twins.model.watermark.saturating_sub(4);
                    let seq = if p > 0 && rng.gen_bool(0.5) {
                        seqs[p - 1]
                    } else {
                        rng.gen_range(lo..=from)
                    };
                    seqs.insert(p, seq);
                }
                Shape::Fill => {
                    let missing = twins.model.missing();
                    if !missing.is_empty() {
                        seqs = missing.into_iter().take(n).collect();
                    }
                }
            }
            let mut batch: Vec<Update> = seqs.into_iter().map(|s| update(&mut rng, s)).collect();
            match fault {
                Fault::Index(p) if p < batch.len() => {
                    batch[p].idx = TABLE_LEN as u32 + rng.gen_range(0u32..8);
                }
                Fault::Window(p) if p < batch.len() => {
                    let watermark = twins.owned.watermarks()[0];
                    batch[p].seq = watermark + twins.window + rng.gen_range(0u64..4);
                }
                _ => {}
            }
            twins.submit(&batch);
            if rng.gen_bool(0.3) {
                twins.tick();
                twins.check();
            }
        }
        // Fill every gap the jumps left, then drain: the whole stream the
        // model holds is applied.
        loop {
            let missing = twins.model.missing();
            if missing.is_empty() {
                break;
            }
            let batch: Vec<Update> = missing.iter().take(48).map(|&s| update(&mut rng, s)).collect();
            twins.submit(&batch);
            twins.tick();
        }
        twins.flush();
        twins.check();
        prop_assert_eq!(twins.model.watermark, twins.model.end());
        for t in 0..tables().len() as u16 {
            let a = twins.owned.snapshot(t).expect("snapshot");
            let b = twins.viewed.snapshot(t).expect("snapshot");
            prop_assert_eq!(a.watermark, b.watermark);
            prop_assert_eq!(a.bits(), b.bits(), "table {} diverged", t);
        }
    }
}

#[test]
fn saturated_queue_rejects_with_retry_after_instead_of_blocking() {
    let mut config = ServeConfig::new(vec![TableSpec::i32("c", OpKind::Add, 16)]);
    config.queue_capacity = 8;
    config.quantum = 4;
    let core = ServerCore::new(config).expect("core");

    // Fill the queue to the brim without running any epochs.
    let fill: Vec<Update> = (0..8).map(|i| Update::i32(i, (i % 16) as u32, 1)).collect();
    assert!(matches!(core.submit(0, &fill), SubmitOutcome::Accepted { accepted: 8, .. }));

    // Saturated: every further submit must return immediately with a
    // retry hint. Repeating it must not block or mutate anything.
    for _ in 0..3 {
        match core.submit(0, &[Update::i32(8, 0, 1)]) {
            SubmitOutcome::Rejected { accepted, retry_after_ms, reason } => {
                assert_eq!(accepted, 0);
                assert!(retry_after_ms >= 1, "retry hint must be actionable");
                assert_eq!(reason, RejectReason::QueueFull);
            }
            other => panic!("saturated queue must reject, got {other:?}"),
        }
    }

    // Draining the queue re-opens admission, and nothing that was ever
    // accepted has been lost.
    core.tick(true);
    assert!(matches!(core.submit(0, &[Update::i32(8, 0, 1)]), SubmitOutcome::Accepted { .. }));
    core.flush();
    let snapshot = core.snapshot(0).expect("snapshot");
    assert_eq!(snapshot.watermark, 9, "all 9 accepted updates applied");
    assert!(core.stats_summary().rejected >= 3);
}

#[test]
fn reorder_window_rejections_are_retryable_not_fatal() {
    let mut config = ServeConfig::new(vec![TableSpec::i32("c", OpKind::Add, 16)]);
    config.window = 8;
    let core = ServerCore::new(config).expect("core");

    // seq 10 is beyond watermark 0 + window 8: refused, not dropped.
    match core.submit(0, &[Update::i32(10, 0, 1)]) {
        SubmitOutcome::Rejected { reason, .. } => assert_eq!(reason, RejectReason::WindowExceeded),
        other => panic!("expected a window rejection, got {other:?}"),
    }

    // Once the earlier stream positions arrive and apply (advancing the
    // watermark), the retry fits inside the window.
    let head: Vec<Update> = (0..8).map(|i| Update::i32(i, 0, 1)).collect();
    assert!(matches!(core.submit(0, &head), SubmitOutcome::Accepted { .. }));
    core.flush();
    let tail: Vec<Update> = (8..11).map(|i| Update::i32(i, 0, 1)).collect();
    assert!(matches!(core.submit(0, &tail), SubmitOutcome::Accepted { .. }));
    core.flush();
    assert_eq!(core.snapshot(0).expect("snapshot").watermark, 11);
}
