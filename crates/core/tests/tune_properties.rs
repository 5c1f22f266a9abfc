//! Property tests for the self-tuning controller's purity contract:
//! decisions are a deterministic function of the observed frame sequence
//! (no clock, no RNG, no hidden state), every installed policy stays on
//! the configured lattice, and empty epochs carry no signal.
//!
//! Purity is what makes recorded policy traces replayable — the serving
//! layer's bitwise-snapshot contract under tuning rests on it.

use proptest::prelude::*;
use rand::{Rng, SeedableRng, SmallRng};

use invector_core::exec::{ExecPolicy, ExecVariant};
use invector_core::tune::{Controller, Decision, EpochPolicy, MetricFrame, TuneConfig};

fn cfg() -> TuneConfig {
    TuneConfig {
        quantum_ladder: vec![8, 64, 512, 4096],
        thread_ladder: vec![1, 2],
        variants: vec![ExecVariant::Invec, ExecVariant::Serial],
        warmup_epochs: 1,
        measure_epochs: 2,
        hysteresis: 0.05,
        hold_epochs: 6,
        drift: 0.4,
    }
}

/// The synthetic observation stream: per-epoch (applied, busy_ns) pairs,
/// with occasional empty epochs mixed in.
fn observations(seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let applied = if rng.gen_bool(0.15) { 0 } else { rng.gen_range(1u64..5000) };
            (applied, rng.gen_range(1_000u64..1_000_000))
        })
        .collect()
}

/// Drives a fresh controller over `obs`, tracking the active policy the
/// way the serve layer does (each returned policy replaces it). Returns
/// the decision trace and the final active policy.
fn drive(obs: &[(u64, u64)]) -> (Vec<Decision>, EpochPolicy) {
    let initial = EpochPolicy::new(ExecPolicy::default(), 8);
    let mut ctl = Controller::new(cfg(), initial).expect("valid config");
    let mut active = initial;
    for &(applied, busy_ns) in obs {
        if let Some(next) = ctl.observe(&MetricFrame { applied, busy_ns }) {
            active = next;
        }
    }
    (ctl.trace().to_vec(), active)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Purity: two controllers fed the same frame sequence produce the
    /// same decision trace and land on the same policy.
    #[test]
    fn identical_frame_sequences_yield_identical_decision_traces(
        seed in any::<u64>(),
        n in 1usize..400,
    ) {
        let obs = observations(seed, n);
        let (trace_a, last_a) = drive(&obs);
        let (trace_b, last_b) = drive(&obs);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(last_a, last_b);
    }

    /// Every policy the controller ever installs sits on the configured
    /// `(quantum, threads, variant)` lattice — probes never invent cells.
    #[test]
    fn decisions_never_leave_the_lattice(
        seed in any::<u64>(),
        n in 1usize..400,
    ) {
        let c = cfg();
        let (trace, last) = drive(&observations(seed, n));
        let policies = trace.iter().map(|d| d.policy).chain(std::iter::once(last));
        for p in policies {
            prop_assert!(c.quantum_ladder.contains(&p.quantum), "quantum {} off-ladder", p.quantum);
            prop_assert!(c.thread_ladder.contains(&p.exec.threads));
            prop_assert!(c.variants.contains(&p.exec.variant));
        }
    }

    /// Empty epochs are inert: splicing them into a frame sequence changes
    /// neither the decision trace nor the final policy.
    #[test]
    fn empty_epochs_never_influence_decisions(
        seed in any::<u64>(),
        n in 1usize..200,
    ) {
        let busy: Vec<(u64, u64)> =
            observations(seed, n).into_iter().filter(|&(applied, _)| applied > 0).collect();
        let mut spliced = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        for &pair in &busy {
            while rng.gen_bool(0.4) {
                spliced.push((0u64, rng.gen_range(1u64..1_000_000)));
            }
            spliced.push(pair);
        }
        prop_assert_eq!(drive(&busy), drive(&spliced));
    }
}
