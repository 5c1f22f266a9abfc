//! Autotune convergence: does the online controller find the best static
//! cell — and keep the snapshots bitwise-deterministic while doing it?
//!
//! For each of three stream shapes (zipf, uniform, shifting hot key) the
//! harness measures every static quantum cell on the controller's ladder,
//! then runs the controller from the *worst* rung and checks four things:
//!
//! 1. **Convergence** — the final quantum lands within one ladder step of
//!    the best static cell (hysteresis legitimately stops one rung early).
//! 2. **Near-best throughput** — steady-state (second half of the stream)
//!    tuned throughput is at least 0.8x the best static cell.
//! 3. **Climbs out of the hole** — tuned steady-state is at least 2x the
//!    worst static cell it started at.
//! 4. **Determinism** — replaying the recorded policy trace without the
//!    controller reproduces the tuned run's snapshots bitwise.
//!
//! Every static cell and the tuned run are timed [`REPEATS`] times, in
//! interleaved rounds, and the checks compare medians: at smoke scale the
//! fast cells' timed sections last under a millisecond, where one
//! descheduled run or a change in the host's speed would otherwise decide
//! the verdict. Convergence and the trace replay are checked on every
//! tuned run, and any run that misses either fails the workload.
//!
//! `--smoke` scales the streams down and exits non-zero on any failed
//! check (the CI gate); the default run prints the full table for
//! `BENCH`-style inspection.
//!
//! Run: `cargo run --release -p invector-bench --bin autotune_convergence
//!       [--smoke | --scale f | --full]`

use invector_bench::arg_scale;
use invector_bench::autotune::{
    convergence_config, ladder_steps, replay_trace, run_tuned, shifting_hot_key, sweep, uniform,
    zipf, StaticRun, Workload,
};
use invector_serve::TuneConfig;

const SEED: u64 = 0x1b_f2_9d;

/// Timed runs per static cell and of the tuned run.
const REPEATS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = arg_scale(if smoke { 0.4 } else { 1.0 });
    let rows = ((150_000.0 * scale) as usize).max(30_000);
    let cardinality = 2_048.min(rows);
    let cfg = convergence_config();
    let ladder = cfg.quantum_ladder.clone();

    println!("autotune convergence: {rows} rows x 2 tables, {cardinality} slots");
    println!("ladder {ladder:?}, controller starts at quantum {}", ladder[0]);

    let workloads = [
        zipf(rows, cardinality, SEED),
        uniform(rows, cardinality, SEED),
        shifting_hot_key(rows, cardinality, SEED),
    ];

    let mut failures = Vec::new();
    for w in &workloads {
        if let Err(why) = check_workload(w, &cfg, &ladder) {
            failures.extend(why.into_iter().map(|f| format!("{}: {f}", w.name)));
        }
    }

    if failures.is_empty() {
        println!("\nall workloads converged; traces replay bitwise");
    } else {
        eprintln!("\nFAILED checks:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Runs one workload's sweep + tuned run and returns the failed checks.
fn check_workload(w: &Workload, cfg: &TuneConfig, ladder: &[usize]) -> Result<(), Vec<String>> {
    println!("\n{}:", w.name);
    println!("  {:>8} {:>10}  (median of {REPEATS} runs; min-max)", "quantum", "Mup/s");
    // Each round runs the whole sweep and then the tuned run, so a slow
    // phase of the host spreads over every cell and the tuned run alike
    // instead of landing on one of them.
    let (sweeps, runs): (Vec<Vec<StaticRun>>, Vec<_>) =
        (0..REPEATS).map(|_| (sweep(w, ladder), run_tuned(w, cfg.clone()))).unzip();
    let cells: Vec<StaticRun> = ladder
        .iter()
        .enumerate()
        .map(|(i, &quantum)| {
            let mut mups: Vec<f64> = sweeps.iter().map(|s| s[i].mups).collect();
            mups.sort_by(f64::total_cmp);
            println!(
                "  {:>8} {:>10.2}  ({:.2}-{:.2})",
                quantum,
                mups[REPEATS / 2],
                mups[0],
                mups[REPEATS - 1]
            );
            StaticRun { quantum, mups: mups[REPEATS / 2] }
        })
        .collect();
    let best = cells.iter().max_by(|a, b| a.mups.total_cmp(&b.mups)).expect("cells");
    let worst = cells.iter().min_by(|a, b| a.mups.total_cmp(&b.mups)).expect("cells");

    let top = ladder.last().copied().unwrap_or(4_096);
    let mut failures = Vec::new();
    let mut steady = Vec::with_capacity(REPEATS);
    for (round, tuned) in runs.into_iter().enumerate() {
        let bitwise = replay_trace(w, tuned.trace, ladder[0], top) == tuned.bits;
        println!(
            "  {:>8} {:>10.2}  (steady {:.2}, {} policy changes, final quantum {}; trace replay: {})",
            format!("tuned {round}"),
            tuned.overall_mups,
            tuned.steady_mups,
            tuned.changes,
            tuned.final_quantum,
            if bitwise { "snapshots bitwise-identical" } else { "SNAPSHOT MISMATCH" }
        );
        let steps = ladder_steps(ladder, tuned.final_quantum, best.quantum);
        if steps > 1 {
            failures.push(format!(
                "tuned run {round}: final quantum {} is {steps} rungs from the best static cell {}",
                tuned.final_quantum, best.quantum
            ));
        }
        if !bitwise {
            failures
                .push(format!("tuned run {round}: trace replay diverged from the run's snapshots"));
        }
        steady.push(tuned.steady_mups);
    }
    steady.sort_by(f64::total_cmp);
    let median = steady[REPEATS / 2];
    println!("  {:>8} {:>10.2}  (median steady-state)", "tuned", median);
    if median < 0.8 * best.mups {
        failures.push(format!(
            "median steady {median:.2} Mup/s under 0.8x the best static cell ({:.2} Mup/s at quantum {})",
            best.mups, best.quantum
        ));
    }
    if median < 2.0 * worst.mups {
        failures.push(format!(
            "median steady {median:.2} Mup/s under 2x the worst static cell ({:.2} Mup/s at quantum {})",
            worst.mups, worst.quantum
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}
