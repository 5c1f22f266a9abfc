//! Self-tuning execution: close the observability → policy loop.
//!
//! Everything upstream of this module picks an [`ExecPolicy`] and an epoch
//! quantum *once*, at startup — yet the serving benchmarks show the best
//! static cell moves with the workload (a quantum that wins on a zipfian
//! stream loses on a uniform one). This module makes that selection
//! continuous: a [`Controller`] watches completed-epoch metrics
//! ([`MetricFrame`]s) and hill-climbs the `(quantum, threads, variant)`
//! lattice between epochs; the caller schedules each [`EpochPolicy`] it
//! returns on every table ([`PolicySchedule`]).
//!
//! # Determinism
//!
//! Tuning must not break the serving layer's bitwise-snapshot contract.
//! Three rules keep it intact:
//!
//! 1. **Decisions are pure.** [`Controller::observe`] is a deterministic
//!    function of the frame sequence it has been fed — no clock, no RNG,
//!    no global state. Identical frame sequences produce identical
//!    decision traces (property-tested).
//! 2. **Switches land on slice boundaries.** A policy change is installed
//!    between epochs, keyed by each table's applied watermark at install
//!    time ([`TraceEntry::at`]). A [`PolicySchedule`] maps watermark →
//!    policy, and a slice never spans a scheduled change.
//! 3. **Traces replay.** Because cut positions under a schedule depend
//!    only on (stream content, schedule), replaying a recorded
//!    [`PolicyTrace`] against the same streams reproduces every slice
//!    boundary — and therefore every table bit — of the tuned run, under
//!    any shard count, client interleaving, or epoch timing.

use crate::exec::{ExecPolicy, ExecVariant};

/// The complete per-epoch execution policy: the engine policy plus the
/// epoch batch quantum it is cut under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EpochPolicy {
    /// Engine policy the epoch's slices run under.
    pub exec: ExecPolicy,
    /// Batch quantum the epoch's slices are cut at.
    pub quantum: usize,
}

impl EpochPolicy {
    /// Bundles an engine policy with a quantum.
    pub fn new(exec: ExecPolicy, quantum: usize) -> EpochPolicy {
        EpochPolicy { exec, quantum }
    }
}

impl Default for EpochPolicy {
    /// The workspace's serving default: the default engine policy at a
    /// 4096-update quantum.
    fn default() -> Self {
        EpochPolicy { exec: ExecPolicy::default(), quantum: 4096 }
    }
}

/// One completed non-empty epoch's observations — the controller's only
/// input, and everything the throughput score reads.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFrame {
    /// Updates applied this epoch.
    pub applied: u64,
    /// Wall nanoseconds attributed to this epoch's updates. The serve
    /// layer reports the time since the previous non-empty epoch —
    /// end-to-end cost including admission and reorder-buffer residency,
    /// clamped to discount client idle gaps — falling back to in-epoch
    /// execution time for the first frame.
    pub busy_ns: u64,
}

/// Knobs of the hill-climbing schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneConfig {
    /// Quantum lattice, ascending (probes move one rung at a time).
    pub quantum_ladder: Vec<usize>,
    /// Thread-count lattice, ascending.
    pub thread_ladder: Vec<usize>,
    /// Variant lattice (probed pairwise from the incumbent).
    pub variants: Vec<ExecVariant>,
    /// Non-empty epochs discarded before the first measurement (cold
    /// caches and pool spin-up would otherwise bias the baseline).
    pub warmup_epochs: u32,
    /// Non-empty epochs per measurement window (both baseline and probe).
    pub measure_epochs: u32,
    /// Relative score improvement a probe must show to dethrone the
    /// incumbent (e.g. `0.08` = 8%) — the anti-flap hysteresis band.
    pub hysteresis: f64,
    /// Non-empty epochs the controller holds a converged policy before
    /// re-measuring the baseline (periodic rejuvenation).
    pub hold_epochs: u32,
    /// Relative score drift inside a hold window that triggers an
    /// immediate re-probe (the workload has shifted under us).
    pub drift: f64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            quantum_ladder: vec![16, 128, 1024, 4096, 16384],
            thread_ladder: vec![1],
            variants: vec![ExecVariant::Invec, ExecVariant::Serial],
            warmup_epochs: 2,
            measure_epochs: 3,
            hysteresis: 0.08,
            hold_epochs: 48,
            drift: 0.5,
        }
    }
}

impl TuneConfig {
    fn validate(&self) -> Result<(), String> {
        if self.quantum_ladder.is_empty() || self.thread_ladder.is_empty() {
            return Err("tune: quantum and thread ladders must be non-empty".into());
        }
        if self.variants.is_empty() {
            return Err("tune: variant list must be non-empty".into());
        }
        if !self.quantum_ladder.windows(2).all(|w| w[0] < w[1])
            || !self.thread_ladder.windows(2).all(|w| w[0] < w[1])
        {
            return Err("tune: ladders must be strictly ascending".into());
        }
        if self.quantum_ladder[0] == 0 || self.thread_ladder[0] == 0 {
            return Err("tune: ladder entries must be >= 1".into());
        }
        if self.measure_epochs == 0 || self.hold_epochs == 0 {
            return Err("tune: measure_epochs and hold_epochs must be >= 1".into());
        }
        if self.hysteresis.is_nan() || self.hysteresis < 0.0 {
            return Err("tune: hysteresis must be >= 0".into());
        }
        if self.drift.is_nan() || self.drift <= 0.0 {
            return Err("tune: drift must be > 0".into());
        }
        Ok(())
    }
}

/// A point on the tuning lattice, by ladder indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    q: usize,
    t: usize,
    v: usize,
}

/// A measurement window over non-empty epochs.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    frames: u32,
    applied: u64,
    busy_ns: u64,
}

impl Window {
    fn add(&mut self, f: &MetricFrame) {
        self.frames += 1;
        self.applied += f.applied;
        self.busy_ns += f.busy_ns;
    }

    /// Applied updates per busy nanosecond — the throughput score the
    /// climb maximizes.
    fn score(&self) -> f64 {
        self.applied as f64 / self.busy_ns.max(1) as f64
    }
}

#[derive(Debug, Clone)]
enum Phase {
    /// Discarding the first epochs.
    Warmup { left: u32 },
    /// Measuring the incumbent's baseline score.
    Measure,
    /// Probing `candidates[index]`.
    Probe { candidates: Vec<Cell>, index: usize },
    /// Converged; watching for drift.
    Hold { left: u32 },
}

/// One controller decision: the policy installed after observing `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Non-empty-epoch index the decision followed.
    pub epoch: u64,
    /// The policy installed for subsequent epochs.
    pub policy: EpochPolicy,
}

/// The online tuner: a deterministic hill-climb with hysteresis over the
/// `(quantum, threads, variant)` lattice.
///
/// Feed it one [`MetricFrame`] per completed non-empty epoch via
/// [`observe`](Controller::observe); a returned policy is the caller's to
/// schedule before the next epoch cuts.
///
/// State machine: `Warmup → Measure → Probe → … → Hold`, with `Hold`
/// re-entering `Measure` periodically (rejuvenation) and immediately on
/// score drift (workload shift). Probes visit the incumbent's lattice
/// neighbors in a fixed order (quantum up/down, threads up/down, then the
/// other variants), adopting a neighbor only when its window score beats
/// the incumbent's by the hysteresis margin.
///
/// The controller is **pure**: decisions depend only on the frame sequence
/// (no clock, no randomness), so a run's decision trace is reproducible
/// from its frames alone.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: TuneConfig,
    /// Template for lattice fields not under tuning (partition,
    /// backend).
    base: ExecPolicy,
    cell: Cell,
    incumbent: Cell,
    incumbent_score: f64,
    phase: Phase,
    window: Window,
    held: u32,
    epochs: u64,
    trace: Vec<Decision>,
}

impl Controller {
    /// A controller starting from `initial`, snapped to the nearest
    /// lattice cell.
    ///
    /// # Errors
    ///
    /// Returns a message for structurally invalid configurations (empty or
    /// unsorted ladders, zero windows).
    pub fn new(cfg: TuneConfig, initial: EpochPolicy) -> Result<Controller, String> {
        cfg.validate()?;
        let nearest = |ladder: &[usize], want: usize| {
            ladder
                .iter()
                .enumerate()
                .min_by_key(|(_, &v)| v.abs_diff(want))
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        let cell = Cell {
            q: nearest(&cfg.quantum_ladder, initial.quantum),
            t: nearest(&cfg.thread_ladder, initial.exec.threads),
            v: cfg.variants.iter().position(|&v| v == initial.exec.variant).unwrap_or(0),
        };
        let warmup = cfg.warmup_epochs;
        Ok(Controller {
            cfg,
            base: initial.exec,
            cell,
            incumbent: cell,
            incumbent_score: 0.0,
            phase: if warmup > 0 { Phase::Warmup { left: warmup } } else { Phase::Measure },
            window: Window::default(),
            held: 0,
            epochs: 0,
            trace: Vec::new(),
        })
    }

    /// The policy a lattice cell denotes.
    fn policy_of(&self, cell: Cell) -> EpochPolicy {
        let mut exec = self.base;
        exec.threads = self.cfg.thread_ladder[cell.t];
        exec.variant = self.cfg.variants[cell.v];
        EpochPolicy { exec, quantum: self.cfg.quantum_ladder[cell.q] }
    }

    /// The policy the controller currently wants active.
    pub fn current(&self) -> EpochPolicy {
        self.policy_of(self.cell)
    }

    /// The decision trace so far (one entry per installed policy change).
    pub fn trace(&self) -> &[Decision] {
        &self.trace
    }

    /// The incumbent's lattice neighbors in fixed probe order: quantum
    /// up, quantum down, threads up, threads down, then every other
    /// variant.
    fn neighbors(&self, of: Cell) -> Vec<Cell> {
        let mut out = Vec::new();
        if of.q + 1 < self.cfg.quantum_ladder.len() {
            out.push(Cell { q: of.q + 1, ..of });
        }
        if of.q > 0 {
            out.push(Cell { q: of.q - 1, ..of });
        }
        if of.t + 1 < self.cfg.thread_ladder.len() {
            out.push(Cell { t: of.t + 1, ..of });
        }
        if of.t > 0 {
            out.push(Cell { t: of.t - 1, ..of });
        }
        for v in 0..self.cfg.variants.len() {
            if v != of.v {
                out.push(Cell { v, ..of });
            }
        }
        out
    }

    /// Moves the active cell, recording the decision; returns the policy
    /// to install, or `None` when the move is a no-op.
    fn switch(&mut self, to: Cell) -> Option<EpochPolicy> {
        self.window = Window::default();
        if to == self.cell {
            return None;
        }
        self.cell = to;
        let policy = self.policy_of(to);
        self.trace.push(Decision { epoch: self.epochs, policy });
        Some(policy)
    }

    /// Feeds one completed-epoch frame; returns a policy to install for
    /// subsequent epochs, or `None` to keep the current one.
    ///
    /// Frames with `applied == 0` (empty epochs) are ignored — they carry
    /// no throughput signal and their timing is schedule noise.
    pub fn observe(&mut self, frame: &MetricFrame) -> Option<EpochPolicy> {
        if frame.applied == 0 {
            return None;
        }
        self.epochs += 1;
        match self.phase.clone() {
            Phase::Warmup { left } => {
                self.phase =
                    if left <= 1 { Phase::Measure } else { Phase::Warmup { left: left - 1 } };
                self.window = Window::default();
                None
            }
            Phase::Measure => {
                self.window.add(frame);
                if self.window.frames < self.cfg.measure_epochs {
                    return None;
                }
                self.incumbent = self.cell;
                self.incumbent_score = self.window.score();
                let candidates = self.neighbors(self.incumbent);
                match candidates.first().copied() {
                    None => {
                        self.phase = Phase::Hold { left: self.cfg.hold_epochs };
                        self.window = Window::default();
                        None
                    }
                    Some(first) => {
                        self.phase = Phase::Probe { candidates, index: 0 };
                        self.switch(first)
                    }
                }
            }
            Phase::Probe { candidates, index } => {
                self.window.add(frame);
                if self.window.frames < self.cfg.measure_epochs {
                    return None;
                }
                let score = self.window.score();
                if score > self.incumbent_score * (1.0 + self.cfg.hysteresis) {
                    // Adopt and keep climbing from the new incumbent.
                    self.incumbent = self.cell;
                    self.incumbent_score = score;
                    let candidates = self.neighbors(self.incumbent);
                    match candidates.first().copied() {
                        None => {
                            self.phase = Phase::Hold { left: self.cfg.hold_epochs };
                            self.window = Window::default();
                            None
                        }
                        Some(first) => {
                            self.phase = Phase::Probe { candidates, index: 0 };
                            self.switch(first)
                        }
                    }
                } else if index + 1 < candidates.len() {
                    let next = candidates[index + 1];
                    self.phase = Phase::Probe { candidates, index: index + 1 };
                    self.switch(next)
                } else {
                    // Sweep exhausted: settle on the incumbent.
                    self.phase = Phase::Hold { left: self.cfg.hold_epochs };
                    let back = self.incumbent;
                    self.switch(back)
                }
            }
            Phase::Hold { left } => {
                self.window.add(frame);
                self.held += 1;
                if self.window.frames >= self.cfg.measure_epochs {
                    let score = self.window.score();
                    let rel = (score - self.incumbent_score).abs()
                        / self.incumbent_score.max(f64::MIN_POSITIVE);
                    self.window = Window::default();
                    if rel > self.cfg.drift {
                        // Workload shift: re-baseline and re-probe now.
                        self.incumbent_score = score;
                        self.held = 0;
                        let candidates = self.neighbors(self.incumbent);
                        if let Some(first) = candidates.first().copied() {
                            self.phase = Phase::Probe { candidates, index: 0 };
                            return self.switch(first);
                        }
                        self.phase = Phase::Measure;
                        return None;
                    }
                }
                if left <= 1 {
                    // Rejuvenation: re-measure the baseline from scratch.
                    self.held = 0;
                    self.phase = Phase::Measure;
                    self.window = Window::default();
                } else {
                    self.phase = Phase::Hold { left: left - 1 };
                }
                None
            }
        }
    }
}

/// A watermark-keyed policy schedule for one table: which [`EpochPolicy`]
/// governs the slice starting at a given watermark.
///
/// Always non-empty (change 0 starts at watermark 0), with strictly
/// application-order pushes; [`at`](PolicySchedule::at) returns the last
/// change at or below the watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySchedule {
    /// `(from_watermark, policy)` pairs, ascending by watermark.
    changes: Vec<(u64, EpochPolicy)>,
}

impl Default for PolicySchedule {
    fn default() -> Self {
        PolicySchedule::fixed(EpochPolicy::default())
    }
}

impl PolicySchedule {
    /// A schedule that applies `policy` from watermark 0 forever.
    pub fn fixed(policy: EpochPolicy) -> PolicySchedule {
        PolicySchedule { changes: vec![(0, policy)] }
    }

    /// Appends a change effective for slices starting at `from` and
    /// beyond. A change at an already-scheduled watermark supersedes it.
    ///
    /// # Panics
    ///
    /// Panics if `from` precedes the last scheduled change — schedules are
    /// built in application order.
    pub fn push(&mut self, from: u64, policy: EpochPolicy) {
        let last = self.changes.last().expect("schedule is never empty").0;
        assert!(from >= last, "schedule pushes must be in watermark order ({from} < {last})");
        self.changes.push((from, policy));
    }

    /// The policy governing a slice that starts at watermark `wm`.
    pub fn at(&self, wm: u64) -> EpochPolicy {
        self.changes
            .iter()
            .rev()
            .find(|(from, _)| *from <= wm)
            .map(|(_, p)| *p)
            .expect("schedule has a change at watermark 0")
    }

    /// The first scheduled change strictly after watermark `wm`, if any —
    /// a slice starting at `wm` must not run past it.
    pub fn next_change_after(&self, wm: u64) -> Option<u64> {
        self.changes.iter().map(|&(from, _)| from).find(|&from| from > wm)
    }

    /// Number of scheduled changes (including the initial policy).
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// `false` — a schedule always has its initial change.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// One recorded policy install: the decision plus each table's applied
/// watermark at install time (the exact slice boundary the change lands
/// on during replay).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Non-empty-epoch index the install followed.
    pub epoch: u64,
    /// The installed policy.
    pub policy: EpochPolicy,
    /// Applied watermark per table (id order) at install time.
    pub at: Vec<u64>,
}

/// A recorded run's policy installs, in order — enough to replay the run's
/// exact slice boundaries (and therefore its snapshots, bitwise) without
/// the controller.
pub type PolicyTrace = Vec<TraceEntry>;

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(applied: u64, busy_ns: u64) -> MetricFrame {
        MetricFrame { applied, busy_ns }
    }

    fn cfg() -> TuneConfig {
        TuneConfig {
            quantum_ladder: vec![16, 128, 1024, 4096],
            thread_ladder: vec![1],
            variants: vec![ExecVariant::Invec],
            warmup_epochs: 1,
            measure_epochs: 2,
            hysteresis: 0.05,
            hold_epochs: 8,
            drift: 0.5,
        }
    }

    /// Drives `ctl` against a synthetic workload whose per-update cost is
    /// `cost(quantum)` ns; returns the final policy.
    fn climb(ctl: &mut Controller, epochs: usize, cost: impl Fn(usize) -> u64) -> EpochPolicy {
        let mut active = ctl.current();
        for _ in 0..epochs {
            let q = active.quantum as u64;
            let f = frame(q, q * cost(active.quantum));
            if let Some(p) = ctl.observe(&f) {
                active = p;
            }
        }
        active
    }

    #[test]
    fn invalid_configs_are_refused() {
        let p = EpochPolicy::default();
        let bad = |f: fn(&mut TuneConfig)| {
            let mut c = cfg();
            f(&mut c);
            Controller::new(c, p).is_err()
        };
        assert!(bad(|c| c.quantum_ladder.clear()));
        assert!(bad(|c| c.quantum_ladder = vec![128, 16]));
        assert!(bad(|c| c.thread_ladder = vec![0]));
        assert!(bad(|c| c.variants.clear()));
        assert!(bad(|c| c.measure_epochs = 0));
        assert!(bad(|c| c.hysteresis = -1.0));
        assert!(Controller::new(cfg(), p).is_ok());
    }

    #[test]
    fn climbs_to_the_cheapest_quantum_and_holds() {
        // Cost falls monotonically with the quantum: the peak is the top
        // rung, and the climb must reach it from the bottom.
        let start = EpochPolicy::new(ExecPolicy::default(), 16);
        let mut ctl = Controller::new(cfg(), start).unwrap();
        let last = climb(&mut ctl, 200, |q| (100_000 / q) as u64 + 10);
        assert_eq!(last.quantum, 4096, "trace: {:?}", ctl.trace());
        assert!(!ctl.trace().is_empty());
    }

    #[test]
    fn hysteresis_keeps_marginal_neighbors_out() {
        // 1024 and 4096 score within 2% of each other; with 5% hysteresis
        // the climb from below must stop at the first of the pair.
        let start = EpochPolicy::new(ExecPolicy::default(), 16);
        let mut ctl = Controller::new(cfg(), start).unwrap();
        let last = climb(&mut ctl, 300, |q| match q {
            16 => 1000,
            128 => 200,
            1024 => 100,
            _ => 99,
        });
        assert_eq!(last.quantum, 1024, "trace: {:?}", ctl.trace());
    }

    #[test]
    fn empty_epochs_are_ignored() {
        let start = EpochPolicy::new(ExecPolicy::default(), 16);
        let mut ctl = Controller::new(cfg(), start).unwrap();
        for _ in 0..50 {
            assert_eq!(ctl.observe(&frame(0, 1000)), None);
        }
        assert!(ctl.trace().is_empty(), "no throughput signal, no decisions");
    }

    #[test]
    fn drift_in_hold_triggers_a_reprobe() {
        let start = EpochPolicy::new(ExecPolicy::default(), 16);
        let mut ctl = Controller::new(cfg(), start).unwrap();
        // Converge on a flat landscape (nothing beats 16)...
        let mut active = climb(&mut ctl, 60, |_| 100);
        let before = ctl.trace().len();
        // ...then the workload shifts: everything gets 10x slower, which
        // must push the controller out of Hold into a fresh probe sweep.
        let mut probed = false;
        for _ in 0..60 {
            let q = active.quantum as u64;
            if let Some(p) = ctl.observe(&frame(q, q * 1000)) {
                active = p;
                probed = true;
            }
        }
        assert!(probed, "drift must re-open probing (trace {:?})", ctl.trace());
        assert!(ctl.trace().len() > before);
    }

    #[test]
    fn schedule_maps_watermarks_to_policies() {
        let p0 = EpochPolicy::new(ExecPolicy::default(), 16);
        let p1 = EpochPolicy::new(ExecPolicy::default(), 128);
        let mut s = PolicySchedule::fixed(p0);
        s.push(48, p1);
        assert_eq!(s.at(0), p0);
        assert_eq!(s.at(47), p0);
        assert_eq!(s.at(48), p1);
        assert_eq!(s.at(1 << 40), p1);
        assert_eq!(s.next_change_after(0), Some(48));
        assert_eq!(s.next_change_after(48), None);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "watermark order")]
    fn schedule_rejects_out_of_order_pushes() {
        let mut s = PolicySchedule::fixed(EpochPolicy::default());
        s.push(10, EpochPolicy::default());
        s.push(5, EpochPolicy::default());
    }
}
