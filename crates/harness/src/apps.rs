//! The registered applications, each adapting one kernel crate onto the
//! [`Kernel`] / [`Workload`] contract.

use std::time::Instant;

use invector_agg::{self as agg, Method};
use invector_graph::datasets::{self, Dataset};
use invector_kernels::euler::{self, COMPONENTS};
use invector_kernels::{
    bfs_with_policy, pagerank, spmv_with_policy, sssp_with_policy, sswp_with_policy,
    wcc_with_policy, ExecPolicy, PageRankConfig, RunResult, TilingMode, Timings, Variant,
};
use invector_moldyn::input::{fcc_lattice, Molecules};
use invector_moldyn::sim::simulate_with_policy;

use crate::kernel::{Kernel, RunRecord, Workload};
use crate::serving::{self, Fixture};
use crate::spec::RunSpec;

/// Deterministic seed for synthesized inputs (moldyn lattice jitter, the
/// aggregation key stream) — fixed so golden checksums are reproducible.
pub(crate) const INPUT_SEED: u64 = 0x1b_f2_9d;

/// Explicit-Euler step size; small enough that the tiny/small meshes stay
/// numerically tame over the spec's iteration budget.
const EULER_DT: f32 = 1e-3;

/// Resolves the dataset a graph workload should run: the spec's request, or
/// the kernel's first registered dataset.
fn resolve_dataset(spec: &RunSpec, names: &'static [&'static str]) -> Result<Dataset, String> {
    let name = spec.dataset.as_deref().unwrap_or(names[0]);
    if !names.iter().any(|n| n.eq_ignore_ascii_case(name)) {
        return Err(format!("dataset '{}' not registered (one of: {})", name, names.join(" | ")));
    }
    datasets::by_name(name, spec.scale)
}

/// Clamps the spec's source vertex into the graph's vertex range.
fn resolve_source(spec: &RunSpec, dataset: &Dataset) -> Result<i32, String> {
    let n = dataset.graph.num_vertices();
    if n == 0 {
        return Err(format!("{} generated an empty graph at this scale", dataset.name));
    }
    Ok(spec.source.clamp(0, n as i32 - 1))
}

fn describe_graph(dataset: &Dataset) -> String {
    format!(
        "{}: {} vertices, {} edges",
        dataset.name,
        dataset.graph.num_vertices(),
        dataset.graph.num_edges()
    )
}

/// Widens a kernel [`RunResult`] into the harness record. `f32` and `i32`
/// both widen to `f64` exactly, so bitwise agreement is preserved.
fn from_run_result<T: Copy + Into<f64>>(
    app: &'static str,
    variant: Variant,
    mode: TilingMode,
    policy: &ExecPolicy,
    updates: u64,
    r: RunResult<T>,
) -> RunRecord {
    RunRecord {
        app,
        variant,
        label: variant.label(mode),
        values: r.values.iter().map(|&v| v.into()).collect(),
        iterations: r.iterations,
        timings: r.timings,
        instructions: r.instructions,
        utilization: r.utilization,
        depth: r.depth,
        threads: r.threads,
        backend: policy.backend.resolve(),
        updates,
    }
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

/// PageRank power iteration over the Table 1 graphs (Figure 8).
pub struct PageRankApp;

struct PageRankWorkload {
    dataset: Dataset,
    max_iters: u32,
}

impl Kernel for PageRankApp {
    fn name(&self) -> &'static str {
        "pagerank"
    }
    fn summary(&self) -> &'static str {
        "PageRank power iteration; per-vertex rank scatter-add (Fig. 8)"
    }
    fn datasets(&self) -> &'static [&'static str] {
        &datasets::NAMES
    }
    fn variants(&self) -> &'static [Variant] {
        &Variant::ALL
    }
    fn tiling(&self) -> TilingMode {
        TilingMode::Tiled
    }
    fn tolerance(&self) -> f64 {
        5e-3
    }
    fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
        let dataset = resolve_dataset(spec, self.datasets())?;
        Ok(Box::new(PageRankWorkload { dataset, max_iters: spec.iters }))
    }
}

impl Workload for PageRankWorkload {
    fn describe(&self) -> String {
        describe_graph(&self.dataset)
    }
    fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
        let config = PageRankConfig {
            max_iters: self.max_iters,
            exec: *policy,
            ..PageRankConfig::default()
        };
        let r = pagerank(&self.dataset.graph, variant, &config);
        let updates = self.dataset.graph.num_edges() as u64 * u64::from(r.iterations);
        from_run_result("pagerank", variant, TilingMode::Tiled, policy, updates, r)
    }
}

// ---------------------------------------------------------------------------
// SpMV
// ---------------------------------------------------------------------------

/// Sparse matrix–vector product in scatter-add (push) form.
pub struct SpmvApp;

struct SpmvWorkload {
    dataset: Dataset,
    x: Vec<f32>,
}

impl Kernel for SpmvApp {
    fn name(&self) -> &'static str {
        "spmv"
    }
    fn summary(&self) -> &'static str {
        "Sparse matrix-vector product, push-style scatter-add (Fig. 9)"
    }
    fn datasets(&self) -> &'static [&'static str] {
        &datasets::NAMES
    }
    fn variants(&self) -> &'static [Variant] {
        &Variant::ALL
    }
    fn tiling(&self) -> TilingMode {
        TilingMode::Tiled
    }
    fn tolerance(&self) -> f64 {
        1e-3
    }
    fn supports_threads(&self) -> bool {
        // One sweep over a static edge set; no engine path.
        false
    }
    fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
        let dataset = resolve_dataset(spec, self.datasets())?;
        let x = (0..dataset.graph.num_vertices()).map(|i| (i as f32 * 0.37).sin()).collect();
        Ok(Box::new(SpmvWorkload { dataset, x }))
    }
}

impl Workload for SpmvWorkload {
    fn describe(&self) -> String {
        describe_graph(&self.dataset)
    }
    fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
        let r = spmv_with_policy(&self.dataset.graph, &self.x, variant, policy);
        let updates = self.dataset.graph.num_edges() as u64;
        from_run_result("spmv", variant, TilingMode::Tiled, policy, updates, r)
    }
}

// ---------------------------------------------------------------------------
// Wave-frontier kernels: SSSP / SSWP / BFS / WCC
// ---------------------------------------------------------------------------

/// Shapes one wavefront kernel into an app; the four differ only in the
/// relaxation rule behind the shared driver, so one adapter covers them.
macro_rules! wave_app {
    ($app:ident, $workload:ident, $name:literal, $summary:literal, $needs_source:expr,
     $run:expr) => {
        #[doc = $summary]
        pub struct $app;

        struct $workload {
            dataset: Dataset,
            source: i32,
            max_iters: u32,
        }

        impl Kernel for $app {
            fn name(&self) -> &'static str {
                $name
            }
            fn summary(&self) -> &'static str {
                $summary
            }
            fn datasets(&self) -> &'static [&'static str] {
                &datasets::NAMES
            }
            fn variants(&self) -> &'static [Variant] {
                &Variant::ALL
            }
            fn tiling(&self) -> TilingMode {
                TilingMode::Frontier
            }
            fn tolerance(&self) -> f64 {
                // Min/max reductions are exact: demand bitwise agreement.
                0.0
            }
            fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
                let dataset = resolve_dataset(spec, self.datasets())?;
                let source = if $needs_source { resolve_source(spec, &dataset)? } else { 0 };
                Ok(Box::new($workload { dataset, source, max_iters: spec.iters }))
            }
        }

        impl Workload for $workload {
            fn describe(&self) -> String {
                if $needs_source {
                    format!("{} (source {})", describe_graph(&self.dataset), self.source)
                } else {
                    describe_graph(&self.dataset)
                }
            }
            fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
                #[allow(clippy::redundant_closure_call)]
                let r = ($run)(self, variant, policy);
                // Wavefront sweeps only touch the active frontier's edges,
                // which the kernels don't count — no meaningful total.
                from_run_result($name, variant, TilingMode::Frontier, policy, 0, r)
            }
        }
    };
}

wave_app!(
    SsspApp,
    SsspWorkload,
    "sssp",
    "Single-source shortest paths, Bellman-Ford wavefront (Fig. 10)",
    true,
    |w: &SsspWorkload, variant, policy| sssp_with_policy(
        &w.dataset.graph,
        w.source,
        variant,
        w.max_iters,
        policy
    )
);

wave_app!(
    SswpApp,
    SswpWorkload,
    "sswp",
    "Single-source widest paths, max-min wavefront relaxation",
    true,
    |w: &SswpWorkload, variant, policy| sswp_with_policy(
        &w.dataset.graph,
        w.source,
        variant,
        w.max_iters,
        policy
    )
);

wave_app!(
    BfsApp,
    BfsWorkload,
    "bfs",
    "Breadth-first search hop counts via min-relaxation wavefront",
    true,
    |w: &BfsWorkload, variant, policy| bfs_with_policy(
        &w.dataset.graph,
        w.source,
        variant,
        w.max_iters,
        policy
    )
);

wave_app!(
    WccApp,
    WccWorkload,
    "wcc",
    "Weakly connected components by min-label propagation",
    false,
    |w: &WccWorkload, variant, policy| wcc_with_policy(
        &w.dataset.graph,
        variant,
        w.max_iters,
        policy
    )
);

// ---------------------------------------------------------------------------
// Euler
// ---------------------------------------------------------------------------

/// Explicit-Euler flux accumulation on an unstructured triangle mesh.
pub struct EulerApp;

struct EulerWorkload {
    mesh: invector_graph::EdgeList,
    state: euler::NodeState,
    side: usize,
    iterations: u32,
}

impl Kernel for EulerApp {
    fn name(&self) -> &'static str {
        "euler"
    }
    fn summary(&self) -> &'static str {
        "Explicit Euler flux sweep over a triangle mesh (Fig. 11)"
    }
    fn variants(&self) -> &'static [Variant] {
        &Variant::ALL
    }
    fn tiling(&self) -> TilingMode {
        TilingMode::Tiled
    }
    fn tolerance(&self) -> f64 {
        2e-3
    }
    fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
        if spec.mesh < 2 {
            return Err(format!("mesh side must be at least 2, got {}", spec.mesh));
        }
        let mesh = euler::triangle_mesh(spec.mesh);
        let state = euler::initial_state(mesh.num_vertices());
        Ok(Box::new(EulerWorkload { mesh, state, side: spec.mesh, iterations: spec.iters }))
    }
}

impl Workload for EulerWorkload {
    fn describe(&self) -> String {
        format!(
            "{0}x{0} triangle mesh: {1} nodes, {2} directed edges",
            self.side,
            self.mesh.num_vertices(),
            self.mesh.num_edges()
        )
    }
    fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
        let instr_before = invector_simd::count::read();
        let (state, timings, threads) = euler::euler_run_with_policy(
            &self.mesh,
            &self.state,
            variant,
            self.iterations,
            EULER_DT,
            policy,
        );
        let mut values = Vec::with_capacity(COMPONENTS * state.len());
        for field in &state.fields {
            values.extend(field.iter().map(|&v| f64::from(v)));
        }
        RunRecord {
            app: "euler",
            variant,
            label: variant.label(TilingMode::Tiled),
            values,
            iterations: self.iterations,
            timings,
            instructions: invector_simd::count::read().wrapping_sub(instr_before),
            utilization: None,
            depth: None,
            threads,
            backend: policy.backend.resolve(),
            updates: self.mesh.num_edges() as u64 * u64::from(self.iterations),
        }
    }
}

// ---------------------------------------------------------------------------
// Moldyn
// ---------------------------------------------------------------------------

/// Lennard-Jones molecular dynamics with neighbor-list force accumulation.
pub struct MoldynApp;

struct MoldynWorkload {
    initial: Molecules,
    cells: usize,
    iterations: u32,
}

impl Kernel for MoldynApp {
    fn name(&self) -> &'static str {
        "moldyn"
    }
    fn summary(&self) -> &'static str {
        "Lennard-Jones molecular dynamics, neighbor-list forces (Fig. 12)"
    }
    fn variants(&self) -> &'static [Variant] {
        &Variant::ALL
    }
    fn tiling(&self) -> TilingMode {
        TilingMode::Tiled
    }
    fn tolerance(&self) -> f64 {
        1e-2
    }
    fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
        if spec.lattice == 0 {
            return Err("lattice must have at least one cell".into());
        }
        Ok(Box::new(MoldynWorkload {
            initial: fcc_lattice(spec.lattice, INPUT_SEED),
            cells: spec.lattice,
            iterations: spec.iters,
        }))
    }
}

impl Workload for MoldynWorkload {
    fn describe(&self) -> String {
        format!(
            "{0}x{0}x{0} FCC lattice: {1} molecules, box {2:.2}",
            self.cells,
            self.initial.len(),
            self.initial.box_size
        )
    }
    fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
        let r = simulate_with_policy(&self.initial, variant, self.iterations, policy);
        let m = &r.molecules;
        let mut values = Vec::with_capacity(6 * m.len());
        for series in [&m.px, &m.py, &m.pz, &m.vx, &m.vy, &m.vz] {
            values.extend(series.iter().map(|&v| f64::from(v)));
        }
        RunRecord {
            app: "moldyn",
            variant,
            label: variant.label(TilingMode::Tiled),
            values,
            iterations: r.iterations,
            timings: r.timings,
            instructions: r.instructions,
            utilization: r.utilization,
            depth: r.depth,
            threads: r.threads,
            backend: policy.backend.resolve(),
            // The neighbor list is rebuilt as molecules move; force-pair
            // counts aren't surfaced, so no meaningful total.
            updates: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Hash-based group-by aggregation over skewed key streams.
pub struct AggApp;

struct AggWorkload {
    input: agg::Input,
    dist: agg::Distribution,
}

/// Variants map onto the aggregation methods of Figure 13: the bucketized
/// table is the representative layout for both vectorized strategies.
fn agg_method(variant: Variant) -> Method {
    match variant {
        Variant::Masked => Method::BucketMask,
        Variant::Invec => Method::BucketInvec,
        _ => Method::LinearSerial,
    }
}

impl Kernel for AggApp {
    fn name(&self) -> &'static str {
        "agg"
    }
    fn summary(&self) -> &'static str {
        "Hash group-by aggregation over skewed key streams (Fig. 13)"
    }
    fn variants(&self) -> &'static [Variant] {
        const VARIANTS: [Variant; 3] = [Variant::Serial, Variant::Masked, Variant::Invec];
        &VARIANTS
    }
    fn tiling(&self) -> TilingMode {
        TilingMode::Frontier
    }
    fn tolerance(&self) -> f64 {
        1e-3
    }
    fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
        if spec.rows == 0 || spec.cardinality == 0 {
            return Err("aggregation needs rows >= 1 and cardinality >= 1".into());
        }
        let input = agg::dist::generate(spec.dist, spec.rows, spec.cardinality, INPUT_SEED);
        Ok(Box::new(AggWorkload { input, dist: spec.dist }))
    }
}

impl Workload for AggWorkload {
    fn describe(&self) -> String {
        format!(
            "{} rows, {} keys, {} distribution",
            self.input.len(),
            self.input.cardinality,
            self.dist.label()
        )
    }
    fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
        let outcome = agg::aggregate_with_policy(
            agg_method(variant),
            &self.input.keys,
            &self.input.vals,
            self.input.cardinality,
            policy,
        );
        let mut values = Vec::with_capacity(4 * outcome.rows.len());
        for row in &outcome.rows {
            values.extend([
                f64::from(row.key),
                f64::from(row.count),
                f64::from(row.sum),
                f64::from(row.sumsq),
            ]);
        }
        RunRecord {
            app: "agg",
            variant,
            label: variant.label(TilingMode::Frontier),
            values,
            iterations: 1,
            timings: Timings { compute: outcome.elapsed, ..Timings::default() },
            instructions: outcome.instructions,
            utilization: None,
            depth: None,
            threads: policy.threads.max(1),
            backend: policy.backend.resolve(),
            updates: self.input.len() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// Epoch batch quantum for the serving workload. Fixed (not spec-derived)
/// because it is part of the determinism configuration: both registered
/// tables use exact operators, so snapshots are bitwise-stable under any
/// quantum, but keeping it constant makes recorded timings comparable.
const SERVE_QUANTUM: usize = 256;

/// Client batch size for the serving workload's submissions.
const SERVE_CHUNK: usize = 512;

/// The serving layer: streams associative updates through `invector-serve`
/// micro-batches instead of one ahead-of-time array pass.
pub struct ServeApp;

struct ServeWorkload {
    fixture: Fixture,
    dist: agg::Distribution,
}

impl Kernel for ServeApp {
    fn name(&self) -> &'static str {
        "serve"
    }
    fn summary(&self) -> &'static str {
        "Update-stream serving: per-table staged ingest + epoch micro-batches (invector-serve)"
    }
    fn variants(&self) -> &'static [Variant] {
        const VARIANTS: [Variant; 2] = [Variant::Serial, Variant::Invec];
        &VARIANTS
    }
    fn tiling(&self) -> TilingMode {
        TilingMode::Frontier
    }
    fn tolerance(&self) -> f64 {
        // Integer adds and float mins are exact: the served snapshot must
        // match the serial fold bitwise.
        0.0
    }
    fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
        if spec.rows == 0 || spec.cardinality == 0 {
            return Err("serving needs rows >= 1 and cardinality >= 1".into());
        }
        Ok(Box::new(ServeWorkload::new(spec)))
    }
}

impl ServeWorkload {
    /// The serving fixture at the spec's size and distribution.
    fn new(spec: &RunSpec) -> ServeWorkload {
        ServeWorkload {
            fixture: Fixture::new(spec.dist, spec.rows, spec.cardinality),
            dist: spec.dist,
        }
    }

    /// Serial reference: fold both streams directly, no service involved.
    fn run_serial(&self) -> Vec<f64> {
        let [counts, mins] = self.fixture.reference();
        let mut values: Vec<f64> = counts.into_iter().map(|b| f64::from(b as i32)).collect();
        values.extend(mins.into_iter().map(|b| f64::from(f32::from_bits(b))));
        values
    }

    /// The serving config both served paths start from.
    fn config(&self, policy: &ExecPolicy) -> invector_serve::ServeConfig {
        let mut config =
            invector_serve::ServeConfig::new(serving::tables(self.fixture.cardinality));
        config.quantum = SERVE_QUANTUM;
        config.threads = policy.threads.max(1);
        config.backend = policy.backend;
        config
    }

    /// Served path: stand up an in-process core, stream the updates
    /// through batched submissions, drain, and snapshot.
    fn run_served(&self, policy: &ExecPolicy) -> Result<Vec<f64>, String> {
        use invector_serve::{LocalClient, ServeClient, ServerCore};
        let core = ServerCore::new(self.config(policy))?;
        let mut client = LocalClient::new(core);
        let Fixture { counts, mins, .. } = &self.fixture;
        for (table, stream) in [(0u16, counts), (1u16, mins)] {
            for chunk in stream.chunks(SERVE_CHUNK) {
                client.submit_all(table, chunk)?;
            }
        }
        client.flush()?;
        let mut values = client.snapshot(0)?.data.to_f64();
        values.extend(client.snapshot(1)?.data.to_f64());
        Ok(values)
    }
}

impl Workload for ServeWorkload {
    fn describe(&self) -> String {
        format!(
            "{} rows -> 2x{} update stream, {} keys, {} distribution",
            self.fixture.rows(),
            self.fixture.rows(),
            self.fixture.cardinality,
            self.dist.label()
        )
    }
    fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
        let instr_before = invector_simd::count::read();
        let start = Instant::now();
        let values = match variant {
            Variant::Serial => self.run_serial(),
            _ => self.run_served(policy).unwrap_or_else(|e| panic!("serving workload failed: {e}")),
        };
        let timings = Timings { compute: start.elapsed(), ..Timings::default() };
        RunRecord {
            app: "serve",
            variant,
            label: variant.label(TilingMode::Frontier),
            values,
            iterations: 1,
            timings,
            instructions: invector_simd::count::read().wrapping_sub(instr_before),
            utilization: None,
            depth: None,
            threads: policy.threads.max(1),
            backend: policy.backend.resolve(),
            updates: 2 * self.fixture.rows() as u64,
        }
    }
}

/// Crash-recovery drill over the serving layer: the vector variant streams
/// the same updates as `serve`, but drops the core mid-stream with the WAL
/// as the only survivor, reopens over the log, and finishes ingest on the
/// recovered core. The final snapshot must still match the serial fold
/// bitwise — recovery is replay, not approximation.
pub struct ServeRecoverApp;

struct ServeRecoverWorkload {
    inner: ServeWorkload,
}

impl Kernel for ServeRecoverApp {
    fn name(&self) -> &'static str {
        "serve-recover"
    }
    fn summary(&self) -> &'static str {
        "Crash recovery: WAL-backed serve core dropped mid-stream, replayed, resumed (invector-replog)"
    }
    fn variants(&self) -> &'static [Variant] {
        const VARIANTS: [Variant; 2] = [Variant::Serial, Variant::Invec];
        &VARIANTS
    }
    fn tiling(&self) -> TilingMode {
        TilingMode::Frontier
    }
    fn tolerance(&self) -> f64 {
        // Recovery replays the identical admitted slices through the
        // identical epoch path, so the snapshot must be bitwise-exact.
        0.0
    }
    fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
        if spec.rows == 0 || spec.cardinality == 0 {
            return Err("recovery drill needs rows >= 1 and cardinality >= 1".into());
        }
        Ok(Box::new(ServeRecoverWorkload { inner: ServeWorkload::new(spec) }))
    }
}

impl ServeRecoverWorkload {
    /// Durable served path with a simulated crash: ingest the first half of
    /// each stream, flush, drop the core (the WAL is all that survives),
    /// recover a fresh core over the same directory, finish the streams on
    /// it, and snapshot.
    fn run_recovered(&self, policy: &ExecPolicy) -> Result<Vec<f64>, String> {
        use invector_serve::{LocalClient, ServeClient, ServerCore, SyncPolicy, WalOptions};
        let dir = serving::scratch_dir("harness-recover")?;
        let config = || {
            let mut config = self.inner.config(policy);
            let mut wal = WalOptions::new(&dir);
            wal.sync = SyncPolicy::Os;
            // A short cadence so larger scales exercise checkpoint +
            // log-tail recovery, not just raw replay.
            wal.checkpoint_epochs = 16;
            config.wal = Some(wal);
            config
        };
        let Fixture { counts, mins, .. } = &self.inner.fixture;
        let result = (|| {
            // Phase one: ingest the first half of both streams, then crash.
            let core = ServerCore::new(config())?;
            let mut client = LocalClient::new(core);
            for (table, stream) in [(0u16, counts), (1u16, mins)] {
                for chunk in stream[..stream.len() / 2].chunks(SERVE_CHUNK) {
                    client.submit_all(table, chunk)?;
                }
            }
            client.flush()?;
            drop(client);

            // Phase two: recover over the log and finish the streams.
            let core = ServerCore::new(config())?;
            let mut client = LocalClient::new(core);
            for (table, stream) in [(0u16, counts), (1u16, mins)] {
                for chunk in stream[stream.len() / 2..].chunks(SERVE_CHUNK) {
                    client.submit_all(table, chunk)?;
                }
            }
            client.flush()?;
            let mut values = client.snapshot(0)?.data.to_f64();
            values.extend(client.snapshot(1)?.data.to_f64());
            Ok(values)
        })();
        std::fs::remove_dir_all(&dir).ok();
        result
    }
}

impl Workload for ServeRecoverWorkload {
    fn describe(&self) -> String {
        format!("{} (crash + WAL replay at midpoint)", self.inner.describe())
    }
    fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
        let instr_before = invector_simd::count::read();
        let start = Instant::now();
        let values = match variant {
            Variant::Serial => self.inner.run_serial(),
            _ => self
                .run_recovered(policy)
                .unwrap_or_else(|e| panic!("recovery workload failed: {e}")),
        };
        let timings = Timings { compute: start.elapsed(), ..Timings::default() };
        RunRecord {
            app: "serve-recover",
            variant,
            label: variant.label(TilingMode::Frontier),
            values,
            iterations: 1,
            timings,
            instructions: invector_simd::count::read().wrapping_sub(instr_before),
            utilization: None,
            depth: None,
            threads: policy.threads.max(1),
            backend: policy.backend.resolve(),
            updates: 2 * self.inner.fixture.rows() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming (streamkit-backed stream tables)
// ---------------------------------------------------------------------------

/// Deterministic xorshift64* stream for synthesizing edge churn and window
/// events — fixed recurrence so both variants replay the identical stream.
struct EventRng(u64);

impl EventRng {
    fn new(seed: u64) -> EventRng {
        EventRng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Incremental graph analytics over the serving layer: an evolving edge
/// stream drives streamkit's delta PageRank and WCC engines inside
/// `invector-serve` stream tables; the vector variant's served snapshots
/// must match a from-scratch serial recompute over the final edge set
/// bitwise.
pub struct StreamGraphApp;

struct StreamGraphWorkload {
    vertices: u32,
    iters: u32,
    /// Edge events in `(src, dst | DELETE_BIT?)` engine encoding.
    events: Vec<(u32, u32)>,
}

impl Kernel for StreamGraphApp {
    fn name(&self) -> &'static str {
        "stream-graph"
    }
    fn summary(&self) -> &'static str {
        "Incremental graph analytics: delta PageRank + WCC over an evolving edge stream (invector-streamkit)"
    }
    fn variants(&self) -> &'static [Variant] {
        const VARIANTS: [Variant; 2] = [Variant::Serial, Variant::Invec];
        &VARIANTS
    }
    fn tiling(&self) -> TilingMode {
        TilingMode::Frontier
    }
    fn tolerance(&self) -> f64 {
        // The incremental engines are bitwise-exact against from-scratch
        // recomputation; ranks travel as f32 bit patterns in i32 slots.
        0.0
    }
    fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
        if spec.rows == 0 || spec.cardinality < 2 {
            return Err("graph streaming needs rows >= 1 and cardinality >= 2".into());
        }
        let vertices = (spec.cardinality as u32).min(invector_streamkit::MAX_VERTICES);
        let iters = spec.iters.clamp(1, invector_streamkit::MAX_ITERS);
        // Churn with a shifting hot set: most events touch a small window of
        // vertices that drifts through the id space, so deletes regularly
        // hit edges that exist and the dirty frontier stays localized — the
        // regime the delta engines are built for.
        let mut rng = EventRng::new(INPUT_SEED);
        let events = (0..spec.rows)
            .map(|i| {
                let hot = ((i * 7 / spec.rows.max(1)) as u32 * vertices / 7) % vertices;
                let span = (vertices / 4).max(2);
                let src = (hot + rng.next() as u32 % span) % vertices;
                let dst = (hot + rng.next() as u32 % span) % vertices;
                let insert = rng.next() % 100 < 70;
                invector_streamkit::edge_event(src, dst, insert)
            })
            .collect();
        Ok(Box::new(StreamGraphWorkload { vertices, iters, events }))
    }
}

impl StreamGraphWorkload {
    /// From-scratch serial recompute over the final edge set, in the same
    /// slot encoding the served tables use (f32 rank bits, i32 labels).
    fn run_serial(&self) -> Vec<f64> {
        let n = self.vertices as usize;
        let mut edges = std::collections::BTreeSet::new();
        for &(src, bits) in &self.events {
            let dst = bits & !invector_streamkit::DELETE_BIT;
            if bits & invector_streamkit::DELETE_BIT != 0 {
                edges.remove(&(src, dst));
            } else {
                edges.insert((src, dst));
            }
        }
        let mut inn = vec![Vec::new(); n];
        let mut outdeg = vec![0u32; n];
        let mut und = vec![std::collections::BTreeSet::new(); n];
        for &(u, v) in &edges {
            inn[v as usize].push(u);
            outdeg[u as usize] += 1;
            und[u as usize].insert(v);
            und[v as usize].insert(u);
        }
        let und: Vec<Vec<u32>> = und.into_iter().map(|s| s.into_iter().collect()).collect();
        let layers =
            invector_streamkit::reference::pagerank_layers(n, self.iters as usize, &inn, &outdeg);
        let labels = invector_streamkit::reference::wcc_labels(n, &und);
        let mut values: Vec<f64> =
            layers[self.iters as usize].iter().map(|r| f64::from(r.to_bits() as i32)).collect();
        values.extend(labels.into_iter().map(f64::from));
        values
    }

    /// Served path: both graph tables on one core, edge ops streamed
    /// through the `EdgeOps` verb in admission-sized chunks.
    fn run_served(&self, policy: &ExecPolicy) -> Result<Vec<f64>, String> {
        use invector_serve::{
            EdgeOp, LocalClient, ServeClient, ServeConfig, ServerCore, SubmitOutcome, TableSpec,
        };
        let config = {
            let mut config = ServeConfig::new(vec![
                TableSpec::pagerank("ranks", self.vertices, self.iters),
                TableSpec::wcc("components", self.vertices),
            ]);
            config.quantum = SERVE_QUANTUM;
            config.threads = policy.threads.max(1);
            config.backend = policy.backend;
            config
        };
        let core = ServerCore::new(config)?;
        let mut client = LocalClient::new(core);
        for table in [0u16, 1u16] {
            let ops: Vec<EdgeOp> = self
                .events
                .iter()
                .enumerate()
                .map(|(seq, &(src, bits))| {
                    let dst = bits & !invector_streamkit::DELETE_BIT;
                    if bits & invector_streamkit::DELETE_BIT != 0 {
                        EdgeOp::delete(seq as u64, src, dst)
                    } else {
                        EdgeOp::insert(seq as u64, src, dst)
                    }
                })
                .collect();
            for chunk in ops.chunks(SERVE_CHUNK) {
                let mut rest = chunk;
                while !rest.is_empty() {
                    match client.edge_ops(table, rest)? {
                        SubmitOutcome::Accepted { .. } => break,
                        SubmitOutcome::Rejected { accepted, retry_after_ms, .. } => {
                            rest = &rest[accepted as usize..];
                            client.backoff(retry_after_ms);
                        }
                        SubmitOutcome::Failed(m) => return Err(m),
                    }
                }
            }
        }
        client.flush()?;
        let n = self.vertices as usize;
        let mut values = client.snapshot(0)?.data.to_f64();
        values.truncate(n);
        let mut labels = client.snapshot(1)?.data.to_f64();
        labels.truncate(n);
        values.extend(labels);
        Ok(values)
    }
}

impl Workload for StreamGraphWorkload {
    fn describe(&self) -> String {
        format!(
            "{} edge events over {} vertices (delta pagerank x{} + wcc)",
            self.events.len(),
            self.vertices,
            self.iters
        )
    }
    fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
        let instr_before = invector_simd::count::read();
        let start = Instant::now();
        let values = match variant {
            Variant::Serial => self.run_serial(),
            _ => self
                .run_served(policy)
                .unwrap_or_else(|e| panic!("graph streaming workload failed: {e}")),
        };
        let timings = Timings { compute: start.elapsed(), ..Timings::default() };
        RunRecord {
            app: "stream-graph",
            variant,
            label: variant.label(TilingMode::Frontier),
            values,
            iterations: 1,
            timings,
            instructions: invector_simd::count::read().wrapping_sub(instr_before),
            utilization: None,
            depth: None,
            threads: policy.threads.max(1),
            backend: policy.backend.resolve(),
            updates: 2 * self.events.len() as u64,
        }
    }
}

/// Sliding-window aggregation with retraction over the serving layer:
/// three window stream tables (count-based add and min, watermark-based
/// max) ingest the same synthesized stream; every served slot image —
/// aggregates, bucket rings, and retraction payloads — must match the
/// plain-loop window simulator bitwise.
pub struct StreamWindowApp;

struct WindowTenant {
    name: &'static str,
    op: invector_serve::OpKind,
    buckets: u32,
    width: u32,
    timed: bool,
    events: Vec<(u32, u32)>,
}

struct StreamWindowWorkload {
    keys: u32,
    tenants: Vec<WindowTenant>,
}

impl Kernel for StreamWindowApp {
    fn name(&self) -> &'static str {
        "stream-window"
    }
    fn summary(&self) -> &'static str {
        "Windowed aggregation: bucketed add/min/max with retraction on expiry (invector-streamkit)"
    }
    fn variants(&self) -> &'static [Variant] {
        const VARIANTS: [Variant; 2] = [Variant::Serial, Variant::Invec];
        &VARIANTS
    }
    fn tiling(&self) -> TilingMode {
        TilingMode::Frontier
    }
    fn tolerance(&self) -> f64 {
        // Window state is integer slots end to end; the engine and the
        // simulator must agree on every one of them.
        0.0
    }
    fn prepare(&self, spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
        if spec.rows == 0 || spec.cardinality == 0 {
            return Err("window streaming needs rows >= 1 and cardinality >= 1".into());
        }
        let keys = (spec.cardinality as u32).min(invector_streamkit::MAX_KEYS);
        let mut rng = EventRng::new(INPUT_SEED ^ 0x77);
        let data: Vec<(u32, i32)> =
            (0..spec.rows).map(|_| (rng.next() as u32 % keys, rng.next() as i32)).collect();
        let counted: Vec<(u32, u32)> =
            data.iter().map(|&(k, v)| invector_streamkit::window_data(k, v)).collect();
        // The timed tenant sees the same data with a watermark advance
        // spliced in every 97 events.
        let mut timed = Vec::with_capacity(data.len() + data.len() / 97 + 1);
        let mut watermark = 0u32;
        for (i, &(k, v)) in data.iter().enumerate() {
            if i % 97 == 96 {
                watermark += 1 + (rng.next() as u32 % 3);
                timed.push(invector_streamkit::window_advance(keys, watermark));
            }
            timed.push(invector_streamkit::window_data(k, v));
        }
        use invector_serve::OpKind;
        let tenants = vec![
            WindowTenant {
                name: "sums",
                op: OpKind::Add,
                buckets: 8,
                width: 64,
                timed: false,
                events: counted.clone(),
            },
            WindowTenant {
                name: "mins",
                op: OpKind::Min,
                buckets: 4,
                width: 32,
                timed: false,
                events: counted,
            },
            WindowTenant {
                name: "maxs",
                op: OpKind::Max,
                buckets: 6,
                width: 4,
                timed: true,
                events: timed,
            },
        ];
        Ok(Box::new(StreamWindowWorkload { keys, tenants }))
    }
}

impl StreamWindowWorkload {
    fn agg_op(op: invector_serve::OpKind) -> invector_streamkit::AggOp {
        match op {
            invector_serve::OpKind::Add => invector_streamkit::AggOp::Add,
            invector_serve::OpKind::Min => invector_streamkit::AggOp::Min,
            invector_serve::OpKind::Max => invector_streamkit::AggOp::Max,
        }
    }

    /// Serial reference: the plain-loop simulator, one per tenant, full
    /// slot images concatenated.
    fn run_serial(&self) -> Vec<f64> {
        let mut values = Vec::new();
        for t in &self.tenants {
            let mut sim = invector_streamkit::reference::WindowSim::new(
                self.keys as usize,
                t.buckets as usize,
                u64::from(t.width),
                t.timed,
                Self::agg_op(t.op),
            );
            sim.apply(&t.events);
            values.extend(sim.slots.iter().map(|&s| f64::from(s)));
        }
        values
    }

    /// Served path: one core, one window table per tenant, events as
    /// ordinary updates.
    fn run_served(&self, policy: &ExecPolicy) -> Result<Vec<f64>, String> {
        use invector_serve::{
            LocalClient, ServeClient, ServeConfig, ServerCore, TableSpec, Update,
        };
        let config = {
            let mut config = ServeConfig::new(
                self.tenants
                    .iter()
                    .map(|t| {
                        TableSpec::window(t.name, t.op, self.keys, t.buckets, t.width, t.timed)
                    })
                    .collect(),
            );
            config.quantum = SERVE_QUANTUM;
            config.threads = policy.threads.max(1);
            config.backend = policy.backend;
            config
        };
        let core = ServerCore::new(config)?;
        let mut client = LocalClient::new(core);
        for (table, t) in self.tenants.iter().enumerate() {
            let updates: Vec<Update> = t
                .events
                .iter()
                .enumerate()
                .map(|(seq, &(idx, bits))| Update { seq: seq as u64, idx, bits })
                .collect();
            for chunk in updates.chunks(SERVE_CHUNK) {
                client.submit_all(table as u16, chunk)?;
            }
        }
        client.flush()?;
        let mut values = Vec::new();
        for table in 0..self.tenants.len() {
            values.extend(client.snapshot(table as u16)?.data.to_f64());
        }
        Ok(values)
    }
}

impl Workload for StreamWindowWorkload {
    fn describe(&self) -> String {
        format!(
            "{} data events over {} keys -> {} window tenants (add/min/max, count + watermark)",
            self.tenants[0].events.len(),
            self.keys,
            self.tenants.len()
        )
    }
    fn run(&self, variant: Variant, policy: &ExecPolicy) -> RunRecord {
        let instr_before = invector_simd::count::read();
        let start = Instant::now();
        let values = match variant {
            Variant::Serial => self.run_serial(),
            _ => self
                .run_served(policy)
                .unwrap_or_else(|e| panic!("window streaming workload failed: {e}")),
        };
        let timings = Timings { compute: start.elapsed(), ..Timings::default() };
        RunRecord {
            app: "stream-window",
            variant,
            label: variant.label(TilingMode::Frontier),
            values,
            iterations: 1,
            timings,
            instructions: invector_simd::count::read().wrapping_sub(instr_before),
            utilization: None,
            depth: None,
            threads: policy.threads.max(1),
            backend: policy.backend.resolve(),
            updates: self.tenants.iter().map(|t| t.events.len() as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_prepares_at_tiny_scale_and_runs_its_serial_baseline() {
        let spec = RunSpec::tiny();
        for app in crate::registry::all() {
            let workload = app.prepare(&spec).unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            assert!(!workload.describe().is_empty());
            let policy = ExecPolicy::default().backend(invector_core::BackendChoice::Portable);
            let r = workload.run(app.variants()[0], &policy);
            assert_eq!(r.app, app.name());
            assert!(!r.values.is_empty(), "{} produced no values", app.name());
            assert!(r.values.iter().all(|v| !v.is_nan()), "{} produced NaN", app.name());
        }
    }

    #[test]
    fn served_snapshot_matches_the_serial_fold_bitwise() {
        let spec = RunSpec::tiny();
        let workload = ServeApp.prepare(&spec).expect("prepare");
        let policy = ExecPolicy::default().backend(invector_core::BackendChoice::Portable);
        let serial = workload.run(Variant::Serial, &policy);
        let served = workload.run(Variant::Invec, &policy);
        serial
            .agrees_with(&served, ServeApp.tolerance())
            .expect("serving layer diverged from the serial fold");
        assert!(served.updates > 0 && served.mupdates_per_sec().is_some());
    }

    #[test]
    fn recovered_snapshot_matches_the_serial_fold_bitwise() {
        let spec = RunSpec::tiny();
        let workload = ServeRecoverApp.prepare(&spec).expect("prepare");
        let policy = ExecPolicy::default().backend(invector_core::BackendChoice::Portable);
        let serial = workload.run(Variant::Serial, &policy);
        let recovered = workload.run(Variant::Invec, &policy);
        serial
            .agrees_with(&recovered, ServeRecoverApp.tolerance())
            .expect("crash recovery diverged from the serial fold");
    }

    #[test]
    fn streamed_graph_snapshots_match_the_from_scratch_recompute_bitwise() {
        let spec = RunSpec::tiny();
        let workload = StreamGraphApp.prepare(&spec).expect("prepare");
        let policy = ExecPolicy::default().backend(invector_core::BackendChoice::Portable);
        let serial = workload.run(Variant::Serial, &policy);
        let served = workload.run(Variant::Invec, &policy);
        serial
            .agrees_with(&served, StreamGraphApp.tolerance())
            .expect("incremental graph engines diverged from the from-scratch recompute");
        assert!(served.updates > 0 && served.mupdates_per_sec().is_some());
    }

    #[test]
    fn streamed_window_slot_images_match_the_simulator_bitwise() {
        let spec = RunSpec::tiny();
        let workload = StreamWindowApp.prepare(&spec).expect("prepare");
        let policy = ExecPolicy::default().backend(invector_core::BackendChoice::Portable);
        let serial = workload.run(Variant::Serial, &policy);
        let served = workload.run(Variant::Invec, &policy);
        serial
            .agrees_with(&served, StreamWindowApp.tolerance())
            .expect("window engine diverged from the serial simulator");
        assert!(served.updates > 0 && served.mupdates_per_sec().is_some());
    }

    #[test]
    fn unknown_dataset_is_rejected_with_the_registered_names() {
        let spec = RunSpec { dataset: Some("not-a-graph".into()), ..RunSpec::tiny() };
        let err = PageRankApp.prepare(&spec).err().expect("unknown dataset must not prepare");
        assert!(err.contains("higgs-twitter"), "{err}");
    }
}
