//! `pagerank-skewed`: the paper's own kernel with no serve layer —
//! `invector_kernels::pagerank` with `Variant::Invec`, backend auto and one
//! thread, solved to the paper's tolerance (1e-3) on a `higgs-twitter`
//! stand-in: an R-MAT graph with the social-network skew at half the paper's
//! size, so the per-vertex rank, degree and sum arrays outgrow one core's L2.

use std::hint::black_box;
use std::time::{Duration, Instant};

use invector_core::ops::Sum;
use invector_core::{invec_accumulate_with, Backend, BackendChoice, InvecStats};
use invector_graph::tile::{tile_edges, DEFAULT_BLOCK_VERTICES};
use invector_graph::EdgeList;
use invector_kernels::{pagerank, ExecPolicy, PageRankConfig, RunResult, Variant};

use crate::input::{rmat, Rng};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, median3, Summary};
use crate::trace::{by_name, Ledger, Tracer, Tracks};

/// `higgs-twitter` dimensions (Table 1 of the paper).
const PAPER_VERTICES: usize = 457_000;
const PAPER_EDGES: usize = 15_000_000;
/// Share of the paper's size: 228 500 vertices, so rank + degree + sum
/// take 2.7 MB, more than a 2 MiB L2.
const SCALE: f64 = 0.5;
/// R-MAT quadrant probabilities of a skewed follower network.
const RMAT: (f64, f64, f64) = (0.57, 0.19, 0.19);
/// Agreement with the `Serial` variant, relative per vertex.
const TOLERANCE: f32 = 5e-3;
/// Graph generations per run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Solves per run at the least.
const MIN_SOLVES: usize = 3;
/// Untraced and traced solves in the ledger run.
const LEDGER_REPS: usize = 2;

/// Generates the stand-in graph from `seed`.
fn generate(seed: u64) -> EdgeList {
    let vertices = (PAPER_VERTICES as f64 * SCALE) as usize;
    let edges = (PAPER_EDGES as f64 * SCALE) as usize;
    rmat(&mut Rng::new(seed, 3), vertices, edges, RMAT.0, RMAT.1, RMAT.2)
}

fn config(backend: BackendChoice) -> PageRankConfig {
    PageRankConfig {
        exec: ExecPolicy::with_threads(1).backend(backend),
        ..PageRankConfig::default()
    }
}

/// Checks `got` against the serial reference ranks, relative per vertex.
fn check(got: &RunResult<f32>, reference: &[f32], out: &mut Outcome) {
    let bad = got
        .values
        .iter()
        .zip(reference)
        .position(|(a, b)| (a - b).abs() > TOLERANCE * a.abs().max(b.abs()));
    match bad {
        None if got.values.len() == reference.len() => out.op(true),
        None => {
            out.fail(format!("{} ranks vs {} in the reference", got.values.len(), reference.len()))
        }
        Some(v) => out.fail(format!(
            "vertex {v}: rank {} vs serial {} (relative tolerance {TOLERANCE})",
            got.values[v], reference[v]
        )),
    }
}

/// One timed solve; returns the result and its wall time.
fn solve(g: &EdgeList, variant: Variant, backend: BackendChoice) -> (RunResult<f32>, Duration) {
    let start = Instant::now();
    let r = pagerank(g, variant, &config(backend));
    (r, start.elapsed())
}

/// The end-to-end run: repeated solves for `seconds`.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut graph = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let g = generate(seed);
        setup.push(t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up");
    let reference = solve(&g, Variant::Serial, BackendChoice::Auto).0.values;

    // Warm-up solve, checked but untimed.
    let (r, _) = solve(&g, Variant::Invec, BackendChoice::Auto);
    check(&r, &reference, out);

    let (mut walls, mut mups, mut iters) = (Vec::new(), Vec::new(), Vec::new());
    let begin = Instant::now();
    while walls.len() < MIN_SOLVES || begin.elapsed().as_secs_f64() < seconds {
        let (r, wall) = solve(&g, Variant::Invec, BackendChoice::Auto);
        check(&r, &reference, out);
        walls.push(wall.as_secs_f64());
        mups.push(g.num_edges() as f64 * f64::from(r.iterations) / wall.as_secs_f64() / 1e6);
        iters.push(f64::from(r.iterations));
    }
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", median(&walls), "s");
    out.metric("mups", median(&mups), "Mup/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.note(format!(
        "{} vertices, {} edges; {} iterations to tolerance 1e-3",
        g.num_vertices(),
        g.num_edges(),
        median(&iters)
    ));
    out.note(format!(
        "setup_s over {} generations; solve time: {}",
        setup.len(),
        Summary::of(&walls).describe("s")
    ));
}

/// The traced run: per-layer ledger of one solve, with tiling and the SIMD
/// accumulate replayed in isolation over the solve's own edge stream.
pub fn ledger(seed: u64, out: &mut Outcome) -> Tracks {
    let g = generate(seed);
    let (serial, serial_wall) = solve(&g, Variant::Serial, BackendChoice::Auto);
    let (portable, portable_wall) = solve(&g, Variant::Invec, BackendChoice::Portable);
    check(&portable, &serial.values, out);

    let origin = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..LEDGER_REPS {
        let (r, wall) = solve(&g, Variant::Invec, BackendChoice::Auto);
        check(&r, &serial.values, out);
        plain.push(wall.as_secs_f64());

        let mut tracer = Tracer::new(true, origin);
        let start = Instant::now();
        tracer.enter("pagerank.solve", rep as u64);
        tracer.enter("kernels.pagerank", rep as u64);
        let call = tracer.now();
        let r = pagerank(&g, Variant::Invec, &config(BackendChoice::Auto));
        let end = tracer.now();
        // The kernel reports its phases as durations; tiling runs first
        // and the iterations last, so they sit at the call's two ends.
        let (tiling, compute) =
            (r.timings.tiling.as_nanos() as u64, r.timings.compute.as_nanos() as u64);
        tracer.record("graph.tile", rep as u64, call, call + tiling);
        tracer.record("kernels.pagerank.compute", rep as u64, end - compute, end);
        tracer.exit();
        tracer.exit();
        let wall = start.elapsed();
        check(&r, &serial.values, out);
        traced.push(wall.as_secs_f64());
        last = Some((r, wall, tracer));
    }
    let (r, wall, tracer) = last.expect("at least one traced solve");

    // Replays over the solve's own tiled edge stream.
    let tile = median3(|| {
        let t = Instant::now();
        let tiling = tile_edges(&g, DEFAULT_BLOCK_VERTICES);
        black_box(g.permuted(&tiling.perm));
        t.elapsed()
    });
    let tiled = g.permuted(&tile_edges(&g, DEFAULT_BLOCK_VERTICES).perm);
    let deg: Vec<f32> = g.out_degrees().iter().map(|&d| d as f32).collect();
    let vals: Vec<f32> =
        tiled.src().iter().map(|&s| r.values[s as usize] / deg[s as usize]).collect();
    let idx = tiled.dst();
    let backend = BackendChoice::Auto.resolve();
    let mut sum = vec![0.0f32; g.num_vertices()];
    let mut accumulate = Duration::ZERO;
    for _ in 0..r.iterations {
        sum.fill(0.0);
        let t = Instant::now();
        black_box(invec_accumulate_with::<f32, Sum>(backend, &mut sum, idx, &vals));
        accumulate += t.elapsed();
    }
    let mut stats = InvecStats::default();
    let mut pass = |b: Backend, stats: &mut InvecStats| {
        median3(|| {
            sum.fill(0.0);
            let t = Instant::now();
            *stats = invec_accumulate_with::<f32, Sum>(b, &mut sum, idx, &vals);
            t.elapsed()
        })
    };
    let fused = pass(backend, &mut stats);
    let portable_simd = pass(Backend::Portable, &mut InvecStats::default());

    let edges = g.num_edges() as f64;
    let compute = r.timings.compute.as_secs_f64();
    let spans = by_name(tracer.spans());
    let ns = |d: Duration| d.as_nanos() as f64;
    let mut ledger = Ledger { wall_ns: ns(wall), rows: Vec::new() };
    ledger.row("kernels.pagerank", spans["kernels.pagerank"].self_ns as f64);
    ledger.row("graph.tile", ns(r.timings.tiling));
    ledger.row("kernels.pagerank.gather", ns(r.timings.compute) - ns(accumulate));
    ledger.row("simd.accumulate", ns(accumulate));
    for line in ledger.describe(edges * f64::from(r.iterations), "edge update") {
        out.note(line);
    }

    let invocations = stats.depth.invocations().max(1) as f64;
    let invec_wall = median(&plain);
    out.metric("graph.tile_s", tile.as_secs_f64(), "s");
    out.metric("kernels.pagerank.compute_s", compute, "s");
    out.metric("kernels.pagerank.iters", f64::from(r.iterations), "count");
    out.metric("kernels.pagerank.accumulate_s", accumulate.as_secs_f64(), "s");
    out.metric("kernels.pagerank.gather_share", 1.0 - accumulate.as_secs_f64() / compute, "ratio");
    out.metric("kernels.pagerank.serial_s", serial_wall.as_secs_f64(), "s");
    out.metric(
        "kernels.pagerank.invec_over_serial",
        serial_wall.as_secs_f64() / invec_wall,
        "ratio",
    );
    out.metric(
        "kernels.pagerank.native_over_portable",
        portable_wall.as_secs_f64() / invec_wall,
        "ratio",
    );
    out.metric("simd.fused.ns_per_update", fused.as_nanos() as f64 / edges, "ns");
    out.metric("simd.portable.ns_per_update", portable_simd.as_nanos() as f64 / edges, "ns");
    out.metric(
        "simd.native_over_portable",
        portable_simd.as_secs_f64() / fused.as_secs_f64(),
        "ratio",
    );
    out.metric("simd.depth0_share", stats.depth.bucket(0) as f64 / invocations, "ratio");
    out.metric("simd.vectors_per_update", stats.vectors as f64 / edges, "ratio");
    out.metric("e2e.error_ratio", out.error_ratio(), "ratio");
    out.metric("bench.ledger_residual", ledger.residual(), "ratio");
    out.metric("bench.trace_overhead", median(&traced) / invec_wall - 1.0, "ratio");
    out.note(format!(
        "{} vertices, {} edges, {} iterations; backend {}",
        g.num_vertices(),
        g.num_edges(),
        r.iterations,
        backend.name()
    ));
    vec![("solver", tracer.into_spans())]
}
