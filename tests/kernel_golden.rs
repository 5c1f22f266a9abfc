//! Integration: pinned outputs of the graph, mesh and molecular kernels.
//!
//! Every legal variant of `pagerank`, `spmv`, `sssp`, `sswp`, `bfs`, `wcc`,
//! `euler` and `moldyn` runs through the registry at tiny scale on the
//! portable backend, at one thread and (where the kernel has an engine path)
//! at two; the grouping-reuse drivers behind the fig09–fig11 bins run beside
//! them. Each run is pinned by a 64-bit hash of its values' bit patterns,
//! its iteration count and, when the `count` feature is compiled in, its
//! modeled instruction count. A refactor of a kernel loop must leave every
//! row unchanged: the table is data, never regenerated to make a change
//! pass. On a mismatch the test prints the whole observed table.
//!
//! The table was captured on x86-64 Linux; the euler and spmv inputs go
//! through the C library's `sinf`.

use invector::core::BackendChoice;
use invector::graph::datasets;
use invector::harness::{registry, RunSpec};
use invector::kernels::{sssp_reuse, sswp_reuse, wcc_reuse, ExecPolicy, RunResult};

/// One pinned run: `(run, variant, threads, value hash, iterations,
/// instructions)`. The instruction column is checked only under `count`.
type Row = (&'static str, &'static str, usize, u64, u32, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("pagerank", "serial", 1, 0xd21cb86b0af529d8, 6, 1440000),
    ("pagerank", "tiled", 1, 0xd21cb86b0af529d8, 6, 1440000),
    ("pagerank", "grouped", 1, 0xd21cb86b0af529d8, 6, 1029078),
    ("pagerank", "masked", 1, 0xa45565fafd54f89c, 6, 754452),
    ("pagerank", "invec", 1, 0x89a43a155738abd8, 6, 504054),
    ("pagerank", "serial", 2, 0xd21cb86b0af529d8, 6, 1440000),
    ("pagerank", "tiled", 2, 0xd21cb86b0af529d8, 6, 1440000),
    ("pagerank", "grouped", 2, 0x9aadf6a6140a00ae, 6, 340632),
    ("pagerank", "masked", 2, 0x9aadf6a6140a00ae, 6, 340632),
    ("pagerank", "invec", 2, 0x9aadf6a6140a00ae, 6, 340632),
    ("spmv", "serial", 1, 0xd1285fca679583a2, 1, 240000),
    ("spmv", "tiled", 1, 0xd1285fca679583a2, 1, 240000),
    ("spmv", "grouped", 1, 0xd1285fca679583a2, 1, 168150),
    ("spmv", "masked", 1, 0x36b81f0c39b757e2, 1, 123536),
    ("spmv", "invec", 1, 0xaf322f80e72de767, 1, 69009),
    ("sssp", "serial", 1, 0xaff5a1b820335a99, 5, 319510),
    ("sssp", "tiled", 1, 0xaff5a1b820335a99, 5, 319510),
    ("sssp", "grouped", 1, 0xaff5a1b820335a99, 5, 226145),
    ("sssp", "masked", 1, 0xaff5a1b820335a99, 5, 161416),
    ("sssp", "invec", 1, 0xaff5a1b820335a99, 5, 149031),
    ("sssp", "serial", 2, 0xaff5a1b820335a99, 5, 319420),
    ("sssp", "tiled", 2, 0xaff5a1b820335a99, 5, 319420),
    ("sssp", "grouped", 2, 0xaff5a1b820335a99, 5, 157364),
    ("sssp", "masked", 2, 0xaff5a1b820335a99, 5, 157364),
    ("sssp", "invec", 2, 0xaff5a1b820335a99, 5, 157364),
    ("sswp", "serial", 1, 0xdbf898334a88e723, 10, 610325),
    ("sswp", "tiled", 1, 0xdbf898334a88e723, 10, 610325),
    ("sswp", "grouped", 1, 0xdbf898334a88e723, 10, 430649),
    ("sswp", "masked", 1, 0xdbf898334a88e723, 10, 308929),
    ("sswp", "invec", 1, 0xdbf898334a88e723, 10, 284729),
    ("sswp", "serial", 2, 0xdbf898334a88e723, 10, 610490),
    ("sswp", "tiled", 2, 0xdbf898334a88e723, 10, 610490),
    ("sswp", "grouped", 2, 0xdbf898334a88e723, 10, 301117),
    ("sswp", "masked", 2, 0xdbf898334a88e723, 10, 301117),
    ("sswp", "invec", 2, 0xdbf898334a88e723, 10, 301117),
    ("bfs", "serial", 1, 0x44f50d736eb472e8, 4, 241823),
    ("bfs", "tiled", 1, 0x44f50d736eb472e8, 4, 241823),
    ("bfs", "grouped", 1, 0x44f50d736eb472e8, 4, 145250),
    ("bfs", "masked", 1, 0x44f50d736eb472e8, 4, 107582),
    ("bfs", "invec", 1, 0x44f50d736eb472e8, 4, 97713),
    ("bfs", "serial", 2, 0x44f50d736eb472e8, 4, 241823),
    ("bfs", "tiled", 2, 0x44f50d736eb472e8, 4, 241823),
    ("bfs", "grouped", 2, 0x44f50d736eb472e8, 4, 104325),
    ("bfs", "masked", 2, 0x44f50d736eb472e8, 4, 104325),
    ("bfs", "invec", 2, 0x44f50d736eb472e8, 4, 104325),
    ("wcc", "serial", 1, 0x95bf3bfffdc63b35, 3, 950119),
    ("wcc", "tiled", 1, 0x95bf3bfffdc63b35, 3, 950119),
    ("wcc", "grouped", 1, 0x95bf3bfffdc63b35, 3, 561038),
    ("wcc", "masked", 1, 0x95bf3bfffdc63b35, 3, 422825),
    ("wcc", "invec", 1, 0x95bf3bfffdc63b35, 3, 385513),
    ("wcc", "serial", 2, 0x95bf3bfffdc63b35, 3, 950122),
    ("wcc", "tiled", 2, 0x95bf3bfffdc63b35, 3, 950122),
    ("wcc", "grouped", 2, 0x95bf3bfffdc63b35, 3, 410662),
    ("wcc", "masked", 2, 0x95bf3bfffdc63b35, 3, 410662),
    ("wcc", "invec", 2, 0x95bf3bfffdc63b35, 3, 410662),
    ("euler", "serial", 1, 0x96fd777585111ad4, 40, 167440),
    ("euler", "tiled", 1, 0x96fd777585111ad4, 40, 167440),
    ("euler", "grouped", 1, 0x974cc1288cc4dd02, 40, 108000),
    ("euler", "masked", 1, 0x96fd777585111ad4, 40, 1637480),
    ("euler", "invec", 1, 0x204ff18b04f54234, 40, 139720),
    ("euler", "serial", 2, 0x948a4d4b7947e6e5, 40, 167440),
    ("euler", "tiled", 2, 0x948a4d4b7947e6e5, 40, 167440),
    ("euler", "grouped", 2, 0x68ccab1b536a4df4, 40, 139240),
    ("euler", "masked", 2, 0x68ccab1b536a4df4, 40, 139240),
    ("euler", "invec", 2, 0x68ccab1b536a4df4, 40, 139240),
    ("moldyn", "serial", 1, 0x5713667d07b9b5be, 40, 682320),
    ("moldyn", "tiled", 1, 0x5713667d07b9b5be, 40, 682320),
    ("moldyn", "grouped", 1, 0x2dcef3831dd5fe47, 40, 291240),
    ("moldyn", "masked", 1, 0xf3c186d4e7276ca2, 40, 3314160),
    ("moldyn", "invec", 1, 0x3e185d5d89a2ee20, 40, 260640),
    ("moldyn", "serial", 2, 0x64421ba9a5132306, 40, 682320),
    ("moldyn", "tiled", 2, 0x64421ba9a5132306, 40, 682320),
    ("moldyn", "grouped", 2, 0x2dcef3831dd5fe47, 40, 291240),
    ("moldyn", "masked", 2, 0xf3c186d4e7276ca2, 40, 3314160),
    ("moldyn", "invec", 2, 0xb90eafd0c1ce5eb2, 40, 263520),
    ("sssp", "reuse", 1, 0xaff5a1b820335a99, 5, 393758),
    ("sswp", "reuse", 1, 0xdbf898334a88e723, 10, 829602),
    ("wcc", "reuse", 1, 0x95bf3bfffdc63b35, 3, 638971),
];

/// FNV-1a over the values' 64-bit patterns (kernel values widen to `f64`
/// exactly, so equal bits here are equal bits in the kernel's type).
fn value_hash(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn reuse_row<T: Copy + Into<f64>>(name: &'static str, r: RunResult<T>) -> Row {
    let hash = value_hash(r.values.iter().map(|&v| v.into()));
    (name, "reuse", 1, hash, r.iterations, r.instructions)
}

fn observed() -> Vec<Row> {
    let spec = RunSpec::tiny();
    let mut rows = Vec::new();
    for app in ["pagerank", "spmv", "sssp", "sswp", "bfs", "wcc", "euler", "moldyn"] {
        let kernel = registry::lookup(app).unwrap();
        let workload = kernel.prepare(&spec).unwrap();
        let thread_counts: &[usize] = if kernel.supports_threads() { &[1, 2] } else { &[1] };
        for &threads in thread_counts {
            let policy = ExecPolicy::with_threads(threads).backend(BackendChoice::Portable);
            for &variant in kernel.variants() {
                let r = workload.run(variant, &policy);
                let hash = value_hash(r.values.iter().copied());
                rows.push((
                    kernel.name(),
                    variant.short_name(),
                    threads,
                    hash,
                    r.iterations,
                    r.instructions,
                ));
            }
        }
    }
    // The registry's graph inputs: the first Table 1 dataset at tiny scale.
    let graph = datasets::by_name(datasets::NAMES[0], spec.scale).unwrap().graph;
    rows.push(reuse_row("sssp", sssp_reuse(&graph, spec.source, spec.iters)));
    rows.push(reuse_row("sswp", sswp_reuse(&graph, spec.source, spec.iters)));
    rows.push(reuse_row("wcc", wcc_reuse(&graph, spec.iters)));
    rows
}

#[test]
fn every_kernel_run_reproduces_its_pinned_output() {
    let counting = invector::simd::count::enabled();
    let rows = observed();
    let key = |r: &Row| (r.0, r.1, r.2);
    let mut mismatches = Vec::new();
    for row in &rows {
        match GOLDEN.iter().find(|g| key(g) == key(row)) {
            None => mismatches.push(format!("{:?}: not in the table", key(row))),
            Some(g) => {
                let same = g.3 == row.3 && g.4 == row.4 && (!counting || g.5 == row.5);
                if !same {
                    mismatches.push(format!("{:?}: pinned {g:?}, observed {row:?}", key(row)));
                }
            }
        }
    }
    for g in GOLDEN {
        if !rows.iter().any(|r| key(r) == key(g)) {
            mismatches.push(format!("{:?}: pinned but not run", key(g)));
        }
    }
    if !mismatches.is_empty() {
        let table: Vec<String> = rows
            .iter()
            .map(|r| {
                format!("    ({:?}, {:?}, {}, {:#018x}, {}, {}),", r.0, r.1, r.2, r.3, r.4, r.5)
            })
            .collect();
        panic!(
            "{} of {} runs differ:\n{}\nobserved table:\n{}",
            mismatches.len(),
            rows.len(),
            mismatches.join("\n"),
            table.join("\n")
        );
    }
}
