//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation. Since the SIMD engine is emulated, each harness
//! reports **two** measurements:
//!
//! * wall time — directly comparable *among the vectorized variants*
//!   (they share the emulation overhead), and for the inspector phases
//!   (tiling/grouping), which are native scalar code everywhere;
//! * **modeled instructions** — the emulated-SIMD instruction count (with a
//!   documented scalar cost model for the serial baselines), the measure
//!   used for serial-vs-SIMD speedup shapes, where wall time would unfairly
//!   compare native scalar code against an interpreter.

use std::time::Duration;

pub mod autotune;

/// Reads the experiment scale from the `--scale <f>` / `--full` CLI
/// arguments, defaulting to `default`.
///
/// `--full` selects scale 1.0 (the paper's dataset sizes). A `--scale`
/// with a missing, unparsable, non-finite or non-positive value exits with
/// status 2 and an error naming the argument, as the `invector` CLI does.
pub fn arg_scale(default: f64) -> f64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    scale_from(&args, default).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2);
    })
}

/// [`arg_scale`] over an explicit argument list.
fn scale_from(args: &[String], default: f64) -> Result<f64, String> {
    let scale = match args.iter().position(|a| a == "--scale") {
        None => default,
        Some(i) => {
            let value = args.get(i + 1).ok_or("--scale needs a value")?;
            match value.parse::<f64>() {
                Ok(scale) if scale.is_finite() && scale > 0.0 => scale,
                _ => return Err(format!("--scale expects a positive number, got '{value}'")),
            }
        }
    };
    Ok(if args.iter().any(|a| a == "--full") { 1.0 } else { scale })
}

/// Formats a duration as engineering-friendly milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Formats a big count with thousands separators.
pub fn human(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// `a / b` guarded against division by zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

/// Reads an optional `--csv <path>` argument: when present, harnesses also
/// write their data points as CSV for external plotting.
pub fn arg_csv() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--csv").and_then(|i| args.get(i + 1)).map(Into::into)
}

/// A minimal CSV accumulator (quoted-field-free data only: numbers and
/// simple labels).
#[derive(Debug, Clone)]
pub struct CsvWriter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvWriter {
    /// Creates a writer with the given column names.
    pub fn new(header: &[&str]) -> Self {
        CsvWriter { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header, or a field
    /// contains a comma/newline (this writer does not quote).
    pub fn row(&mut self, fields: &[String]) {
        assert_eq!(fields.len(), self.header.len(), "row width mismatch");
        assert!(
            fields.iter().all(|f| !f.contains(',') && !f.contains('\n')),
            "fields must not contain commas or newlines"
        );
        self.rows.push(fields.to_vec());
    }

    /// Number of data rows accumulated.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were accumulated.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

/// Prints the standard experiment header.
pub fn header(experiment: &str, description: &str, scale: f64) {
    println!("================================================================");
    println!("{experiment}: {description}");
    println!("scale {scale} of the paper's dataset sizes (use --full for 1.0)");
    println!("================================================================");
}

/// Shared driver for the wave-frontier figures (9, 10, 11): runs every
/// variant of `app` on all three graph datasets and prints the paper's
/// breakdown (grouping time, compute time, iterations, modeled
/// instructions, SIMD utilization).
pub fn wavefront_figure<T: PartialEq + std::fmt::Debug>(
    figure: &str,
    app: &str,
    scale: f64,
    runner: impl Fn(
        &invector_graph::EdgeList,
        invector_kernels::Variant,
    ) -> invector_kernels::RunResult<T>,
    reuse_runner: impl Fn(&invector_graph::EdgeList) -> invector_kernels::RunResult<T>,
) {
    use invector_kernels::Variant;
    header(
        figure,
        &format!("wave-frontier {app}, 5 versions x 3 graphs (log2-scale in paper)"),
        scale,
    );
    for dataset in invector_graph::datasets::all(scale) {
        println!(
            "\n--- {} ({} vertices, {} edges) ---",
            dataset.name,
            human(dataset.graph.num_vertices() as u64),
            human(dataset.graph.num_edges() as u64)
        );
        println!(
            "{:<24} {:>10} {:>11} {:>7} {:>15} {:>10}",
            "version", "group(ms)", "compute(ms)", "iters", "model(Minstr)", "simd_util"
        );
        let mut serial_instr = 0u64;
        let mut mask_instr = 0u64;
        let mut invec_instr = 0u64;
        let mut reference: Option<Vec<T>> = None;
        for variant in Variant::ALL {
            let r = runner(&dataset.graph, variant);
            match variant {
                Variant::Serial => serial_instr = r.instructions,
                Variant::Masked => mask_instr = r.instructions,
                Variant::Invec => invec_instr = r.instructions,
                _ => {}
            }
            let util = r
                .utilization
                .map(|u| format!("{:.2}%", u.ratio() * 100.0))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:<24} {:>10} {:>11} {:>7} {:>15.1} {:>10}",
                variant.frontier_label(),
                ms(r.timings.grouping),
                ms(r.timings.compute),
                r.iterations,
                r.instructions as f64 / 1e6,
                util
            );
            match &reference {
                None => reference = Some(r.values),
                Some(expect) => assert_eq!(&r.values, expect, "{variant} diverged"),
            }
        }
        // The reuse realization of grouping (Jiang et al. [11]) — the
        // technique the paper's nontiling_and_grouping bars measure.
        let r = reuse_runner(&dataset.graph);
        println!(
            "{:<24} {:>10} {:>11} {:>7} {:>15.1} {:>10}",
            "grouping(reuse)",
            ms(r.timings.grouping),
            ms(r.timings.compute),
            r.iterations,
            r.instructions as f64 / 1e6,
            "-"
        );
        assert_eq!(Some(&r.values), reference.as_ref(), "reuse diverged");
        println!(
            "modeled speedups: invec vs serial {:.2}x, invec vs mask {:.2}x",
            ratio(serial_instr as f64, invec_instr as f64),
            ratio(mask_instr as f64, invec_instr as f64)
        );
    }
    println!(
        "\npaper shape: masking at/below serial (poor utilization); per-iteration grouping \
         overhead catastrophic; invec the only approach with consistent SIMD speedups"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_inserts_separators() {
        assert_eq!(human(1), "1");
        assert_eq!(human(1234), "1,234");
        assert_eq!(human(1_234_567), "1,234,567");
    }

    #[test]
    fn ratio_handles_zero() {
        assert!(ratio(1.0, 0.0).is_nan());
        assert_eq!(ratio(6.0, 2.0), 3.0);
    }

    #[test]
    fn scale_comes_from_the_arguments_or_the_default() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(scale_from(&args(""), 0.25), Ok(0.25));
        assert_eq!(scale_from(&args("--scale 0.05"), 1.0), Ok(0.05));
        assert_eq!(scale_from(&args("--smoke --scale 2"), 1.0), Ok(2.0));
        assert_eq!(scale_from(&args("--full"), 0.1), Ok(1.0));
        assert_eq!(scale_from(&args("--scale 0.5 --full"), 0.1), Ok(1.0));
        for bad in ["--scale", "--scale x", "--scale 0", "--scale -1", "--scale NaN", "--scale inf"]
        {
            let err = scale_from(&args(bad), 1.0).expect_err(bad);
            assert!(err.contains("--scale"), "{bad}: {err}");
        }
        assert!(scale_from(&args("--scale --full"), 1.0).is_err(), "a flag is not a value");
    }

    #[test]
    fn ms_formats_milliseconds() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.00");
    }

    #[test]
    fn csv_writer_renders_header_and_rows() {
        let mut w = CsvWriter::new(&["a", "b"]);
        assert!(w.is_empty());
        w.row(&["1".into(), "x".into()]);
        w.row(&["2".into(), "y".into()]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.to_csv(), "a,b\n1,x\n2,y\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn csv_writer_rejects_ragged_rows() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(&["1".into()]);
    }

    #[test]
    #[should_panic(expected = "must not contain")]
    fn csv_writer_rejects_commas() {
        let mut w = CsvWriter::new(&["a"]);
        w.row(&["1,2".into()]);
    }
}
