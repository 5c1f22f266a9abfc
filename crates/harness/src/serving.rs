//! The serving fixture: the count/min workload that the `serve` smokes,
//! the `serve` and `serve-recover` applications and the serving benches
//! all fold, plus the connect and scratch-directory helpers they share.
//!
//! One keyed input (`agg::dist`) becomes two update streams, each at the
//! row's sequence number: a count increment for an i32 Add `counts` table
//! and a min candidate for an f32 Min `mins` table, both over the input's
//! key cardinality. Both operators are exact, so every check can demand
//! bitwise agreement with the serial fold ([`Fixture::reference`]).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use invector_agg::dist::{self, Distribution};
use invector_serve::{OpKind, TableSpec, TcpClient, Update};

/// Seed of the fixture's input: the harness input seed, so `serve --smoke`
/// and `run --app serve` fold the same data.
pub const SEED: u64 = crate::apps::INPUT_SEED;

/// The fixture's table registry over `cardinality` slots: `counts` (i32
/// Add) as table 0, `mins` (f32 Min) as table 1.
pub fn tables(cardinality: usize) -> Vec<TableSpec> {
    vec![
        TableSpec::i32("counts", OpKind::Add, cardinality),
        TableSpec::f32("mins", OpKind::Min, cardinality),
    ]
}

/// The count/min workload's two update streams.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Slot count of both tables.
    pub cardinality: usize,
    /// One count increment per input row, for table 0.
    pub counts: Vec<Update>,
    /// One min candidate per input row, for table 1.
    pub mins: Vec<Update>,
}

impl Fixture {
    /// The streams over `rows` input rows drawn from `dist` on
    /// `cardinality` keys with [`SEED`].
    ///
    /// # Panics
    ///
    /// Panics if `cardinality` is zero.
    pub fn new(dist: Distribution, rows: usize, cardinality: usize) -> Fixture {
        let input = dist::generate(dist, rows, cardinality, SEED);
        let counts = input
            .keys
            .iter()
            .enumerate()
            .map(|(seq, &k)| Update::i32(seq as u64, k as u32, 1))
            .collect();
        let mins = input
            .keys
            .iter()
            .zip(&input.vals)
            .enumerate()
            .map(|(seq, (&k, &v))| Update::f32(seq as u64, k as u32, v))
            .collect();
        Fixture { cardinality, counts, mins }
    }

    /// Input rows: the length of each stream.
    pub fn rows(&self) -> usize {
        self.counts.len()
    }

    /// The serial fold of both streams, as slot bit patterns: `[counts,
    /// mins]`, in table order.
    pub fn reference(&self) -> [Vec<u32>; 2] {
        let mut counts = vec![0i32; self.cardinality];
        for u in &self.counts {
            counts[u.idx as usize] += u.bits as i32;
        }
        let mut mins = vec![f32::INFINITY; self.cardinality];
        for u in &self.mins {
            let v = f32::from_bits(u.bits);
            if v < mins[u.idx as usize] {
                mins[u.idx as usize] = v;
            }
        }
        [
            counts.into_iter().map(|v| v as u32).collect(),
            mins.into_iter().map(f32::to_bits).collect(),
        ]
    }
}

/// Connects to `addr`, retrying refused connects for about 400 ms: a large
/// client storm can outrun the listen backlog.
///
/// # Errors
///
/// Returns the last connect error once every try failed.
pub fn connect(addr: SocketAddr) -> Result<TcpClient, String> {
    let mut error = String::new();
    for _ in 0..200 {
        match TcpClient::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) => error = e,
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(format!("could not connect to {addr}: {error}"))
}

/// A fresh, empty directory under the system temp dir, unique to this
/// process and call (`invector-<tag>-<pid>-<n>`), so repeated runs never
/// replay a stale log.
///
/// # Errors
///
/// Fails when the directory cannot be created.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("invector-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
