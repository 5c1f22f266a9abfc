//! Cross-thread properties of the sharded registry: however a stream of
//! increments is dealt across writer threads (and so across per-thread
//! shards), the merged read equals the serial fold — shard merge is
//! associative and lossless — and histogram merges preserve the count,
//! sum, and per-bucket tallies exactly.

use invector_obs::Registry;
use proptest::prelude::*;

/// Deals `items` round-robin to `threads` workers, as a fixed-but-arbitrary
/// association of the increment stream.
fn deal<T: Copy>(items: &[T], threads: usize) -> Vec<Vec<T>> {
    (0..threads).map(|t| items.iter().copied().skip(t).step_by(threads).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counter increments split across any number of writer threads merge
    /// to the serial sum.
    #[test]
    fn counter_shard_merge_is_associative_and_lossless(
        increments in prop::collection::vec(0u64..1_000, 1..64),
        threads in 1usize..8,
    ) {
        let registry = Registry::new();
        let counter = registry.counter("fuzz_events_total", "fuzzed increments");
        let expect: u64 = increments.iter().sum();
        std::thread::scope(|s| {
            for chunk in deal(&increments, threads) {
                let counter = counter.clone();
                s.spawn(move || {
                    for n in chunk {
                        counter.add(n);
                    }
                });
            }
        });
        prop_assert_eq!(counter.value(), expect);
    }

    /// Histogram observations split across writer threads merge to the
    /// serial count, sum, and bucket tallies.
    #[test]
    fn histogram_shard_merge_preserves_every_bucket(
        values in prop::collection::vec(0u32..40, 1..80),
        threads in 1usize..8,
    ) {
        let registry = Registry::new();
        let bounds = [5.0, 10.0, 20.0];
        let hist = registry.histogram("fuzz_depth", "fuzzed observations", &bounds);
        std::thread::scope(|s| {
            for chunk in deal(&values, threads) {
                let hist = hist.clone();
                s.spawn(move || {
                    for v in chunk {
                        hist.observe(f64::from(v));
                    }
                });
            }
        });

        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        let expect_sum: f64 = values.iter().map(|&v| f64::from(v)).sum();
        prop_assert!((snap.sum - expect_sum).abs() < 1e-9, "sum {} != {}", snap.sum, expect_sum);
        // Serial bucket fold: bounds are upper-inclusive cut points.
        let mut expect_buckets = vec![0u64; bounds.len() + 1];
        for &v in &values {
            let v = f64::from(v);
            let i = bounds.partition_point(|&b| b < v);
            expect_buckets[i] += 1;
        }
        prop_assert_eq!(snap.buckets, expect_buckets);
    }

    /// Reading mid-stream never observes more than the final total, and a
    /// re-read after the writers join is stable: merge is monotone.
    #[test]
    fn concurrent_reads_are_monotone_and_converge(
        increments in prop::collection::vec(1u64..100, 1..40),
    ) {
        let registry = Registry::new();
        let counter = registry.counter("fuzz_monotone_total", "fuzzed increments");
        let expect: u64 = increments.iter().sum();
        std::thread::scope(|s| {
            let writer = counter.clone();
            let chunk = increments.clone();
            s.spawn(move || {
                for n in chunk {
                    writer.add(n);
                }
            });
            let mut last = 0u64;
            for _ in 0..50 {
                let now = counter.value();
                assert!(now >= last, "merged read went backwards: {now} < {last}");
                assert!(now <= expect, "merged read overshot: {now} > {expect}");
                last = now;
            }
        });
        prop_assert_eq!(counter.value(), expect);
        prop_assert_eq!(counter.value(), expect, "re-read is stable after join");
    }
}
