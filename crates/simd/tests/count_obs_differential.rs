//! Differential check between the two instruction-count views: the
//! caller's thread-local `count::read` delta and the cross-thread
//! `count::global_total` — which the metric registry scrapes through the
//! `invector_simd_instructions_total` collector — must agree on same-thread
//! work, sum across spawned threads, and diverge by exactly the re-charged
//! amount for engine-attributed work.
//!
//! This is the sole test in the file on purpose: the global total spans
//! every thread in the process, so nothing else may run concurrently for
//! its deltas to be attributable.

#![cfg(feature = "count")]

use invector_simd::{count, F32x16};

fn burn(rounds: usize) -> u64 {
    count::with(|| {
        let mut v = F32x16::splat(1.0);
        for _ in 0..rounds {
            v += F32x16::splat(0.5);
        }
        v
    })
    .1
}

#[test]
fn thread_view_and_global_total_tell_one_story() {
    // Same-thread work: the caller's delta IS the global delta.
    count::reset();
    let before_global = count::global_total();
    let local_delta = burn(100);
    assert!(local_delta > 0, "vector ops must charge instructions");
    assert_eq!(
        count::global_total().wrapping_sub(before_global),
        local_delta,
        "same-thread work must move both views identically"
    );

    // Spawned-thread work: invisible to this thread's view, but the global
    // total absorbs every worker's delta.
    let before_global = count::global_total();
    let before_local = count::read();
    let spawned: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(|| burn(50))).collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    assert!(spawned > 0);
    assert_eq!(count::read(), before_local, "other threads' work must not leak into this view");
    assert_eq!(
        count::global_total().wrapping_sub(before_global),
        spawned,
        "the global total must absorb exactly the workers' deltas"
    );

    // The registry's collector scrapes the same number.
    let text = invector_obs::prometheus(invector_obs::Registry::global());
    let line = text
        .lines()
        .find(|l| l.starts_with("invector_simd_instructions_total "))
        .expect("the instruction collector must be registered");
    let scraped: u64 = line.rsplit(' ').next().unwrap().parse().expect("sample value");
    assert_eq!(scraped, count::global_total(), "scrape and direct read must agree");

    // Re-charged work (the engine re-attributing worker instructions to
    // the caller) counts for the caller's view but not the global total.
    let before_global = count::global_total();
    let before_local = count::read();
    count::bump_recharged(64);
    assert_eq!(count::read().wrapping_sub(before_local), 64);
    assert_eq!(
        count::global_total(),
        before_global,
        "re-charges must cancel out of the global total"
    );
}
