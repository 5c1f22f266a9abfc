//! Epochs handed to the worker pool start no threads of their own: the
//! global `invector_core::exec` pool, created once, folds every core's
//! epochs. Alone in its test binary, so no other test's threads move the
//! process's thread count.

use invector_serve::{OpKind, ServeConfig, ServerCore, SubmitOutcome, TableSpec, Update};

/// Threads in this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task").count()
}

/// A core that stages four full quanta on each of two tables, hands one
/// epoch to the pool and flushes.
fn serve_one() {
    let mut config = ServeConfig::new(vec![
        TableSpec::i32("counts", OpKind::Add, 64),
        TableSpec::f32("mins", OpKind::Min, 64),
    ]);
    config.quantum = 32;
    let core = ServerCore::new(config).expect("core");
    for table in [0u16, 1] {
        let updates: Vec<Update> =
            (0..128u64).map(|s| Update { seq: s, idx: (s * 5 % 64) as u32, bits: 1 }).collect();
        assert!(matches!(core.submit(table, &updates), SubmitOutcome::Accepted { .. }));
    }
    assert_eq!(core.tick(false).applied, 256);
    core.flush();
}

#[test]
#[cfg(target_os = "linux")]
fn two_hundred_cores_with_ticks_start_no_threads() {
    serve_one(); // creates the pool
    let before = threads();
    for _ in 0..200 {
        serve_one();
    }
    assert_eq!(threads(), before, "epoch hand-offs started threads");
    assert_eq!(invector_core::pool_initializations(), 1);
}
