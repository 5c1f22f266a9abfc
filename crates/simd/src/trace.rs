//! Optional memory-access tracing into a cache simulator.
//!
//! When a [`Hierarchy`] is
//! [`install`]ed on the current thread, every gather/scatter lane and every
//! contiguous vector load/store feeds its byte address to the simulator.
//! [`take`] removes it and returns the accumulated statistics. With no
//! simulator installed the hooks cost one thread-local flag check.
//!
//! # Example
//!
//! ```
//! use invector_cachesim::Hierarchy;
//! use invector_simd::{trace, F32x16, I32x16};
//!
//! let data = vec![1.0f32; 1 << 20];
//! trace::install(Hierarchy::knl_like());
//! for k in 0..1000 {
//!     let idx = I32x16::from_array(std::array::from_fn(|l| ((k * 16 + l) % data.len()) as i32));
//!     let _ = F32x16::gather(&data, idx);
//! }
//! let stats = trace::take().expect("tracer was installed").stats();
//! assert!(stats.accesses >= 16_000);
//! ```

use std::cell::{Cell, RefCell};

use invector_cachesim::Hierarchy;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SIM: RefCell<Option<Hierarchy>> = const { RefCell::new(None) };
}

/// Installs a cache simulator on the current thread, replacing (and
/// discarding) any previous one.
pub fn install(hierarchy: Hierarchy) {
    SIM.with(|s| *s.borrow_mut() = Some(hierarchy));
    ENABLED.with(|e| e.set(true));
}

/// Removes the current thread's simulator and returns it (with its
/// accumulated statistics), if one was installed.
pub fn take() -> Option<Hierarchy> {
    ENABLED.with(|e| e.set(false));
    SIM.with(|s| s.borrow_mut().take())
}

/// `true` if a simulator is installed on this thread.
pub fn is_active() -> bool {
    ENABLED.with(Cell::get)
}

/// Feeds one memory access to the installed simulator (no-op otherwise).
#[inline]
pub(crate) fn access(addr: usize, bytes: usize) {
    if ENABLED.with(Cell::get) {
        SIM.with(|s| {
            if let Some(h) = s.borrow_mut().as_mut() {
                h.access(addr as u64, bytes as u32);
            }
        });
    }
}

/// Feeds a contiguous span (vector load/store) to the simulator.
#[inline]
pub(crate) fn access_span(addr: usize, bytes: usize) {
    access(addr, bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{F32x16, I32x16, Mask16};

    #[test]
    fn tracer_records_gather_lanes() {
        let data = vec![0.0f32; 4096];
        install(Hierarchy::knl_like());
        let idx = I32x16::from_array(std::array::from_fn(|l| (l * 256) as i32));
        let _ = F32x16::gather(&data, idx);
        let h = take().expect("installed");
        // 16 lanes, 16 distinct lines, all cold misses.
        assert_eq!(h.stats().accesses, 16);
        assert_eq!(h.stats().memory, 16);
        assert!(!is_active());
    }

    #[test]
    fn masked_ops_record_only_selected_lanes() {
        let mut data = vec![0.0f32; 1024];
        install(Hierarchy::knl_like());
        let idx = I32x16::iota();
        F32x16::splat(1.0).mask_scatter(Mask16::from_bits(0b101), &mut data, idx);
        let h = take().expect("installed");
        assert_eq!(h.stats().accesses, 2);
    }

    #[test]
    fn contiguous_load_touches_one_or_two_lines() {
        let data = vec![0.0f32; 64];
        install(Hierarchy::knl_like());
        let _ = F32x16::load(&data);
        let h = take().expect("installed");
        assert!(h.stats().accesses <= 2, "{}", h.stats().accesses);
    }

    #[test]
    fn no_tracer_means_no_panic() {
        let _ = take();
        let data = vec![0.0f32; 64];
        let _ = F32x16::load(&data); // hooks are inert
        assert!(take().is_none());
    }

    #[test]
    fn repeated_gathers_of_hot_lines_hit() {
        let data = vec![0.0f32; 64];
        install(Hierarchy::knl_like());
        let idx = I32x16::zero();
        for _ in 0..10 {
            let _ = F32x16::gather(&data, idx);
        }
        let h = take().expect("installed");
        let s = h.stats();
        assert_eq!(s.accesses, 160);
        assert!(s.l1_hit_rate() > 0.99 - 1.0 / 160.0);
    }
}
