//! Host-speed calibration.
//!
//! On a shared host the same job runs up to ~40% slower for minutes at
//! a time while other tenants load the memory system (see README.md).
//! A fixed kernel written here, with no code from the program, is timed
//! before every round of jobs. It allocates, fills and frees small
//! buffers and probes a hash map, which is what the validation loop
//! spends its time on, so it slows down with the host as the jobs do.
//! Reported times are divided by the host factor, the kernel's time
//! over its time on the reference host state ([`REF_SECONDS`]): a
//! reported time reads as what the run would have measured on that
//! host. The program's own code never runs in the kernel, so a change to
//! the program moves the normalised times exactly as it moves the raw
//! ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host state (the median of the host
/// this benchmark was tuned on; see README.md).
pub const REF_SECONDS: f64 = 0.003;

/// Time one run of the kernel, in seconds.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut h = 0u64;
    let mut keep: Vec<Vec<u8>> = Vec::with_capacity(1600);
    for i in 0..10_000u64 {
        let n = 64 + (i as usize * 37) % 192;
        let mut v = vec![0u8; n];
        for (j, b) in v.iter_mut().enumerate() {
            *b = (i as u8).wrapping_add(j as u8);
        }
        h = h
            .wrapping_mul(31)
            .wrapping_add(v.iter().map(|&b| u64::from(b)).sum::<u64>());
        keep.push(v);
        if keep.len() > 1500 {
            let k = (h as usize) % keep.len();
            keep.swap_remove(k);
        }
    }
    let mut m = HashMap::with_capacity(1024);
    for i in 0..20_000u64 {
        m.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
    }
    for i in 0..20_000u64 {
        h = h.wrapping_add(
            m.get(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .copied()
                .unwrap_or(0),
        );
    }
    black_box(h);
    start.elapsed().as_secs_f64()
}

/// Host factors per round from the kernel times taken before each
/// round: the median over the round and its five neighbours on each
/// side, over [`REF_SECONDS`] (above 1 when the host is slower).
pub fn factors(kernel_secs: &[f64]) -> Vec<f64> {
    (0..kernel_secs.len())
        .map(|r| {
            let lo = r.saturating_sub(5);
            let hi = (r + 6).min(kernel_secs.len());
            crate::util::quantile(&kernel_secs[lo..hi], 0.5) / REF_SECONDS
        })
        .collect()
}
