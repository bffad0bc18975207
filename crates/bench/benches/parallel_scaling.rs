//! Experiment E10 — sharded batch execution scaling.
//!
//! PR 2 split the interpreter's state along the read/write axis so
//! `Dataplane::process_batch_parallel` can partition a batch across OS
//! threads: table entries and the program IR are shared read-only, each
//! shard owns zeroed counter/statistics deltas that merge commutatively on
//! join. This bench measures that seam on a counter-carrying, parallel-safe
//! program (`l2_switch`): sustained packet rate at 1/2/4/8 shards against
//! the sequential `process_batch` baseline, traced and untraced.
//!
//! Shape check: with ≥2 worker cores available, the best ≥4-shard
//! configuration must beat single-shard `process_batch` on the untraced
//! path. On a single-core host (CI containers) the parallel path cannot
//! win — threads serialise — so the assertion is gated on
//! `std::thread::available_parallelism` and the core count is recorded in
//! the emitted `BENCH_parallel.json` for honest comparison.

use netdebug_bench::banner;
use netdebug_dataplane::Dataplane;
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, PacketBuilder};
use std::time::Instant;

const BATCH: usize = 4096;
const TOTAL: usize = 400_000;

fn switch_dataplane() -> Dataplane {
    let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
    let mut dp = Dataplane::new(ir);
    dp.install_exact("dmac", vec![0x0200_0000_0002], "forward", vec![3])
        .unwrap();
    dp
}

fn pps(n: usize, t: Instant) -> f64 {
    n as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    banner("E10: sharded batch execution scaling (process_batch_parallel)");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Known destination -> exact-table hit + per-port rx counter per packet.
    let frame = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .payload(b"parallel-scaling")
    .build();
    let pkts: Vec<(u16, &[u8])> = (0..BATCH)
        .map(|i| ((i % 4) as u16, frame.as_slice()))
        .collect();
    let rounds = TOTAL / BATCH;

    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();

    // Sequential baseline, untraced (the fast path sharding multiplies).
    let mut dp = switch_dataplane();
    dp.set_tracing(false);
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(dp.process_batch(&pkts, 0));
    }
    let base_fast = pps(rounds * BATCH, t0);
    rows.push(("process_batch (1 thread, untraced)".into(), base_fast));
    json_rows.push(format!(
        "    {{\"config\": \"process_batch\", \"shards\": 1, \"traced\": false, \"pps\": {base_fast:.0}}}"
    ));

    let mut best_parallel_fast = 0.0f64;
    for shards in [1usize, 2, 4, 8] {
        let mut dp = switch_dataplane();
        dp.set_tracing(false);
        let t0 = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(dp.process_batch_parallel(&pkts, 0, shards));
        }
        let rate = pps(rounds * BATCH, t0);
        if shards >= 4 {
            best_parallel_fast = best_parallel_fast.max(rate);
        }
        rows.push((
            format!("process_batch_parallel ({shards} shards, untraced)"),
            rate,
        ));
        json_rows.push(format!(
            "    {{\"config\": \"process_batch_parallel\", \"shards\": {shards}, \"traced\": false, \"pps\": {rate:.0}}}"
        ));
    }

    // Traced comparison at the widest shard count: traces are materialised
    // per shard, so the win narrows but must not invert correctness.
    let mut dp = switch_dataplane();
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(dp.process_batch(&pkts, 0));
    }
    let base_traced = pps(rounds * BATCH, t0);
    rows.push(("process_batch (1 thread, traced)".into(), base_traced));
    json_rows.push(format!(
        "    {{\"config\": \"process_batch\", \"shards\": 1, \"traced\": true, \"pps\": {base_traced:.0}}}"
    ));
    let mut dp = switch_dataplane();
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(dp.process_batch_parallel(&pkts, 0, 4));
    }
    let par_traced = pps(rounds * BATCH, t0);
    rows.push((
        "process_batch_parallel (4 shards, traced)".into(),
        par_traced,
    ));
    json_rows.push(format!(
        "    {{\"config\": \"process_batch_parallel\", \"shards\": 4, \"traced\": true, \"pps\": {par_traced:.0}}}"
    ));

    println!("cores available: {cores}");
    println!(
        "{:<48} {:>14} {:>10}",
        "configuration", "sustained pps", "vs 1-thr"
    );
    for (name, rate) in &rows {
        println!("{name:<48} {rate:>14.0} {:>9.2}x", rate / base_fast);
    }

    // Record the numbers for the repo (BENCH_parallel.json at the root).
    let json = format!(
        "{{\n  \"experiment\": \"parallel_scaling\",\n  \"meta\": {},\n  \"program\": \"l2_switch\",\n  \"batch\": {BATCH},\n  \"total_packets\": {TOTAL},\n  \"cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        netdebug_bench::meta_json(BATCH),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    println!("\nshape check: sharding pays once real cores back the shards;");
    println!("on hosts with fewer than 4 cores the ≥4-shard partitions");
    println!("oversubscribe and the check degrades to a no-collapse bound.");
    if cores >= 4 {
        // Every shard of the best configuration is backed by a real core:
        // the parallel engine must win outright.
        assert!(
            best_parallel_fast > base_fast,
            "≥4-shard parallel ({best_parallel_fast:.0} pps) must beat 1-thread process_batch ({base_fast:.0} pps) on {cores} cores"
        );
    } else {
        // Oversubscribed or single-core host: shards serialise, so only
        // guard against the parallel path collapsing under thread/merge
        // overhead rather than demanding a win that the hardware cannot
        // deliver.
        assert!(
            best_parallel_fast > base_fast * 0.25,
            "parallel path collapsed on {cores}-core host: {best_parallel_fast:.0} vs {base_fast:.0} pps"
        );
    }
}
