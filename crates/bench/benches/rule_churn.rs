//! Experiment E11 — rule churn under load.
//!
//! The epoch-snapshot tables let the control plane install/remove entries
//! while batches run on the sharded parallel path: each mutation clones
//! the entry list, publishes a fresh `Arc`-swapped snapshot, and in-flight
//! shards keep their pins. This bench measures that seam two ways:
//!
//! 1. **Churned routing** (`ipv4_forward`, `Safe` class): windows of
//!    traffic interleaved with bursts of LPM install/remove publications,
//!    at 1/2/4/8 shards — sustained packets/sec *and* publications/sec.
//! 2. **Metered policing** (`rate_limiter`, `MeterPartitionable` class):
//!    the meter-partitioned parallel path against the sequential baseline
//!    at the same shard counts — the workload PR 2 had to run
//!    single-threaded.
//!
//! Numbers land in `BENCH_churn.json` at the repo root. Shape checks are
//! deliberately loose (CI hosts are often single-core): churn must not
//! collapse throughput, and every configuration must agree on verdicts.

use netdebug_bench::banner;
use netdebug_dataplane::Dataplane;
use netdebug_p4::corpus;
use netdebug_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use std::time::Instant;

const BATCH: usize = 2048;
const ROUNDS: usize = 60;
/// LPM publications per round: 8 installs before the window, 8 removes
/// after it.
const INSTALLS_PER_ROUND: usize = 8;

fn router_dataplane() -> Dataplane {
    let ir = netdebug_p4::compile(corpus::IPV4_FORWARD).unwrap();
    let mut dp = Dataplane::new(ir);
    dp.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .unwrap();
    dp.set_tracing(false);
    dp
}

fn limiter_dataplane() -> Dataplane {
    let ir = netdebug_p4::compile(corpus::RATE_LIMITER).unwrap();
    let mut dp = Dataplane::new(ir);
    for port in 0..4u128 {
        dp.install_exact("fwd", vec![port], "forward", vec![(port + 1) % 4])
            .unwrap();
        dp.configure_meter(
            "port_meter",
            port as usize,
            netdebug_dataplane::MeterConfig {
                cir_per_mcycle: 2_000,
                cbs: 64,
                pir_per_mcycle: 4_000,
                pbs: 128,
            },
        )
        .unwrap();
    }
    dp.set_tracing(false);
    dp
}

fn main() {
    banner("E11: rule churn + metered batches on the sharded path");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let frame = PacketBuilder::ethernet(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
    )
    .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 7, 0, 9))
    .udp(1000, 2000)
    .payload(b"churn")
    .build();
    let pkts: Vec<(u16, &[u8])> = (0..BATCH)
        .map(|i| ((i % 4) as u16, frame.as_slice()))
        .collect();

    let mut json_rows: Vec<String> = Vec::new();

    // ---- Part 1: churned routing at 1/2/4/8 shards ----
    println!("\nchurned routing (ipv4_forward): {INSTALLS_PER_ROUND} installs + {INSTALLS_PER_ROUND} removes per {BATCH}-pkt window");
    println!(
        "{:<28} {:>14} {:>16} {:>10}",
        "configuration", "pkts/sec", "publications/sec", "vs 1-shd"
    );
    let mut base_pps = 0.0f64;
    for shards in [1usize, 2, 4, 8] {
        let mut dp = router_dataplane();
        let cp = dp.control_plane();
        let mut publications = 0usize;
        let t0 = Instant::now();
        for round in 0..ROUNDS {
            // Churn in: a burst of fresh /24 routes lands before the window.
            for k in 0..INSTALLS_PER_ROUND {
                let third = ((round * INSTALLS_PER_ROUND + k) % 200) as u128;
                cp.install_lpm(
                    "ipv4_lpm",
                    0x0A07_0000 | (third << 8),
                    24,
                    "ipv4_forward",
                    vec![0xCC, 2],
                )
                .unwrap();
                publications += 1;
            }
            std::hint::black_box(dp.process_batch_parallel(&pkts, round as u64, shards));
            // Churn out: withdraw the burst so occupancy stays bounded.
            for k in 0..INSTALLS_PER_ROUND {
                let third = ((round * INSTALLS_PER_ROUND + k) % 200) as u128;
                cp.remove(
                    "ipv4_lpm",
                    &[netdebug_dataplane::lpm_pattern(
                        0x0A07_0000 | (third << 8),
                        24,
                        32,
                    )],
                    24,
                )
                .unwrap();
                publications += 1;
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        let pps = (ROUNDS * BATCH) as f64 / dt;
        let ips = publications as f64 / dt;
        if shards == 1 {
            base_pps = pps;
        }
        println!(
            "{:<28} {:>14.0} {:>16.0} {:>9.2}x",
            format!("churn ({shards} shards)"),
            pps,
            ips,
            pps / base_pps
        );
        json_rows.push(format!(
            "    {{\"workload\": \"churned_routing\", \"shards\": {shards}, \"pps\": {pps:.0}, \"publications_per_sec\": {ips:.0}}}"
        ));
        assert!(
            dp.sharded_batches() == if shards > 1 { ROUNDS as u64 } else { 0 },
            "churned batches must stay on the parallel path at {shards} shards"
        );
    }

    // ---- Part 2: metered policing at 1/2/4/8 shards ----
    println!("\nmetered policing (rate_limiter, meter-partitioned path)");
    println!(
        "{:<28} {:>14} {:>10}",
        "configuration", "pkts/sec", "vs seq"
    );
    let mut dp = limiter_dataplane();
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        std::hint::black_box(dp.process_batch(&pkts, (round * 1000) as u64));
    }
    let meter_base = (ROUNDS * BATCH) as f64 / t0.elapsed().as_secs_f64();
    println!(
        "{:<28} {:>14.0} {:>9.2}x",
        "process_batch (seq)", meter_base, 1.0
    );
    json_rows.push(format!(
        "    {{\"workload\": \"metered\", \"shards\": 1, \"config\": \"sequential\", \"pps\": {meter_base:.0}}}"
    ));
    let mut best_meter = 0.0f64;
    for shards in [1usize, 2, 4, 8] {
        let mut dp = limiter_dataplane();
        let t0 = Instant::now();
        for round in 0..ROUNDS {
            std::hint::black_box(dp.process_batch_parallel(&pkts, (round * 1000) as u64, shards));
        }
        let pps = (ROUNDS * BATCH) as f64 / t0.elapsed().as_secs_f64();
        best_meter = best_meter.max(pps);
        println!(
            "{:<28} {:>14.0} {:>9.2}x",
            format!("meter-partitioned ({shards} shards)"),
            pps,
            pps / meter_base
        );
        json_rows.push(format!(
            "    {{\"workload\": \"metered\", \"shards\": {shards}, \"config\": \"partitioned\", \"pps\": {pps:.0}}}"
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"rule_churn\",\n  \"meta\": {},\n  \"batch\": {BATCH},\n  \"rounds\": {ROUNDS},\n  \"installs_per_round\": {INSTALLS_PER_ROUND},\n  \"cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        netdebug_bench::meta_json(BATCH),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_churn.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // Shape check: churn and meter partitioning must not collapse the
    // engine, whatever the host's core count.
    assert!(
        best_meter > meter_base * 0.25,
        "meter-partitioned path collapsed on {cores}-core host: {best_meter:.0} vs {meter_base:.0} pps"
    );
}
