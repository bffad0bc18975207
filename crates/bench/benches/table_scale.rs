//! Experiment E12 — compiled lookup indexes vs the seed linear scan.
//!
//! Every published `EntrySnapshot` now carries a `LookupIndex` compiled
//! from the table's key signature: exact tables hash the packed key
//! tuple, single-key LPM tables bucket by priority (prefix length) with a
//! uniform-mask hash per level, and ternary tables keep the
//! priority-ordered scan that *defines* the semantics. This bench sweeps
//! entry counts {1, 16, 256, 4096} × {exact, lpm, ternary} and measures
//! ns/lookup through the index (`EntrySnapshot::lookup`) against the
//! seed scan (`EntrySnapshot::lookup_scan`), plus end-to-end
//! `process_batch` throughput on an exact-table program as the table
//! fills.
//!
//! Numbers land in `BENCH_lookup.json`. The smoke assertions guard the
//! index itself: exact-match lookup cost must stay flat across 1 → 4096
//! entries (losing the index would reintroduce O(n) applies silently),
//! while the measured scan must grow with the entry count — that pair is
//! the headline of the PR that introduced index compilation.

use netdebug_bench::banner;
use netdebug_dataplane::{lpm_pattern, Dataplane, RuntimeEntry, TableState};
use netdebug_p4::ast::MatchKind;
use netdebug_p4::corpus;
use netdebug_p4::ir::{ActionCall, ActionIr, IrExpr, IrPattern, TableIr, TableKey};
use netdebug_packet::{EthernetAddress, PacketBuilder};
use std::time::Instant;

const SIZES: [usize; 4] = [1, 16, 256, 4096];
/// Probe keys per measurement pass (mix of hits and misses).
const PROBES: usize = 1024;
/// Prefix lengths the LPM sweep cycles through — shared by entry
/// installation and probe-key construction so the hit probes always
/// target installed prefixes.
const LENS: [u16; 7] = [8, 12, 16, 20, 24, 28, 32];
/// Minimum wall time per measured cell, seconds.
const MIN_MEASURE_S: f64 = 0.05;

fn standalone_table(kind: MatchKind) -> (TableIr, Vec<ActionIr>) {
    let actions = vec![ActionIr {
        name: "fwd".into(),
        control: "I".into(),
        params: vec![("port".into(), 9)],
        ops: vec![],
    }];
    let table = TableIr {
        name: "t".into(),
        control: "I".into(),
        keys: vec![TableKey {
            expr: IrExpr::konst(0, 32),
            kind,
            width: 32,
        }],
        actions: vec![0],
        default_action: ActionCall {
            action: 0,
            args: vec![0],
        },
        size: 8192,
        const_entries: vec![],
    };
    (table, actions)
}

/// Install `n` kind-shaped entries and return the filled state.
fn filled_state(kind: MatchKind, n: usize) -> TableState {
    let (table, actions) = standalone_table(kind);
    let state = TableState::new(&table);
    for i in 0..n {
        let (pattern, priority) = match kind {
            MatchKind::Exact => (IrPattern::Value(i as u128), 0),
            MatchKind::Lpm => {
                let len = LENS[i % LENS.len()];
                // Keep the prefix's leading bit clear so the 0xFE... miss
                // probes stay outside every level, whatever the sweep size
                // (an unbounded index would wrap the /8 level's first
                // octet across the whole space and swallow the misses).
                let j = (i / LENS.len()) as u128 % (1u128 << (len - 1));
                (lpm_pattern(j << (32 - len), len, 32), i32::from(len))
            }
            // Full-mask ternary entries with distinct priorities: the
            // worst case for the scan, and exactly what a priority TCAM
            // would hold.
            _ => (
                IrPattern::Mask {
                    value: i as u128,
                    mask: 0xFFFF_FFFF,
                },
                i as i32,
            ),
        };
        state
            .install(
                &table,
                &actions,
                RuntimeEntry {
                    patterns: vec![pattern],
                    action: ActionCall {
                        action: 0,
                        args: vec![(i % 511) as u128],
                    },
                    priority,
                },
            )
            .expect("capacity 8192 covers every sweep size");
    }
    state
}

/// Probe keys for a filled table: alternating hits (installed values /
/// prefixes) and misses (values past the installed range).
fn probe_keys(kind: MatchKind, n: usize) -> Vec<u128> {
    (0..PROBES)
        .map(|p| {
            let i = p % n.max(1);
            if p % 2 == 0 {
                match kind {
                    MatchKind::Lpm => {
                        let len = LENS[i % LENS.len()];
                        let j = (i / LENS.len()) as u128 % (1u128 << (len - 1));
                        // A key inside the prefix; /32 entries only match
                        // their exact value, so no low bit is set there.
                        (j << (32 - len)) | u128::from(len < 32)
                    }
                    _ => i as u128,
                }
            } else {
                // Miss: above every installed exact/ternary value and
                // outside the LPM prefixes' first octets.
                0xFE00_0000 + p as u128
            }
        })
        .collect()
}

/// ns/lookup of `f` (which runs one full probe pass), measured over at
/// least [`MIN_MEASURE_S`] of wall time.
fn measure_ns_per_lookup(mut pass: impl FnMut() -> usize) -> f64 {
    // Warm-up pass (hash tables touch their buckets, caches warm).
    std::hint::black_box(pass());
    let t0 = Instant::now();
    let mut lookups = 0usize;
    while t0.elapsed().as_secs_f64() < MIN_MEASURE_S {
        lookups += pass();
    }
    t0.elapsed().as_secs_f64() * 1e9 / lookups as f64
}

fn main() {
    banner("E12: table snapshot lookup indexes (exact/lpm/ternary sweep)");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json_rows: Vec<String> = Vec::new();

    println!(
        "\n{:<10} {:>8} {:>14} {:>14} {:>10}",
        "kind", "entries", "indexed ns/op", "scan ns/op", "speedup"
    );
    // indexed/scan ns per (kind, size), for the smoke assertions below.
    let mut measured: Vec<(MatchKind, usize, f64, f64)> = Vec::new();
    for kind in [MatchKind::Exact, MatchKind::Lpm, MatchKind::Ternary] {
        for &n in &SIZES {
            let state = filled_state(kind, n);
            let keys = probe_keys(kind, n);
            let snap = state.snapshot();
            let indexed = measure_ns_per_lookup(|| {
                for k in &keys {
                    std::hint::black_box(snap.lookup(std::slice::from_ref(k)));
                }
                keys.len()
            });
            let scan = measure_ns_per_lookup(|| {
                for k in &keys {
                    std::hint::black_box(snap.lookup_scan(std::slice::from_ref(k)));
                }
                keys.len()
            });
            // The index must agree with the scan on every probe — a cheap
            // end-of-run sanity net under the proptests.
            for k in &keys {
                assert_eq!(
                    snap.lookup(std::slice::from_ref(k)),
                    snap.lookup_scan(std::slice::from_ref(k)),
                    "index/scan divergence at key {k:#x} ({kind:?}, {n} entries)"
                );
            }
            let kind_name = match kind {
                MatchKind::Exact => "exact",
                MatchKind::Lpm => "lpm",
                _ => "ternary",
            };
            println!(
                "{:<10} {:>8} {:>14.1} {:>14.1} {:>9.1}x",
                kind_name,
                n,
                indexed,
                scan,
                scan / indexed
            );
            json_rows.push(format!(
                "    {{\"kind\": \"{kind_name}\", \"entries\": {n}, \"indexed_ns\": {indexed:.1}, \"scan_ns\": {scan:.1}}}"
            ));
            measured.push((kind, n, indexed, scan));
        }
    }

    // End to end: an exact-table program's batch throughput as the table
    // fills. The compiled hash keeps pps flat; the seed scan degraded
    // linearly with occupancy.
    println!("\nprocess_batch on l2_switch (exact dmac hash), untraced:");
    println!("{:<10} {:>14}", "entries", "pkts/sec");
    let mut batch_pps: Vec<(usize, f64)> = Vec::new();
    for &n in &SIZES {
        let ir = netdebug_p4::compile(corpus::L2_SWITCH).unwrap();
        let caps = vec![8192u64; ir.tables.len()];
        let mut dp = Dataplane::with_table_capacities(ir, &caps);
        dp.set_tracing(false);
        for i in 0..n {
            dp.install_exact(
                "dmac",
                vec![0x0200_0000_0000 + i as u128],
                "forward",
                vec![(i % 4) as u128],
            )
            .unwrap();
        }
        let frames: Vec<Vec<u8>> = (0..2048)
            .map(|i| {
                PacketBuilder::ethernet(
                    EthernetAddress::new(2, 0, 0, 0, 0, 1),
                    // Every frame hits an installed entry, whatever the
                    // sweep size — the workload stays uniform as n grows.
                    EthernetAddress::new(2, 0, 0, 0, 0, (i % n.min(256)) as u8),
                )
                .payload(b"table-scale")
                .build()
            })
            .collect();
        let pkts: Vec<(u16, &[u8])> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| ((i % 4) as u16, f.as_slice()))
            .collect();
        // Warm-up window before the timer (allocator + caches).
        std::hint::black_box(dp.process_batch(&pkts, 0));
        let t0 = Instant::now();
        let mut done = 0usize;
        while t0.elapsed().as_secs_f64() < 2.0 * MIN_MEASURE_S {
            std::hint::black_box(dp.process_batch(&pkts, 0));
            done += pkts.len();
        }
        let pps = done as f64 / t0.elapsed().as_secs_f64();
        println!("{n:<10} {pps:>14.0}");
        json_rows.push(format!(
            "    {{\"workload\": \"batch_exact\", \"entries\": {n}, \"pps\": {pps:.0}}}"
        ));
        batch_pps.push((n, pps));
    }

    let json = format!(
        "{{\n  \"experiment\": \"table_scale\",\n  \"meta\": {},\n  \"probes\": {PROBES},\n  \"cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        netdebug_bench::meta_json(PROBES),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lookup.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // ---- Smoke assertions (run in CI): losing the index must fail loudly ----
    let cell = |kind: MatchKind, n: usize| {
        measured
            .iter()
            .find(|(k, m, _, _)| *k == kind && *m == n)
            .map(|(_, _, i, s)| (*i, *s))
            .expect("measured above")
    };
    let (exact_idx_1, exact_scan_1) = cell(MatchKind::Exact, 1);
    let (exact_idx_4k, exact_scan_4k) = cell(MatchKind::Exact, 4096);
    // Exact-match lookup cost must not grow with entry count: both ends
    // of the sweep are one hash probe. The 8x slack absorbs timer noise
    // on shared single-core CI hosts, not a linear factor (the scan's
    // 1 -> 4096 ratio is ~three orders of magnitude).
    assert!(
        exact_idx_4k < exact_idx_1 * 8.0,
        "exact-match indexed lookup grew with entry count: {exact_idx_1:.1} ns at 1 entry vs {exact_idx_4k:.1} ns at 4096 — the hash index is gone"
    );
    // And the measured baseline really is the linear scan the index
    // replaced: it must grow markedly across the same sweep.
    assert!(
        exact_scan_4k > exact_scan_1 * 8.0,
        "seed scan did not grow with entry count ({exact_scan_1:.1} -> {exact_scan_4k:.1} ns): the baseline measurement is broken"
    );
    // At 4096 entries the index must beat the scan outright.
    assert!(
        exact_idx_4k * 4.0 < exact_scan_4k,
        "indexed exact lookup ({exact_idx_4k:.1} ns) must clearly beat the {exact_scan_4k:.1} ns scan at 4096 entries"
    );
    // End-to-end batch throughput stays flat (within generous noise)
    // while the table fills 1 -> 4096.
    let pps_1 = batch_pps.first().expect("sweep ran").1;
    let pps_4k = batch_pps.last().expect("sweep ran").1;
    assert!(
        pps_4k > pps_1 * 0.5,
        "batch throughput collapsed as the exact table filled: {pps_1:.0} pps at 1 entry vs {pps_4k:.0} pps at 4096"
    );
}
