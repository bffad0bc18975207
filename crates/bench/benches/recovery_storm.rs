//! recovery_storm — cost and exactness of checkpoint/restore recovery.
//!
//! Three experiments around `netdebug::runtime`'s recovering driver
//! (`drive_device_recovering`, what `FleetRuntime` uses once
//! `set_recovery` is armed):
//!
//! 1. **Checkpoint overhead** — the recovering driver on a fault-free
//!    workload versus the quarantine-only guarded driver (and the raw
//!    event loop, reported for context), best-of-N. Gate: ≤ 5% over the
//!    guarded driver — periodic `Device::checkpoint` pins `Arc` snapshot
//!    chains instead of cloning tables, and that must stay visible in
//!    the wall clock.
//! 2. **Recovery storm** — a 16-device fleet seeded with one
//!    `PanicAfterN`, one `Stall` (silent wedge, watchdog-detected) and
//!    one `TransientPublication` member under 2048-frame streams with a
//!    mid-stream churn publication. The run must end with **zero
//!    permanent quarantines and exactly three recoveries**: every
//!    member delivers all frames, the 13 untouched members' digests are
//!    bit-identical to a fault-free run, and each recovery names its
//!    culprit. Reported: recovery latency in **virtual cycles**
//!    (checkpoint to rejoin — no wall clocks in the detection path).
//! 3. **Publication-retry convergence** — a device whose driver dies on
//!    the first k publication attempts for k = 1..3: `Device::install`'s
//!    bounded exponential backoff (charged to the virtual clock) must
//!    converge every time, with the reconciled table epoch equal to an
//!    unfaulted twin's.
//!
//! Numbers land in `BENCH_recovery.json` at the repo root; the gates
//! above run as smoke assertions in CI.

use netdebug::churn::ChurnOp;
use netdebug::generator::{Expectation, Generator, StreamSpec};
use netdebug::runtime::{
    drive_device, drive_device_guarded, drive_device_recovering, DeviceSink, DeviceTask,
    FleetRuntime, RecoveryPolicy,
};
use netdebug_bench::{banner, fnv, routable_frame, FNV_OFFSET};
use netdebug_hw::{Backend, Device, FaultSpec, Processed};
use netdebug_p4::corpus;
use netdebug_packet::Ipv4Address;
use std::sync::Arc;
use std::time::Instant;

/// Overhead workload: one device, this many back-to-back flows x frames.
const OVERHEAD_FLOWS: usize = 16;
const OVERHEAD_FRAMES: u64 = 512;
const OVERHEAD_REPS: usize = 7;
const OVERHEAD_GATE_PCT: f64 = 5.0;

/// Storm scenario: 16 devices, three of them armed.
const STORM_DEVICES: usize = 16;
const STORM_FRAMES: u64 = 2048;
const PANIC_DEVICE: usize = 3;
const PANIC_AT: u64 = 517;
const STALL_DEVICE: usize = 7;
const STALL_AT: u64 = 1300;
const PUB_DEVICE: usize = 11;
const PUB_FAIL_FIRST: u32 = 2;
const PUB_TRIGGER_AT: u64 = 1024;
/// Storm pacing: virtual cycles between frames, so recovery latency is
/// measured on a clock that actually moves.
const STORM_GAP_CYCLES: u64 = 40;

fn router() -> Device {
    let mut dev = Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD)
        .expect("deploy ipv4_forward");
    dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .expect("install default route");
    dev
}

/// `gap` paces the flow in virtual cycles per frame (0 = back-to-back).
fn build_flows(flows: usize, frames: u64, gap: u64) -> Vec<netdebug::runtime::FlowRun> {
    let mut generator = Generator::new();
    (0..flows)
        .map(|j| {
            let spec = StreamSpec {
                stream: j as u16,
                template: routable_frame(Ipv4Address::new(10, 0, 1, (j % 250) as u8)),
                count: frames,
                rate_pps: None,
                as_port: (j % 4) as u16,
                sweeps: vec![],
                expect: Expectation::Any,
            };
            netdebug::runtime::FlowRun {
                id: j as u32,
                as_port: spec.as_port,
                frames: Arc::new(generator.build_batch(&spec, 0, frames, 0, gap)),
                origin: 0,
                gap,
                triggers: vec![],
            }
        })
        .collect()
}

/// Sink folding every verdict into an FNV-1a digest.
struct DigestSink {
    digest: u64,
    packets: u64,
}

impl DigestSink {
    fn new() -> Self {
        Self {
            digest: FNV_OFFSET,
            packets: 0,
        }
    }
}

impl DeviceSink for DigestSink {
    fn on_packet(&mut self, flow: u32, seq: u64, p: Processed) {
        self.packets += 1;
        let mut h = fnv(self.digest, &flow.to_le_bytes());
        h = fnv(h, &seq.to_le_bytes());
        match &p.outcome {
            netdebug_hw::Outcome::Tx { port, data } => {
                h = fnv(h, &[1]);
                h = fnv(h, &port.to_le_bytes());
                h = fnv(h, data);
            }
            netdebug_hw::Outcome::Flood { data } => {
                h = fnv(h, &[2]);
                h = fnv(h, data);
            }
            netdebug_hw::Outcome::Dropped { .. } => h = fnv(h, &[3]),
        }
        h = fnv(h, p.last_stage.as_bytes());
        h = fnv(h, &p.done_at_cycle.to_le_bytes());
        self.digest = h;
    }
}

fn best_of<F: FnMut() -> f64>(reps: usize, mut run: F) -> f64 {
    (0..reps).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// One storm run on a recovery-armed fleet; `armed` plants the three
/// faults. Every flow carries the same mid-stream churn publication so
/// the `TransientPublication` member exercises its driver retry.
#[allow(clippy::type_complexity)]
fn run_storm(
    armed: bool,
) -> (
    Vec<u64>,
    Vec<Option<netdebug::DeviceFault>>,
    Vec<Vec<netdebug::DeviceRecovery>>,
    f64,
) {
    let mut flows = build_flows(1, STORM_FRAMES, STORM_GAP_CYCLES);
    flows[0].triggers = vec![(
        PUB_TRIGGER_AT,
        ChurnOp::Lpm {
            table: "ipv4_lpm".into(),
            prefix: 0x1400_0000,
            prefix_len: 8,
            action: "ipv4_forward".into(),
            args: vec![0xCC, 3],
        },
    )];
    let tasks: Vec<DeviceTask<DigestSink>> = (0..STORM_DEVICES)
        .map(|i| {
            let mut dev = router();
            if armed {
                match i {
                    PANIC_DEVICE => dev.arm_fault(FaultSpec::PanicAfterN { n: PANIC_AT }),
                    STALL_DEVICE => dev.arm_fault(FaultSpec::Stall { after: STALL_AT }),
                    PUB_DEVICE => dev.arm_fault(FaultSpec::TransientPublication {
                        fail_first: PUB_FAIL_FIRST,
                    }),
                    _ => {}
                }
            }
            DeviceTask {
                device: dev,
                flows: flows.clone(),
                sink: DigestSink::new(),
            }
        })
        .collect();
    let mut runtime = FleetRuntime::new(4);
    runtime.set_recovery(Some(RecoveryPolicy::default()));
    let start = Instant::now();
    let done = runtime.run(tasks);
    let secs = start.elapsed().as_secs_f64();
    let digests = done.iter().map(|d| d.sink.digest).collect();
    let recoveries = done.iter().map(|d| d.recoveries.clone()).collect();
    let faults = done.into_iter().map(|d| d.fault).collect();
    (digests, faults, recoveries, secs)
}

fn main() {
    let mut json_rows: Vec<String> = Vec::new();

    banner("recovery_storm: checkpoint overhead on fault-free traffic");
    let flows = build_flows(OVERHEAD_FLOWS, OVERHEAD_FRAMES, 0);
    let packets = OVERHEAD_FLOWS as u64 * OVERHEAD_FRAMES;
    let raw_secs = best_of(OVERHEAD_REPS, || {
        let mut dev = router();
        let mut sink = DigestSink::new();
        let start = Instant::now();
        let (stats, result) = drive_device(&mut dev, &flows, 256, &mut sink);
        assert!(result.is_ok());
        assert_eq!(stats.packets, packets);
        start.elapsed().as_secs_f64()
    });
    let guarded_secs = best_of(OVERHEAD_REPS, || {
        let mut dev = router();
        let mut sink = DigestSink::new();
        let start = Instant::now();
        let (stats, result, fault) = drive_device_guarded(&mut dev, &flows, 256, &mut sink);
        assert!(result.is_ok() && fault.is_none());
        assert_eq!(stats.packets, packets);
        start.elapsed().as_secs_f64()
    });
    let recovering_secs = best_of(OVERHEAD_REPS, || {
        let mut dev = router();
        let mut sink = DigestSink::new();
        let start = Instant::now();
        let (stats, result, recoveries, fault) =
            drive_device_recovering(&mut dev, &flows, 256, &mut sink, RecoveryPolicy::default());
        assert!(result.is_ok() && fault.is_none() && recoveries.is_empty());
        assert_eq!(stats.packets, packets);
        start.elapsed().as_secs_f64()
    });
    let overhead_pct = (recovering_secs / guarded_secs - 1.0) * 100.0;
    println!(
        "{packets} pkts best-of-{OVERHEAD_REPS}: raw {:.3}ms, guarded {:.3}ms, recovering {:.3}ms \
         -> {overhead_pct:+.2}% checkpoint overhead",
        raw_secs * 1e3,
        guarded_secs * 1e3,
        recovering_secs * 1e3
    );
    json_rows.push(format!(
        "    {{\"config\": \"checkpoint_overhead\", \"packets\": {packets}, \"raw_ms\": {:.3}, \"guarded_ms\": {:.3}, \"recovering_ms\": {:.3}, \"overhead_pct\": {overhead_pct:.2}}}",
        raw_secs * 1e3,
        guarded_secs * 1e3,
        recovering_secs * 1e3
    ));

    banner("recovery_storm: 16-device storm, three faults, zero quarantines");
    let (clean_digests, clean_faults, clean_recoveries, clean_secs) = run_storm(false);
    assert!(clean_faults.iter().all(Option::is_none));
    assert!(clean_recoveries.iter().all(Vec::is_empty));
    let (storm_digests, storm_faults, storm_recoveries, storm_secs) = run_storm(true);
    let rec_of = |i: usize| &storm_recoveries[i][0];
    let latency = |i: usize| {
        let r = rec_of(i);
        r.recovered_at_cycle.saturating_sub(r.checkpoint_cycle)
    };
    println!(
        "armed run: {storm_secs:.3}s (clean {clean_secs:.3}s); device-{PANIC_DEVICE} [{}] \
         rejoined in {} virtual cycles, device-{STALL_DEVICE} [{}] in {}, \
         device-{PUB_DEVICE} [{}] converged in-place",
        rec_of(PANIC_DEVICE).fault,
        latency(PANIC_DEVICE),
        rec_of(STALL_DEVICE).fault,
        latency(STALL_DEVICE),
        rec_of(PUB_DEVICE).fault,
    );
    json_rows.push(format!(
        "    {{\"config\": \"recovery_storm\", \"devices\": {STORM_DEVICES}, \"frames\": {STORM_FRAMES}, \"recoveries\": {}, \"permanent_faults\": {}, \"panic_latency_cycles\": {}, \"stall_latency_cycles\": {}, \"run_ms\": {:.3}, \"clean_run_ms\": {:.3}}}",
        storm_recoveries.iter().map(Vec::len).sum::<usize>(),
        storm_faults.iter().filter(|f| f.is_some()).count(),
        latency(PANIC_DEVICE),
        latency(STALL_DEVICE),
        storm_secs * 1e3,
        clean_secs * 1e3
    ));

    banner("recovery_storm: publication-retry convergence");
    let mut retry_rows = Vec::new();
    for fail_first in 1..=3u32 {
        let mut twin = router();
        let mut dev = router();
        dev.arm_fault(FaultSpec::TransientPublication { fail_first });
        let clock_before = dev.now();
        for k in 0..4u8 {
            let args = vec![0xDD, u128::from(k % 4)];
            twin.install_lpm(
                "ipv4_lpm",
                0x1500_0000 + (u128::from(k) << 16),
                16,
                "ipv4_forward",
                args.clone(),
            )
            .expect("twin install");
            dev.install_lpm(
                "ipv4_lpm",
                0x1500_0000 + (u128::from(k) << 16),
                16,
                "ipv4_forward",
                args,
            )
            .expect("retry must converge");
        }
        let backoff = dev.now() - clock_before;
        let epoch = dev.control_plane().epoch("ipv4_lpm").expect("table exists");
        let twin_epoch = twin
            .control_plane()
            .epoch("ipv4_lpm")
            .expect("table exists");
        assert_eq!(
            epoch, twin_epoch,
            "retried publications must reconcile to the unfaulted epoch"
        );
        assert_eq!(dev.retried_publications(), 1, "one publication retried");
        assert_eq!(dev.last_retried_epoch(), Some(epoch - 3));
        println!(
            "fail_first={fail_first}: converged on attempt {}, {backoff} backoff cycles, epoch {epoch} == twin",
            fail_first + 1
        );
        retry_rows.push(format!(
            "{{\"fail_first\": {fail_first}, \"attempts\": {}, \"backoff_cycles\": {backoff}, \"epoch\": {epoch}, \"converged\": true}}",
            fail_first + 1
        ));
    }
    json_rows.push(format!(
        "    {{\"config\": \"publication_retry\", \"sweep\": [{}]}}",
        retry_rows.join(", ")
    ));

    let json = format!(
        "{{\n  \"experiment\": \"recovery_storm\",\n  \"meta\": {},\n  \"overhead_gate_pct\": {OVERHEAD_GATE_PCT},\n  \"results\": [\n{}\n  ]\n}}\n",
        netdebug_bench::meta_json(packets as usize),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // ---- Smoke assertions (run in CI) ----
    // 1. Checkpointing must stay cheap on fault-free traffic.
    assert!(
        overhead_pct <= OVERHEAD_GATE_PCT,
        "checkpoint overhead {overhead_pct:.2}% exceeds the {OVERHEAD_GATE_PCT}% gate \
         ({recovering_secs:.4}s vs {guarded_secs:.4}s)"
    );
    // 2. Zero permanent quarantines: all 16 members finish the run.
    assert_eq!(
        storm_faults.iter().filter(|f| f.is_some()).count(),
        0,
        "no member may be permanently quarantined: {storm_faults:?}"
    );
    // 3. Exactly three recoveries, each naming its fault and culprit.
    assert_eq!(
        storm_recoveries.iter().map(Vec::len).sum::<usize>(),
        3,
        "exactly the three armed members recover"
    );
    assert_eq!(rec_of(PANIC_DEVICE).fault, "panic-after-n");
    assert_eq!(rec_of(PANIC_DEVICE).culprit.as_ref().unwrap().seq, PANIC_AT);
    assert_eq!(rec_of(STALL_DEVICE).fault, "stall");
    assert_eq!(rec_of(STALL_DEVICE).stage, "watchdog");
    assert_eq!(rec_of(STALL_DEVICE).culprit.as_ref().unwrap().seq, STALL_AT);
    assert_eq!(rec_of(PUB_DEVICE).fault, "transient-publication");
    assert!(rec_of(PUB_DEVICE).culprit.is_none());
    // 4. Recovery is bounded: at most one checkpoint interval replayed,
    //    and the rejoin happened at a real virtual instant.
    for i in [PANIC_DEVICE, STALL_DEVICE] {
        assert!(
            rec_of(i).frames_replayed <= RecoveryPolicy::default().checkpoint_interval,
            "device {i} replayed {} frames",
            rec_of(i).frames_replayed
        );
        assert!(latency(i) > 0, "device {i} rejoin must advance the clock");
    }
    // 5. Every member — recovered ones included — delivered every frame.
    // 6. The 13 untouched members are digest-identical to the clean run.
    for i in 0..STORM_DEVICES {
        if ![PANIC_DEVICE, STALL_DEVICE, PUB_DEVICE].contains(&i) {
            assert_eq!(
                storm_digests[i], clean_digests[i],
                "healthy device {i} perturbed by recovering peers"
            );
        }
    }
}
