//! fault_storm — cost and precision of crash-class fault tolerance.
//!
//! Three experiments around `netdebug::runtime`'s guarded drivers and
//! `DifferentialFleet::bisect_churn`:
//!
//! 1. **Fault-free overhead** — the guarded driver
//!    (`drive_device_guarded`, what `FleetRuntime::run` uses) versus the
//!    raw event loop (`drive_device`) on an identical unarmed workload,
//!    best-of-N. Gate: ≤ 5% overhead — paying for crash isolation only
//!    when a crash actually happens is the design's core promise.
//! 2. **Time-to-culprit** — a 16-device fleet where one member is armed
//!    with `PanicAfterN{2048}` under 4096-frame streams: the run must
//!    quarantine exactly that member, name frame #2048 as the culprit,
//!    and leave the other 15 devices' digests bit-identical to a
//!    fault-free run. Reported: wall time from dispatch to isolated
//!    culprit.
//! 3. **Churn bisection** — a priority-inverting member that starts
//!    diverging at epoch 17 of a 24-epoch schedule: `bisect_churn` must
//!    find it in ≤ 2 + ceil(log2(24)) fleet runs, against the 25 a
//!    linear scan would burn.
//!
//! Numbers land in `BENCH_fault.json` at the repo root; the gates above
//! run as smoke assertions in CI.

use netdebug::churn::{ChurnOp, ChurnSchedule};
use netdebug::generator::{Expectation, Generator, StreamSpec};
use netdebug::runtime::{drive_device, drive_device_guarded, DeviceSink, DeviceTask, FleetRuntime};
use netdebug::DifferentialFleet;
use netdebug_bench::{banner, fnv, routable_frame, FNV_OFFSET};
use netdebug_hw::{ArchLimits, Backend, BugSpec, Device, FaultSpec, Processed, SdnetProfile};
use netdebug_p4::corpus;
use netdebug_packet::Ipv4Address;
use std::sync::Arc;
use std::time::Instant;

/// Overhead workload: one device, this many back-to-back flows x frames.
const OVERHEAD_FLOWS: usize = 16;
const OVERHEAD_FRAMES: u64 = 512;
const OVERHEAD_REPS: usize = 7;
const OVERHEAD_GATE_PCT: f64 = 5.0;

/// Needle scenario: 16 devices, one armed to die on frame 2048 of 4096.
const STORM_DEVICES: usize = 16;
const STORM_FRAMES: u64 = 4096;
const NEEDLE_AT: u64 = 2048;
const FAULTY_DEVICE: usize = 11;

/// Bisection scenario: 24 churn epochs, divergence starts at epoch 17.
const EPOCHS: u64 = 24;
const BAD_EPOCH: u64 = 17;

fn router() -> Device {
    let mut dev = Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD)
        .expect("deploy ipv4_forward");
    dev.install_lpm("ipv4_lpm", 0x0A00_0000, 8, "ipv4_forward", vec![0xAA, 1])
        .expect("install default route");
    dev
}

fn build_flows(flows: usize, frames: u64) -> Vec<netdebug::runtime::FlowRun> {
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
                frames: Arc::new(generator.build_batch(&spec, 0, frames, 0, 0)),
                origin: 0,
                gap: 0,
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

/// Best-of-N wall time for one full drive of `flows` on a fresh router.
fn best_of<F: FnMut() -> f64>(reps: usize, mut run: F) -> f64 {
    (0..reps).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// One 16-device storm run; `armed` plants the needle fault.
fn run_storm(armed: bool) -> (Vec<u64>, Vec<Option<netdebug::DeviceFault>>, f64) {
    let flows = build_flows(1, STORM_FRAMES);
    let tasks: Vec<DeviceTask<DigestSink>> = (0..STORM_DEVICES)
        .map(|i| {
            let mut dev = router();
            if armed && i == FAULTY_DEVICE {
                dev.arm_fault(FaultSpec::PanicAfterN { n: NEEDLE_AT });
            }
            DeviceTask {
                device: dev,
                flows: flows.clone(),
                sink: DigestSink::new(),
            }
        })
        .collect();
    let mut runtime = FleetRuntime::new(4);
    let start = Instant::now();
    let done = runtime.run(tasks);
    let secs = start.elapsed().as_secs_f64();
    let digests = done.iter().map(|d| d.sink.digest).collect();
    let faults = done.into_iter().map(|d| d.fault).collect();
    (digests, faults, secs)
}

/// The bisection fleet: reference vs priority-inverted, empty tables so
/// behaviour is a pure function of the churn prefix.
fn bisect_fleet() -> DifferentialFleet {
    let inverted = Backend::SdnetSim(SdnetProfile {
        name: "prio-inverted".into(),
        bugs: vec![BugSpec::PriorityInverted],
        limits: ArchLimits::UNLIMITED,
        faults: vec![],
    });
    DifferentialFleet::new()
        .with(
            "reference",
            Device::deploy_source(&Backend::reference(), corpus::IPV4_FORWARD).unwrap(),
        )
        .with(
            "prio-inverted",
            Device::deploy_source(&inverted, corpus::IPV4_FORWARD).unwrap(),
        )
}

/// Windows `0..EPOCHS`: window 0 installs the broad /8, `BAD_EPOCH` the
/// overlapping /16 a priority-inverting member shadows, the rest install
/// routes the traffic never matches.
fn bisect_schedule() -> ChurnSchedule {
    let mut schedule = ChurnSchedule::new();
    for w in 0..EPOCHS {
        let op = if w == 0 {
            ChurnOp::Lpm {
                table: "ipv4_lpm".into(),
                prefix: 0x0A00_0000,
                prefix_len: 8,
                action: "ipv4_forward".into(),
                args: vec![0xAA, 1],
            }
        } else if w == BAD_EPOCH {
            ChurnOp::Lpm {
                table: "ipv4_lpm".into(),
                prefix: 0x0A00_0000,
                prefix_len: 16,
                action: "ipv4_forward".into(),
                args: vec![0xBB, 2],
            }
        } else {
            ChurnOp::Lpm {
                table: "ipv4_lpm".into(),
                prefix: 0x1400_0000 | (u128::from(w) << 16),
                prefix_len: 16,
                action: "ipv4_forward".into(),
                args: vec![0xCC, 3],
            }
        };
        schedule = schedule.before_window(w, op);
    }
    schedule
}

fn main() {
    let mut json_rows: Vec<String> = Vec::new();

    banner("fault_storm: fault-free overhead of the guarded driver");
    let flows = build_flows(OVERHEAD_FLOWS, OVERHEAD_FRAMES);
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
    let overhead_pct = (guarded_secs / raw_secs - 1.0) * 100.0;
    println!(
        "{packets} pkts best-of-{OVERHEAD_REPS}: raw {:.3}ms, guarded {:.3}ms -> {overhead_pct:+.2}% overhead",
        raw_secs * 1e3,
        guarded_secs * 1e3
    );
    json_rows.push(format!(
        "    {{\"config\": \"fault_free_overhead\", \"packets\": {packets}, \"raw_ms\": {:.3}, \"guarded_ms\": {:.3}, \"overhead_pct\": {overhead_pct:.2}}}",
        raw_secs * 1e3,
        guarded_secs * 1e3
    ));

    banner("fault_storm: time-to-culprit in a 16-device storm");
    let (clean_digests, clean_faults, clean_secs) = run_storm(false);
    assert!(clean_faults.iter().all(Option::is_none));
    let (storm_digests, storm_faults, storm_secs) = run_storm(true);
    let fault = storm_faults[FAULTY_DEVICE]
        .as_ref()
        .expect("the armed device must be quarantined");
    let culprit = fault.culprit.as_ref().expect("culprit frame isolated");
    println!(
        "armed run: {storm_secs:.3}s (clean {clean_secs:.3}s); device-{FAULTY_DEVICE} \
         quarantined: [{}@{}] culprit seq {} after {} clean frames",
        fault.fault, fault.stage, culprit.seq, fault.packets_delivered
    );
    json_rows.push(format!(
        "    {{\"config\": \"time_to_culprit\", \"devices\": {STORM_DEVICES}, \"frames\": {STORM_FRAMES}, \"needle_at\": {NEEDLE_AT}, \"run_ms\": {:.3}, \"clean_run_ms\": {:.3}, \"culprit_seq\": {}}}",
        storm_secs * 1e3,
        clean_secs * 1e3,
        culprit.seq
    ));

    banner("fault_storm: churn bisection vs linear scan");
    let mut fleet = bisect_fleet();
    let spec = StreamSpec {
        stream: 9,
        template: routable_frame(Ipv4Address::new(10, 0, 0, 9)),
        count: EPOCHS * 4,
        rate_pps: None,
        as_port: 1,
        sweeps: vec![],
        expect: Expectation::Any,
    };
    let start = Instant::now();
    let bisection = fleet
        .bisect_churn(&spec, &bisect_schedule(), 4)
        .expect("bisection runs");
    let bisect_secs = start.elapsed().as_secs_f64();
    let linear_probes = EPOCHS + 1;
    println!(
        "first failing epoch {:?} in {} probes ({} epochs; linear scan = {linear_probes} runs), {bisect_secs:.3}s",
        bisection.first_epoch, bisection.probes, bisection.epochs_total
    );
    json_rows.push(format!(
        "    {{\"config\": \"bisect_churn\", \"epochs\": {EPOCHS}, \"bad_epoch\": {BAD_EPOCH}, \"probes\": {}, \"linear_probes\": {linear_probes}, \"secs\": {bisect_secs:.3}}}",
        bisection.probes
    ));

    let json = format!(
        "{{\n  \"experiment\": \"fault_storm\",\n  \"meta\": {},\n  \"overhead_gate_pct\": {OVERHEAD_GATE_PCT},\n  \"results\": [\n{}\n  ]\n}}\n",
        netdebug_bench::meta_json(packets as usize),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // ---- Smoke assertions (run in CI) ----
    // 1. Crash isolation must be free until a crash happens.
    assert!(
        overhead_pct <= OVERHEAD_GATE_PCT,
        "guarded driver overhead {overhead_pct:.2}% exceeds the {OVERHEAD_GATE_PCT}% gate \
         ({guarded_secs:.4}s vs {raw_secs:.4}s)"
    );
    // 2. Exactly one member quarantined, with the exact culprit frame.
    assert_eq!(
        storm_faults.iter().filter(|f| f.is_some()).count(),
        1,
        "exactly the armed device is quarantined"
    );
    assert_eq!(fault.fault, "panic-after-n");
    assert_eq!(culprit.seq, NEEDLE_AT, "culprit must be the exact frame");
    assert_eq!(fault.packets_delivered, NEEDLE_AT);
    // 3. The other 15 devices are bit-identical to the fault-free run.
    for i in 0..STORM_DEVICES {
        if i != FAULTY_DEVICE {
            assert_eq!(
                storm_digests[i], clean_digests[i],
                "healthy device {i} perturbed by the faulty peer"
            );
        }
    }
    // 4. Bisection beats the linear scan and lands on the right epoch.
    assert_eq!(bisection.first_epoch, Some(BAD_EPOCH));
    assert!(!bisection.fails_without_churn);
    assert!(
        bisection.probes < linear_probes,
        "bisection ({} probes) must beat the linear scan ({linear_probes})",
        bisection.probes
    );
    assert!(
        bisection.probes <= 2 + (EPOCHS as f64).log2().ceil() as u64,
        "bisection must stay logarithmic: {} probes over {EPOCHS} epochs",
        bisection.probes
    );
}
