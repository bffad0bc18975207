//! `fleet_churn`: `DifferentialFleet::run_churn` jobs on `ipv4_forward`
//! with LPM publications before every window.
//!
//! Four members: reference, SDNet 2018 (the reject bug), SDNet fixed,
//! and the reference with its flow cache off. Every member starts each
//! job from the same 512-route table. Destinations are swept over 256
//! flows and every publication invalidates the flow cache. One job in
//! five sends malformed (IPv4 version 5) frames: the SDNet 2018 member,
//! and only it, must forward each of them where the others drop it.

use crate::fleet::{FleetBench, FleetJob};
use crate::layers::{self, Counts, SetupTimes};
use crate::model::{self, Ipv4Model, PORTS};
use crate::sessions::flip;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::{JobResult, Workload};
use netdebug::{Expectation, FieldSweep, StreamSpec};
use netdebug_hw::Backend;
use netdebug_p4::corpus;

const ROUTES: usize = 512;
const WINDOW: u64 = 256;
const INSTALLS_PER_WINDOW: u64 = 4;
/// (frames, malformed) of the round's jobs.
const ROUND: [(u64, bool); 5] = [
    (2048, false),
    (3072, false),
    (4096, true),
    (6144, false),
    (8192, false),
];

/// The workload.
pub struct FleetChurn {
    bench: FleetBench,
    jobs: Vec<FleetJob>,
}

impl FleetChurn {
    /// Deploy and preload the members and build the round's jobs.
    pub fn setup(seed: u64) -> (Self, SetupTimes) {
        let mut t = SetupTimes::default();
        let mut rng = Rng::new(seed, 2);
        let (routes, rules) = Ipv4Model::random(&mut rng, ROUTES - 1);
        let backends = [
            Backend::reference(),
            Backend::sdnet_2018(),
            Backend::sdnet_fixed(),
            Backend::reference(),
        ];
        let mut devices = layers::deploy(corpus::IPV4_FORWARD, &backends, &rules, &mut t);
        devices[3].set_flow_cache(false);
        let labels = [
            "reference",
            "sdnet-2018",
            "sdnet-fixed",
            "reference-nocache",
        ];
        let members = labels.iter().map(|l| l.to_string()).zip(devices).collect();
        let bench = FleetBench::new(members, rules, "ipv4_lpm", None);

        let jobs = ROUND
            .iter()
            .enumerate()
            .map(|(j, &(count, malformed))| {
                let mut rng = Rng::new(seed, 200 + j as u64);
                let mut template = model::udp_frame(
                    2,
                    0x0A00_0001,
                    0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF),
                    4000,
                    4001,
                );
                if malformed {
                    model::malform(&mut template);
                }
                let spec = StreamSpec {
                    stream: 1,
                    template,
                    count,
                    rate_pps: None,
                    as_port: rng.below(u64::from(PORTS)) as u16,
                    sweeps: vec![
                        FieldSweep {
                            offset: model::off::DST + 3,
                            step: (rng.next() as u8) | 1,
                        },
                        FieldSweep {
                            offset: model::off::DST + 2,
                            step: rng.next() as u8,
                        },
                    ],
                    expect: if malformed {
                        Expectation::Drop
                    } else {
                        Expectation::Forward { port: None }
                    },
                };
                let mut held = routes.clone();
                let mut churn = Vec::new();
                for w in 0..count / WINDOW {
                    for _ in 0..INSTALLS_PER_WINDOW {
                        churn.push((w, held.add_fresh(&mut rng)));
                    }
                }
                FleetJob {
                    // Every destination sits under the 10/8 catch-all, so
                    // SDNet 2018 forwards each malformed frame.
                    divergences: if malformed { count as usize } else { 0 },
                    diverging: "sdnet-2018",
                    spec,
                    window: WINDOW,
                    churn,
                    faults: Vec::new(),
                    recoveries: Vec::new(),
                }
            })
            .collect();
        (FleetChurn { bench, jobs }, t)
    }
}

impl Workload for FleetChurn {
    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn run(&mut self, i: usize) -> JobResult {
        self.bench.run(&self.jobs[i])
    }

    fn trace(&mut self, i: usize, tr: &mut Tracer, c: &mut Counts) -> JobResult {
        self.bench.trace(&self.jobs[i], tr, c)
    }

    fn job_span(&self) -> &'static str {
        "fleet.run_churn"
    }

    fn runtime_span(&self) -> &'static str {
        "runtime.fleet_run"
    }
}

/// Checks that must fail: the malformed job checked as if it were
/// clean, and as if it had made one publication fewer.
pub fn self_test(seed: u64) -> Vec<(&'static str, Result<(), String>)> {
    let (mut w, _) = FleetChurn::setup(seed);
    let i = ROUND.iter().position(|r| r.1).expect("a malformed job");
    let job = w.jobs[i].clone();
    let (report, _) = w.bench.run_churn(&job);
    let clean = FleetJob {
        divergences: 0,
        ..job.clone()
    };
    let fewer = FleetJob {
        churn: job.churn[1..].to_vec(),
        ..job.clone()
    };
    vec![
        (
            "fleet_churn: job passes its own check",
            w.bench.check(&job, &report),
        ),
        (
            "fleet_churn: malformed job expected clean",
            flip(w.bench.check(&clean, &report)),
        ),
        (
            "fleet_churn: one publication fewer expected",
            flip(w.bench.check(&fewer, &report)),
        ),
    ]
}
