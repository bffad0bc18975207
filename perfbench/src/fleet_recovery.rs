//! `fleet_recovery`: `DifferentialFleet::run_churn` jobs over sixteen
//! reference `ipv4_forward` devices with checkpoint/restore recovery on.
//!
//! Traffic is paced (5 Mpps, 40 cycles apart), so one frame falls due
//! per virtual instant, and a sparse churn schedule publishes two
//! routes. Each job arms three members: one panics on a
//! frame (`PanicAfterN`), one stalls silently on a frame (`Stall`), and
//! one loses its first two publication attempts
//! (`TransientPublication`). Every fault must be recovered, with the
//! culprit the benchmark armed, and no member may diverge.

use crate::fleet::{FleetBench, FleetJob, WantRecovery};
use crate::layers::{self, Counts, SetupTimes};
use crate::model::{self, Ipv4Model, PORTS};
use crate::sessions::flip;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::{JobResult, Workload};
use netdebug::{Expectation, FieldSweep, RecoveryPolicy, StreamSpec};
use netdebug_hw::{Backend, FaultSpec};
use netdebug_p4::corpus;

const DEVICES: usize = 16;
const ROUTES: usize = 64;
const WINDOW: u64 = 256;
const RATE_PPS: f64 = 5e6;
/// Frames of the round's jobs.
const ROUND: [u64; 5] = [768, 1024, 1280, 1536, 2048];

/// The workload.
pub struct FleetRecovery {
    bench: FleetBench,
    jobs: Vec<FleetJob>,
}

fn label(i: usize) -> String {
    format!("dev-{i:02}")
}

impl FleetRecovery {
    /// Deploy and preload the sixteen devices and build the round's jobs.
    pub fn setup(seed: u64) -> (Self, SetupTimes) {
        let mut t = SetupTimes::default();
        let mut rng = Rng::new(seed, 3);
        let (routes, rules) = Ipv4Model::random(&mut rng, ROUTES - 1);
        let backends = vec![Backend::reference(); DEVICES];
        let devices = layers::deploy(corpus::IPV4_FORWARD, &backends, &rules, &mut t);
        let members = devices
            .into_iter()
            .enumerate()
            .map(|(i, d)| (label(i), d))
            .collect();
        let bench = FleetBench::new(members, rules, "ipv4_lpm", Some(RecoveryPolicy::default()));

        let jobs = ROUND
            .iter()
            .enumerate()
            .map(|(j, &count)| {
                let mut rng = Rng::new(seed, 300 + j as u64);
                let spec = StreamSpec {
                    stream: 1,
                    template: model::udp_frame(
                        2,
                        0x0A00_0001,
                        0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF),
                        4000,
                        4001,
                    ),
                    count,
                    rate_pps: Some(RATE_PPS),
                    as_port: rng.below(u64::from(PORTS)) as u16,
                    sweeps: vec![FieldSweep {
                        offset: model::off::DST + 3,
                        step: (rng.next() as u8) | 1,
                    }],
                    expect: Expectation::Forward { port: None },
                };
                let mut held = routes.clone();
                let churn = [1, 2]
                    .iter()
                    .map(|&w| (w, held.add_fresh(&mut rng)))
                    .collect();
                // The reference member (dev-00) is never armed: a culprit
                // it skips shows up as a divergence on every other member
                // (see CHANGES.md). Fault frames sit mid-way between two
                // checkpoints, so every seed replays the same number.
                let mut armed: Vec<usize> = Vec::new();
                while armed.len() < 3 {
                    let d = rng.range(1, DEVICES as u64) as usize;
                    if !armed.contains(&d) {
                        armed.push(d);
                    }
                }
                let interval = RecoveryPolicy::default().checkpoint_interval;
                let slots = count / interval;
                let panic_at = rng.range(slots / 8, slots / 2) * interval + interval / 2;
                let stall_at = rng.range(slots / 2, slots * 7 / 8) * interval + interval / 2;
                let mut recoveries: Vec<WantRecovery> = vec![
                    (label(armed[0]), "panic-after-n", Some(panic_at)),
                    (label(armed[1]), "stall", Some(stall_at)),
                    (label(armed[2]), "transient-publication", None),
                ];
                recoveries.sort();
                FleetJob {
                    spec,
                    window: WINDOW,
                    churn,
                    faults: vec![
                        (armed[0], FaultSpec::PanicAfterN { n: panic_at }),
                        (armed[1], FaultSpec::Stall { after: stall_at }),
                        (armed[2], FaultSpec::TransientPublication { fail_first: 2 }),
                    ],
                    divergences: 0,
                    diverging: "",
                    recoveries,
                }
            })
            .collect();
        (FleetRecovery { bench, jobs }, t)
    }
}

impl Workload for FleetRecovery {
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

/// Checks that must fail: a job checked against a panic culprit one
/// frame later than armed, and against one recovery fewer.
pub fn self_test(seed: u64) -> Vec<(&'static str, Result<(), String>)> {
    let (mut w, _) = FleetRecovery::setup(seed);
    let job = w.jobs[0].clone();
    let (report, _) = w.bench.run_churn(&job);
    let mut late = job.clone();
    for r in &mut late.recoveries {
        if let Some(seq) = r.2.as_mut() {
            *seq += 1;
        }
    }
    let mut fewer = job.clone();
    fewer.recoveries.pop();
    vec![
        (
            "fleet_recovery: job passes its own check",
            w.bench.check(&job, &report),
        ),
        (
            "fleet_recovery: culprit one frame late",
            flip(w.bench.check(&late, &report)),
        ),
        (
            "fleet_recovery: one recovery fewer expected",
            flip(w.bench.check(&fewer, &report)),
        ),
    ]
}
