//! `sessions`: back-to-back `NetDebug::run_session` jobs, the paper's
//! generator → device → checker loop.
//!
//! Five deployments: `ipv4_forward` on the reference and SDNet 2018
//! backends, `l2_switch` on both, and `acl_firewall` on the reference
//! (the SDNet 2018 limits refuse its ternary table). A round is fifteen
//! jobs of fixed shape; the seed draws every address, rule, port and
//! sweep step.

use crate::layers::{self, Counts, SetupTimes, Stream};
use crate::model::{self, AclModel, Fate, Ipv4Model, L2Model, PORTS};
use crate::trace::Tracer;
use crate::util::{Rng, Rule};
use crate::{JobResult, Workload};
use netdebug::{
    DifferentialFleet, Expectation, FieldSweep, FleetRuntime, FlowRun, NetDebug, SessionReport,
    StreamSpec, Violation,
};
use netdebug_dataplane::{Dataplane, Engine};
use netdebug_hw::{Backend, Device};
use netdebug_p4::corpus;
use std::sync::Arc;
use std::time::Instant;

/// The program-level model a deployment is checked against.
enum Model {
    Ipv4(Ipv4Model),
    L2(L2Model, Vec<u64>),
    Acl(AclModel),
}

impl Model {
    fn fate(&self, f: &[u8], reject_ignored: bool) -> Fate {
        match self {
            Model::Ipv4(m) => m.fate(f, reject_ignored),
            Model::L2(m, _) => m.fate(f),
            Model::Acl(m) => m.fate(f),
        }
    }
}

/// One deployment.
struct Config {
    device: Device,
    /// Index of the model (one per program).
    model: usize,
    /// Index of the reference-backend deployment of the same program.
    twin: usize,
    /// The SDNet 2018 parser ignores `reject`.
    reject_ignored: bool,
    rules: Vec<Rule>,
    /// A rule not preloaded, for timing one more install.
    probe_rule: Rule,
}

/// What a stream is made of.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// One flow the rules forward to a known port.
    Known,
    /// A template swept over 256 flows.
    Swept,
    /// One flow no rule forwards: dropped (IPv4, ACL) or flooded (L2).
    Miss,
    /// One malformed IPv4 flow the parser must reject.
    Malformed,
}

use Kind::*;

/// The fixed job shapes of one round: deployment and streams.
const ROUND: [(usize, &[(Kind, u64)]); 15] = [
    (1, &[(Known, 512), (Malformed, 256), (Miss, 256)]),
    (2, &[(Known, 512), (Miss, 512)]),
    (4, &[(Known, 768), (Miss, 512), (Swept, 256)]),
    (0, &[(Known, 1024), (Swept, 512), (Malformed, 512)]),
    (3, &[(Known, 1024), (Swept, 1024), (Miss, 512)]),
    (1, &[(Known, 2048), (Malformed, 1024)]),
    (4, &[(Known, 2048), (Swept, 1024), (Miss, 1024)]),
    (0, &[(Known, 4096), (Miss, 512)]),
    (2, &[(Known, 4096), (Swept, 2048)]),
    (1, &[(Known, 4096), (Swept, 2048), (Malformed, 2048)]),
    (4, &[(Known, 8192), (Miss, 1024)]),
    (0, &[(Known, 8192), (Swept, 4096), (Malformed, 1024)]),
    (3, &[(Known, 16384)]),
    (1, &[(Known, 16384), (Malformed, 4096)]),
    (0, &[(Known, 24576), (Swept, 2048), (Miss, 1024)]),
];

/// Every checker violation reduced to (kind, stream, seq, port).
type VKey = (u8, u16, u64, u16);

fn vkey(v: &Violation) -> VKey {
    match *v {
        Violation::ForwardedButExpectedDrop { stream, seq, port } => (0, stream, seq, port),
        Violation::DroppedButExpectedForward { stream, seq, .. } => (1, stream, seq, 0),
        Violation::WrongPort {
            stream, seq, got, ..
        } => (2, stream, seq, got),
        Violation::Corrupted { stream, seq } => (3, stream, seq, 0),
        Violation::Unrecognised { port } => (4, 0, 0, port),
    }
}

/// What a job must report, derived from the models.
#[derive(Debug, Clone, Default)]
pub struct Want {
    /// (stream, received, dropped) per stream.
    streams: Vec<(u16, u64, u64)>,
    violations: Vec<VKey>,
    /// Frames sent out of each front-panel port.
    tx: Vec<u64>,
}

struct Job {
    config: usize,
    specs: Vec<StreamSpec>,
    want: Want,
    frames: u64,
    /// Replay the job under the tree-walking engine as well.
    replay: bool,
}

/// Per-deployment state the traced run uses.
struct Probe {
    dataplane: Dataplane,
    fleet: DifferentialFleet,
}

/// The workload.
pub struct Sessions {
    configs: Vec<Config>,
    models: Vec<Model>,
    jobs: Vec<Job>,
    probes: Vec<Probe>,
    runtime: FleetRuntime,
}

impl Sessions {
    /// Deploy and preload every device and build the round's jobs.
    pub fn setup(seed: u64) -> (Self, SetupTimes) {
        let mut t = SetupTimes::default();
        let mut rng = Rng::new(seed, 1);
        let (ipv4, ipv4_rules) = Ipv4Model::random(&mut rng, 64);
        let (l2, l2_rules) = L2Model::random(&mut rng, 48);
        let (acl, acl_rules) = AclModel::random(&mut rng, 24);

        let mut probe_rules = vec![ipv4.clone().add_fresh(&mut rng), l2_rules[0].clone()];
        probe_rules[1].patterns = vec![netdebug_p4::ir::IrPattern::Value(0x0400_0000_0001)];
        let mut acl_probe = acl_rules[0].clone();
        acl_probe.priority = 1000;
        probe_rules.push(acl_probe);

        let both = [Backend::reference(), Backend::sdnet_2018()];
        let mut configs = Vec::new();
        let deployments: [(&str, &[Backend], &Vec<Rule>); 3] = [
            (corpus::IPV4_FORWARD, &both, &ipv4_rules),
            (corpus::L2_SWITCH, &both, &l2_rules),
            (corpus::ACL_FIREWALL, &both[..1], &acl_rules),
        ];
        for (m, (src, backends, rules)) in deployments.into_iter().enumerate() {
            let twin = configs.len();
            for (device, backend) in layers::deploy(src, backends, rules, &mut t)
                .into_iter()
                .zip(backends)
            {
                configs.push(Config {
                    device,
                    model: m,
                    twin,
                    reject_ignored: backend.name() == "sdnet-2018",
                    rules: rules.clone(),
                    probe_rule: probe_rules[m].clone(),
                });
            }
        }
        let mut macs: Vec<u64> = l2.macs.keys().copied().collect();
        macs.sort_unstable();
        let models = vec![Model::Ipv4(ipv4), Model::L2(l2, macs), Model::Acl(acl)];

        let mut s = Sessions {
            configs,
            models,
            jobs: Vec::new(),
            probes: Vec::new(),
            runtime: FleetRuntime::new(1),
        };
        for (j, (config, shape)) in ROUND.iter().enumerate() {
            let mut rng = Rng::new(seed, 100 + j as u64);
            let specs: Vec<StreamSpec> = shape
                .iter()
                .enumerate()
                .map(|(k, &(kind, count))| s.stream(*config, k as u16 + 1, kind, count, &mut rng))
                .collect();
            let want = s.want(*config, &specs);
            s.jobs.push(Job {
                config: *config,
                frames: specs.iter().map(|x| x.count).sum(),
                specs,
                want,
                replay: j == 0,
            });
        }
        (s, t)
    }

    /// Draw one stream of `kind` for deployment `config`.
    fn stream(&self, config: usize, id: u16, kind: Kind, count: u64, rng: &mut Rng) -> StreamSpec {
        let c = &self.configs[config];
        let model = &self.models[c.model];
        let ten = |rng: &mut Rng| 0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF);
        let odd = |rng: &mut Rng| (rng.next() as u8) | 1;
        let mut sweeps = Vec::new();
        let template = match (model, kind) {
            (Model::Ipv4(_), Known) => model::udp_frame(2, 0x0A00_0001, ten(rng), 4000, 4001),
            (Model::Ipv4(_), Swept) => {
                sweeps.push(FieldSweep {
                    offset: model::off::DST + 3,
                    step: odd(rng),
                });
                sweeps.push(FieldSweep {
                    offset: model::off::DST + 2,
                    step: rng.next() as u8,
                });
                model::udp_frame(2, 0x0A00_0001, ten(rng), 4000, 4001)
            }
            (Model::Ipv4(_), Miss) => model::udp_frame(
                2,
                0x0A00_0001,
                0xC0A8_0000 | (rng.next() as u32 & 0xFFFF),
                4000,
                4001,
            ),
            (Model::Ipv4(_), Malformed) => {
                let mut f = model::udp_frame(2, 0x0A00_0001, ten(rng), 4000, 4001);
                model::malform(&mut f);
                f
            }
            (Model::L2(_, macs), Known | Swept) => {
                if matches!(kind, Swept) {
                    sweeps.push(FieldSweep {
                        offset: 5,
                        step: odd(rng),
                    });
                }
                let dst = macs[rng.below(macs.len() as u64) as usize];
                model::udp_frame(dst, 0x0A00_0001, ten(rng), 4000, 4001)
            }
            (Model::L2(..), _) => model::udp_frame(
                0x0600_0000_0000 | rng.next() & 0xFFFF,
                0x0A00_0001,
                ten(rng),
                1,
                2,
            ),
            (Model::Acl(m), Known | Swept) => {
                if matches!(kind, Swept) {
                    sweeps.push(FieldSweep {
                        offset: model::off::DPORT + 1,
                        step: odd(rng),
                    });
                }
                loop {
                    let i = rng.below(m.rules.len() as u64) as usize;
                    let (src, dst, dport) = m.tuple_in(i, rng);
                    let f = model::udp_frame(2, src, dst, 5000, dport);
                    if matches!(m.fate(&f), Fate::Tx(_)) {
                        break f;
                    }
                }
            }
            (Model::Acl(_), _) => model::udp_frame(
                2,
                0x0A00_0001,
                0xAC10_0000 | (rng.next() as u32 & 0xFFFF),
                5000,
                80,
            ),
        };
        let first = model.fate(&model::frame_at(&template, &sweeps, 0), c.reject_ignored);
        let expect = match (kind, first) {
            (Malformed, _) => Expectation::Drop,
            (Swept, _) if matches!(model, Model::Acl(_)) => Expectation::Any,
            (Swept, _) => Expectation::Forward { port: None },
            (_, Fate::Tx(p)) => Expectation::Forward { port: Some(p) },
            (_, Fate::Flood) => Expectation::Forward { port: None },
            (_, Fate::Drop) => Expectation::Drop,
        };
        StreamSpec {
            stream: id,
            template,
            count,
            rate_pps: None,
            as_port: rng.below(u64::from(PORTS)) as u16,
            sweeps,
            expect,
        }
    }

    /// The report and port counters the models predict for `specs` on
    /// deployment `config`.
    fn want(&self, config: usize, specs: &[StreamSpec]) -> Want {
        let c = &self.configs[config];
        let model = &self.models[c.model];
        let mut want = Want {
            tx: vec![0; PORTS as usize],
            ..Want::default()
        };
        for spec in specs {
            // Sweeps add `step * (seq mod 256)`: fates repeat every 256.
            let period = if spec.sweeps.is_empty() { 1 } else { 256 };
            let fates: Vec<Fate> = (0..period.min(spec.count))
                .map(|seq| {
                    model.fate(
                        &model::frame_at(&spec.template, &spec.sweeps, seq),
                        c.reject_ignored,
                    )
                })
                .collect();
            let (mut rx, mut dropped) = (0, 0);
            for seq in 0..spec.count {
                let fate = fates[(seq % period) as usize];
                let out_port = match fate {
                    Fate::Tx(p) => p,
                    _ => u16::MAX,
                };
                match fate {
                    Fate::Drop => dropped += 1,
                    Fate::Tx(p) => {
                        rx += 1;
                        want.tx[p as usize] += 1;
                    }
                    Fate::Flood => {
                        rx += 1;
                        for p in (0..PORTS).filter(|&p| p != spec.as_port) {
                            want.tx[p as usize] += 1;
                        }
                    }
                }
                match (spec.expect, fate) {
                    (Expectation::Drop, Fate::Tx(_) | Fate::Flood) => {
                        want.violations.push((0, spec.stream, seq, out_port));
                    }
                    (Expectation::Forward { .. }, Fate::Drop) => {
                        want.violations.push((1, spec.stream, seq, 0));
                    }
                    (Expectation::Forward { port: Some(w) }, Fate::Tx(p)) if p != w => {
                        want.violations.push((2, spec.stream, seq, p));
                    }
                    _ => {}
                }
            }
            want.streams.push((spec.stream, rx, dropped));
        }
        want
    }

    fn run_job(&self, job: &Job) -> (SessionReport, NetDebug, f64) {
        let mut nd = NetDebug::new(self.configs[job.config].device.clone());
        let start = Instant::now();
        let report = nd.run_session(&job.specs);
        (report, nd, start.elapsed().as_secs_f64())
    }

    fn check_job(&self, job: &Job, report: &SessionReport, nd: &NetDebug) -> Result<(), String> {
        check(report, nd.device(), &job.want)?;
        if job.replay {
            let mut oracle = NetDebug::new(self.configs[job.config].device.clone());
            oracle.set_engine(Engine::Reference);
            if oracle.run_session(&job.specs) != *report {
                return Err("report differs under Engine::Reference".into());
            }
        }
        Ok(())
    }

    fn ensure_probes(&mut self) {
        if !self.probes.is_empty() {
            return;
        }
        for c in &self.configs {
            let mut fleet = DifferentialFleet::new();
            fleet.set_runtime_workers(1);
            fleet.add("reference", self.configs[c.twin].device.clone());
            fleet.add("member", c.device.clone());
            self.probes.push(Probe {
                dataplane: layers::twin_dataplane(&c.device, &c.rules),
                fleet,
            });
        }
    }
}

/// Compare a session's report and port counters with what the models
/// predict.
pub fn check(report: &SessionReport, device: &Device, want: &Want) -> Result<(), String> {
    if report.streams.len() != want.streams.len() {
        return Err(format!(
            "{} streams reported, {} run",
            report.streams.len(),
            want.streams.len()
        ));
    }
    for ((id, s), &(wid, rx, dropped)) in report.streams.iter().zip(&want.streams) {
        if *id != wid || s.received != rx || s.dropped != dropped {
            return Err(format!(
                "stream {id}: received {} dropped {}, model says {rx} and {dropped}",
                s.received, s.dropped
            ));
        }
        if s.sent != s.received + s.dropped || s.lost() != 0 {
            return Err(format!(
                "stream {id}: sent {} != received + dropped",
                s.sent
            ));
        }
        if s.duplicates + s.corrupted + s.reordered != 0 {
            return Err(format!("stream {id}: duplicates, corruption or reordering"));
        }
    }
    let got: Vec<VKey> = report.violations.iter().map(vkey).collect();
    if got != want.violations {
        return Err(format!(
            "{} violations reported, model says {} (first reported {:?}, first expected {:?})",
            got.len(),
            want.violations.len(),
            got.first(),
            want.violations.first()
        ));
    }
    if report.passed != want.violations.is_empty() {
        return Err("pass/fail verdict contradicts the violations".into());
    }
    for (p, &tx) in want.tx.iter().enumerate() {
        let got = device.port_stats(p as u16).tx_packets;
        if got != tx {
            return Err(format!("port {p}: {got} frames sent, model says {tx}"));
        }
    }
    Ok(())
}

impl Workload for Sessions {
    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn run(&mut self, i: usize) -> JobResult {
        let job = &self.jobs[i];
        let (report, nd, secs) = self.run_job(job);
        JobResult {
            secs,
            frames: job.frames,
            check: self.check_job(job, &report, &nd),
        }
    }

    fn trace(&mut self, i: usize, tr: &mut Tracer, c: &mut Counts) -> JobResult {
        self.ensure_probes();
        let job = &self.jobs[i];
        let (report, nd, secs) = tr.span("session.run_session", job.frames, |_| self.run_job(job));
        let check = self.check_job(job, &report, &nd);

        let cfg = &self.configs[job.config];
        let probe = &mut self.probes[job.config];
        let mut device = cfg.device.clone();
        let mut dp = probe.dataplane.clone();
        let mut scratch = Counts::default();
        for spec in &job.specs {
            let frames = layers::generate(tr, spec, NetDebug::STREAM_WINDOW, 0);
            let stream = Stream {
                id: spec.stream,
                port: spec.as_port,
                frames: &frames,
                gap: 0,
                window: NetDebug::STREAM_WINDOW,
                churn: &[],
                expect: spec.expect,
            };
            layers::device_and_checker(tr, &mut device, &stream);
            layers::dataplane(tr, &mut dp, &stream);
            layers::drive_guarded(tr, cfg.device.clone(), &stream, c);

            let twin = &self.configs[cfg.twin].device;
            *probe.fleet.device_mut("reference").expect("member") = twin.clone();
            *probe.fleet.device_mut("member").expect("member") = cfg.device.clone();
            let fleet = &mut probe.fleet;
            let report = tr.span("fleet.run_churn", spec.count * 2, |_| {
                fleet.run_window(spec)
            });
            c.divergences += report.divergences.len() as u64;
            let flow = FlowRun::new(u32::from(spec.stream), spec.as_port, Arc::new(frames));
            let members = vec![twin.clone(), cfg.device.clone()];
            layers::fleet_runtime(tr, &mut self.runtime, members, &flow, &mut scratch);
        }
        let mut fresh = cfg.device.clone();
        tr.span("control.install", 0, |_| cfg.probe_rule.install(&mut fresh))
            .expect("probe rule fits the table");
        layers::checkpoint_restore(tr, &mut device);
        JobResult {
            secs,
            frames: job.frames,
            check,
        }
    }

    fn job_span(&self) -> &'static str {
        "session.run_session"
    }

    fn runtime_span(&self) -> &'static str {
        "runtime.drive_device_guarded"
    }
}

/// Checks that must fail: the paper's case-study job on SDNet 2018,
/// checked against what the reference backend would report, and the
/// same job with one frame fewer expected on its forwarding stream.
pub fn self_test(seed: u64) -> Vec<(&'static str, Result<(), String>)> {
    let (s, _) = Sessions::setup(seed);
    let i = ROUND
        .iter()
        .position(|(c, _)| *c == 1)
        .expect("an SDNet 2018 job");
    let job = &s.jobs[i];
    let (report, nd, _) = s.run_job(job);
    let as_reference = s.want(0, &job.specs);
    let mut short = job.want.clone();
    short.streams[0].1 -= 1;
    vec![
        (
            "sessions: job passes its own check",
            s.check_job(job, &report, &nd),
        ),
        (
            "sessions: SDNet 2018 job against reference expectations",
            flip(check(&report, nd.device(), &as_reference)),
        ),
        (
            "sessions: forwarded count off by one",
            flip(check(&report, nd.device(), &short)),
        ),
    ]
}

/// A check that was meant to fail: `Ok` when it did.
pub fn flip(r: Result<(), String>) -> Result<(), String> {
    match r {
        Ok(()) => Err("check passed on a wrong expectation".into()),
        Err(_) => Ok(()),
    }
}
