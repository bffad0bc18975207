//! What the two fleet workloads share: a `DifferentialFleet` whose
//! members are reset to their preloaded state before every job, the
//! timed `run_churn` call, its checks and its traced probes.

use crate::layers::{self, Counts, Stream};
use crate::trace::Tracer;
use crate::util::Rule;
use crate::JobResult;
use netdebug::{
    ChurnSchedule, DifferentialFleet, FleetReport, FleetRuntime, FlowRun, Generator,
    RecoveryPolicy, StreamSpec,
};
use netdebug_dataplane::Dataplane;
use netdebug_hw::{Device, FaultSpec};
use std::sync::Arc;
use std::time::Instant;

/// A recovery a job must report: member, fault id and, for faults keyed
/// on a frame, the culprit's sequence number.
pub type WantRecovery = (String, &'static str, Option<u64>);

/// One fleet job.
#[derive(Clone)]
pub struct FleetJob {
    /// The stimulus every member receives.
    pub spec: StreamSpec,
    /// Frames per churn window.
    pub window: u64,
    /// Rules published before window `w`, as `(w, rule)`.
    pub churn: Vec<(u64, Rule)>,
    /// Faults armed on member `i` before the job, as `(i, fault)`.
    pub faults: Vec<(usize, FaultSpec)>,
    /// Divergences the job must report, all on `diverging`.
    pub divergences: usize,
    /// The one member allowed to diverge.
    pub diverging: &'static str,
    /// Recoveries the job must report, ordered by member.
    pub recoveries: Vec<WantRecovery>,
}

impl FleetJob {
    fn schedule(&self) -> ChurnSchedule {
        self.churn.iter().fold(ChurnSchedule::new(), |s, (w, r)| {
            s.before_window(*w, r.churn_op())
        })
    }
}

/// A fleet and the preloaded state its members start every job from.
pub struct FleetBench {
    labels: Vec<String>,
    templates: Vec<Device>,
    /// Rules every member was preloaded with.
    rules: Vec<Rule>,
    fleet: DifferentialFleet,
    runtime: FleetRuntime,
    dataplane: Option<Dataplane>,
    /// (epoch, entries) of the table every member was preloaded into.
    base: (u64, usize),
    table: &'static str,
}

impl FleetBench {
    /// A fleet over `members`, driven by one runtime worker, with
    /// `recovery` on or off.
    pub fn new(
        members: Vec<(String, Device)>,
        rules: Vec<Rule>,
        table: &'static str,
        recovery: Option<RecoveryPolicy>,
    ) -> Self {
        let mut fleet = DifferentialFleet::new();
        fleet.set_runtime_workers(1);
        fleet.set_recovery(recovery);
        let mut runtime = FleetRuntime::new(1);
        runtime.set_recovery(recovery);
        let cp = members[0].1.control_plane();
        let base = (
            cp.epoch(table).expect("table exists"),
            cp.occupancy(table).expect("table exists").0,
        );
        let mut labels = Vec::new();
        let mut templates = Vec::new();
        for (label, device) in members {
            fleet.add(label.clone(), device.clone());
            labels.push(label);
            templates.push(device);
        }
        FleetBench {
            labels,
            templates,
            rules,
            fleet,
            runtime,
            dataplane: None,
            base,
            table,
        }
    }

    /// Number of members.
    pub fn members(&self) -> u64 {
        self.templates.len() as u64
    }

    fn armed(&self, job: &FleetJob) -> Vec<Device> {
        let mut devices = self.templates.clone();
        for &(i, f) in &job.faults {
            devices[i].arm_fault(f);
        }
        devices
    }

    /// Reset the members to their preloaded state, arm the job's faults
    /// and time one `run_churn` call.
    pub fn run_churn(&mut self, job: &FleetJob) -> (FleetReport, f64) {
        for (label, device) in self.labels.iter().zip(self.armed(job)) {
            *self.fleet.device_mut(label).expect("member") = device;
        }
        let schedule = job.schedule();
        let start = Instant::now();
        let report = self
            .fleet
            .run_churn(&job.spec, &schedule, job.window)
            .expect("churn schedule fits the stream");
        (report, start.elapsed().as_secs_f64())
    }

    /// Run one job and check its report.
    pub fn run(&mut self, job: &FleetJob) -> JobResult {
        let (report, secs) = self.run_churn(job);
        JobResult {
            secs,
            frames: job.spec.count * self.members(),
            check: self.check(job, &report),
        }
    }

    /// Check a report against what the job was built to produce, and each
    /// member's table against preload plus publications.
    pub fn check(&mut self, job: &FleetJob, report: &FleetReport) -> Result<(), String> {
        if !report.faults.is_empty() {
            return Err(format!("{} permanent faults", report.faults.len()));
        }
        if report.divergences.len() != job.divergences
            || report.divergences.iter().any(|d| d.member != job.diverging)
        {
            return Err(format!(
                "{} divergences on {:?}, expected {} on {}",
                report.divergences.len(),
                report.diverging_members(),
                job.divergences,
                job.diverging
            ));
        }
        if report.packets as u64 != job.spec.count {
            return Err(format!(
                "{} packets diffed of {}",
                report.packets, job.spec.count
            ));
        }
        let mut got: Vec<WantRecovery> = report
            .recoveries
            .iter()
            .map(|r| {
                let fault = job
                    .recoveries
                    .iter()
                    .map(|w| w.1)
                    .find(|f| *f == r.fault)
                    .unwrap_or("unexpected");
                (r.member.clone(), fault, r.culprit.as_ref().map(|c| c.seq))
            })
            .collect();
        got.sort();
        if got != job.recoveries {
            return Err(format!("recoveries {got:?}, armed {:?}", job.recoveries));
        }
        let want = (
            self.base.0 + job.churn.len() as u64,
            self.base.1 + job.churn.len(),
        );
        for label in &self.labels {
            let cp = self
                .fleet
                .device_mut(label)
                .expect("member")
                .control_plane();
            let got = (
                cp.epoch(self.table).expect("table exists"),
                cp.occupancy(self.table).expect("table exists").0,
            );
            if got != want {
                return Err(format!(
                    "{label}: table (epoch, entries) {got:?}, expected {want:?}"
                ));
            }
        }
        Ok(())
    }

    /// The job under the tracer, then each layer's calls on its inputs.
    pub fn trace(&mut self, job: &FleetJob, tr: &mut Tracer, c: &mut Counts) -> JobResult {
        let member_frames = job.spec.count * self.members();
        let (report, secs) = tr.span("fleet.run_churn", member_frames, |_| self.run_churn(job));
        let check = self.check(job, &report);
        c.absorb(&self.fleet.runtime_stats());
        c.divergences += report.divergences.len() as u64;
        c.recoveries += report.recoveries.len() as u64;
        c.frames_replayed += report
            .recoveries
            .iter()
            .map(|r| r.frames_replayed)
            .sum::<u64>();
        c.publications += job.churn.len() as u64 * self.members();

        let gap = Generator::gap_cycles(&job.spec, self.templates[0].config().core_clock_hz);
        let frames = layers::generate(tr, &job.spec, job.window, gap);
        let triggers: Vec<_> = job
            .churn
            .iter()
            .map(|(w, r)| (w * job.window, r.churn_op()))
            .collect();
        let flow = FlowRun {
            id: u32::from(job.spec.stream),
            as_port: job.spec.as_port,
            frames: Arc::new(frames),
            origin: 0,
            gap,
            triggers,
        };
        let devices = self.armed(job);
        let mut scratch = Counts::default();
        layers::fleet_runtime(tr, &mut self.runtime, devices, &flow, &mut scratch);

        // The remaining probes run on an unarmed member.
        let clean = (0..self.templates.len())
            .find(|i| job.faults.iter().all(|(f, _)| f != i))
            .expect("an unarmed member");
        let stream = Stream {
            id: job.spec.stream,
            port: job.spec.as_port,
            frames: &flow.frames,
            gap,
            window: job.window,
            churn: &job.churn,
            expect: job.spec.expect,
        };
        let mut device = self.templates[clean].clone();
        layers::device_and_checker(tr, &mut device, &stream);
        let rules = &self.rules;
        let dp = self
            .dataplane
            .get_or_insert_with(|| layers::twin_dataplane(&self.templates[clean], rules));
        layers::dataplane(tr, &mut dp.clone(), &stream);
        layers::checkpoint_restore(tr, &mut device);
        JobResult {
            secs,
            frames: member_frames,
            check,
        }
    }
}
