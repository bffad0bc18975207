//! Calls into each layer's public functions, one span per call, for the
//! traced run; plus the set-up steps every workload shares.

use crate::trace::Tracer;
use crate::util::Rule;
use netdebug::generator::GeneratedPacket;
use netdebug::runtime::DEFAULT_MAX_BATCH;
use netdebug::{
    drive_device_guarded, Checker, DeviceSink, DeviceTask, Expectation, FleetRuntime, FlowRun,
    Generator, RuntimeStats, StreamSpec,
};
use netdebug_dataplane::Dataplane;
use netdebug_hw::{Backend, Device, Processed};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds spent in each set-up step, summed over the run's devices.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `netdebug_p4::compile`.
    pub p4: f64,
    /// `Backend::compile`, timed on its own.
    pub backend: f64,
    /// `Device::deploy` (which compiles for the backend again).
    pub deploy: f64,
    /// Table preload through `Device::install`.
    pub preload: f64,
}

impl SetupTimes {
    /// What a user waits for before the first job: P4 compile, deploy
    /// (backend compile included) and preload.
    pub fn total(&self) -> f64 {
        self.p4 + self.deploy + self.preload
    }
}

/// Compile `source` once and deploy it on each backend with `rules`
/// preloaded, adding the time of each step to `t`.
pub fn deploy(
    source: &str,
    backends: &[Backend],
    rules: &[Rule],
    t: &mut SetupTimes,
) -> Vec<Device> {
    let start = Instant::now();
    let ir = netdebug_p4::compile(source).expect("corpus program compiles");
    t.p4 += start.elapsed().as_secs_f64();
    backends
        .iter()
        .map(|backend| {
            let start = Instant::now();
            black_box(backend.compile(&ir).expect("backend accepts the program"));
            t.backend += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let mut dev = Device::deploy(backend, &ir).expect("deploy");
            t.deploy += start.elapsed().as_secs_f64();
            let start = Instant::now();
            for r in rules {
                r.install(&mut dev).expect("preload rule fits the table");
            }
            t.preload += start.elapsed().as_secs_f64();
            dev
        })
        .collect()
}

/// A bare data plane holding the same program and entries as `device`
/// was deployed with.
pub fn twin_dataplane(device: &Device, rules: &[Rule]) -> Dataplane {
    let c = device.compiled();
    let mut dp = Dataplane::with_table_capacities(c.program.clone(), &c.capacities);
    for r in rules {
        r.install_dataplane(&mut dp)
            .expect("preload rule fits the table");
    }
    dp
}

/// Counts gathered by the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Virtual instants the event loop dispatched at.
    pub instants: u64,
    /// Coalesced dispatches into devices.
    pub dispatches: u64,
    /// Frames the event loop emitted.
    pub packets: u64,
    /// Timer-wheel cascades.
    pub wheel_cascades: u64,
    /// Flow-cache hits.
    pub cache_hits: u64,
    /// Flow-cache misses.
    pub cache_misses: u64,
    /// Flow-cache invalidations.
    pub cache_invalidations: u64,
    /// Table publications the jobs made.
    pub publications: u64,
    /// Fleet divergences reported.
    pub divergences: u64,
    /// Checkpoint/restore recoveries reported.
    pub recoveries: u64,
    /// Frames replayed by those recoveries.
    pub frames_replayed: u64,
}

impl Counts {
    /// Add an event-loop run's counters.
    pub fn absorb(&mut self, s: &RuntimeStats) {
        self.instants += s.instants;
        self.dispatches += s.dispatches;
        self.packets += s.packets;
        self.wheel_cascades += s.wheel_cascades;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.cache_invalidations += s.cache_invalidations;
    }
}

/// A sink that keeps nothing.
pub struct NoopSink;

impl DeviceSink for NoopSink {
    fn on_packet(&mut self, _flow: u32, _seq: u64, p: Processed) {
        black_box(p);
    }
}

/// The benchmark's own sink into the checker.
pub struct CheckSink<'a> {
    /// Checker fed with every frame.
    pub checker: &'a mut Checker,
    /// Stream the frames belong to.
    pub stream: u16,
}

impl DeviceSink for CheckSink<'_> {
    fn on_packet(&mut self, _flow: u32, seq: u64, p: Processed) {
        self.checker.observe_processed(self.stream, seq, &p);
    }
}

/// Build a stream's frames `window` at a time, one span per call.
pub fn generate(tr: &mut Tracer, spec: &StreamSpec, window: u64, gap: u64) -> Vec<GeneratedPacket> {
    let mut generator = Generator::new();
    let mut frames = Vec::with_capacity(spec.count as usize);
    let mut seq = 0;
    while seq < spec.count {
        let n = window.min(spec.count - seq);
        let batch = tr.span("generator.build_batch", n, |_| {
            generator.build_batch(spec, seq, n, 0, gap)
        });
        frames.extend(batch);
        seq += n;
    }
    frames
}

/// One stream as the device and data-plane probes see it.
pub struct Stream<'a> {
    /// Stream id.
    pub id: u16,
    /// Ingress port.
    pub port: u16,
    /// Generated frames.
    pub frames: &'a [GeneratedPacket],
    /// Inter-frame gap in cycles (0 = back-to-back).
    pub gap: u64,
    /// Frames per window.
    pub window: u64,
    /// Rules published before window `w`, as `(w, rule)`.
    pub churn: &'a [(u64, Rule)],
    /// What the checker expects of the stream.
    pub expect: Expectation,
}

impl Stream<'_> {
    fn windows(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let n = self.frames.len();
        let w = self.window as usize;
        (0..n.div_ceil(w)).map(move |i| (i * w, ((i + 1) * w).min(n), i as u64))
    }
}

/// Inject the stream window by window with `Device::inject_batch_at`,
/// publishing its churn before each window through `Device::install`,
/// and hand every outcome to a checker through [`CheckSink`].
pub fn device_and_checker(tr: &mut Tracer, device: &mut Device, s: &Stream<'_>) {
    let mut checker = Checker::new();
    checker.open_stream(s.id, s.expect, s.frames.len() as u64);
    let origin = device.now();
    for (lo, hi, w) in s.windows() {
        for (_, rule) in s.churn.iter().filter(|(at, _)| *at == w) {
            tr.span("control.install", 0, |_| rule.install(device))
                .expect("churn rule fits the table");
        }
        let pkts: Vec<(u16, &[u8])> = s.frames[lo..hi]
            .iter()
            .map(|p| (s.port, &p.data[..]))
            .collect();
        let due: Vec<u64> = (lo..hi)
            .map(|k| {
                if s.gap == 0 {
                    origin
                } else {
                    origin + s.gap * (k as u64 + 1)
                }
            })
            .collect();
        let mut out = Vec::with_capacity(hi - lo);
        tr.span("device.inject_batch_at", (hi - lo) as u64, |_| {
            device.inject_batch_at(&pkts, &due, |_, p| out.push(p))
        })
        .expect("due list matches the frames");
        tr.span("checker.observe_processed", (hi - lo) as u64, |_| {
            let mut sink = CheckSink {
                checker: &mut checker,
                stream: s.id,
            };
            for (k, p) in out.into_iter().enumerate() {
                sink.on_packet(u32::from(s.id), (lo + k) as u64, p);
            }
        });
    }
    black_box(checker.packets_checked());
}

/// Run the stream's windows through `Dataplane::process_batch` on a
/// data plane with the same entries, publishing churn between windows.
pub fn dataplane(tr: &mut Tracer, dp: &mut Dataplane, s: &Stream<'_>) {
    for (lo, hi, w) in s.windows() {
        for (_, rule) in s.churn.iter().filter(|(at, _)| *at == w) {
            rule.install_dataplane(dp)
                .expect("churn rule fits the table");
        }
        let pkts: Vec<(u16, &[u8])> = s.frames[lo..hi]
            .iter()
            .map(|p| (s.port, &p.data[..]))
            .collect();
        tr.span("dataplane.process_batch", (hi - lo) as u64, |_| {
            black_box(dp.process_batch(&pkts, 0));
        });
    }
}

/// Time `Device::checkpoint` and `Device::restore` on `device`.
pub fn checkpoint_restore(tr: &mut Tracer, device: &mut Device) {
    for _ in 0..4 {
        let ck = tr.span("recovery.checkpoint", 0, |_| device.checkpoint());
        tr.span("recovery.restore", 0, |_| device.restore(&ck));
    }
}

/// Drive one device through `drive_device_guarded` with a no-op sink.
pub fn drive_guarded(tr: &mut Tracer, mut device: Device, s: &Stream<'_>, c: &mut Counts) {
    let flow = FlowRun {
        id: u32::from(s.id),
        as_port: s.port,
        frames: Arc::new(s.frames.to_vec()),
        origin: device.now(),
        gap: s.gap,
        triggers: Vec::new(),
    };
    let (stats, result, fault) = tr.span(
        "runtime.drive_device_guarded",
        s.frames.len() as u64,
        |_| {
            drive_device_guarded(
                &mut device,
                std::slice::from_ref(&flow),
                DEFAULT_MAX_BATCH,
                &mut NoopSink,
            )
        },
    );
    assert!(result.is_ok() && fault.is_none(), "probe device ran clean");
    c.absorb(&stats);
}

/// Run the same tasks a fleet job hands its runtime, with no-op sinks:
/// the fleet's own collection, diff and report are what is left of the
/// `fleet.run_churn` span once this one is taken away. Each device gets
/// `flow` starting at its own clock.
pub fn fleet_runtime(
    tr: &mut Tracer,
    rt: &mut FleetRuntime,
    devices: Vec<Device>,
    flow: &FlowRun,
    c: &mut Counts,
) {
    let member_frames = flow.frames.len() as u64 * devices.len() as u64;
    let tasks: Vec<DeviceTask<NoopSink>> = devices
        .into_iter()
        .map(|device| DeviceTask {
            flows: vec![FlowRun {
                origin: device.now(),
                ..flow.clone()
            }],
            device,
            sink: NoopSink,
        })
        .collect();
    let done = tr.span("runtime.fleet_run", member_frames, |_| rt.run(tasks));
    for d in &done {
        c.absorb(&d.stats);
    }
}
