//! End-to-end and per-layer benchmark of the NetDebug validation loop.
//!
//! ```text
//! perfbench --workload <sessions|fleet_churn|fleet_recovery> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --self-test [--seed <n>]
//! perfbench --figures [--seed <n>]
//! ```
//!
//! Every job is closed-loop: one job runs at a time and the next is
//! submitted when its report returns. A run sets up its devices several
//! times (the median is `setup_s`), runs one warm-up round, then repeats
//! whole rounds of the workload's fixed jobs until `--seconds` have
//! passed. Every job's output is checked against the benchmark's own
//! computation. The last line of standard output is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics (from spans
//! around calls into each layer) with `--trace 1`. See README.md.

mod alloc;
mod figures;
mod fleet;
mod fleet_churn;
mod fleet_recovery;
mod host;
mod layers;
mod model;
mod sessions;
mod trace;
mod util;

use layers::{Counts, SetupTimes};
use std::time::{Duration, Instant};
use trace::Tracer;
use util::quantile;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up is repeated at least `SETUP_REPS.0` times and until
/// `SETUP_SECONDS` have been spent in it, at most `SETUP_REPS.1` times;
/// `setup_s` is the median.
const SETUP_REPS: (usize, usize) = (5, 200);
const SETUP_SECONDS: f64 = 2.0;
/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["sessions", "fleet_churn", "fleet_recovery"];

/// The outcome of one job.
pub struct JobResult {
    /// Seconds from submitting the job to getting its report back.
    pub secs: f64,
    /// Frames whose verdict the job produced (frames × members on fleets).
    pub frames: u64,
    /// The independent check of the job's output.
    pub check: Result<(), String>,
}

/// A workload: a fixed round of jobs built from the seed.
pub trait Workload {
    /// Jobs in one round.
    fn jobs(&self) -> usize;
    /// Run job `i` through the public API, timed, and check it.
    fn run(&mut self, i: usize) -> JobResult;
    /// Run job `i` inside a span, check it, then call each layer on its
    /// inputs, one span per call.
    fn trace(&mut self, i: usize, tr: &mut Tracer, c: &mut Counts) -> JobResult;
    /// Name of the span around the job's own public call.
    fn job_span(&self) -> &'static str;
    /// Name of the span `runtime.ns_per_frame` is taken from.
    fn runtime_span(&self) -> &'static str;
}

fn setup(name: &str, seed: u64) -> (Box<dyn Workload>, SetupTimes) {
    match name {
        "sessions" => {
            let (w, t) = sessions::Sessions::setup(seed);
            (Box::new(w), t)
        }
        "fleet_churn" => {
            let (w, t) = fleet_churn::FleetChurn::setup(seed);
            (Box::new(w), t)
        }
        "fleet_recovery" => {
            let (w, t) = fleet_recovery::FleetRecovery::setup(seed);
            (Box::new(w), t)
        }
        _ => unreachable!("workload names are checked when parsed"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
    figures: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        self_test: false,
        figures: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" || flag == "--figures" {
            args.self_test |= flag == "--self-test";
            args.figures |= flag == "--figures";
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.self_test && !args.figures && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn self_test(seed: u64) -> bool {
    let mut ok = true;
    for (name, r) in sessions::self_test(seed)
        .into_iter()
        .chain(fleet_churn::self_test(seed))
        .chain(fleet_recovery::self_test(seed))
    {
        match r {
            Ok(()) => println!("ok    {name}"),
            Err(e) => {
                ok = false;
                println!("FAIL  {name}: {e}");
            }
        }
    }
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        std::process::exit(if self_test(args.seed) { 0 } else { 1 });
    }
    if args.figures {
        figures::print(args.seed);
        return;
    }

    // Set-up, several times; the last copy runs the jobs. The host
    // kernel after each copy gives that copy its host factor.
    host::kernel();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut workload = None;
    let setup_start = Instant::now();
    while setups.len() < SETUP_REPS.0
        || (setups.len() < SETUP_REPS.1 && setup_start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(workload.take());
        let (w, t) = setup(&args.workload, args.seed);
        let factor = host::kernel() / host::REF_SECONDS;
        setup_s.push(t.total() / factor);
        setups.push(t);
        workload = Some(w);
    }
    let setup_factor =
        median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>()) / median(&setup_s);
    let mut w = workload.expect("at least one set-up");
    let jobs = w.jobs();

    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    if args.trace {
        alloc::set_counting(true);
    }
    let run_job = |w: &mut Box<dyn Workload>, tr: &mut Tracer, c: &mut Counts, i: usize| {
        if args.trace {
            w.trace(i, tr, c)
        } else {
            w.run(i)
        }
    };

    // Warm-up: caches fill, lazy set-up finishes, the first-touch page
    // faults happen; nothing of it is reported.
    for i in 0..jobs {
        if let Err(e) = run_job(&mut w, &mut tr, &mut Counts::default(), i).check {
            eprintln!("warm-up job {i}: {e}");
        }
    }

    // Whole rounds until the time is up, the host kernel before each.
    let first_span = tr.len();
    let mut first_round: Option<(usize, Counts)> = None;
    let mut kernel_secs = Vec::new();
    let mut rounds: Vec<Vec<JobResult>> = Vec::new();
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < deadline {
        kernel_secs.push(host::kernel());
        let base = rounds.len() as u64 * jobs as u64;
        let round: Vec<JobResult> = (0..jobs)
            .map(|i| {
                tr.set_job(base + i as u64);
                run_job(&mut w, &mut tr, &mut counts, i)
            })
            .collect();
        rounds.push(round);
        if first_round.is_none() {
            first_round = Some((tr.len(), counts));
        }
    }
    let (first_end, counts) = first_round.expect("one round ran");
    let factors = host::factors(&kernel_secs);
    let run_factor = median(&factors);

    let (mut attempted, mut failed, mut frames) = (0u64, 0u64, 0u64);
    let (mut busy, mut busy_raw) = (0f64, 0f64);
    let (mut latencies_ms, mut latencies_raw) = (Vec::new(), Vec::new());
    for (r, (round, f)) in rounds.iter().zip(&factors).enumerate() {
        for (i, job) in round.iter().enumerate() {
            attempted += 1;
            frames += job.frames;
            busy += job.secs / f;
            busy_raw += job.secs;
            latencies_ms.push(job.secs * 1e3 / f);
            latencies_raw.push(job.secs * 1e3);
            if let Err(e) = &job.check {
                failed += 1;
                if failed <= 5 {
                    eprintln!("job {i} of round {r}: {e}");
                }
            }
        }
    }

    let metrics = if args.trace {
        // Times use every measured round; counts use the first measured
        // round alone, so they repeat exactly whatever the run's length.
        alloc::set_counting(false);
        let times = tr.totals(first_span..tr.len());
        let allocs = tr.totals(first_span..first_end);
        let t = |name: &str| times.get(name).copied().unwrap_or_default();
        let a = |name: &str| allocs.get(name).copied().unwrap_or_default();
        let per_frame = |x: &trace::Totals| {
            (
                ratio(x.allocs as f64, x.frames as f64),
                ratio(x.bytes as f64, x.frames as f64),
            )
        };
        let (fleet_all, fleet_rt) = (t("fleet.run_churn"), t("runtime.fleet_run"));
        let fleet_ns = ratio(
            fleet_all.self_ns.saturating_sub(fleet_rt.self_ns) as f64,
            fleet_all.frames as f64,
        );
        let (fa, fr) = (a("fleet.run_churn"), a("runtime.fleet_run"));
        let fleet_alloc = trace::Totals {
            allocs: fa.allocs.saturating_sub(fr.allocs),
            bytes: fa.bytes.saturating_sub(fr.bytes),
            frames: fa.frames,
            ..Default::default()
        };
        let (gen_a, gen_b) = per_frame(&a("generator.build_batch"));
        let (chk_a, chk_b) = per_frame(&a("checker.observe_processed"));
        let (dev_a, dev_b) = per_frame(&a("device.inject_batch_at"));
        let (flt_a, flt_b) = per_frame(&fleet_alloc);
        let med = |f: fn(&SetupTimes) -> f64| {
            median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3 / setup_factor
        };
        let job_ms: Vec<f64> = tr
            .durations(w.job_span(), first_span..tr.len())
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect();
        let lookups = (counts.cache_hits + counts.cache_misses) as f64;
        let h = |v: f64| v / run_factor;
        vec![
            metric(
                "generator.ns_per_frame",
                h(t("generator.build_batch").ns_per_frame()),
                "ns",
            ),
            metric(
                "checker.ns_per_frame",
                h(t("checker.observe_processed").ns_per_frame()),
                "ns",
            ),
            metric(
                "device.ns_per_frame",
                h(t("device.inject_batch_at").ns_per_frame()),
                "ns",
            ),
            metric(
                "dataplane.ns_per_frame",
                h(t("dataplane.process_batch").ns_per_frame()),
                "ns",
            ),
            metric(
                "runtime.ns_per_frame",
                h(t(w.runtime_span()).ns_per_frame()),
                "ns",
            ),
            metric("runtime.instants", counts.instants as f64, "count"),
            metric("runtime.dispatches", counts.dispatches as f64, "count"),
            metric(
                "runtime.mean_batch",
                ratio(counts.packets as f64, counts.dispatches as f64),
                "frames",
            ),
            metric(
                "runtime.wheel_cascades",
                counts.wheel_cascades as f64,
                "count",
            ),
            metric("cache.hits", counts.cache_hits as f64, "count"),
            metric("cache.misses", counts.cache_misses as f64, "count"),
            metric(
                "cache.invalidations",
                counts.cache_invalidations as f64,
                "count",
            ),
            metric(
                "cache.hit_ratio",
                ratio(counts.cache_hits as f64, lookups),
                "ratio",
            ),
            metric(
                "control.publish_us",
                h(t("control.install").us_per_call()),
                "us",
            ),
            metric("control.publications", counts.publications as f64, "count"),
            metric("fleet.ns_per_member_frame", h(fleet_ns), "ns"),
            metric("fleet.divergences", counts.divergences as f64, "count"),
            metric(
                "recovery.checkpoint_us",
                h(t("recovery.checkpoint").us_per_call()),
                "us",
            ),
            metric(
                "recovery.restore_us",
                h(t("recovery.restore").us_per_call()),
                "us",
            ),
            metric("recovery.recoveries", counts.recoveries as f64, "count"),
            metric(
                "recovery.frames_replayed",
                counts.frames_replayed as f64,
                "count",
            ),
            metric("p4.compile_ms", med(|s| s.p4), "ms"),
            metric("backend.compile_ms", med(|s| s.backend), "ms"),
            metric("device.deploy_ms", med(|s| s.deploy), "ms"),
            metric("control.preload_ms", med(|s| s.preload), "ms"),
            metric("alloc.generator.per_frame", gen_a, "count"),
            metric("alloc.generator.bytes_per_frame", gen_b, "B"),
            metric("alloc.checker.per_frame", chk_a, "count"),
            metric("alloc.checker.bytes_per_frame", chk_b, "B"),
            metric("alloc.device.per_frame", dev_a, "count"),
            metric("alloc.device.bytes_per_frame", dev_b, "B"),
            metric("alloc.fleet.per_frame", flt_a, "count"),
            metric("alloc.fleet.bytes_per_frame", flt_b, "B"),
            metric("trace.job_ms_p50", h(median(&job_ms)), "ms"),
            metric("host.factor", run_factor, "ratio"),
        ]
    } else {
        vec![
            metric("frames_per_s", ratio(frames as f64, busy), "1/s"),
            metric("verdict_ms_p50", quantile(&latencies_ms, 0.5), "ms"),
            metric("verdict_ms_p90", quantile(&latencies_ms, 0.9), "ms"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_heap_mb", alloc::peak_bytes() as f64 / 1e6, "MB"),
        ]
    };

    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(format!("{}.jsonl", args.workload));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }
    println!(
        "# {} seed {} trace {}: {} rounds of {jobs} jobs, {attempted} verdicts, {failed} failed",
        args.workload,
        args.seed,
        args.trace as u8,
        rounds.len()
    );
    println!(
        "# host factor {run_factor:.4} (set-up {setup_factor:.4}); raw: {:.1} frames/s, p50 {:.4} ms, p90 {:.4} ms",
        ratio(frames as f64, busy_raw),
        quantile(&latencies_raw, 0.5),
        quantile(&latencies_raw, 0.9)
    );
    for m in &metrics {
        println!("#   {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    /// Every job passes its own check, and every check fails when it is
    /// handed a wrong expectation.
    #[test]
    fn checks_pass_and_can_fail() {
        for seed in [1, 2] {
            for (name, r) in crate::sessions::self_test(seed)
                .into_iter()
                .chain(crate::fleet_churn::self_test(seed))
                .chain(crate::fleet_recovery::self_test(seed))
            {
                assert!(r.is_ok(), "seed {seed}: {name}: {r:?}");
            }
        }
    }
}
