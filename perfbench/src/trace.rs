//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call from the benchmark into a layer's
//! public function. It records its name, start, end, parent span and the
//! job it belongs to, plus the frames the call handled and the
//! allocations it made (from the counting allocator). Spans stay in
//! memory and are written out once, when the run ends.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `generator.build_batch`.
    pub name: &'static str,
    /// Job the call served; spans of one job share it.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Frames (or member-frames) the call handled.
    pub frames: u64,
    /// Allocations made during the span, children included.
    pub allocs: u64,
    /// Bytes allocated during the span, children included.
    pub bytes: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time and work of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans of this name.
    pub calls: u64,
    /// Duration minus the time covered by child spans, summed.
    pub self_ns: u64,
    /// Frames handled.
    pub frames: u64,
    /// Allocations made outside child spans.
    pub allocs: u64,
    /// Bytes allocated outside child spans.
    pub bytes: u64,
}

impl Totals {
    /// Self nanoseconds per frame (0 without frames).
    pub fn ns_per_frame(&self) -> f64 {
        ratio(self.self_ns as f64, self.frames)
    }

    /// Self microseconds per call (0 without calls).
    pub fn us_per_call(&self) -> f64 {
        ratio(self.self_ns as f64 / 1e3, self.calls)
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// An empty recorder; storage is reserved up front so that recording
    /// a span does not itself allocate inside the spans being measured.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
            open: Vec::with_capacity(16),
            job: 0,
        }
    }

    /// Tag the spans that follow with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Spans recorded so far (an index usable as a range bound).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Run `f` inside a span named `name` that handled `frames` frames.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        frames: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            frames,
            allocs: 0,
            bytes: 0,
        });
        self.open.push(idx);
        let (a0, b0) = alloc::counts();
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::counts();
        self.open.pop();
        let s = &mut self.spans[idx];
        s.start_ns = start;
        s.end_ns = end;
        s.allocs = a1 - a0;
        s.bytes = b1 - b0;
        out
    }

    /// Durations (ns) of the spans named `name` within `range`.
    pub fn durations(&self, name: &str, range: Range<usize>) -> Vec<u64> {
        self.spans[range]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self time and work per span name over the spans in `range`.
    pub fn totals(&self, range: Range<usize>) -> BTreeMap<&'static str, Totals> {
        let spans = &self.spans[range.clone()];
        let mut child_ns = vec![0u64; spans.len()];
        let mut child_allocs = vec![(0u64, 0u64); spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|p| range.contains(p)) {
                let p = p - range.start;
                child_ns[p] += s.duration();
                child_allocs[p].0 += s.allocs;
                child_allocs[p].1 += s.bytes;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += s.duration().saturating_sub(child_ns[i]);
            t.frames += s.frames;
            t.allocs += s.allocs.saturating_sub(child_allocs[i].0);
            t.bytes += s.bytes.saturating_sub(child_allocs[i].1);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"frames\":{},\"allocs\":{},\"bytes\":{}}}",
                s.job, s.name, s.start_ns, s.end_ns, s.frames, s.allocs, s.bytes
            )?;
        }
        out.flush()
    }
}
