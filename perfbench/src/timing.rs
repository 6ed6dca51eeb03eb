//! Outside-in timing: a recording [`PolicyEvaluator`] wrapper, an in-memory span log, and
//! the summary statistics the benchmark reports.

use parmis::evaluation::PolicyEvaluator;
use parmis::objective::Objective;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One `evaluate_batch` call as seen from outside the evaluator.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Which evaluator instance issued the call (a fleet job, or a parallel chunk).
    pub tag: usize,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin.
    pub end: f64,
    /// Candidates in the batch.
    pub evals: usize,
    /// Whether the call returned `Ok`.
    pub ok: bool,
}

/// Collects [`Batch`] records from any number of [`Timed`] wrappers (thread-safe).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    batches: Mutex<Vec<Batch>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            batches: Mutex::new(Vec::new()),
        })
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Every batch recorded so far, in completion order.
    pub fn batches(&self) -> Vec<Batch> {
        self.batches.lock().expect("recorder lock").clone()
    }

    /// Batches of one tag, in completion order.
    pub fn batches_of(&self, tag: usize) -> Vec<Batch> {
        self.batches()
            .into_iter()
            .filter(|b| b.tag == tag)
            .collect()
    }
}

/// Times every `evaluate_batch` of the wrapped evaluator into a [`Recorder`].
pub struct Timed<E> {
    inner: E,
    recorder: Arc<Recorder>,
    tag: usize,
}

impl<E> Timed<E> {
    pub fn new(inner: E, recorder: Arc<Recorder>, tag: usize) -> Timed<E> {
        Timed {
            inner,
            recorder,
            tag,
        }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: PolicyEvaluator> PolicyEvaluator for Timed<E> {
    fn parameter_dim(&self) -> usize {
        self.inner.parameter_dim()
    }

    fn parameter_bound(&self) -> f64 {
        self.inner.parameter_bound()
    }

    fn objectives(&self) -> &[Objective] {
        self.inner.objectives()
    }

    fn evaluate(&self, theta: &[f64]) -> parmis::Result<Vec<f64>> {
        let mut out = self.evaluate_batch(&[theta.to_vec()])?;
        Ok(out.pop().expect("one result per candidate"))
    }

    fn evaluate_batch(&self, thetas: &[Vec<f64>]) -> parmis::Result<Vec<Vec<f64>>> {
        let start = self.recorder.now();
        let result = self.inner.evaluate_batch(thetas);
        let end = self.recorder.now();
        self.recorder
            .batches
            .lock()
            .expect("recorder lock")
            .push(Batch {
                tag: self.tag,
                start,
                end,
                evals: thetas.len(),
                ok: result.is_ok(),
            });
        result
    }
}

/// One traced span: a layer call made from the benchmark, with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub round: usize,
    pub start_ns: u128,
    pub end_ns: u128,
    pub parent: Option<usize>,
}

/// In-memory span log, written out once when the benchmark ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, round: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos();
        self.spans.push(Span {
            name,
            round,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos();
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Records an already-measured child span ending now (for sub-spans timed inside a
    /// closure that cannot borrow the log).
    pub fn record(&mut self, name: &'static str, round: usize, parent: usize, total_ns: u128) {
        let now = self.origin.elapsed().as_nanos();
        self.spans.push(Span {
            name,
            round,
            start_ns: now.saturating_sub(total_ns),
            end_ns: now,
            parent: Some(parent),
        });
    }

    /// Serializes every span as one JSON document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name,
                    s.round,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Median with linear interpolation between the middle pair.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest order statistic that still has at least ten samples above it, with its
/// percentile; the maximum when there are fewer than eleven samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 0.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest matching mount point).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 3 {
            continue;
        }
        let (mount, fstype) = (fields[1], fields[2]);
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), format!("{fstype} on {mount}")));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
