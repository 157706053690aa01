//! In-memory span and counter recording for the traced run, plus the
//! percentile helper every timing metric uses.
//!
//! A span is `(id, parent, op, name, start, end)`: spans of one client
//! operation share `op`, and `parent` names the span that caused it
//! (0 = none). Each thread records into its own [`SpanBuf`] and hands
//! it to the shared [`Trace`] when its window ends, so recording takes
//! no lock on the measured path. Counter deltas are taken at the same
//! boundaries as the spans and summed per name.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are ns since the trace's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans and counters of one run (the primary workload, or one
/// companion run that supplies a layer the primary does not exercise).
pub struct Trace {
    pub label: &'static str,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    samples: Mutex<BTreeMap<&'static str, Vec<u64>>>,
}

impl Trace {
    pub fn new(label: &'static str) -> Trace {
        Trace {
            label,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            samples: Mutex::new(BTreeMap::new()),
        }
    }

    /// A fresh span id, taken when a span opens so its children can
    /// name it as their parent before it closes.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A thread-local recording buffer for this trace.
    pub fn buf(&self) -> SpanBuf<'_> {
        SpanBuf {
            trace: self,
            spans: Vec::new(),
            counters: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Merge a finished buffer.
    pub fn absorb(&self, buf: SpanBuf<'_>) {
        self.spans.lock().expect("trace lock").extend(buf.spans);
        let mut counters = self.counters.lock().expect("trace lock");
        for (k, v) in buf.counters {
            *counters.entry(k).or_insert(0) += v;
        }
        let mut samples = self.samples.lock().expect("trace lock");
        for (k, v) in buf.samples {
            samples.entry(k).or_default().extend(v);
        }
    }

    /// Every value recorded under `name` with [`SpanBuf::sample`].
    pub fn samples(&self, name: &str) -> Vec<u64> {
        self.samples
            .lock()
            .expect("trace lock")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("trace lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Durations (ns) of every span whose name is in `names`.
    pub fn durations(&self, names: &[&str]) -> Vec<u64> {
        self.spans
            .lock()
            .expect("trace lock")
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("trace lock").len()
    }

    /// Append this trace's spans as tab-separated rows.
    pub fn write_tsv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in self.spans.lock().expect("trace lock").iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                self.label, s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Write every trace's spans to `path` (one header line, then rows).
pub fn write_spans(path: &std::path::Path, traces: &[&Trace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "run\tid\tparent\top\tname\tstart_ns\tend_ns")?;
    for t in traces {
        t.write_tsv(&mut out)?;
    }
    out.flush()
}

/// One thread's spans, counters and samples, merged by [`Trace::absorb`].
pub struct SpanBuf<'t> {
    pub trace: &'t Trace,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl SpanBuf<'_> {
    /// Record a span whose id was taken with [`Trace::id`].
    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.trace.ns(start),
            end_ns: self.trace.ns(end),
        });
    }

    /// Record a leaf span under a fresh id.
    pub fn leaf(&mut self, parent: u64, op: u64, name: &'static str, start: Instant, end: Instant) {
        let id = self.trace.id();
        self.push(id, parent, op, name, start, end);
    }

    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Record one value of a sampled quantity (a queue depth, say).
    pub fn sample(&mut self, name: &'static str, v: u64) {
        self.samples.entry(name).or_default().push(v);
    }
}

/// Per-operation latencies of consecutive operations, summarized per
/// chunk: each chunk of `chunk` operations yields its p50, its p99 and
/// its throughput in operations per 1000 s (over the wall time since
/// the previous chunk closed, client overhead included). The end-to-end
/// metrics come from the fast chunks (see [`Series::fast`]). Memory
/// stays flat however many operations a window completes, so a faster
/// program does not raise the printed peak RSS.
pub struct Series {
    chunk: usize,
    buf: Vec<u64>,
    closed: Instant,
    pub n: u64,
    pub p50s: Vec<u64>,
    pub p99s: Vec<u64>,
    pub rates: Vec<u64>,
}

impl Series {
    pub fn new(chunk: usize, start: Instant) -> Series {
        Series {
            chunk,
            buf: Vec::with_capacity(chunk),
            closed: start,
            n: 0,
            p50s: Vec::new(),
            p99s: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// One operation that took `ns` and ended at `end`.
    pub fn record(&mut self, ns: u64, end: Instant) {
        self.buf.push(ns);
        self.n += 1;
        if self.buf.len() == self.chunk {
            let wall = end.saturating_duration_since(self.closed).as_secs_f64();
            self.rates
                .push((self.chunk as f64 * 1e3 / wall.max(1e-9)) as u64);
            self.p50s.push(percentile(&mut self.buf, 0.50));
            self.p99s.push(percentile(&mut self.buf, 0.99));
            self.buf.clear();
            self.closed = end;
        }
    }

    /// Keep `o`'s closed chunks (its unfinished chunk is dropped).
    pub fn merge(&mut self, o: Series) {
        self.n += o.n;
        self.p50s.extend(o.p50s);
        self.p99s.extend(o.p99s);
        self.rates.extend(o.rates);
    }

    /// `(p50, p99, rate)` of the fast chunks: the [`FAST`] quantile of
    /// the per-chunk p50s and p99s, and the `1 - FAST` quantile of the
    /// per-chunk rates. Co-tenants on a shared host slow every operation
    /// by 25–50% for seconds at a time; a whole-run median would report
    /// how much of the run they overlapped, where the fast chunks report
    /// what the code itself costs. One quantile for both latencies keeps
    /// the p99 at or above the p50, since every chunk's p99 is.
    pub fn fast(&self) -> (u64, u64, u64) {
        let q = |v: &[u64], q: f64| percentile(&mut v.to_vec(), q);
        (
            q(&self.p50s, FAST),
            q(&self.p99s, FAST),
            q(&self.rates, 1.0 - FAST),
        )
    }
}

/// Quantile of chunk values [`Series::fast`] reports. It is low because
/// a chunk's p99 rests on its slowest 1% of operations, so noise that
/// slows a few percent of calls lifts it without moving the chunk's
/// p50. In busy stretches of a shared host, ioctl p99s (6.8 µs when
/// quiet) read 8.4–9.7 µs at the 5th percentile of 2000-call chunks,
/// 8.0–9.2 µs at the 1st, and 7.1 µs at the 0.2th of 1000-call chunks.
const FAST: f64 = 0.002;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}
