//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions. Spans of one message share its seq as `id`;
//! a root span has an empty `parent`. Buffers are preallocated, filled
//! without locks (one per task or thread) and written out at the end.

use std::collections::HashMap;
use std::future::Future;
use std::io::Write;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub id: u64,
    /// Nanoseconds since the run's anchor.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A fixed-capacity span buffer: once full, further spans are dropped
/// (and counted), so tracing never allocates mid-run.
pub struct Spans {
    anchor: Instant,
    buf: Vec<Span>,
    pub dropped: u64,
}

impl Spans {
    pub fn new(anchor: Instant, cap: usize) -> Spans {
        Spans {
            anchor,
            buf: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    /// Whether this buffer records anything (capacity 0 disables it).
    pub fn enabled(&self) -> bool {
        self.buf.capacity() > 0
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.anchor).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        s: Instant,
        e: Instant,
    ) {
        if self.buf.len() == self.buf.capacity() {
            self.dropped += 1;
            return;
        }
        let (start, end) = (self.at(s), self.at(e));
        self.buf.push(Span {
            name,
            parent,
            id,
            start,
            end,
        });
    }

    pub fn extend(&mut self, other: Spans) {
        self.dropped += other.dropped;
        self.buf.extend(other.buf);
    }

    /// Mean duration in ns of the spans named `name` (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.mean_ns_where(name, |_| true)
    }

    /// Mean duration in ns of the spans named `name` whose id passes
    /// `keep` (0 if none).
    pub fn mean_ns_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
        let (sum, n) = self
            .buf
            .iter()
            .filter(|s| s.name == name && keep(s.id))
            .fold((0u64, 0u64), |(sum, n), s| (sum + s.dur(), n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Self time per layer, summed over every root span named `root`:
    /// each root's duration minus the union of its children's intervals
    /// (clipped to the root) is booked to the root's own layer, and each
    /// child's covered time to the child's layer (the name's part before
    /// the first '.'). Returns `(layer -> ns, total root ns)`.
    pub fn self_time(&self, root: &str) -> (HashMap<&'static str, f64>, f64) {
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in self.buf.iter().filter(|s| s.parent == root) {
            children.entry(s.id).or_default().push(s);
        }
        let mut layers: HashMap<&'static str, f64> = HashMap::new();
        let mut total = 0.0;
        for r in self
            .buf
            .iter()
            .filter(|s| s.name == root && s.parent.is_empty())
        {
            total += r.dur() as f64;
            let mut kids: Vec<&Span> = children.get(&r.id).cloned().unwrap_or_default();
            kids.sort_by_key(|s| s.start);
            let mut covered_until = r.start;
            let mut covered = 0u64;
            for k in kids {
                let start = k.start.max(covered_until).max(r.start);
                let end = k.end.min(r.end);
                if end > start {
                    *layers.entry(layer(k.name)).or_default() += (end - start) as f64;
                    covered += end - start;
                    covered_until = end;
                }
            }
            *layers.entry(layer(r.name)).or_default() += (r.dur() - covered.min(r.dur())) as f64;
        }
        (layers, total)
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tparent\tid\tstart_ns\tend_ns")?;
        for s in &self.buf {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.parent, s.id, s.start, s.end
            )?;
        }
        out.flush()
    }
}

fn layer(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Wraps a layer's future and records the start and end of every poll,
/// so the time spent inside the layer's own code is separated from the
/// time the future sat parked waiting for a wake.
pub struct Timed<'a, F> {
    pub inner: F,
    pub polls: &'a mut Vec<(Instant, Instant)>,
}

impl<F: Future + Unpin> Future for Timed<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = &mut *self;
        let s = Instant::now();
        let r = Pin::new(&mut this.inner).poll(cx);
        this.polls.push((s, Instant::now()));
        r
    }
}
