//! In-memory spans, recorded around calls into each layer from the
//! benchmark's own code and written out when the run ends.
//!
//! A span is `(name, start, end, parent, request id)`. A layer's self
//! time is its span's duration minus the durations of its child spans
//! (children of one span never overlap: every span here is recorded on
//! one thread around sequential calls).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    pub request: u64,
}

/// One thread's spans; merge threads' tracers with [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    /// Duration of the most recently opened span, in microseconds.
    pub fn last_us(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e3)
    }

    /// Appends another tracer's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span `keep` accepts, in microseconds, grouped
    /// by name.
    pub fn self_times_us(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if !keep(s) {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Tab-separated spans, one a line, with a header.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{:#x}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", None, 1);
        t.time("child", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(root);
        let times = t.self_times_us(|_| true);
        assert!(times["child"][0] >= 5_000.0);
        assert!(times["root"][0] < times["child"][0]);
        let mut other = Tracer::new(Instant::now());
        let r = other.open("root", None, 2);
        other.time("child", Some(r), 2, || ());
        other.close(r);
        t.absorb(other);
        assert_eq!(t.self_times_us(|_| true)["child"].len(), 2);
        assert_eq!(t.self_times_us(|s| s.request == 2)["child"].len(), 1);
        assert!(t.to_tsv().lines().count() == 5);
    }
}
