//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public functions
//! in a span named after the layer (`engine`, `session`, `net`, …) and the
//! operation (`pm-mse`, `finalize`, `send`, …). Spans keep their start,
//! end, parent and run id in memory and are written out once, at exit.
//! A disabled tracer runs the closure and records nothing, so untraced
//! runs pay one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer called (a crate module name).
    pub layer: &'static str,
    /// The operation within the layer.
    pub op: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run every span of this process belongs to.
    pub run: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder for one thread (see [`Tracer::fork`] for others).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run: u64,
    origin: Instant,
    /// Parent of this tracer's top-level spans once joined (set by
    /// `fork`); recorded spans hold `None` until then.
    base: Option<usize>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder for run `run`; records nothing unless `enabled`.
    pub fn new(enabled: bool, run: u64) -> Tracer {
        Tracer {
            enabled,
            run,
            origin: Instant::now(),
            base: None,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span `layer`/`op`.
    pub fn span<T>(&self, layer: &'static str, op: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            let start_ns = self.now_ns();
            spans.push(Span {
                layer,
                op,
                start_ns,
                end_ns: start_ns,
                parent,
                run: self.run,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    /// A recorder for another thread whose spans nest under the span open
    /// here now; hand it back to this tracer with [`Tracer::join`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            run: self.run,
            origin: self.origin,
            base: self.open.borrow().last().copied(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Absorbs a forked recorder's spans: its top-level spans nest under
    /// the fork point, the rest keep their parents under the shift.
    pub fn join(&self, child: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let offset = spans.len();
        for mut s in child.spans.into_inner() {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => child.base,
            };
            spans.push(s);
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// A position in the span list, for [`Tracer::total_since`].
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Total seconds and count of the spans `layer`/`op`.
    pub fn total(&self, layer: &str, op: &str) -> (f64, usize) {
        self.total_since(0, layer, op)
    }

    /// [`Tracer::total`] over the spans recorded after `mark`.
    pub fn total_since(&self, mark: usize, layer: &str, op: &str) -> (f64, usize) {
        self.spans.borrow()[mark..]
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// child spans cover (children on other threads may overlap each
    /// other; their union counts once), summed by layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans.borrow())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}.{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.layer, s.op, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// See [`Tracer::self_times`].
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            op: "op",
            start_ns,
            end_ns,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("net", 10, 40, Some(0)),
            span("net", 30, 60, Some(0)),      // overlaps its sibling
            span("session", 90, 130, Some(0)), // runs past its parent
            span("em", 15, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert!((t["bench"] - 40e-9).abs() < 1e-15); // 100 - |[10,60]| - |[90,100]|
        assert!((t["net"] - (25e-9 + 30e-9)).abs() < 1e-15);
        assert!((t["em"] - 5e-9).abs() < 1e-15);
        assert!((t["session"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_and_forks_rejoin_under_their_parent() {
        let tracer = Tracer::new(true, 7);
        tracer.span("bench", "pass", || {
            tracer.span("engine", "pm-mse", || ());
            let child = tracer.fork();
            child.span("net", "send", || child.span("net", "encode", || ()));
            tracer.join(child);
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[2].parent,
            Some(0),
            "forked top-level span nests under the fork point"
        );
        assert_eq!(
            spans[3].parent,
            Some(2),
            "forked child keeps its parent after re-indexing"
        );
        assert!(spans.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        assert_eq!(tracer.total("net", "send").1, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false, 1);
        assert_eq!(tracer.span("engine", "x", || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
