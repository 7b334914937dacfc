//! Spans around the calls into each layer, recorded from benchmark code
//! only. Spans stay in memory during a run and are written out once, at
//! exit; a layer's self time is its span minus the part its children
//! cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<u32>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

/// In-memory span recorder. While inactive every call is a branch and
/// nothing else, so untraced repetitions pay no clock reads for it.
pub struct Tracer {
    active: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    /// A recorder that starts inactive.
    pub fn new() -> Tracer {
        Tracer {
            active: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Start or stop recording, and name the repetition that follows.
    pub fn set(&mut self, active: bool, rep: u32) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.active = active;
        self.rep = rep;
    }

    /// Whether spans are being recorded.
    pub fn active(&self) -> bool {
        self.active
    }

    /// The clock worker threads stamp their own samples with.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.active {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Index of the innermost open span (the parent for samples taken
    /// on other threads while it is open).
    pub fn current(&self) -> Option<u32> {
        self.open.last().copied()
    }

    /// Add intervals measured elsewhere (worker threads) against
    /// [`Tracer::epoch`], as children of `parent`.
    pub fn add_samples(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        samples: impl IntoIterator<Item = (u64, u64)>,
    ) {
        if !self.active {
            return;
        }
        let rep = self.rep;
        self.spans
            .extend(samples.into_iter().map(|(start_ns, end_ns)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                rep,
            }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of spans called `name`, summed per repetition, in
    /// seconds, in repetition order.
    pub fn self_seconds_by_rep(&self, name: &str) -> Vec<f64> {
        let own = self_ns(&self.spans);
        let mut by_rep: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                *by_rep.entry(s.rep).or_insert(0) += ns;
            }
        }
        by_rep.values().map(|&ns| ns as f64 / 1e9).collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another
/// (samples from two threads), so the covered part is the union of their
/// intervals, clipped to the parent.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 and is itself a parent.
            span("b", 30, 60, Some(0)),
            span("leaf", 35, 45, Some(2)),
            // Sticks out past the parent: clipped at 100.
            span("late", 90, 120, Some(0)),
        ];
        // Root: 100 - |[10,60) ∪ [90,100)| = 100 - 60 = 40.
        assert_eq!(self_ns(&spans), vec![40, 30, 20, 10, 30]);
    }

    #[test]
    fn inactive_tracer_records_nothing() {
        let mut t = Tracer::new();
        assert_eq!(t.span("x", |_| 5), 5);
        t.add_samples("y", None, [(1, 2)]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_reps() {
        let mut t = Tracer::new();
        t.set(true, 3);
        t.span("outer", |t| {
            let parent = t.current();
            t.span("inner", |_| ());
            t.add_samples("sample", parent, [(0, 1)]);
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].rep), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("sample", Some(0)));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[1].start_ns);
        assert_eq!(t.self_seconds_by_rep("outer").len(), 1);
        assert!(t.self_seconds_by_rep("missing").is_empty());
    }
}
