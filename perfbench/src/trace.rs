//! In-memory span recorder for the traced run.
//!
//! A span is opened around one public call into a layer and closed when
//! its guard drops. Its parent is the innermost span still open: the
//! engine runs one worker, so executor calls never interleave. Spans
//! stay in memory until [`Tracer::write_jsonl`] at exit.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use vlq::sweep::SweepPoint;

/// One closed (or still open, `end_ns == 0`) span.
struct SpanRecord {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Grid index of the sweep point the call worked for.
    point: usize,
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

/// Records spans for the points of one sweep.
pub struct Tracer {
    origin: Instant,
    point_ids: HashMap<u64, usize>,
    state: Mutex<State>,
}

/// Closes its span on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: usize,
}

impl Tracer {
    /// A tracer for the expanded grid `points` (span point ids are
    /// indices into it).
    pub fn new(points: &[SweepPoint]) -> Self {
        Tracer {
            origin: Instant::now(),
            point_ids: points
                .iter()
                .enumerate()
                .map(|(i, pt)| (pt.fingerprint(), i))
                .collect(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens span `name` for the call working on `point`.
    pub fn span(&self, name: &'static str, point: &SweepPoint) -> SpanGuard<'_> {
        let point = self.point_ids[&point.fingerprint()];
        let mut state = self
            .state
            .lock()
            .expect("tracer lock is never held across a panic");
        let id = state.spans.len();
        let parent = state.open.last().copied();
        let start_ns = self.now_ns();
        state.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: 0,
            parent,
            point,
        });
        state.open.push(id);
        SpanGuard { tracer: self, id }
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the time its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let state = self
            .state
            .lock()
            .expect("tracer lock is never held across a panic");
        let duration = |s: &SpanRecord| s.end_ns.saturating_sub(s.start_ns);
        let mut self_ns: Vec<u64> = state.spans.iter().map(duration).collect();
        for s in &state.spans {
            if let Some(parent) = s.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(duration(s));
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in state.spans.iter().zip(self_ns) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Summed duration of the spans named `name`, in seconds, child
    /// spans included.
    pub fn total_seconds(&self, name: &str) -> f64 {
        let state = self
            .state
            .lock()
            .expect("tracer lock is never held across a panic");
        let ns: u64 = state
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        ns as f64 * 1e-9
    }

    /// Writes every span as one JSON line: id, name, start and end
    /// (nanoseconds since the tracer was created), parent id, point.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let state = self
            .state
            .lock()
            .expect("tracer lock is never held across a panic");
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in state.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"point\":{}}}",
                s.name, s.start_ns, s.end_ns, s.point
            )?;
        }
        w.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        // A panicking layer call unwinds through this guard while the
        // lock is free, so the lock is never poisoned here; recover the
        // guard anyway rather than panic inside a drop.
        let mut state = self
            .tracer
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.spans[self.id].end_ns = end_ns;
        state.open.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlq::sweep::SweepSpec;

    #[test]
    fn self_time_excludes_children() {
        let points = SweepSpec::new().distances([3, 5]).expand();
        let tracer = Tracer::new(&points);
        {
            let _outer = tracer.span("outer", &points[1]);
            std::thread::sleep(std::time::Duration::from_millis(20));
            let _inner = tracer.span("inner", &points[1]);
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        let times = tracer.self_seconds();
        let outer_total = tracer.total_seconds("outer");
        assert!(times["outer"] >= 0.020, "{times:?}");
        assert!(times["inner"] >= 0.030, "{times:?}");
        let state = tracer.state.lock().unwrap();
        let outer_s = (state.spans[0].end_ns - state.spans[0].start_ns) as f64 * 1e-9;
        assert!((times["outer"] + times["inner"] - outer_s).abs() < 1e-9);
        assert!((outer_total - outer_s).abs() < 1e-9);
        assert_eq!(state.spans[1].parent, Some(0));
        assert_eq!(state.spans[1].point, 1);
        assert!(state.open.is_empty());
    }
}
