//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start, an end and a parent; the set is
//! written out once, as Chrome trace-event JSON, when the run ends.

use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Trace lane: 0 for the driving thread, `i + 1` for the `i`-th task
    /// of a parallel region.
    pub lane: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off every call is a no-op.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            lane: 0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        r
    }

    /// Add a finished span timed elsewhere (a task of a parallel region)
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, lane: usize) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            lane,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in span order: its duration minus the part of
/// its interval that its children cover (overlapping children, as in a
/// parallel region, are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, iv)| {
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in iv.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome trace-event JSON ("X" complete events, microsecond times) of
/// the spans, loadable in Perfetto.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name: String = s
            .name
            .chars()
            .filter(|c| !c.is_control() && *c != '"' && *c != '\\')
            .collect();
        out.push_str(&format!(
            "\n{{\"name\":\"{name}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":0,\"tid\":{}}}",
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.dur_ns() / 1000,
            s.dur_ns() % 1000,
            s.lane
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.x", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel tasks covering [10, 60) together.
        let spans = vec![
            span("region", 0, 80, None),
            span("t0", 10, 50, Some(0)),
            span("t1", 20, 60, Some(0)),
            span("t2", 70, 200, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(self_times_ns(&spans)[0], 80 - 50 - 10);
    }

    #[test]
    fn tracer_nests_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        off.span("outer", |t| t.span("inner", |_| ()));
        off.record("task", Instant::now(), Instant::now(), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_validates() {
        let spans = vec![
            span("root \"q\"", 0, 2500, None),
            span("leaf", 1000, 1999, Some(0)),
        ];
        let json = chrome_trace_json(&spans);
        assert_eq!(
            hammingmesh::hxtelemetry::validate_chrome_trace(&json),
            Ok(2)
        );
        assert!(json.contains("\"ts\":1.000,\"dur\":0.999"));
    }
}
