//! The benchmark's own spans, recorded around each call into a layer: name,
//! start, end, the span that caused it, and the request they belong to. Kept
//! in memory; written out as JSON when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::push_string;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Spans nest by call order: a span opened while
/// another is open is its child.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn begin_request(&mut self, id: u64) {
        debug_assert!(self.open.is_empty(), "a request starts with no span open");
        self.request = id;
    }

    /// Records `work` as a span named `name`, a child of whichever span is
    /// open, and returns what `work` returned.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(index);
        // Stamp after the bookkeeping and before it again on the way out, so
        // the recorder's own cost lands in the parent, not in this span.
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = work(self);
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Median self time per span name, in microseconds.
    pub fn median_self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            by_name.entry(span.name).or_default().push(own as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, values)| (name, crate::stats::median(&values)))
            .collect()
    }

    /// The trace as a JSON array of span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (span, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  {\"id\": ");
            out.push_str(&i.to_string());
            out.push_str(", \"name\": ");
            push_string(&mut out, span.name);
            out.push_str(&format!(
                ", \"request\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                span.request,
                span.parent.map_or("null".to_owned(), |p| p.to_string()),
                span.start_ns,
                span.end_ns,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// See [`Recorder::self_times_ns`]. Children of one span never overlap each
/// other (spans nest by call order on one thread), so the covered part is
/// the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("roundtrip", None, 0, 100),
            span("session", Some(0), 10, 70),
            span("generate", Some(1), 20, 50),
            span("defactorize", Some(1), 50, 65),
            span("encode", Some(0), 70, 90),
            span("other request", None, 200, 230),
        ];
        // roundtrip: 100 − (60 + 20); session: 60 − (30 + 15).
        assert_eq!(self_times_ns(&spans), [20, 15, 30, 15, 20, 30]);
        // Self times of a tree add up to its root's duration.
        assert_eq!(self_times_ns(&spans)[..5].iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_call_order_and_tags_requests() {
        let mut rec = Recorder::new();
        rec.begin_request(7);
        let answer = rec.span("outer", |rec| {
            rec.span("first", |_| std::hint::black_box(1 + 1));
            rec.span("second", |rec| rec.span("inner", |_| 40)) + 2
        });
        assert_eq!(answer, 42);
        rec.begin_request(8);
        rec.span("outer", |_| ());
        let names: Vec<_> = rec
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            names,
            [
                ("outer", None, 7),
                ("first", Some(0), 7),
                ("second", Some(0), 7),
                ("inner", Some(2), 7),
                ("outer", None, 8),
            ]
        );
        for s in rec.spans() {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let parent = &rec.spans()[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
        let own = rec.self_times_ns();
        assert_eq!(
            own[0] + own[1] + own[2] + own[3],
            rec.spans()[0].duration_ns()
        );
        assert_eq!(rec.median_self_us().len(), 4);
        assert!(rec
            .to_json()
            .contains("\"name\": \"inner\", \"request\": 7, \"parent\": 2"));
    }
}
