//! Structured tracing spans for the query pipeline, with sampling, a
//! ring-buffer sink, and a slow-query log.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// One node of a completed span tree: a named pipeline stage, its duration,
/// key/value context fields, and child stages.
///
/// Spans are built **post-hoc** from phase timings the pipeline already
/// measures (`Timings`, maintenance passes), never by instrumenting the hot
/// path with live scopes — the non-sampled fast path pays one counter
/// increment, nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`query`, `plan`, `defactorize`, …).
    pub name: String,
    /// Wall-clock duration of the stage, microseconds.
    pub duration_micros: u64,
    /// Context fields (query signature hash, engine, store kind, shard id,
    /// epoch vector, …) in insertion order.
    pub fields: Vec<(String, String)>,
    /// Child stages in pipeline order.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf span.
    pub fn new(name: impl Into<String>, duration: Duration) -> Self {
        Span {
            name: name.into(),
            duration_micros: duration.as_micros().min(u64::MAX as u128) as u64,
            fields: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds a context field (builder-style).
    pub fn field(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Adds a child stage (builder-style). Zero-duration stages are worth
    /// skipping at the call site — `child_if_nonzero` does that.
    pub fn child(mut self, child: Span) -> Self {
        self.children.push(child);
        self
    }

    /// Adds `child` only when its duration is non-zero, so synthesized
    /// trees omit stages that did not run (e.g. edge burnback on an
    /// acyclic query).
    pub fn child_if_nonzero(self, child: Span) -> Self {
        if child.duration_micros == 0 {
            self
        } else {
            self.child(child)
        }
    }

    /// Renders the tree as indented text, one stage per line:
    ///
    /// ```text
    /// query 1234µs engine=wireframe store=delta
    ///   plan 56µs
    ///   defactorize 1100µs
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        out.push_str(&format!(" {}µs", self.duration_micros));
        for (key, value) in &self.fields {
            out.push_str(&format!(" {key}={value}"));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// Tracer knobs, owned by the layer that builds the [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerConfig {
    /// Keep 1 in `sample_every` completed spans (1 = every span, for
    /// one-shot `--trace` runs; the serving default is 64, so 63 queries in
    /// 64 build no span tree).
    pub sample_every: u64,
    /// Emit any span tree at least this slow to the slow-query log
    /// (stderr), regardless of sampling. 0 disables the log.
    pub slow_micros: u64,
    /// Completed spans retained in the ring-buffer sink.
    pub ring_capacity: usize,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            sample_every: 64,
            slow_micros: 0,
            ring_capacity: 128,
        }
    }
}

/// The span sink of one layer: sampling decision, bounded ring buffer, and
/// the slow-query log.
#[derive(Debug, Default)]
pub struct Tracer {
    config: TracerConfig,
    ticks: AtomicU64,
    ring: Mutex<std::collections::VecDeque<Span>>,
}

impl Tracer {
    /// A tracer with the given knobs.
    pub fn new(config: TracerConfig) -> Self {
        Tracer {
            config,
            ticks: AtomicU64::new(0),
            ring: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// The knobs in effect.
    pub fn config(&self) -> TracerConfig {
        self.config
    }

    /// Whether a just-completed query of `duration` should have its span
    /// tree built: sampled in (1 in `sample_every`), or slow enough for the
    /// slow-query log. Call once per query *after* it returns — building
    /// the tree only happens when this says so.
    pub fn wants(&self, duration: Duration) -> bool {
        let sampled = self
            .ticks
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.config.sample_every.max(1));
        sampled || self.is_slow(duration)
    }

    /// Whether `duration` crosses the slow-query threshold.
    pub fn is_slow(&self, duration: Duration) -> bool {
        self.config.slow_micros > 0 && duration.as_micros() as u64 >= self.config.slow_micros
    }

    /// Records a completed span tree: pushes it into the ring (evicting the
    /// oldest beyond capacity) and emits it to the slow-query log (stderr)
    /// when it crosses the threshold.
    pub fn record(&self, span: Span) {
        if self.is_slow(Duration::from_micros(span.duration_micros)) {
            eprintln!(
                "[slow-query ≥{}µs]\n{}",
                self.config.slow_micros,
                span.render()
            );
        }
        let mut ring = self.ring();
        if self.config.ring_capacity > 0 && ring.len() >= self.config.ring_capacity {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// The retained spans, oldest first.
    pub fn recent(&self) -> Vec<Span> {
        self.ring().iter().cloned().collect()
    }

    fn ring(&self) -> MutexGuard<'_, std::collections::VecDeque<Span>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_trees_render_with_fields_and_indentation() {
        let span = Span::new("query", Duration::from_micros(1234))
            .field("engine", "wireframe")
            .field("store", "delta")
            .child(Span::new("plan", Duration::from_micros(56)))
            .child_if_nonzero(Span::new("edge_burnback", Duration::ZERO))
            .child_if_nonzero(
                Span::new("defactorize", Duration::from_micros(1100)).field("path", "view"),
            );
        let text = span.render();
        assert_eq!(
            text,
            "query 1234µs engine=wireframe store=delta\n  plan 56µs\n  defactorize 1100µs path=view\n"
        );
        assert!(!text.contains("edge_burnback"), "zero stages are omitted");
    }

    #[test]
    fn sampling_keeps_one_in_n_plus_slow_outliers() {
        let tracer = Tracer::new(TracerConfig {
            sample_every: 10,
            slow_micros: 5_000,
            ..TracerConfig::default()
        });
        let fast = Duration::from_micros(100);
        let wanted = (0..100).filter(|_| tracer.wants(fast)).count();
        assert_eq!(wanted, 10, "1 in 10 of the fast queries");
        assert!(tracer.wants(Duration::from_millis(6)), "slow always wanted");
        assert!(tracer.is_slow(Duration::from_millis(5)));
        assert!(!tracer.is_slow(Duration::from_millis(4)));
    }

    #[test]
    fn ring_buffer_is_bounded_and_ordered() {
        let tracer = Tracer::new(TracerConfig {
            ring_capacity: 3,
            ..TracerConfig::default()
        });
        for i in 0..5 {
            tracer.record(Span::new(format!("q{i}"), Duration::from_micros(i)));
        }
        let names: Vec<String> = tracer.recent().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["q2", "q3", "q4"], "oldest evicted, order kept");
    }
}
