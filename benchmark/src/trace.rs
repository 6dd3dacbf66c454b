//! Spans recorded by the benchmark around each call into a layer.
//!
//! Nothing inside the measured crates is instrumented: a span opens in
//! benchmark code just before a public function of a layer is called and
//! closes when it returns. Spans stay in memory and are written out once
//! the run ends. A layer's self time is its span's duration minus the
//! part its child spans cover; the per-layer numbers of the traced run
//! are sums of self time by span name.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder. When disabled, [`Tracer::span`] only runs its closure,
/// so the untraced run pays nothing for the instrument.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` under a span called `name`, child of the span open now.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in seconds, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_s();
            }
        }
        own
    }

    /// Sum of self time by span name, seconds.
    pub fn self_time_by_name(&self) -> BTreeMap<String, f64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(s.name.clone()).or_insert(0.0) += own;
        }
        by_name
    }

    /// Durations (not self times) of every span called `name`, seconds.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// The trace as JSON: every span carries the workload as its
    /// identifier, so traces of several workloads can be concatenated.
    pub fn to_json(&self, workload: &str) -> String {
        let spans = self
            .spans
            .iter()
            .zip(self.self_times())
            .map(|(s, own)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("workload".into(), Value::Str(workload.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("self_s".into(), Value::F64(own)),
                ])
            })
            .collect();
        serde_json::to_string_pretty(&Value::Object(vec![("spans".into(), Value::Array(spans))]))
            .expect("a trace serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            t.span("a", |_| ());
        });
        let own = t.self_times();
        let total: f64 = own.iter().sum();
        assert!((total - t.spans()[0].duration_s()).abs() < 1e-9);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.durations_of("a").len(), 2);
        assert!(t.self_time_by_name()["b"] >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
