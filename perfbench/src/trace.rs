//! In-memory spans around calls into the layers under test.
//!
//! A span is a name and the host-time interval of one call. Spans are kept
//! in memory and aggregated when the run ends; nothing is written while a
//! run measures.

use std::time::Instant;

struct Span {
    name: String,
    ns: f64,
}

/// The spans of one traced run.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.spans.push(Span { name: name.to_string(), ns });
        out
    }

    /// Durations of every span named `name`, in nanoseconds.
    fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns).collect()
    }

    /// Median duration of the spans named `name`, in nanoseconds (0 when
    /// there are none).
    pub fn median_ns(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations_ns(name)).unwrap_or(0.0)
    }

    /// Mean duration of the spans named `name`, in nanoseconds (0 when
    /// there are none). Used for calls too short to time one by one
    /// without the clock dominating the median.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }
}

/// Median duration of an empty span over `reps` of them, in nanoseconds:
/// the clock cost that every span's duration includes.
pub fn empty_span_ns(reps: usize) -> f64 {
    let mut t = Tracer::default();
    for _ in 0..reps {
        t.span("empty", || ());
    }
    t.median_ns("empty")
}
