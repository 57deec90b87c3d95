//! In-memory spans recorded by the harness around calls into each layer.
//!
//! Spans are recorded from this package's own code, outside the program:
//! a span is opened before a call into a layer's public function and
//! closed after it. Spans of one operation share an `op_id`, nest by the
//! order they were opened in, and are written out once, at exit.

use std::time::Instant;
use tdb::core::{jobj, Json};

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `storage.scan`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op_id: u64,
}

impl Span {
    /// Wall-clock length in microseconds.
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1000.0
    }
}

/// Records spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Spans recorded from here on belong to operation `op_id`.
    pub fn begin_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans `f` opens through the
    /// tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// What recording one span costs, in microseconds: the mean over
    /// ten thousand empty ones.
    pub fn span_cost_us() -> f64 {
        const N: u32 = 10_000;
        let mut tr = Tracer::new();
        let begun = Instant::now();
        for _ in 0..N {
            tr.span("empty", |_| ());
        }
        std::hint::black_box(tr.spans().len());
        begun.elapsed().as_secs_f64() * 1e6 / f64::from(N)
    }

    /// Every span recorded, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time span `index` spent outside its direct children, in
    /// microseconds. Children of one span run one after another on one
    /// thread, so their durations add up to the time they cover.
    pub fn self_time_us(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_us)
            .sum();
        self.spans[index].duration_us() - children
    }

    /// Per operation, in operation order: the summed duration of the
    /// spans called `name`, in microseconds. An operation with no such
    /// span is left out.
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match out.last_mut() {
                Some((last, sum)) if *last == s.op_id => *sum += s.duration_us(),
                _ => out.push((s.op_id, s.duration_us())),
            }
        }
        out.into_iter().map(|(_, v)| v).collect()
    }

    /// Median over operations of [`Tracer::per_op_us`]; 0 with no such span.
    pub fn median_us(&self, name: &str) -> f64 {
        crate::stats::median(&self.per_op_us(name))
    }

    /// Median over operations of `a`'s time minus `b`'s in the same
    /// operation: the cost of what `a` does and `b` does not.
    pub fn median_diff_us(&self, a: &str, b: &str) -> f64 {
        let diffs: Vec<f64> = self
            .per_op_us(a)
            .iter()
            .zip(self.per_op_us(b))
            .map(|(a, b)| a - b)
            .collect();
        crate::stats::median(&diffs)
    }

    /// The trace file: every span as `{name, start, end, self, parent,
    /// op_id}`, times in microseconds since the tracer was made, `self`
    /// the span's duration minus its children's, `parent` the index of
    /// the enclosing span in this same array or `null`.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                jobj! {
                    "name" => s.name,
                    "start" => s.start_ns as f64 / 1000.0,
                    "end" => s.end_ns as f64 / 1000.0,
                    "self" => self.self_time_us(i),
                    "parent" => s.parent,
                    "op_id" => s.op_id,
                }
            })
            .collect();
        jobj! {
            "workload" => workload,
            "seed" => seed,
            "unit" => "us",
            "spans" => Json::Array(spans),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new();
        tr.begin_op(1);
        tr.span("parent", |tr| {
            spin(300);
            tr.span("child", |tr| {
                spin(200);
                tr.span("grandchild", |_| spin(100));
            });
            tr.span("child", |_| spin(150));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));

        let dur = |i: usize| spans[i].duration_us();
        // Direct children only: the grandchild is inside the first child.
        let expect = dur(0) - dur(1) - dur(3);
        assert!((tr.self_time_us(0) - expect).abs() < 1e-6);
        assert!(tr.self_time_us(0) >= 300.0 && tr.self_time_us(0) < dur(0));
        assert!((tr.self_time_us(1) - (dur(1) - dur(2))).abs() < 1e-6);
        assert!((tr.self_time_us(2) - dur(2)).abs() < 1e-6);

        // Two `child` spans of one operation add up.
        assert_eq!(tr.per_op_us("child").len(), 1);
        assert!((tr.per_op_us("child")[0] - (dur(1) + dur(3))).abs() < 1e-6);
    }

    #[test]
    fn spans_group_by_operation() {
        let mut tr = Tracer::new();
        for op in 0..3 {
            tr.begin_op(op);
            tr.span("scan", |_| spin(10));
            if op != 1 {
                tr.span("sort", |_| spin(10));
            }
        }
        assert_eq!(tr.per_op_us("scan").len(), 3);
        assert_eq!(tr.per_op_us("sort").len(), 2);
        let doc = tr.to_json("w", 9);
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 5);
    }
}
