//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the library's
//! public functions, on the client thread only (calls nest, they never
//! overlap). Each span carries its name, start, end, parent, the id of the
//! operation (scan, request or step) it belongs to, and how many patches it
//! processed. Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Operation id; 0 for side calls outside any operation.
    op: u64,
    /// Patches (or samples) the call processed.
    items: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and call statistics of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub self_ns: u64,
    pub calls: u64,
    pub items: u64,
}

impl Layer {
    /// Self time per processed item, microseconds.
    pub fn us_per_item(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.items.max(1) as f64
    }

    /// Self time per call, seconds.
    pub fn s_per_call(&self) -> f64 {
        self.self_ns as f64 / 1e9 / self.calls.max(1) as f64
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 12),
            stack: Vec::new(),
            op: 0,
            next_op: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `items` patches.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        items: usize,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            items: items as u64,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Runs one operation (scan, request or step) under a fresh operation id
    /// and a root span named `name`; returns its result and wall time.
    pub fn op<R>(
        &mut self,
        name: &'static str,
        items: usize,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        assert!(self.stack.is_empty(), "operations do not nest");
        self.op = self.next_op;
        self.next_op += 1;
        let t0 = Instant::now();
        let out = self.span(name, items, f);
        let wall = t0.elapsed().as_secs_f64();
        self.op = 0;
        (out, wall)
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per-name totals over every recorded span.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            let l = out.entry(s.name).or_default();
            l.self_ns += self_ns;
            l.calls += 1;
            l.items += s.items;
        }
        out
    }

    /// Share of the operations' wall time covered by the self time of the
    /// layer spans inside them (the root spans themselves excluded).
    pub fn coverage(&self) -> f64 {
        let own = self.self_ns();
        let (mut layer_ns, mut wall_ns) = (0u64, 0u64);
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            if s.op == 0 {
                continue;
            }
            if s.parent.is_none() {
                wall_ns += s.dur_ns();
            } else {
                layer_ns += self_ns;
            }
        }
        layer_ns as f64 / wall_ns.max(1) as f64
    }

    /// The spans as JSON, one object per line inside an array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"items\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op, sp.items
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }
}
