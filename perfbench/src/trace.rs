//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its calls into each layer (the program itself carries no
//! tracing), kept in memory, and written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The request (call) the span belongs to; spans of one call share it.
    req: u64,
    start: Duration,
    dur: Duration,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Time covered by direct child spans.
    child: Duration,
}

/// In-memory span recorder with explicit begin/end nesting.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name` for request `req`, nested in the
    /// innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        self.spans.push(Span {
            name,
            req,
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
            parent: self.open.last().copied(),
            child: Duration::ZERO,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("end() without an open span");
        let dur = self.origin.elapsed() - self.spans[idx].start;
        self.spans[idx].dur = dur;
        if let Some(parent) = self.spans[idx].parent {
            self.spans[parent].child += dur;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Self time (duration minus direct children) summed per span name,
    /// in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.dur.saturating_sub(s.child).as_secs_f64();
        }
        out
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto) JSON array.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "spans still open at export");
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"req\":{},\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.req,
                i,
                parent
            );
        }
        out.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin("outer", 0);
        std::thread::sleep(Duration::from_millis(2));
        t.span("inner", 0, || std::thread::sleep(Duration::from_millis(5)));
        t.end();
        let s = t.self_seconds();
        assert!(s["inner"] >= 0.005);
        let outer = t.spans[0].dur.as_secs_f64();
        assert!(s["outer"] >= 0.002, "{s:?}");
        assert!((s["outer"] + s["inner"] - outer).abs() < 1e-9, "{s:?}");
    }
}
