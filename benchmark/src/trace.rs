//! Bench-owned spans around every call into a layer.
//!
//! The program under test is not instrumented: a span opens before the
//! benchmark calls a public function of a layer and closes when the call
//! returns. Spans stay in memory until the run ends and are then written as
//! Chrome trace-event JSON (`chrome://tracing`, Perfetto).

use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped. 200 000 spans are
/// about a dozen traced rounds of the busiest workload and a 25 MB file.
const MAX_SPANS: usize = 200_000;

/// One closed interval of bench-observed work.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The trial the work belongs to; spans of one trial share it.
    pub trial: u64,
}

/// Records spans when on; every call is a branch and nothing else when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

impl Tracer {
    /// A tracer, recording or not.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// Turn recording on or off between rounds (no span may be open).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, trial: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trial,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span. Spans still open inside it, left behind by an early
    /// exit on a failed call, end with it.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        if !self.open.contains(&id) {
            return;
        }
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open as usize].end_ns = now;
            if open == id {
                break;
            }
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A span's duration minus the part of it its child spans cover, summed
    /// per span name, in seconds. Children never overlap: the tracer runs on
    /// the one client thread.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64, u64)> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name: Vec<(&'static str, f64, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += ns as f64 * 1e-9;
                    row.2 += 1;
                }
                None => by_name.push((s.name, ns as f64 * 1e-9, 1)),
            }
        }
        by_name
    }

    /// Write the spans as Chrome trace-event JSON: one complete (`"X"`)
    /// event per span, microsecond timestamps, the parent and trial in
    /// `args`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"trial\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.trial,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("client.fetch", 1);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let trial = t.begin("bench.trial", 7);
        let fetch = t.begin("client.fetch", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(fetch);
        let report = t.begin("client.report", 7);
        t.end(report);
        t.end(trial);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.trial == 7));
        let own = t.self_time_by_name();
        let trial = own.iter().find(|r| r.0 == "bench.trial").unwrap();
        let fetch = own.iter().find(|r| r.0 == "client.fetch").unwrap();
        assert!(fetch.1 >= 0.002);
        assert!(trial.1 < fetch.1, "parent self time excludes the fetch");
    }

    #[test]
    fn a_span_left_open_ends_with_its_parent() {
        let mut t = Tracer::new(true);
        let round = t.begin("bench.round", 0);
        let _abandoned = t.begin("bench.trial", 1);
        t.end(round);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let next = t.begin("bench.round", 1);
        assert_eq!(t.spans()[2].parent, None);
        t.end(next);
    }

    #[test]
    fn chrome_trace_loads_as_json() {
        let mut t = Tracer::new(true);
        let round = t.begin("bench.round", 0);
        let lookup = t.begin("store.lookup", 3);
        t.end(lookup);
        t.end(round);
        let path = std::env::temp_dir().join(format!("ah-bench-trace-{}.json", std::process::id()));
        t.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = serde_json::parse(&text).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["name"].as_str(), Some("store.lookup"));
        assert_eq!(events[1]["args"]["parent"].as_i64(), Some(0));
    }
}
