//! Bench-side spans: one per call the benchmark makes into a layer's
//! public function. Spans are kept in memory while the workload runs and
//! written once at exit as Chrome trace-event JSON, the format the
//! server's `/trace.json` uses, so both load side by side in a viewer.
//!
//! The clock is the flight recorder's (`tirm_obs::flight::now_ns`), so
//! bench spans and the server's lifecycle records share one timeline.

use std::sync::Mutex;
use tirm_obs::flight;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Request id shared by the spans of one operation (an allocation
    /// index, an event index, a mutation's trace id).
    pub req: u64,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// The call.
    pub name: String,
    /// Start, flight-clock nanoseconds.
    pub start_ns: u64,
    /// End, flight-clock nanoseconds.
    pub end_ns: u64,
}

/// In-memory span store. A disabled tracer records nothing but still
/// times the calls it wraps, so traced and untraced runs share one code
/// path.
pub struct Tracer {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span; returns its id (0 when disabled).
    pub fn record(
        &self,
        layer: &'static str,
        name: impl Into<String>,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            req,
            layer,
            name: name.into(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<R>(
        &self,
        layer: &'static str,
        name: &str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = flight::now_ns();
        let out = f();
        let end = flight::now_ns();
        self.record(layer, name, 0, req, start, end);
        (out, (end - start) as f64 / 1e9)
    }

    /// [`Self::time`], but returns the process CPU seconds the call took
    /// (all threads; hypervisor steal excluded) — how set-up is timed.
    pub fn time_cpu<R>(
        &self,
        layer: &'static str,
        name: &str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let cpu = crate::cpu_ns();
        let (out, _) = self.time(layer, name, req, f);
        (out, (crate::cpu_ns() - cpu) as f64 / 1e9)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Chrome trace-event JSON of every span (`"ph":"X"` complete
    /// events, microsecond timestamps; `tid` is the layer so each layer
    /// gets its own track). `args` carries id, parent, request id and
    /// the span's self time.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let pid = std::process::id();
        let mut layers: Vec<&str> = Vec::new();
        let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for c in spans.iter().filter(|c| c.parent != 0) {
            children
                .entry(c.parent)
                .or_default()
                .push((c.start_ns, c.end_ns));
        }
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            let tid = match layers.iter().position(|l| *l == s.layer) {
                Some(t) => t,
                None => {
                    layers.push(s.layer);
                    layers.len() - 1
                }
            };
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let self_ns = crate::stats::self_time((s.start_ns, s.end_ns), kids);
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":{tid},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\
                 \"self_us\":{:.3}}}}}",
                escape(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.req,
                self_ns as f64 / 1e3,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("core", "work", 1, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.record("core", "x", 0, 0, 1, 2), 0);
    }

    #[test]
    fn chrome_json_carries_parent_links_and_self_time() {
        let t = Tracer::new(true);
        let root = t.record("bench", "visible", 0, 3, 1_000, 11_000);
        t.record("tirm_server", "apply", root, 3, 2_000, 6_000);
        t.record("wal", "fsync \"x\"", root, 3, 5_000, 7_000);
        let json = t.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        // 10 µs root minus the 5 µs its children cover together.
        assert!(json.contains("\"id\":1,\"parent\":0,\"req\":3,\"self_us\":5.000"));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("fsync \\\"x\\\""));
        assert_eq!(t.spans().len(), 3);
    }
}
