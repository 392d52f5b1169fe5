//! Host-time spans recorded by the benchmark around every call it makes
//! into a layer. Spans stay in memory (one `Tracer` per client thread,
//! no locking) and are written out when the run ends, as Chrome
//! trace-event JSON that opens in Perfetto next to a guest profile.
//!
//! A layer's self time is its spans' durations minus the part covered by
//! their child spans. The benchmark's own `item` span is the root of each
//! unit of work; its self time is the remainder no layer accounts for.

use codec::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer name of the root span around one item of work.
pub const ROOT: &str = "bench";

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Item id: client index in the high 32 bits, item number below.
    pub req: u64,
}

/// Per-thread span recorder. When off, `begin`/`end` do nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: false,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }
}

/// Self time per layer, in ns, over closed spans.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
        *out.entry(s.layer).or_insert(0) += own;
    }
    out
}

/// Chrome trace-event JSON: one complete (`X`) event per span on a
/// "perfbench host" process track, one thread track per client.
pub fn chrome_trace(per_client: &[Vec<Span>]) -> Json {
    let mut events = vec![Json::obj(vec![
        (
            "args",
            Json::obj(vec![("name", Json::Str("perfbench host".into()))]),
        ),
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::UInt(1)),
    ])];
    for (tid, spans) in per_client.iter().enumerate() {
        events.push(Json::obj(vec![
            (
                "args",
                Json::obj(vec![("name", Json::Str(format!("client {tid}")))]),
            ),
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(tid as u64)),
        ]));
        for s in spans {
            let mut args = vec![("req", Json::UInt(s.req))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::UInt(p as u64)));
            }
            events.push(Json::obj(vec![
                ("args", Json::obj(args)),
                ("cat", Json::Str(s.layer.into())),
                (
                    "dur",
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(tid as u64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ]));
        }
    }
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("store", 10, 40, Some(0)),
            span("djvm", 50, 90, Some(0)),
            span("store", 60, 70, Some(2)),
        ];
        let st = self_time_ns(&spans);
        assert_eq!(st[ROOT], 30);
        assert_eq!(st["store"], 40);
        assert_eq!(st["djvm"], 30);
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let o = t.begin("store", "put");
        t.end(o);
        assert!(t.spans.is_empty());
    }
}
