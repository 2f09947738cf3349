//! Spans recorded around the benchmark's own calls into the simulator,
//! written at exit as Chrome trace-event JSON (Perfetto and
//! chrome://tracing open it).

use pico_sim::Json;
use std::time::Instant;

struct Span {
    name: String,
    cat: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
}

/// A span recorder that is either on (keeps every span in memory) or off
/// (runs the wrapped closure and records nothing).
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: on.then(Vec::new),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; spans `f` opens through the
    /// tracer it is handed become children of this one.
    pub fn span<T>(
        &mut self,
        cat: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let Some(spans) = self.spans.as_mut() else {
            return f(self);
        };
        let id = spans.len();
        spans.push(Span {
            name: name.into(),
            cat,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans.as_mut().expect("tracer stays on")[id];
        span.dur_us = end_us - span.start_us;
        out
    }

    /// The recorded spans as a Chrome trace document (`None` when off).
    pub fn to_json(&self) -> Option<Json> {
        let spans = self.spans.as_ref()?;
        let events = spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::str(s.name.clone())),
                ("cat", Json::str(s.cat)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(1)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::UInt(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                    ]),
                ),
            ])
        });
        Some(Json::obj([
            ("traceEvents", Json::arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ]))
    }
}
