//! In-memory spans around the benchmark's calls into each layer,
//! written out as Chrome-trace JSON (`chrome://tracing`, Perfetto) when
//! the run ends.
//!
//! A span records its layer name, start, end and parent; every span of
//! one sample carries that sample's id. With tracing off nothing is
//! recorded, and only the phase timers the end-to-end metrics need run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    sample: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open {
    start: Instant,
    ix: Option<usize>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    sample: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            sample: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Spans recorded from now on belong to `sample`.
    pub fn set_sample(&mut self, sample: u32) {
        self.sample = sample;
    }

    /// Open a span that may contain child spans. The timer runs whether
    /// or not tracing is on: phases are what the end-to-end metrics time.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let ix = self.on.then(|| {
            let ix = self.spans.len();
            self.spans.push(Span {
                name,
                sample: self.sample,
                parent: self.stack.last().copied(),
                start_ns: self.nanos(start),
                end_ns: 0,
            });
            self.stack.push(ix);
            ix
        });
        Open { start, ix }
    }

    /// Close `open`; returns its wall seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(ix) = open.ix {
            self.spans[ix].end_ns = self.nanos(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(ix), "spans close in LIFO order");
        }
        (end - open.start).as_secs_f64()
    }

    /// Run `f` inside a leaf span (untimed when tracing is off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Drop the current sample's spans, closed or not (after a panic).
    pub fn discard_sample(&mut self) {
        let sample = self.sample;
        self.spans.retain(|s| s.sample != sample);
        self.stack.clear();
    }

    fn nanos(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    fn current(&self) -> impl Iterator<Item = (usize, &Span)> {
        let sample = self.sample;
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.sample == sample)
    }

    /// Wall seconds per span name in the current sample, summed over its
    /// spans.
    pub fn seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (_, s) in self.current() {
            *out.entry(s.name).or_insert(0.0) += s.seconds();
        }
        out
    }

    /// Self time of the `name` spans in the current sample: their wall
    /// seconds minus what their direct children cover.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (ix, s) in self.current().filter(|(_, s)| s.name == name) {
            let children: f64 = self
                .current()
                .filter(|(_, c)| c.parent == Some(ix))
                .map(|(_, c)| c.seconds())
                .sum();
            total += s.seconds() - children;
        }
        total
    }

    /// The recorded spans as Chrome-trace JSON (complete events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (ix, s) in self.spans.iter().enumerate() {
            if ix > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"sample\":{}}}}}",
                s.name,
                s.sample,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                ix,
                parent,
                s.sample,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
