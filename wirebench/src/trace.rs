//! In-memory span and counter log for the traced run.
//!
//! A span is `(id, parent, name, start, end)` around one call the
//! benchmark makes into a layer's public function. Each thread records
//! into its own [`SpanLog`]; logs are merged and written out once the run
//! ends, so tracing costs one `Instant::now()` pair and a `Vec` push per
//! span while the workload runs.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
    /// Program counters (`DbStats`, `WireStats`) sampled at a boundary.
    pub counters: Vec<(String, Vec<(&'static str, f64)>)>,
}

impl SpanLog {
    /// A log for one thread; `thread` keeps span ids unique across logs
    /// that share `epoch`.
    pub fn new(epoch: Instant, thread: u64) -> SpanLog {
        SpanLog {
            epoch,
            next: (thread << 40) + 1,
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; returns its result.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Open a span whose end is set by [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: u64) -> u64 {
        let id = self.next;
        self.next += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end;
        }
    }

    pub fn counters(&mut self, at: impl Into<String>, values: Vec<(&'static str, f64)>) {
        self.counters.push((at.into(), values));
    }

    /// Move another thread's spans and counters into this log.
    pub fn absorb(&mut self, other: &mut SpanLog) {
        self.spans.append(&mut other.spans);
        self.counters.append(&mut other.counters);
    }

    /// Self times in µs of every span called `name` whose parent span is
    /// called `parent`: its duration minus the part of its interval that
    /// its child spans cover.
    pub fn self_times_us(&self, name: &str, parent: &str) -> Vec<f64> {
        let names: HashMap<u64, &str> = self.spans.iter().map(|s| (s.id, s.name)).collect();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name && names.get(&s.parent) == Some(&parent))
            .map(|s| {
                let mut kids = children.get(&s.id).cloned().unwrap_or_default();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e3
            })
            .collect()
    }

    /// Write every span and counter sample as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"span\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            );
        }
        for (at, values) in &self.counters {
            let body: Vec<String> = values
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v:?}"))
                .collect();
            let _ = writeln!(out, "{{\"counters\": \"{at}\", {}}}", body.join(", "));
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}
