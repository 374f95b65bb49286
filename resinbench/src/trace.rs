//! Spans recorded from the benchmark's own code, around its calls into
//! each layer. Nothing here reaches inside the program: the socket is
//! timed through a stream wrapper and the app through a forwarding
//! `WebApp`.
//!
//! Each thread records into its own buffer; buffers are merged into one
//! list when the run ends and written out then.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use resin_core::FlowError;
use resin_web::{Request, Response, WebApp};

pub type SpanId = u64;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// The request this span belongs to.
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans kept in memory at most; the traced pass stops when it is hit.
pub const SPAN_CAP: usize = 300_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RECORDED: AtomicUsize = AtomicUsize::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// `(request, parent span)` the app wrapper attaches its span to.
    static CURRENT: Cell<(u64, Option<SpanId>)> = const { Cell::new((0, None)) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn now() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True once the in-memory span budget is spent.
pub fn full() -> bool {
    RECORDED.load(Ordering::Relaxed) >= SPAN_CAP
}

pub fn next_id() -> SpanId {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a finished span with a pre-allocated id (so children could
/// name it as their parent while it was open).
pub fn record_as(
    id: SpanId,
    name: &'static str,
    parent: Option<SpanId>,
    req: u64,
    start: u64,
    end: u64,
) {
    if !enabled() {
        return;
    }
    RECORDED.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        l.borrow_mut().push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        })
    });
}

pub fn record(name: &'static str, parent: Option<SpanId>, req: u64, start: u64, end: u64) {
    record_as(next_id(), name, parent, req, start, end);
}

/// Runs `f` as a leaf span.
pub fn time<T>(name: &'static str, parent: Option<SpanId>, req: u64, f: impl FnOnce() -> T) -> T {
    let start = now();
    let out = f();
    record(name, parent, req, start, now());
    out
}

pub fn set_current(req: u64, parent: Option<SpanId>) {
    CURRENT.with(|c| c.set((req, parent)));
}

/// Moves this thread's spans to the shared sink. Every recording
/// thread calls it before it ends.
pub fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    resin_core::sync::mlock(&SINK).extend(spans);
}

/// All spans recorded so far, in id order, leaving the sink empty.
pub fn collect() -> Vec<Span> {
    flush_thread();
    let mut spans = std::mem::take(&mut *resin_core::sync::mlock(&SINK));
    spans.sort_by_key(|s| s.id);
    RECORDED.store(0, Ordering::Relaxed);
    spans
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Writes spans as tab-separated `id parent req name start end`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.unwrap_or(0),
            s.req,
            s.name,
            s.start,
            s.end
        )?;
    }
    out.flush()
}

/// What the client publishes before it sends a request, so the server
/// side of the same connection can attach its spans: `(request id,
/// request span, send start)`.
#[derive(Debug, Default)]
pub struct Link(Mutex<(u64, SpanId, u64)>);

impl Link {
    pub fn publish(&self, req: u64, span: SpanId, sent: u64) {
        *resin_core::sync::mlock(&self.0) = (req, span, sent);
    }

    fn get(&self) -> (u64, SpanId, u64) {
        *resin_core::sync::mlock(&self.0)
    }
}

/// A socket wrapper that times reads and writes and groups them, per
/// request, under one `server` span parented to the client's request.
pub struct TimedStream<S> {
    inner: S,
    link: Arc<Link>,
    /// `(request, span id, start, end, parent)` of the open server span.
    open: Option<(u64, SpanId, u64, u64, SpanId)>,
}

impl<S> TimedStream<S> {
    pub fn new(inner: S, link: Arc<Link>) -> Self {
        TimedStream {
            inner,
            link,
            open: None,
        }
    }

    fn close(&mut self) {
        if let Some((req, id, start, end, parent)) = self.open.take() {
            record_as(id, "server", Some(parent), req, start, end);
        }
    }
}

impl<S: Read> Read for TimedStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let called = now();
        let n = self.inner.read(buf)?;
        if n == 0 {
            return Ok(0);
        }
        let returned = now();
        let (req, parent, sent) = self.link.get();
        // A blocked read started before the client sent: count from the
        // send, not from the idle wait.
        let start = called.max(sent).min(returned);
        if self.open.map(|o| o.0) != Some(req) {
            self.close();
            let id = next_id();
            self.open = Some((req, id, start, returned, parent));
            set_current(req, Some(id));
        }
        let (req, id, ..) = self.open.expect("server span opened above");
        record("sock_read", Some(id), req, start, returned);
        Ok(n)
    }
}

impl<S: Write> Write for TimedStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = now();
        let n = self.inner.write(buf)?;
        let end = now();
        if let Some(open) = &mut self.open {
            record("sock_write", Some(open.1), open.0, start, end);
            open.3 = end;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S> Drop for TimedStream<S> {
    fn drop(&mut self) {
        self.close();
    }
}

/// A forwarding `WebApp` that times the wrapped app's `handle`.
pub struct TracedApp<A>(pub Arc<A>);

/// The span name of a route's `handle`.
pub fn handle_name(path: &str) -> &'static str {
    match path {
        "/view" => "handle:/view",
        "/view_raw" => "handle:/view_raw",
        "/post" => "handle:/post",
        _ => "handle:other",
    }
}

impl<A: WebApp> WebApp for TracedApp<A> {
    fn handle(&self, req: &Request, resp: &mut Response) -> Result<(), FlowError> {
        let (rid, parent) = CURRENT.with(Cell::get);
        let start = now();
        let out = self.0.handle(req, resp);
        record(handle_name(req.path()), parent, rid, start, now());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "s",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100 with children 10..30 and 20..50 (overlapping: 40
        // covered) and 90..120 (clipped to 90..100: 10 covered).
        // Child 1 has a grandchild that must not count against root.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
            span(5, Some(2), 12, 28),
            span(6, None, 5, 5),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20 - 16);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 16);
        assert_eq!(st[&6], 0);
    }

    #[test]
    fn disjoint_and_nested_children() {
        let spans = vec![
            span(1, None, 100, 200),
            span(2, Some(1), 100, 120),
            span(3, Some(1), 150, 160),
            span(4, Some(1), 155, 158),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 20 - 10);
    }
}
