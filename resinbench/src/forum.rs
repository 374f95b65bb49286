//! The TCP forum workloads, `forum_read` and `forum_write`: keep-alive
//! clients in a closed loop against a `NetServer` fronting a durable
//! `ForumApp`, in the same process.

use std::collections::VecDeque;
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use resin_apps::ForumApp;
use resin_core::{FlowError, Gate, GateKind, LabelTable, PolicyRef, TaintedString, UntrustedData};
use resin_net::{build_request, parse_head, serve_connection, Limits, NetConfig, NetServer};
use resin_sql::{GuardMode, Prepared, SharedDb, Tracking};
use resin_web::{check_html_markers, html_escape, serve_request, Request, Response, SessionStore};

use crate::client::{self, Conn, Reply};
use crate::content::{self, escape_html, Body, Kind, MAX_BODY, MIN_BODY};
use crate::report::{Report, LOW_COVERAGE};
use crate::rng::{log_uniform_at, permutation, weyl, Rng, Zipf, GOLDEN, SQRT2, WARMUP_STREAM};
use crate::stats::{self, Samples};
use crate::trace::{self, Link, Span, TimedStream, TracedApp};
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Read,
    Write,
}

/// The fixed shape of a workload; only the seed varies between runs.
struct Shape {
    /// Posts seeded before the clock starts.
    posts: usize,
    /// Keep-alive connections, one server worker each.
    clients: usize,
    /// Shares of XSS and benign-markup bodies.
    xss: f64,
    markup: f64,
}

const READ: Shape = Shape {
    posts: 50_000,
    clients: 1,
    xss: 0.02,
    markup: 0.33,
};

const WRITE: Shape = Shape {
    posts: 1_000,
    clients: 2,
    xss: 0.05,
    markup: 0.32,
};

/// `forum_read` route shares; the rest are `/view`.
const READ_POST_SHARE: f64 = 0.01;
const READ_DENIED_SHARE: f64 = 0.04;
const READ_RAW_SHARE: f64 = 0.08;
const ZIPF_S: f64 = 0.99;

const WARMUP: Duration = Duration::from_millis(300);

/// Posts seeded through `seed_post`: id `i + 1` holds `bodies[i]`.
pub struct Corpus {
    pub bodies: Vec<Body>,
    /// Zipf rank to post index, so hot posts are scattered over ids.
    pub hot: Vec<usize>,
}

impl Corpus {
    /// Sizes and kinds follow the post's popularity rank along Weyl
    /// sequences, so the hottest posts span the size range alike for
    /// every seed.
    pub fn new(seed: u64, posts: usize, xss: f64, markup: f64) -> Corpus {
        let mut rng = Rng::new(seed).fork(0xC0);
        let hot = permutation(posts, &mut Rng::new(seed).fork(0xAB));
        let (size_at, kind_at) = (rng.unit(), rng.unit());
        let mut bodies = vec![None; posts];
        for (rank, &i) in hot.iter().enumerate() {
            let len = log_uniform_at(weyl(size_at, GOLDEN, rank), MIN_BODY, MAX_BODY);
            let kind = content::kind_at(weyl(kind_at, SQRT2, rank), xss, markup);
            bodies[i] = Some(content::body_of_len(&mut rng, kind, len));
        }
        Corpus {
            bodies: bodies
                .into_iter()
                .map(|b| b.expect("every rank placed"))
                .collect(),
            hot,
        }
    }

    fn ids_where(&self, pred: impl Fn(Kind) -> bool) -> Vec<usize> {
        (0..self.bodies.len())
            .filter(|&i| pred(self.bodies[i].kind))
            .collect()
    }
}

/// One step of a client's request stream. Corpus steps carry a post
/// index; `ReadBack` names the n-th post this client wrote itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    View(usize),
    /// `/view_raw` of a markup-free post: allowed.
    Raw(usize),
    /// `/view_raw` of a markup or XSS post: must be refused.
    RawDenied(usize),
    Post(Body),
    ReadBack(usize),
}

/// A client's seeded request stream.
pub enum Stream {
    Read {
        rng: Rng,
        zipf: Zipf,
        hot: Vec<usize>,
        plain: Vec<usize>,
        marked: Vec<usize>,
    },
    /// Alternates a post with a read of one of the client's own posts.
    Write { rng: Rng, n: u64 },
}

impl Stream {
    pub fn new(mix: Mix, seed: u64, client: usize, corpus: &Corpus) -> Stream {
        let rng = Rng::new(seed).fork(1 + client as u64);
        match mix {
            Mix::Read => Stream::Read {
                rng,
                zipf: Zipf::new(corpus.bodies.len(), ZIPF_S),
                hot: corpus.hot.clone(),
                plain: corpus.ids_where(|k| k == Kind::Plain),
                marked: corpus.ids_where(|k| k != Kind::Plain),
            },
            Mix::Write => Stream::Write { rng, n: 0 },
        }
    }

    /// The next step; `own` is how many posts this client has written.
    pub fn next(&mut self, own: usize) -> Step {
        match self {
            Stream::Read {
                rng,
                zipf,
                hot,
                plain,
                marked,
            } => {
                let u = rng.unit();
                if u < READ_POST_SHARE {
                    let k = content::kind(rng, READ.xss, READ.markup);
                    Step::Post(content::body(rng, k))
                } else if u < READ_POST_SHARE + READ_DENIED_SHARE {
                    Step::RawDenied(rng.pick(marked))
                } else if u < READ_POST_SHARE + READ_DENIED_SHARE + READ_RAW_SHARE {
                    Step::Raw(rng.pick(plain))
                } else {
                    Step::View(hot[zipf.sample(rng)])
                }
            }
            Stream::Write { rng, n } => {
                *n += 1;
                if *n % 2 == 1 || own == 0 {
                    let k = content::kind(rng, WRITE.xss, WRITE.markup);
                    Step::Post(content::body(rng, k))
                } else {
                    Step::ReadBack(rng.below(own))
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    View,
    Raw,
    RawDenied,
    Post,
}

/// What the oracle concluded about one reply.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Wrong but not a security breach: counts toward `failed`.
    Mismatch(String),
    /// A breach: fails the whole run.
    Fatal(String),
}

fn wrap(inner: &str) -> String {
    format!("<div class=\"post\">{inner}</div>")
}

/// Checks one reply against the seeded data.
pub fn check(route: Route, id: i64, body: &Body, reply: &Reply) -> Verdict {
    let leaked = body
        .payload()
        .is_some_and(|p| contains(&reply.body, p.as_bytes()));
    if leaked {
        return Verdict::Fatal(format!(
            "{route:?} of post {id} returned its script payload unescaped (status {})",
            reply.status
        ));
    }
    let expect = |want: String| {
        if reply.status == 200 && reply.body == want.as_bytes() {
            Verdict::Ok
        } else {
            Verdict::Mismatch(format!(
                "{route:?} of post {id}: status {}, {} body bytes",
                reply.status,
                reply.body.len()
            ))
        }
    };
    match route {
        Route::View => expect(wrap(&escape_html(&body.text))),
        Route::Raw => expect(wrap(&body.text)),
        Route::RawDenied => match reply.status {
            403 => Verdict::Ok,
            200 => Verdict::Fatal(format!("/view_raw of post {id} must be refused, got 200")),
            s => Verdict::Mismatch(format!("/view_raw of post {id}: status {s}")),
        },
        Route::Post => match (reply.status, posted_id(reply)) {
            (200, Some(_)) => Verdict::Ok,
            _ => Verdict::Mismatch(format!("POST answered {}", reply.status)),
        },
    }
}

/// The id in a `posted <id>` reply.
fn posted_id(reply: &Reply) -> Option<i64> {
    std::str::from_utf8(&reply.body)
        .ok()?
        .strip_prefix("posted ")?
        .parse()
        .ok()
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Latencies and oracle counts of one client's pass.
#[derive(Default)]
struct Tally {
    read: Samples,
    write: Samples,
    denied: Samples,
    attempted: u64,
    failed: u64,
    fatal: Vec<String>,
    req_bytes: u64,
    resp_bytes: u64,
    acked: Acked,
    /// Wall time of the pass, seconds.
    elapsed: f64,
    /// Throughput samples, req/s: one per whole second of a pass, or
    /// one per `forum_write` round.
    rates: Vec<f64>,
}

/// Posts the server acknowledged: a digest of each body, and whole
/// bodies only for the stored scripts, so memory stays small.
#[derive(Default)]
struct Acked {
    digests: Vec<(i64, u64)>,
    scripts: Vec<(i64, Body)>,
}

impl Acked {
    fn push(&mut self, id: i64, body: &Body) {
        self.digests.push((id, digest(&body.text)));
        if body.kind == Kind::Xss {
            self.scripts.push((id, body.clone()));
        }
    }

    fn extend(&mut self, o: Acked) {
        self.digests.extend(o.digests);
        self.scripts.extend(o.scripts);
    }
}

/// FNV-1a: enough to tell a changed body from the one sent.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// How many of its latest posts a `forum_write` client reads back from.
const OWN_WINDOW: usize = 256;

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.read.extend(o.read);
        self.write.extend(o.write);
        self.denied.extend(o.denied);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.fatal.extend(o.fatal);
        self.req_bytes += o.req_bytes;
        self.resp_bytes += o.resp_bytes;
        self.acked.extend(o.acked);
        self.rates.extend(o.rates);
        self.elapsed += o.elapsed;
    }
}

/// The layer probes a traced client replays each request through.
struct Probes {
    app: Arc<TracedApp<ForumApp>>,
    link: Arc<Link>,
    floor: Conn,
    sel: Prepared,
    /// An in-memory twin with the forum's modes, for the insert probe.
    twin: SharedDb,
    ins: Prepared,
    twin_next: i64,
    gate: Gate,
    untrusted: PolicyRef,
}

struct Client<'a> {
    idx: usize,
    addr: SocketAddr,
    conn: Conn,
    sid: String,
    corpus: &'a Corpus,
    /// This client's latest acknowledged posts.
    own: VecDeque<(i64, Body)>,
    seq: u64,
    tally: Tally,
    probes: Option<Probes>,
    /// When the current pass started, and requests completed in each
    /// of its seconds.
    started: Instant,
    per_second: Vec<u64>,
}

impl Client<'_> {
    fn drive(&mut self, stream: &mut Stream, deadline: Instant, max_posts: usize) {
        let mut posts = 0;
        while Instant::now() < deadline
            && posts < max_posts
            && !(self.probes.is_some() && trace::full())
        {
            match stream.next(self.own.len()) {
                Step::View(i) => self.corpus_read(Route::View, i),
                Step::Raw(i) => self.corpus_read(Route::Raw, i),
                Step::RawDenied(i) => self.corpus_read(Route::RawDenied, i),
                Step::Post(body) => {
                    posts += 1;
                    if let Some(id) = self.exchange(Route::Post, 0, &body) {
                        self.tally.acked.push(id, &body);
                        if self.own.len() == OWN_WINDOW {
                            self.own.pop_front();
                        }
                        self.own.push_back((id, body));
                    }
                }
                Step::ReadBack(n) => {
                    let (id, body) = self.own[n].clone();
                    self.exchange(Route::View, id, &body);
                    // An attacker checking whether their stored script fires.
                    if body.kind == Kind::Xss {
                        self.exchange(Route::RawDenied, id, &body);
                    }
                }
            }
        }
    }

    fn corpus_read(&mut self, route: Route, i: usize) {
        let corpus = self.corpus;
        self.exchange(route, i as i64 + 1, &corpus.bodies[i]);
    }

    /// One timed request; returns the new post's id for an acknowledged
    /// POST.
    fn exchange(&mut self, route: Route, id: i64, body: &Body) -> Option<i64> {
        let bytes = match route {
            Route::View => client::get(&format!("/view?id={id}")),
            Route::Raw | Route::RawDenied => client::get(&format!("/view_raw?id={id}")),
            Route::Post => client::post_form("/post", "body", &body.text, Some(&self.sid)),
        };
        self.seq += 1;
        let rid = ((self.idx as u64) << 40) | self.seq;
        let span = trace::next_id();
        let t0 = trace::now();
        if let Some(p) = &self.probes {
            p.link.publish(rid, span, t0);
        }
        let started = Instant::now();
        let reply = self.conn.send(&bytes).and_then(|()| {
            if self.probes.is_some() {
                trace::record("client_send", Some(span), rid, t0, trace::now());
            }
            self.conn.recv()
        });
        let ns = started.elapsed().as_nanos() as u64;
        trace::record_as(span, "request", None, rid, t0, trace::now());
        self.tally.attempted += 1;
        let second = self.started.elapsed().as_secs() as usize;
        if self.per_second.len() <= second {
            self.per_second.resize(second + 1, 0);
        }
        self.per_second[second] += 1;
        self.tally.req_bytes += bytes.len() as u64;
        let reply = match reply {
            Ok(r) => r,
            Err(_) => {
                self.tally.failed += 1;
                if let Ok(c) = Conn::connect(self.addr) {
                    self.conn = c;
                }
                return None;
            }
        };
        self.tally.resp_bytes += reply.wire_bytes as u64;
        let mut posted = None;
        match check(route, id, body, &reply) {
            Verdict::Ok => match route {
                Route::View | Route::Raw => self.tally.read.push(ns),
                Route::RawDenied => self.tally.denied.push(ns),
                Route::Post => {
                    self.tally.write.push(ns);
                    posted = posted_id(&reply);
                }
            },
            Verdict::Mismatch(_) => self.tally.failed += 1,
            Verdict::Fatal(why) => {
                self.tally.failed += 1;
                if self.tally.fatal.len() < 20 {
                    self.tally.fatal.push(why);
                }
            }
        }
        if self.probes.is_some() {
            self.replay(rid, route, &bytes);
        }
        posted
    }

    /// Replays the request in process through each layer's public
    /// functions, under a `replay` span, then times the same bytes
    /// against the no-op edge server.
    fn replay(&mut self, rid: u64, route: Route, bytes: &[u8]) {
        let p = self.probes.as_mut().expect("replay runs traced");
        let replay = trace::next_id();
        let r0 = trace::now();
        let parent = Some(replay);
        let split = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("request has a head")
            + 4;
        let (head_bytes, body_bytes) = bytes.split_at(split);
        let head = trace::time("net.parse_head", parent, rid, || {
            let head = parse_head(head_bytes).expect("benchmark request parses");
            black_box(
                head.body_length()
                    .expect("benchmark request has a valid length"),
            );
            head
        });
        let _pin = LabelTable::global().pin();
        let body = (!body_bytes.is_empty()).then_some(body_bytes);
        let req: Request = trace::time("net.build_request", parent, rid, || {
            build_request(&head, body)
        });
        let text = if route == Route::Post {
            let value = req.param_or_empty("body");
            let id = p.twin_next;
            p.twin_next += 1;
            trace::time("sql.insert", parent, rid, || {
                black_box(
                    p.twin
                        .exec_prepared(&p.ins, vec![id.into(), (&value).into()]),
                )
                .expect("twin insert")
            });
            value.as_str().to_string()
        } else {
            let serve = trace::next_id();
            let s0 = trace::now();
            trace::set_current(rid, Some(serve));
            black_box(serve_request(p.app.as_ref(), &req));
            trace::record_as(serve, "web.serve_request", parent, rid, s0, trace::now());
            read_probes(p, rid, parent, route, &req)
        };
        let labelled = TaintedString::with_policy(text, p.untrusted.clone());
        trace::time("core.gate_write", parent, rid, || {
            black_box(p.gate.write(labelled).is_ok())
        });
        p.gate.clear_output();
        trace::record_as(replay, "replay", None, rid, r0, trace::now());
        let f0 = trace::now();
        if p.floor.roundtrip(bytes).is_ok() {
            trace::record("net.edge_floor", None, rid, f0, trace::now());
        }
    }
}

/// The `/view` and `/view_raw` work, one layer call at a time. Returns
/// the stored body text.
fn read_probes(
    p: &Probes,
    rid: u64,
    parent: Option<trace::SpanId>,
    route: Route,
    req: &Request,
) -> String {
    let id = req
        .param_or_empty("id")
        .to_int()
        .expect("benchmark ids are numeric");
    let rows = trace::time("sql.select_pk", parent, rid, || {
        p.app.0.db().exec_prepared(&p.sel, vec![id.into()])
    })
    .expect("select by pk");
    let stored = rows
        .cell(0, "body")
        .and_then(|c| c.as_text())
        .map(|t| t.to_owned())
        .unwrap_or_default();
    let mut html = TaintedString::from("<div class=\"post\">");
    if route == Route::View {
        let escaped = trace::time("web.html_escape", parent, rid, || html_escape(&stored));
        html.push_tainted(&escaped);
    } else {
        html.push_tainted(&stored);
    }
    html.push_str("</div>");
    let allowed = trace::time("web.check_html_markers", parent, rid, || {
        check_html_markers(&html).is_ok()
    });
    if allowed {
        trace::time("web.response_echo", parent, rid, || {
            let mut resp = Response::new();
            black_box(resp.echo(html).is_ok());
            black_box(resp.body())
        });
    }
    stored.as_str().to_string()
}

/// The traced server: `serve_connection` over a `TimedStream`, one
/// thread per expected connection, in accept order.
struct TracedServer {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl TracedServer {
    fn bind(app: Arc<TracedApp<ForumApp>>, links: Vec<Arc<Link>>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for link in links {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                let app = app.clone();
                conns.push(std::thread::spawn(move || {
                    let mut timed = TimedStream::new(stream, link);
                    let _ = serve_connection(&mut timed, app.as_ref(), Limits::default());
                    drop(timed);
                    trace::flush_thread();
                }));
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(TracedServer {
            addr,
            accept: Some(accept),
        })
    }

    /// Waits for every connection to close.
    fn join(mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
    }
}

/// A seeded, reopened forum behind a bound server with logged-in
/// clients: everything before the first timed request.
struct Site {
    app: Arc<ForumApp>,
    server: NetServer,
    conns: Vec<(Conn, String)>,
    reopen_s: f64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn labelled(body: &Body, untrusted: &PolicyRef) -> TaintedString {
    match body.kind {
        // Operator-authored text: no label, so `/view_raw` may show it.
        Kind::Plain => TaintedString::from(body.text.as_str()),
        // User-authored: carries the network taint it arrived with.
        _ => TaintedString::with_policy(body.text.as_str(), untrusted.clone()),
    }
}

fn untrusted() -> PolicyRef {
    Arc::new(UntrustedData::from_source("http_body"))
}

/// Forum directories made so far in this run.
static SITES: AtomicUsize = AtomicUsize::new(0);

fn setup(dir: &Path, corpus: &Corpus, clients: usize) -> Result<Site, String> {
    let sessions = Arc::new(SessionStore::new());
    let app = ForumApp::open(dir, sessions.clone()).map_err(err)?;
    // A bulk load: one fsync at the checkpoint instead of one per row.
    app.db().set_wal_sync(false);
    let untrusted = untrusted();
    for body in &corpus.bodies {
        app.seed_post(&labelled(body, &untrusted));
    }
    app.checkpoint().map_err(err)?;
    drop(app);
    let reopen = Instant::now();
    let app = Arc::new(ForumApp::open(dir, sessions).map_err(err)?);
    let reopen_s = reopen.elapsed().as_secs_f64();
    app.db().set_wal_sync(true);
    let last = app
        .db()
        .query_str("SELECT id FROM posts ORDER BY id DESC LIMIT 1")
        .map_err(err)?
        .cell(0, "id")
        .and_then(|c| c.as_int())
        .map(|t| *t.value());
    if last != Some(corpus.bodies.len() as i64) {
        return Err(format!(
            "seeded posts not visible after reopen: last id {last:?}"
        ));
    }
    let server = NetServer::bind(
        "127.0.0.1:0",
        app.clone(),
        NetConfig {
            workers: clients,
            ..NetConfig::default()
        },
    )
    .map_err(err)?;
    let mut conns = Vec::new();
    for c in 0..clients {
        let mut conn = Conn::connect(server.local_addr()).map_err(err)?;
        let sid = client::login(&mut conn, &format!("bench{c}")).map_err(err)?;
        conns.push((conn, sid));
    }
    Ok(Site {
        app,
        server,
        conns,
        reopen_s,
    })
}

/// Runs every client over its own stream for `secs`, or until each has
/// sent `max_posts` posts; returns the merged tally, with the pass's
/// wall time and its throughput in each whole second.
fn pass(
    clients: &mut [Client],
    mix: Mix,
    seed: u64,
    warm: bool,
    secs: f64,
    max_posts: usize,
) -> Tally {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(move || {
                let stream_seed = if warm { seed ^ WARMUP_STREAM } else { seed };
                let mut stream = Stream::new(mix, stream_seed, c.idx, c.corpus);
                c.own.clear();
                c.started = start;
                c.per_second.clear();
                c.drive(&mut stream, deadline, max_posts);
                trace::flush_thread();
            });
        }
    });
    let mut tally = Tally {
        elapsed: start.elapsed().as_secs_f64(),
        ..Tally::default()
    };
    let mut per_second = vec![0u64; tally.elapsed.floor() as usize];
    for c in clients.iter_mut() {
        tally.merge(std::mem::take(&mut c.tally));
        for (total, n) in per_second.iter_mut().zip(&c.per_second) {
            *total += n;
        }
    }
    tally.rates = per_second.into_iter().map(|n| n as f64).collect();
    tally
}

/// What one round measured: a set-up (or several), a warm-up, with
/// tracing a traced pass, and the untraced pass.
struct Round {
    tally: Tally,
    setup_s: Vec<f64>,
    /// Set-up reopens, and for `forum_write` the durability reopen.
    reopen_s: Vec<f64>,
    fsyncs_per_write: f64,
    wal_bytes_per_write: f64,
    labels_per_1k: f64,
    /// Throughput of the traced pass and its spans.
    traced: Option<(f64, Vec<Span>)>,
}

#[allow(clippy::too_many_arguments)]
fn round(
    mix: Mix,
    shape: &Shape,
    corpus: &Corpus,
    args: &Args,
    secs: f64,
    max_posts: usize,
    setups: usize,
    traced: bool,
    report: &mut Report,
) -> Result<Round, String> {
    let (mut setup_s, mut reopen_s) = (Vec::new(), Vec::new());
    let mut site = None;
    let mut dir = PathBuf::new();
    for _ in 0..setups {
        if let Some(old) = site.take() {
            teardown(old);
        }
        // A fresh directory per set-up; all are removed when the run
        // ends, so no deletion lands on the disk while it is measured.
        dir = args
            .scratch
            .join(format!("forum-{}", SITES.fetch_add(1, Ordering::Relaxed)));
        let t = Instant::now();
        let s = setup(&dir, corpus, shape.clients)?;
        setup_s.push(t.elapsed().as_secs_f64());
        reopen_s.push(s.reopen_s);
        site = Some(s);
    }
    let Site {
        app, server, conns, ..
    } = site.expect("at least one set-up");
    let addr = server.local_addr();
    let mut clients: Vec<Client> = conns
        .into_iter()
        .enumerate()
        .map(|(idx, (conn, sid))| Client {
            idx,
            addr,
            conn,
            sid,
            corpus,
            own: VecDeque::new(),
            seq: 0,
            tally: Tally::default(),
            probes: None,
            started: Instant::now(),
            per_second: Vec::new(),
        })
        .collect();

    let warm = pass(
        &mut clients,
        mix,
        args.seed,
        true,
        WARMUP.as_secs_f64(),
        usize::MAX,
    );
    let mut acked = warm.acked;
    report.fatal.extend(warm.fatal);

    // The traced pass comes first: it may stop early, when the span
    // budget is spent, and the untraced pass takes the time left.
    let mut traced_out = None;
    let mut secs = secs;
    if traced {
        let (t, spans) = traced_pass(&mut clients, &app, mix, args, secs / 2.0)?;
        secs -= t.elapsed;
        report.attempted += t.attempted;
        report.failed += t.failed;
        let traced_rps = throughput(&t);
        report.fatal.extend(t.fatal);
        acked.extend(t.acked);
        traced_out = Some((traced_rps, spans));
    }

    let labels0 = LabelTable::global().stats().labels;
    let syncs0 = app.db().wal_sync_count();
    let wal0 = app.store_stats().map_or(0, |s| s.live_wal_bytes);
    let mut tally = pass(&mut clients, mix, args.seed, false, secs, max_posts);
    if max_posts != usize::MAX {
        tally.rates = vec![tally.attempted as f64 / tally.elapsed];
    }
    let labels1 = LabelTable::global().stats().labels;
    let writes = tally.write.len().max(1) as f64;
    let wal1 = app.store_stats().map_or(0, |s| s.live_wal_bytes);
    let mut out = Round {
        setup_s,
        reopen_s,
        fsyncs_per_write: (app.db().wal_sync_count() - syncs0) as f64 / writes,
        wal_bytes_per_write: wal1.saturating_sub(wal0) as f64 / writes,
        labels_per_1k: (labels1 as f64 - labels0 as f64) * 1000.0 / tally.attempted.max(1) as f64,
        traced: traced_out,
        tally: Tally::default(),
    };
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    report.fatal.append(&mut tally.fatal);
    acked.extend(std::mem::take(&mut tally.acked));
    out.tally = tally;

    drop(clients);
    teardown(Site {
        app,
        server,
        conns: Vec::new(),
        reopen_s: 0.0,
    });
    if mix == Mix::Write {
        // The durability check: every acknowledged post survives a
        // reopen byte for byte, and stored scripts are still refused.
        let t = Instant::now();
        let app = Arc::new(ForumApp::open(&dir, Arc::new(SessionStore::new())).map_err(err)?);
        out.reopen_s.push(t.elapsed().as_secs_f64());
        durability(&app, corpus, &acked, report)?;
    }
    Ok(out)
}

/// The traced pass: the same stream against a `TracedServer`, each
/// request replayed through the layer probes afterwards.
fn traced_pass(
    clients: &mut [Client],
    app: &Arc<ForumApp>,
    mix: Mix,
    args: &Args,
    secs: f64,
) -> Result<(Tally, Vec<Span>), String> {
    let addr = clients[0].addr;
    trace::set_enabled(true);
    let links: Vec<Arc<Link>> = clients.iter().map(|_| Arc::default()).collect();
    let traced_app = Arc::new(TracedApp(app.clone()));
    let traced = TracedServer::bind(traced_app.clone(), links.clone()).map_err(err)?;
    let noop = |_: &Request, _: &mut Response| -> Result<(), FlowError> { Ok(()) };
    let floor = NetServer::bind(
        "127.0.0.1:0",
        Arc::new(noop),
        NetConfig {
            workers: clients.len(),
            ..NetConfig::default()
        },
    )
    .map_err(err)?;
    for (c, link) in clients.iter_mut().zip(links) {
        c.conn = Conn::connect(traced.addr).map_err(err)?;
        c.addr = traced.addr;
        let twin = SharedDb::with_modes(Tracking::On, GuardMode::AutoSanitize);
        twin.query_str("CREATE TABLE posts (id INTEGER PRIMARY KEY, body TEXT)")
            .map_err(err)?;
        let ins = twin
            .prepare("INSERT INTO posts VALUES (?, ?)")
            .map_err(err)?;
        c.probes = Some(Probes {
            app: traced_app.clone(),
            link,
            floor: Conn::connect(floor.local_addr()).map_err(err)?,
            sel: app
                .db()
                .prepare("SELECT body FROM posts WHERE id = ?")
                .map_err(err)?,
            twin,
            ins,
            twin_next: 1,
            gate: Gate::new(GateKind::Http),
            untrusted: untrusted(),
        });
    }
    let tally = pass(clients, mix, args.seed, false, secs, usize::MAX);
    for c in clients.iter_mut() {
        // Closing the traced connections ends their server threads.
        c.probes = None;
        c.conn = Conn::connect(addr).map_err(err)?;
        c.addr = addr;
    }
    traced.join();
    drop(floor);
    trace::set_enabled(false);
    Ok((tally, trace::collect()))
}

/// Requests per second: the trimmed mean of the throughput samples, so
/// a stalled second does not move it; with fewer than three samples,
/// the plain mean.
fn throughput(t: &Tally) -> f64 {
    if t.rates.len() >= 3 {
        stats::trimmed_mean(&t.rates)
    } else {
        t.attempted as f64 / t.elapsed.max(1e-9)
    }
}

/// Posts per client in a `forum_write` round. Each round starts from a
/// fresh forum of 1,000 posts and ends at the same size, so memory does
/// not follow how fast the disk was; rounds repeat until `--seconds`
/// is spent, and throughput is the trimmed mean over rounds.
const ROUND_POSTS: usize = 4_000;

/// Set-ups per `forum_read` run; `setup_s` is their median.
const READ_SETUPS: usize = 3;

pub fn run(mix: Mix, args: &Args) -> Result<Report, String> {
    let shape = match mix {
        Mix::Read => READ,
        Mix::Write => WRITE,
    };
    let corpus = Corpus::new(args.seed, shape.posts, shape.xss, shape.markup);
    let mut report = Report::default();
    let rounds = match (mix, args.trace) {
        (_, true) => vec![round(
            mix,
            &shape,
            &corpus,
            args,
            args.seconds,
            usize::MAX,
            1,
            true,
            &mut report,
        )?],
        (Mix::Read, false) => vec![round(
            mix,
            &shape,
            &corpus,
            args,
            args.seconds,
            usize::MAX,
            READ_SETUPS,
            false,
            &mut report,
        )?],
        (Mix::Write, false) => {
            let end = Instant::now() + Duration::from_secs_f64(args.seconds);
            let mut rounds = Vec::new();
            // A round needs a second to say anything about throughput.
            while let Some(left) = end
                .checked_duration_since(Instant::now())
                .filter(|left| rounds.is_empty() || left.as_secs_f64() >= 1.0)
            {
                let secs = left.as_secs_f64();
                rounds.push(round(
                    mix,
                    &shape,
                    &corpus,
                    args,
                    secs,
                    ROUND_POSTS,
                    1,
                    false,
                    &mut report,
                )?);
            }
            rounds
        }
    };

    let mut tally = Tally::default();
    let (mut setup_s, mut reopen_s) = (Vec::new(), Vec::new());
    let (mut fsyncs, mut wal_bytes, mut labels) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = None;
    for r in rounds {
        tally.merge(r.tally);
        setup_s.extend(r.setup_s);
        reopen_s.extend(r.reopen_s);
        fsyncs.push(r.fsyncs_per_write);
        wal_bytes.push(r.wal_bytes_per_write);
        labels.push(r.labels_per_1k);
        traced = traced.or(r.traced);
    }
    let rps = throughput(&tally);
    report.put("throughput_rps", "req/s", rps);
    let (read_p50, read_p99) = tally.read.p50_p99_us();
    let (write_p50, write_p99) = tally.write.p50_p99_us();
    report.put("read_p50_us", "us", read_p50);
    report.put("read_p99_us", "us", read_p99);
    report.put("write_p50_us", "us", write_p50);
    report.put("write_p99_us", "us", write_p99);
    report.put("denied_p50_us", "us", tally.denied.p50_p99_us().0);
    report.put("setup_s", "s", stats::median(&setup_s));
    report.put("peak_rss_mb", "MiB", stats::peak_rss_mb());
    report.notes.push(format!(
        "{} clients, closed loop; samples: {} read, {} write, {} denied",
        shape.clients,
        tally.read.len(),
        tally.write.len(),
        tally.denied.len()
    ));
    report.notes.push(format!(
        "failure_ratio {:.6} ({} of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));

    if let Some((traced_rps, spans)) = traced {
        let path = args
            .out
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        trace::write_tsv(&path, &spans).map_err(err)?;
        report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        report.put_for(
            "trace.overhead_ratio",
            "ratio",
            rps / traced_rps,
            "untraced over traced throughput_rps",
        );
        layer_metrics(&mut report, &spans);
        let per_request = |bytes: u64| bytes as f64 / tally.attempted.max(1) as f64;
        report.put_for(
            "net.request_bytes",
            "bytes",
            per_request(tally.req_bytes),
            "throughput_rps on forum_read and forum_write",
        );
        report.put_for(
            "net.response_bytes",
            "bytes",
            per_request(tally.resp_bytes),
            "throughput_rps on forum_read and forum_write",
        );
        let wal_bytes_per_write = stats::median(&wal_bytes);
        report.put_for(
            "store.fsyncs_per_write",
            "count",
            stats::median(&fsyncs),
            "write_p50_us, throughput_rps on forum_write",
        );
        report.put_for(
            "store.wal_bytes_per_write",
            "bytes",
            wal_bytes_per_write,
            "write_p50_us, throughput_rps on forum_write",
        );
        let payload = if wal_bytes_per_write >= 1.0 {
            wal_bytes_per_write as usize
        } else {
            512
        };
        report.put_for(
            "store.append_fsync_us",
            "us",
            append_fsync_us(&args.scratch.join("store-probe"), payload)?,
            "floors write_p50_us on forum_write",
        );
        report.put_for(
            "store.reopen_s",
            "s",
            stats::median(&reopen_s),
            "setup_s on forum_read and forum_write",
        );
        report.put_for(
            "core.labels_per_1k_requests",
            "count",
            stats::median(&labels),
            "peak_rss_mb on all workloads",
        );
        report.put_for(
            "core.union_cache_entries",
            "count",
            LabelTable::global().stats().union_cache as f64,
            "peak_rss_mb on all workloads",
        );
    }
    Ok(report)
}

fn teardown(site: Site) {
    let Site {
        app,
        mut server,
        conns,
        ..
    } = site;
    drop(conns);
    server.shutdown();
    drop(server);
    drop(app);
}

fn durability(
    app: &Arc<ForumApp>,
    corpus: &Corpus,
    acked: &Acked,
    report: &mut Report,
) -> Result<(), String> {
    let sel = app
        .db()
        .prepare("SELECT body FROM posts WHERE id = ?")
        .map_err(err)?;
    let seeded = corpus
        .bodies
        .iter()
        .enumerate()
        .map(|(i, b)| (i as i64 + 1, b));
    let seeded = seeded.map(|(id, b)| (id, digest(&b.text)));
    for (id, want) in seeded.chain(acked.digests.iter().copied()) {
        let rows = app.db().exec_prepared(&sel, vec![id.into()]).map_err(err)?;
        let stored = rows
            .cell(0, "body")
            .and_then(|c| c.as_text())
            .map(|t| digest(t.as_str()));
        if stored != Some(want) {
            report.fatal(format!(
                "acknowledged post {id} lost or changed after reopen"
            ));
        }
    }
    let mut server =
        NetServer::bind("127.0.0.1:0", app.clone(), NetConfig::default()).map_err(err)?;
    let mut conn = Conn::connect(server.local_addr()).map_err(err)?;
    let mut checked = 0;
    for (id, body) in &acked.scripts {
        let reply = conn
            .roundtrip(&client::get(&format!("/view_raw?id={id}")))
            .map_err(err)?;
        checked += 1;
        if let Verdict::Fatal(why) | Verdict::Mismatch(why) =
            check(Route::RawDenied, *id, body, &reply)
        {
            report.fatal(format!("after reopen: {why}"));
        }
    }
    drop(conn);
    server.shutdown();
    report.notes.push(format!(
        "durability: {} acknowledged posts byte-identical after reopen, {checked} stored scripts still refused",
        acked.digests.len()
    ));
    Ok(())
}

/// Median of `Store::append` with sync on, at `payload` bytes.
fn append_fsync_us(dir: &Path, payload: usize) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (store, _) = resin_store::Store::open(dir).map_err(err)?;
    store.set_sync(true);
    let data = vec![b'x'; payload];
    let mut ns = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        store.append(&data).map_err(err)?;
        ns.push(t.elapsed().as_nanos() as u64);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(stats::quantile(&ns, 0.5) / 1000.0)
}

/// Median duration of spans named `name`, in ns.
fn median_of(spans: &[Span], name: &str) -> f64 {
    let ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect();
    stats::quantile(&ns, 0.5)
}

fn layer_metrics(report: &mut Report, spans: &[Span]) {
    let read_t = "read_p50_us on forum_read";
    let both_t = "read_p50_us, denied_p50_us on forum_read";
    let names: std::collections::HashMap<u64, &str> =
        spans.iter().map(|s| (s.id, s.name)).collect();
    let selfs = trace::self_times(spans);
    let parent_is = |s: &Span, want: &str| s.parent.and_then(|p| names.get(&p)) == Some(&want);

    let dispatch: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "web.serve_request")
        .map(|s| selfs[&s.id])
        .collect();
    let server_handle = |route: &str| {
        let ns: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == route && parent_is(s, "server"))
            .map(Span::duration)
            .collect();
        stats::quantile(&ns, 0.5)
    };
    // How much of the replayed `handle` the layer probes explain.
    let probe_sum: u64 = spans
        .iter()
        .filter(|s| {
            matches!(
                s.name,
                "sql.select_pk"
                    | "web.html_escape"
                    | "web.check_html_markers"
                    | "web.response_echo"
            )
        })
        .map(Span::duration)
        .sum();
    let handle_sum: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("handle:") && parent_is(s, "web.serve_request"))
        .map(Span::duration)
        .sum();
    let coverage = probe_sum as f64 / handle_sum.max(1) as f64;

    report.put_for(
        "net.parse_head_ns",
        "ns",
        median_of(spans, "net.parse_head"),
        read_t,
    );
    report.put_for(
        "net.build_request_ns",
        "ns",
        median_of(spans, "net.build_request"),
        "read_p50_us on forum_read, write_p50_us on forum_write",
    );
    report.put_for(
        "net.edge_floor_us",
        "us",
        median_of(spans, "net.edge_floor") / 1000.0,
        "bounds read_p50_us on forum_read",
    );
    report.put_for(
        "web.dispatch_self_ns",
        "ns",
        stats::quantile(&dispatch, 0.5),
        read_t,
    );
    report.put_for(
        "web.html_escape_ns",
        "ns",
        median_of(spans, "web.html_escape"),
        both_t,
    );
    report.put_for(
        "web.check_html_markers_ns",
        "ns",
        median_of(spans, "web.check_html_markers"),
        both_t,
    );
    report.put_for(
        "web.response_echo_ns",
        "ns",
        median_of(spans, "web.response_echo"),
        both_t,
    );
    report.put_for(
        "apps.handle_ns.view",
        "ns",
        server_handle("handle:/view"),
        "read_p50_us",
    );
    report.put_for(
        "apps.handle_ns.view_raw",
        "ns",
        server_handle("handle:/view_raw"),
        "read_p50_us, denied_p50_us",
    );
    report.put_for(
        "apps.handle_ns.post",
        "ns",
        server_handle("handle:/post"),
        "write_p50_us on forum_write",
    );
    report.put_for(
        "apps.replay_coverage",
        "ratio",
        coverage,
        "share of handle the probes explain",
    );
    if coverage < LOW_COVERAGE {
        report.notes.push(format!(
            "low replay coverage {coverage:.2}: the layer probes explain under {LOW_COVERAGE} of the app span"
        ));
    }
    report.put_for(
        "sql.select_pk_ns",
        "ns",
        median_of(spans, "sql.select_pk"),
        read_t,
    );
    report.put_for(
        "sql.insert_ns",
        "ns",
        median_of(spans, "sql.insert"),
        "write_p50_us on forum_write",
    );
    report.put_for(
        "core.gate_write_ns",
        "ns",
        median_of(spans, "core.gate_write"),
        "read_p50_us on forum_read",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(mix: Mix, seed: u64, client: usize, n: usize, corpus: &Corpus) -> Vec<Step> {
        let mut s = Stream::new(mix, seed, client, corpus);
        (0..n).map(|i| s.next(i / 2)).collect()
    }

    #[test]
    fn a_seed_gives_the_same_stream_every_time() {
        let corpus = Corpus::new(5, 2_000, READ.xss, READ.markup);
        assert_eq!(
            corpus.bodies,
            Corpus::new(5, 2_000, READ.xss, READ.markup).bodies
        );
        for mix in [Mix::Read, Mix::Write] {
            for client in 0..2 {
                let a = steps(mix, 5, client, 3_000, &corpus);
                assert_eq!(a, steps(mix, 5, client, 3_000, &corpus));
                assert_ne!(a, steps(mix, 6, client, 3_000, &corpus));
            }
            assert_ne!(
                steps(mix, 5, 0, 100, &corpus),
                steps(mix, 5, 1, 100, &corpus)
            );
        }
    }

    #[test]
    fn read_mix_has_its_shares() {
        let corpus = Corpus::new(9, 5_000, READ.xss, READ.markup);
        let s = steps(Mix::Read, 9, 0, 50_000, &corpus);
        let share = |f: &dyn Fn(&Step) -> bool| s.iter().filter(|x| f(x)).count() as f64 / 50_000.0;
        let denied = share(&|x| matches!(x, Step::RawDenied(_)));
        let raw = share(&|x| matches!(x, Step::Raw(_)));
        assert!((0.035..0.045).contains(&denied), "{denied}");
        assert!((0.07..0.09).contains(&raw), "{raw}");
        for x in &s {
            match x {
                Step::Raw(i) => assert_eq!(corpus.bodies[*i].kind, Kind::Plain),
                Step::RawDenied(i) => assert_ne!(corpus.bodies[*i].kind, Kind::Plain),
                _ => {}
            }
        }
    }

    fn reply(status: u16, body: &str) -> Reply {
        Reply {
            status,
            body: body.as_bytes().to_vec(),
            wire_bytes: 0,
        }
    }

    #[test]
    fn oracle_accepts_right_and_rejects_wrong_bodies() {
        let body = Body {
            kind: Kind::Markup,
            text: "a <b>b</b> & c".into(),
        };
        let good = reply(
            200,
            "<div class=\"post\">a &lt;b&gt;b&lt;/b&gt; &amp; c</div>",
        );
        assert_eq!(check(Route::View, 1, &body, &good), Verdict::Ok);
        let planted = reply(
            200,
            "<div class=\"post\">a &lt;b&gt;B&lt;/b&gt; &amp; c</div>",
        );
        assert!(matches!(
            check(Route::View, 1, &body, &planted),
            Verdict::Mismatch(_)
        ));
        assert!(matches!(
            check(Route::View, 1, &body, &reply(404, "no such post")),
            Verdict::Mismatch(_)
        ));
    }

    #[test]
    fn oracle_fails_the_run_on_an_unescaped_script_or_a_missed_refusal() {
        let xss = Body {
            kind: Kind::Xss,
            text: "hi \"><script>alert(1)</script>".into(),
        };
        // An unescaped payload is fatal on any route and any status.
        let planted = reply(
            200,
            "<div class=\"post\">hi \"><script>alert(1)</script></div>",
        );
        assert!(matches!(
            check(Route::View, 7, &xss, &planted),
            Verdict::Fatal(_)
        ));
        assert!(matches!(
            check(Route::RawDenied, 7, &xss, &planted),
            Verdict::Fatal(_)
        ));
        // A refusal answered 200, even without the payload, is fatal.
        let served = reply(200, "<div class=\"post\">hi</div>");
        assert!(matches!(
            check(Route::RawDenied, 7, &xss, &served),
            Verdict::Fatal(_)
        ));
        let refused = reply(403, "blocked by data flow assertion\n");
        assert_eq!(check(Route::RawDenied, 7, &xss, &refused), Verdict::Ok);
    }
}
