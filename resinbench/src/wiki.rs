//! The `rsl_wiki` workload: a wiki written in RSL, run in process on
//! one thread, with the identical request stream replayed on a
//! tracking-off interpreter as the baseline.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use resin_core::{Gate, GateKind, LabelTable, PolicyRef, TaintedString, UntrustedData};
use resin_lang::ast::StmtKind;
use resin_lang::{
    check_cache_stats, compiled_policy_chunks, parse_program, Interp, PValue, ScriptPolicy,
    Tracking, Value,
};
use resin_vfs::Vfs;

use crate::content::{self, Kind, MAX_BODY, MIN_BODY};
use crate::report::{Report, LOW_COVERAGE};
use crate::rng::{log_uniform_at, weyl, Rng, Zipf, GOLDEN, SQRT2, WARMUP_STREAM};
use crate::stats::{self, Samples};
use crate::trace::{self, Span};
use crate::Args;

/// The wiki app, modelled on the repository's RSL wiki test. Half the
/// pages carry the read-only `PagePolicy`; the other half carry
/// `AuditedPagePolicy`, which stamps a scratch field on every check —
/// the shape the field-sensitive effects analysis still admits to the
/// check cache.
pub const WIKI_SRC: &str = r#"
class PagePolicy {
    fn init(readers) { this.readers = readers; }
    fn may_read(user) {
        let names = split(this.readers, ",");
        let i = 0;
        while (i < len(names)) {
            if (names[i] == user || names[i] == "*") { return true; }
            i = i + 1;
        }
        return false;
    }
    fn export_check(context) {
        if (this.may_read(context["user"])) { return; }
        throw "insufficient access";
    }
}

class AuditedPagePolicy {
    fn init(readers) { this.readers = readers; }
    fn may_read(user) {
        let names = split(this.readers, ",");
        let i = 0;
        while (i < len(names)) {
            if (names[i] == user || names[i] == "*") { return true; }
            i = i + 1;
        }
        return false;
    }
    fn export_check(context) {
        this.last_reader = context["user"];
        if (this.may_read(context["user"])) { return; }
        throw "insufficient access";
    }
}

fn save_page(name, body, readers, audited) {
    if (audited) {
        file_write("/wiki/" + name, policy_add(body, new AuditedPagePolicy(readers)));
    } else {
        file_write("/wiki/" + name, policy_add(body, new PagePolicy(readers)));
    }
}

fn view_page(name) {
    echo(file_read("/wiki/" + name));
}

fn handle_view(user, name) {
    set_user(user);
    view_page(name);
}

fn handle_edit(user, name, body, readers, audited) {
    set_user(user);
    save_page(name, body, readers, audited);
}

mkdir("/wiki");
"#;

pub const PAGES: usize = 512;
const USERS: usize = 16;
/// Reader lists pages draw from; `*` is everyone.
const GROUPS: &[&str] = &[
    "*",
    "u00,u01,u02,u03",
    "u04,u05,u06,u07,u08",
    "u09,u10",
    "u11,u12,u13,u14,u15",
    "u00,u04,u09,u11",
];
const ALLOWED_SHARE: f64 = 0.85;
const DENIED_SHARE: f64 = 0.10;
const SETUPS: usize = 21;
const WARMUP: Duration = Duration::from_millis(200);
/// The timed run alternates blocks on the two interpreters so both see
/// the same machine conditions.
const TRACKED_BLOCK: Duration = Duration::from_millis(100);
const UNTRACKED_BLOCK: Duration = Duration::from_millis(50);

fn user(u: usize) -> String {
    format!("u{u:02}")
}

fn readers_of(group: usize) -> Vec<usize> {
    if GROUPS[group] == "*" {
        return (0..USERS).collect();
    }
    GROUPS[group]
        .split(',')
        .map(|u| u[1..].parse().expect("user names are uNN"))
        .collect()
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    pub name: String,
    pub group: usize,
    pub audited: bool,
    pub body: String,
}

/// Page `i` is the `i`-th most viewed. Its size, markup and reader list
/// follow Weyl sequences over that rank, so the hottest pages span the
/// same range for every seed; the seed moves the sequences and words.
pub fn pages(seed: u64) -> Vec<Page> {
    let mut rng = Rng::new(seed).fork(0x1D);
    let (size_at, group_at) = (rng.unit(), rng.unit());
    (0..PAGES)
        .map(|i| {
            // A quarter are public; the rest split over the groups.
            let g = weyl(group_at, SQRT2, i);
            let group = if g < 0.25 {
                0
            } else {
                1 + ((g - 0.25) / 0.75 * (GROUPS.len() - 1) as f64) as usize
            };
            let kind = if rng.chance(0.3) {
                Kind::Markup
            } else {
                Kind::Plain
            };
            let len = log_uniform_at(weyl(size_at, GOLDEN, i), MIN_BODY, MAX_BODY);
            Page {
                name: format!("Page{i:03}"),
                group: group.min(GROUPS.len() - 1),
                audited: i % 2 == 1,
                body: content::body_of_len(&mut rng, kind, len).text,
            }
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    View {
        page: usize,
        user: usize,
        allowed: bool,
    },
    Edit {
        page: usize,
        user: usize,
        body: String,
    },
}

/// A seeded wiki request stream.
pub struct Stream {
    rng: Rng,
    zipf: Zipf,
    /// Pages a denied view can target: not public.
    private: Vec<usize>,
    private_zipf: Zipf,
    groups: Vec<usize>,
}

impl Stream {
    pub fn new(seed: u64, pages: &[Page]) -> Stream {
        let private: Vec<usize> = (0..pages.len()).filter(|&i| pages[i].group != 0).collect();
        Stream {
            rng: Rng::new(seed).fork(0x2E),
            zipf: Zipf::new(pages.len(), 0.99),
            private_zipf: Zipf::new(private.len(), 0.99),
            private,
            groups: pages.iter().map(|p| p.group).collect(),
        }
    }

    pub fn next(&mut self) -> Step {
        let u = self.rng.unit();
        if u < ALLOWED_SHARE {
            let page = self.zipf.sample(&mut self.rng);
            let user = self.rng.pick(&readers_of(self.groups[page]));
            Step::View {
                page,
                user,
                allowed: true,
            }
        } else if u < ALLOWED_SHARE + DENIED_SHARE {
            let page = self.private[self.private_zipf.sample(&mut self.rng)];
            let readers = readers_of(self.groups[page]);
            let outsiders: Vec<usize> = (0..USERS).filter(|u| !readers.contains(u)).collect();
            let user = self.rng.pick(&outsiders);
            Step::View {
                page,
                user,
                allowed: false,
            }
        } else {
            let page = self.zipf.sample(&mut self.rng);
            let user = self.rng.pick(&readers_of(self.groups[page]));
            let kind = if self.rng.chance(0.3) {
                Kind::Markup
            } else {
                Kind::Plain
            };
            Step::Edit {
                page,
                user,
                body: content::body(&mut self.rng, kind).text,
            }
        }
    }
}

/// One interpreter with its own copy of the page model and stream.
struct Wiki {
    interp: Interp,
    pages: Vec<Page>,
    stream: Stream,
    tracked: bool,
    read: Samples,
    write: Samples,
    denied: Samples,
    attempted: u64,
    failed: u64,
    fatal: Vec<String>,
    busy: Duration,
    /// Throughput of each `serve` call: the timed run reports the trimmed
    /// mean over its blocks, so a stalled block does not move it.
    per_block: Vec<f64>,
}

fn lang_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn boot(tracking: Tracking, pages: &[Page]) -> Result<Interp, String> {
    let mut interp = match tracking {
        Tracking::On => Interp::new(),
        Tracking::Off => Interp::with_tracking(Tracking::Off),
    };
    interp.run(WIKI_SRC).map_err(lang_err)?;
    for p in pages {
        interp
            .call_function(
                "save_page",
                vec![
                    Value::str(p.name.as_str()),
                    Value::str(p.body.as_str()),
                    Value::str(GROUPS[p.group]),
                    Value::Bool(p.audited),
                ],
            )
            .map_err(lang_err)?;
    }
    Ok(interp)
}

impl Wiki {
    fn new(interp: Interp, seed: u64, pages: &[Page], tracked: bool) -> Wiki {
        Wiki {
            interp,
            pages: pages.to_vec(),
            stream: Stream::new(seed, pages),
            tracked,
            read: Samples::default(),
            write: Samples::default(),
            denied: Samples::default(),
            attempted: 0,
            failed: 0,
            fatal: Vec::new(),
            busy: Duration::ZERO,
            per_block: Vec::new(),
        }
    }

    /// Serves the stream for `dur`; with `probes`, replays each request
    /// through the layer probes.
    fn serve(&mut self, dur: Duration, mut probes: Option<&mut Probes>) {
        let start = Instant::now();
        let before = self.attempted;
        let deadline = start + dur;
        while Instant::now() < deadline && !(probes.is_some() && trace::full()) {
            let step = self.stream.next();
            self.attempted += 1;
            let rid = self.attempted;
            let t0 = trace::now();
            let t = Instant::now();
            let (out, ns) = match &step {
                Step::View { page, user: u, .. } => {
                    let args = vec![
                        Value::str(user(*u)),
                        Value::str(self.pages[*page].name.as_str()),
                    ];
                    let out = self.interp.call_function("handle_view", args);
                    (out, t.elapsed().as_nanos() as u64)
                }
                Step::Edit {
                    page,
                    user: u,
                    body,
                } => {
                    let p = &self.pages[*page];
                    let args = vec![
                        Value::str(user(*u)),
                        Value::str(p.name.as_str()),
                        Value::str(body.as_str()),
                        Value::str(GROUPS[p.group]),
                        Value::Bool(p.audited),
                    ];
                    let out = self.interp.call_function("handle_edit", args);
                    (out, t.elapsed().as_nanos() as u64)
                }
            };
            let name = match step {
                Step::View { .. } => "lang.view_page",
                Step::Edit { .. } => "lang.edit_page",
            };
            trace::record(name, None, rid, t0, trace::now());
            let output = self.interp.http_output();
            self.interp.http().clear_output();
            self.judge(&step, out.map_err(|e| e.violation), &output, ns);
            if let Some(p) = probes.as_deref_mut() {
                p.replay(&mut self.interp, &self.pages, &step, rid);
            }
        }
        self.busy += start.elapsed();
        let served = (self.attempted - before) as f64;
        self.per_block.push(served / start.elapsed().as_secs_f64());
    }

    /// The oracle: allowed views return the page, denied views are
    /// refused with nothing written, edits land.
    fn judge(&mut self, step: &Step, out: Result<Value, bool>, output: &str, ns: u64) {
        match step {
            Step::View {
                page,
                user: u,
                allowed,
            } => {
                let body = &self.pages[*page].body;
                match (allowed, self.tracked, &out) {
                    (true, _, Ok(_)) | (false, false, Ok(_)) if output == body => {
                        if *allowed {
                            self.read.push(ns);
                        }
                    }
                    (false, true, Err(true)) if output.is_empty() => self.denied.push(ns),
                    (false, true, _) if out.is_ok() || !output.is_empty() => {
                        self.failed += 1;
                        if self.fatal.len() < 20 {
                            self.fatal.push(format!(
                                "{} read {} past its policy",
                                user(*u),
                                self.pages[*page].name
                            ));
                        }
                    }
                    _ => self.failed += 1,
                }
            }
            Step::Edit { page, body, .. } => match out {
                Ok(_) => {
                    self.pages[*page].body = body.clone();
                    self.write.push(ns);
                }
                Err(_) => self.failed += 1,
            },
        }
    }
}

/// The layer probes of the traced pass.
struct Probes {
    /// Script policies built from the wiki's own class source, one per
    /// (class, reader list).
    policies: BTreeMap<(bool, usize), PolicyRef>,
    export: Gate,
    http: Gate,
    untrusted: PolicyRef,
}

impl Probes {
    fn new() -> Result<Probes, String> {
        let classes: BTreeMap<String, _> = parse_program(WIKI_SRC)
            .map_err(lang_err)?
            .into_iter()
            .filter_map(|s| match s.kind {
                StmtKind::ClassDef(c) => Some((c.name.clone(), c)),
                _ => None,
            })
            .collect();
        let mut policies = BTreeMap::new();
        for audited in [false, true] {
            let name = if audited {
                "AuditedPagePolicy"
            } else {
                "PagePolicy"
            };
            let class = classes.get(name).ok_or("wiki class missing")?;
            for (g, readers) in GROUPS.iter().enumerate() {
                let fields =
                    BTreeMap::from([("readers".to_string(), PValue::Str(readers.to_string()))]);
                let policy: PolicyRef = Arc::new(ScriptPolicy::new(
                    name.to_string(),
                    fields,
                    Some(class.clone()),
                ));
                policies.insert((audited, g), policy);
            }
        }
        Ok(Probes {
            policies,
            export: Gate::new(GateKind::Http),
            http: Gate::new(GateKind::Http),
            untrusted: Arc::new(UntrustedData::from_source("http_body")),
        })
    }

    fn replay(&mut self, interp: &mut Interp, pages: &[Page], step: &Step, rid: u64) {
        let replay = trace::next_id();
        let parent = Some(replay);
        let r0 = trace::now();
        let (page, u) = match step {
            Step::View { page, user, .. } | Step::Edit { page, user, .. } => (&pages[*page], *user),
        };
        let path = format!("/wiki/{}", page.name);
        let ctx = Vfs::user_ctx(&user(u));
        let stored = trace::time("vfs.read_file", parent, rid, || {
            interp.vfs().read_file(&path, &ctx)
        });
        if let (Step::Edit { .. }, Ok(data)) = (step, &stored) {
            // Writing back what was just read leaves the page as it is.
            trace::time("vfs.write_file", parent, rid, || {
                black_box(interp.vfs().write_file(&path, data, &ctx).is_ok())
            });
        }
        let policy = self.policies[&(page.audited, page.group)].clone();
        let labelled = TaintedString::with_policy(page.body.as_str(), policy);
        self.export.context_mut().set_str("user", user(u));
        trace::time("lang.export_check", parent, rid, || {
            black_box(self.export.write(labelled).is_ok())
        });
        self.export.clear_output();
        let body = TaintedString::with_policy(page.body.as_str(), self.untrusted.clone());
        trace::time("core.gate_write", parent, rid, || {
            black_box(self.http.write(body).is_ok())
        });
        self.http.clear_output();
        trace::record_as(replay, "replay", None, rid, r0, trace::now());
    }
}

/// Alternates blocks on the tracked and untracked interpreters for
/// `secs`. Until `setup_s` holds `setups` samples, it also times a
/// fresh boot at even steps through the run: a set-up this short takes
/// the machine's pace of the moment, so the samples are spread over the
/// run rather than bunched at its start.
fn timed(
    on: &mut Wiki,
    off: &mut Wiki,
    secs: f64,
    pages: &[Page],
    setups: usize,
    setup_s: &mut Vec<f64>,
) -> Result<(), String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let step = secs / setups as f64;
    while Instant::now() < deadline {
        on.serve(TRACKED_BLOCK, None);
        off.serve(UNTRACKED_BLOCK, None);
        if setup_s.len() < setups && start.elapsed().as_secs_f64() >= step * setup_s.len() as f64 {
            let t = Instant::now();
            drop(boot(Tracking::On, pages)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let pages = pages(args.seed);
    let mut report = Report::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let t = Instant::now();
    let interp = boot(Tracking::On, &pages)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut on = Wiki::new(interp, args.seed, &pages, true);
    let mut off = Wiki::new(boot(Tracking::Off, &pages)?, args.seed, &pages, false);

    // Warm-up on a stream of its own, then restart at the seeded head.
    let warm_seed = args.seed ^ WARMUP_STREAM;
    for w in [&mut on, &mut off] {
        w.stream = Stream::new(warm_seed, &pages);
        w.serve(WARMUP, None);
        w.stream = Stream::new(args.seed, &pages);
        w.read = Samples::default();
        w.write = Samples::default();
        w.denied = Samples::default();
        w.attempted = 0;
        w.busy = Duration::ZERO;
        w.per_block.clear();
    }
    let mut probes = if args.trace {
        Some(Probes::new()?)
    } else {
        None
    };
    if let Some(p) = probes.as_mut() {
        // Compile the probe policies' checks before the baseline.
        for page in 0..64 {
            let step = Step::View {
                page,
                user: 0,
                allowed: true,
            };
            p.replay(&mut on.interp, &on.pages, &step, 0);
        }
    }
    let chunks0 = compiled_policy_chunks();

    // The traced pass comes first: it may stop early, when the span
    // budget is spent, and the timed run takes the time left.
    let mut secs = args.seconds;
    let mut traced = None;
    let mut traced_attempted = 0;
    if let Some(p) = probes.as_mut() {
        trace::set_enabled(true);
        on.serve(Duration::from_secs_f64(secs / 2.0), Some(p));
        trace::set_enabled(false);
        secs -= on.busy.as_secs_f64();
        traced = Some((
            on.attempted as f64 / on.busy.as_secs_f64(),
            trace::collect(),
        ));
        traced_attempted = on.attempted;
        on.read = Samples::default();
        on.write = Samples::default();
        on.denied = Samples::default();
        on.attempted = 0;
        on.busy = Duration::ZERO;
        on.per_block.clear();
        on.stream = Stream::new(args.seed, &pages);
    }
    let cache0 = check_cache_stats();
    let labels0 = LabelTable::global().stats().labels;

    timed(&mut on, &mut off, secs, &pages, setups, &mut setup_s)?;
    let cache1 = check_cache_stats();
    let labels1 = LabelTable::global().stats().labels;
    let rps = stats::trimmed_mean(&on.per_block);

    report.put("throughput_rps", "req/s", rps);
    let (read_p50, read_p99) = on.read.p50_p99_us();
    let (write_p50, write_p99) = on.write.p50_p99_us();
    report.put("read_p50_us", "us", read_p50);
    report.put("read_p99_us", "us", read_p99);
    report.put("write_p50_us", "us", write_p50);
    report.put("write_p99_us", "us", write_p99);
    report.put("denied_p50_us", "us", on.denied.p50_p99_us().0);
    report.put("setup_s", "s", stats::median(&setup_s));
    let untracked = off.read.p50_p99_us().0;
    report.put_for(
        "untracked_read_p50_us",
        "us",
        untracked,
        "Tracking::Off baseline of read_p50_us",
    );
    report.notes.push(format!(
        "one thread in process; samples: {} read, {} write, {} denied, {} untracked read",
        on.read.len(),
        on.write.len(),
        on.denied.len(),
        off.read.len()
    ));
    let attempted_timed = on.attempted;

    let mut spans = Vec::new();
    if let Some((traced_rps, traced_spans)) = traced {
        spans = traced_spans;
        report.put_for(
            "trace.overhead_ratio",
            "ratio",
            rps / traced_rps,
            "untraced over traced throughput_rps",
        );
        let path = args
            .out
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        trace::write_tsv(&path, &spans).map_err(|e| e.to_string())?;
        report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
    }
    let chunks = compiled_policy_chunks() - chunks0;

    report.attempted = traced_attempted + on.attempted + off.attempted;
    report.failed = on.failed + off.failed;
    report.fatal.append(&mut on.fatal);
    report.fatal.append(&mut off.fatal);
    report.put("peak_rss_mb", "MiB", stats::peak_rss_mb());
    report.notes.push(format!(
        "failure_ratio {:.6} ({} of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    if chunks != 0 {
        report.notes.push(format!(
            "{chunks} policy chunks compiled after warm-up: the chunk cache is not flat"
        ));
    }

    if args.trace {
        let read = "read_p50_us on rsl_wiki";
        let (hits, misses) = (cache1.0 - cache0.0, cache1.1 - cache0.1);
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        let view: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "lang.view_page")
            .collect();
        let view_reqs: std::collections::HashSet<u64> = view.iter().map(|s| s.req).collect();
        let median = |name: &str| {
            let ns: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration)
                .collect();
            stats::quantile(&ns, 0.5)
        };
        let probe_sum: u64 = spans
            .iter()
            .filter(|s| matches!(s.name, "vfs.read_file" | "lang.export_check"))
            .filter(|s| view_reqs.contains(&s.req))
            .map(Span::duration)
            .sum();
        let view_sum: u64 = view.iter().map(|s| s.duration()).sum();
        let coverage = probe_sum as f64 / view_sum.max(1) as f64;
        report.put_for("lang.view_page_ns", "ns", median("lang.view_page"), read);
        report.put_for(
            "lang.edit_page_ns",
            "ns",
            median("lang.edit_page"),
            "write_p50_us on rsl_wiki",
        );
        report.put_for("lang.check_cache_hit_ratio", "ratio", hit_ratio, read);
        report.put_for(
            "lang.export_check_ns",
            "ns",
            median("lang.export_check"),
            "read_p50_us, denied_p50_us on rsl_wiki",
        );
        report.put_for(
            "lang.policy_chunks_compiled",
            "count",
            chunks as f64,
            "flat after warm-up",
        );
        report.put_for(
            "lang.tracking_overhead",
            "ratio",
            report.get("read_p50_us").unwrap_or(0.0) / untracked,
            "read_p50_us over untracked_read_p50_us (not gated)",
        );
        report.put_for("vfs.read_file_ns", "ns", median("vfs.read_file"), read);
        report.put_for(
            "vfs.write_file_ns",
            "ns",
            median("vfs.write_file"),
            "write_p50_us on rsl_wiki",
        );
        report.put_for(
            "apps.replay_coverage",
            "ratio",
            coverage,
            "share of view_page the probes explain",
        );
        if coverage < LOW_COVERAGE {
            report.notes.push(format!(
                "low replay coverage {coverage:.2}: vfs.read_file and lang.export_check explain under {LOW_COVERAGE} of view_page"
            ));
        }
        report.put_for("core.gate_write_ns", "ns", median("core.gate_write"), read);
        report.put_for(
            "core.labels_per_1k_requests",
            "count",
            (labels1 as f64 - labels0 as f64) * 1000.0 / attempted_timed.max(1) as f64,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_the_same_wiki_stream() {
        let p = pages(3);
        assert_eq!(p, pages(3));
        let take = |seed| {
            let mut s = Stream::new(seed, &p);
            (0..2_000).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
    }

    #[test]
    fn denied_views_target_outsiders() {
        let p = pages(8);
        let mut s = Stream::new(8, &p);
        for _ in 0..5_000 {
            if let Step::View {
                page,
                user,
                allowed,
            } = s.next()
            {
                assert_eq!(readers_of(p[page].group).contains(&user), allowed);
            }
        }
    }

    #[test]
    fn the_wiki_enforces_its_policies() {
        let p = pages(1);
        let mut w = Wiki::new(boot(Tracking::On, &p).unwrap(), 1, &p, true);
        w.serve(Duration::from_millis(50), None);
        assert!(w.attempted > 0);
        assert_eq!(w.failed, 0);
        assert!(w.fatal.is_empty(), "{:?}", w.fatal);
        assert!(w.denied.len() > 0 && w.read.len() > 0);
    }
}
