//! A keep-alive HTTP load generator for the RESIN network edge.
//!
//! Drives a configurable number of persistent connections at a target
//! for a fixed duration, mixing reads (`GET /view`) with writes
//! (`POST /post`, group-committed through the WAL), and reports
//! throughput plus a latency profile.
//!
//! ```text
//! loadgen [--addr HOST:PORT | --spawn] [--conns N] [--duration-ms MS]
//!         [--write-every K] [--sync on|off] [--replica]
//!         [--lint POLICY.rsl]...
//! ```
//!
//! `--lint` pre-flights RSL policy files through the static analyzer
//! before any traffic is generated: error-severity diagnostics (the
//! shapes load-time registration would reject) abort the run, warnings
//! go to stderr and the run proceeds — the same fail-closed/surface
//! split the interpreter applies at `class` registration.
//!
//! With `--spawn` (the default when no `--addr` is given) the binary
//! self-hosts a durable [`ForumApp`] on an
//! ephemeral port in a temp directory — one command to smoke the whole
//! edge: TCP parse boundary, taint, gates, group-commit WAL. After the
//! run it prints the primary's storage and label-table counters.
//!
//! `--replica` (spawn mode only) additionally ships the primary's store
//! to a second directory, serves it read-only from a second port via
//! [`ForumApp::open_replica`], and verifies over real TCP that replica
//! reads are byte-identical, that a stored XSS payload fails closed on
//! the replica, and that replica writes are refused.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use resin_apps::ForumApp;
use resin_net::{NetConfig, NetServer};
use resin_web::SessionStore;

struct Options {
    addr: Option<String>,
    conns: usize,
    duration: Duration,
    /// Every k-th request is a write; 0 disables writes.
    write_every: usize,
    sync: bool,
    /// Ship to and verify a read replica after the run (spawn mode).
    replica: bool,
    /// RSL policy files to lint before generating any load.
    lint: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT | --spawn] [--conns N] \
         [--duration-ms MS] [--write-every K] [--sync on|off] [--replica] \
         [--lint POLICY.rsl]..."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        addr: None,
        conns: 4,
        duration: Duration::from_millis(2000),
        write_every: 4,
        sync: true,
        replica: false,
        lint: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => opts.addr = Some(value("--addr")),
            "--spawn" => opts.addr = None,
            "--conns" => opts.conns = value("--conns").parse().unwrap_or_else(|_| usage()),
            "--duration-ms" => {
                opts.duration = Duration::from_millis(
                    value("--duration-ms").parse().unwrap_or_else(|_| usage()),
                )
            }
            "--write-every" => {
                opts.write_every = value("--write-every").parse().unwrap_or_else(|_| usage())
            }
            "--sync" => opts.sync = value("--sync") == "on",
            "--replica" => opts.replica = true,
            "--lint" => opts.lint.push(value("--lint")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }
    opts
}

/// Reads one `Content-Length`-delimited response; returns
/// `(status_line, body)`.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(String, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let text = String::from_utf8_lossy(&buf);
        if let Some(head_end) = text.find("\r\n\r\n") {
            let cl = text
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(0);
            if buf.len() >= head_end + 4 + cl {
                let status = text.lines().next().unwrap_or("").to_string();
                let body = text[head_end + 4..head_end + 4 + cl].to_string();
                return Ok((status, body));
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

struct WorkerReport {
    requests: u64,
    errors: u64,
    /// Per-request latencies, microseconds.
    latencies: Vec<u64>,
}

fn worker(addr: &str, deadline: Instant, write_every: usize, id: usize) -> WorkerReport {
    let mut report = WorkerReport {
        requests: 0,
        errors: 0,
        latencies: Vec::new(),
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        report.errors += 1;
        return report;
    };
    let _ = stream.set_nodelay(true);
    // Log in once per connection; the login body is the sid, and the
    // sid cookie authenticates writes.
    let user = format!("user=load{id}");
    let login = format!(
        "POST /login HTTP/1.1\r\nContent-Length: {}\r\n\r\n{user}",
        user.len()
    );
    let sid = match stream
        .write_all(login.as_bytes())
        .and_then(|()| read_response(&mut stream))
    {
        Ok((_, body)) => body,
        Err(_) => {
            report.errors += 1;
            return report;
        }
    };

    // Seed one post and read back its id from the `posted {id}` reply:
    // ids are taken before the insert lands, so a lower id (another
    // worker's seed) may not be readable yet, while our own acknowledged
    // one always is.
    let seed = format!("body=seed+post+from+load{id}");
    let seed_req = format!(
        "POST /post HTTP/1.1\r\nCookie: sid={sid}\r\nContent-Length: {}\r\n\r\n{seed}",
        seed.len()
    );
    let seeded = stream
        .write_all(seed_req.as_bytes())
        .and_then(|()| read_response(&mut stream));
    let post_id = match &seeded {
        Ok((status, body)) if status.contains(" 200 ") => body.strip_prefix("posted "),
        _ => None,
    };
    let Some(post_id) = post_id else {
        report.errors += 1;
        return report;
    };
    let view = format!("GET /view?id={post_id} HTTP/1.1\r\n\r\n");

    let mut n: usize = 0;
    while Instant::now() < deadline {
        n += 1;
        let is_write = write_every != 0 && n.is_multiple_of(write_every);
        let request = if is_write {
            let body = format!("body=hello+from+load{id}+req{n}");
            format!(
                "POST /post HTTP/1.1\r\nCookie: sid={sid}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        } else {
            view.clone()
        };
        let start = Instant::now();
        if stream.write_all(request.as_bytes()).is_err() {
            report.errors += 1;
            break;
        }
        match read_response(&mut stream) {
            Ok((status, _)) => {
                report.requests += 1;
                report
                    .latencies
                    .push(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
                if !status.contains(" 200 ") {
                    report.errors += 1;
                }
            }
            Err(_) => {
                report.errors += 1;
                break;
            }
        }
    }
    report
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let opts = parse_args();

    if opts.replica && opts.addr.is_some() {
        eprintln!("--replica requires spawn mode (no --addr)");
        usage();
    }

    // Pre-flight: lint every --lint policy file before opening a single
    // socket. Errors are the shapes registration would reject at load
    // time — abort now rather than mid-run; warnings surface and pass.
    let mut lint_errors = 0usize;
    for file in &opts.lint {
        let src = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("loadgen: --lint {file}: {e}");
            std::process::exit(1);
        });
        for report in resin_lang::lint_source(&src) {
            for d in &report.diagnostics {
                eprintln!("loadgen: {file}: {}: {d}", report.class_name);
                if d.severity == resin_lang::Severity::Error {
                    lint_errors += 1;
                }
            }
        }
    }
    if lint_errors > 0 {
        eprintln!("loadgen: {lint_errors} lint error(s); refusing to generate load");
        std::process::exit(1);
    }

    // Self-host when no address was given.
    let mut spawned: Option<(NetServer, std::path::PathBuf, Arc<ForumApp>)> = None;
    let addr = match &opts.addr {
        Some(a) => a.clone(),
        None => {
            let dir = std::env::temp_dir().join(format!(
                "resin-loadgen-{}-{:?}",
                std::process::id(),
                Instant::now()
            ));
            let app = Arc::new(
                ForumApp::open(&dir, Arc::new(SessionStore::new())).expect("open durable forum"),
            );
            app.db().set_wal_sync(opts.sync);
            let server = NetServer::bind(
                "127.0.0.1:0",
                app.clone(),
                NetConfig {
                    workers: opts.conns.max(1),
                    ..NetConfig::default()
                },
            )
            .expect("bind");
            let addr = server.local_addr().to_string();
            spawned = Some((server, dir, app));
            addr
        }
    };

    eprintln!(
        "loadgen: {} conns for {:?} against {addr} (write-every={}, sync={})",
        opts.conns, opts.duration, opts.write_every, opts.sync
    );
    let deadline = Instant::now() + opts.duration;
    let started = Instant::now();
    let handles: Vec<_> = (0..opts.conns.max(1))
        .map(|id| {
            let addr = addr.clone();
            let write_every = opts.write_every;
            std::thread::spawn(move || worker(&addr, deadline, write_every, id))
        })
        .collect();

    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut latencies = Vec::new();
    for h in handles {
        let r = h.join().expect("worker panicked");
        requests += r.requests;
        errors += r.errors;
        latencies.extend(r.latencies);
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();

    let rps = requests as f64 / elapsed.as_secs_f64();
    println!(
        "loadgen: {requests} requests in {:.2}s = {rps:.0} req/s ({errors} errors)",
        elapsed.as_secs_f64()
    );
    println!(
        "latency: p50 {}us  p95 {}us  p99 {}us  max {}us",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or(0)
    );

    let mut replica_failed = false;
    if let Some((mut server, dir, app)) = spawned {
        if let Some(stats) = app.store_stats() {
            println!(
                "store: seq {} base {} segments {} wal-bytes {} parts {} dirty-tables {}",
                stats.seq,
                stats.base_seq,
                stats.segments,
                stats.live_wal_bytes,
                stats.parts,
                app.db().dirty_table_count()
            );
        }
        let lt = resin_core::LabelTable::global().stats();
        println!(
            "labels: {} live labels, {} policies, union cache {}, attach memo {} entries \
             ({} hits, {} misses)",
            lt.labels, lt.policies, lt.union_cache, lt.memo_entries, lt.memo_hits, lt.memo_misses
        );
        if opts.replica {
            replica_failed = !verify_replica(&addr, &dir);
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
    if requests == 0 || errors > requests / 2 || replica_failed {
        std::process::exit(1);
    }
}

/// Ships the primary store, serves it read-only on a second port, and
/// checks the replica invariants over real TCP. Returns success.
fn verify_replica(primary_addr: &str, primary_dir: &std::path::Path) -> bool {
    let replica_dir = primary_dir.with_extension("replica");
    let _ = std::fs::remove_dir_all(&replica_dir);

    // Plant a stored-XSS payload on the primary so the replica has an
    // attack to fail closed on, and remember a benign post to compare.
    let mut prim = match TcpStream::connect(primary_addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("replica: primary connect failed: {e}");
            return false;
        }
    };
    let request_ok = |stream: &mut TcpStream, req: String| -> Option<(String, String)> {
        stream.write_all(req.as_bytes()).ok()?;
        read_response(stream).ok()
    };
    let user = "user=replicator";
    let sid = match request_ok(
        &mut prim,
        format!(
            "POST /login HTTP/1.1\r\nContent-Length: {}\r\n\r\n{user}",
            user.len()
        ),
    ) {
        Some((_, body)) => body,
        None => {
            eprintln!("replica: primary login failed");
            return false;
        }
    };
    let post = |prim: &mut TcpStream, body: &str| -> Option<String> {
        let form = format!("body={body}");
        let (_, resp) = request_ok(
            prim,
            format!(
                "POST /post HTTP/1.1\r\nCookie: sid={sid}\r\nContent-Length: {}\r\n\r\n{form}",
                form.len()
            ),
        )?;
        Some(resp.strip_prefix("posted ")?.to_string())
    };
    let Some(benign_id) = post(&mut prim, "replica+comparison+post") else {
        eprintln!("replica: seeding benign post failed");
        return false;
    };
    let Some(evil_id) = post(&mut prim, "%3Cscript%3Esteal()%3C/script%3E") else {
        eprintln!("replica: seeding xss post failed");
        return false;
    };

    if let Err(e) = resin_sql::ship(primary_dir, &replica_dir) {
        eprintln!("replica: ship failed: {e}");
        return false;
    }
    let app = match ForumApp::open_replica(&replica_dir, Arc::new(SessionStore::new())) {
        Ok(app) => Arc::new(app),
        Err(e) => {
            eprintln!("replica: open failed: {e}");
            return false;
        }
    };
    let mut server =
        NetServer::bind("127.0.0.1:0", app.clone(), NetConfig::default()).expect("bind replica");
    let addr = server.local_addr().to_string();
    println!(
        "replica: serving {addr} at applied seq {}",
        app.replica_applied_seq().unwrap_or(0)
    );

    let mut ok = true;
    let mut repl = TcpStream::connect(&addr).expect("replica connect");
    let view = |stream: &mut TcpStream, route: &str, id: &str| {
        let mut s = TcpStream::connect(match stream.peer_addr() {
            Ok(a) => a.to_string(),
            Err(_) => return None,
        })
        .ok()?;
        let _ = stream; // one fresh connection per probe keeps it simple
        s.write_all(format!("GET {route}?id={id} HTTP/1.1\r\n\r\n").as_bytes())
            .ok()?;
        read_response(&mut s).ok()
    };

    // Byte-identical reads.
    let want = view(&mut prim, "/view", &benign_id);
    let got = view(&mut repl, "/view", &benign_id);
    match (&want, &got) {
        (Some((ws, wb)), Some((gs, gb))) if ws == gs && wb == gb => {
            println!("replica: /view byte-identical to primary");
        }
        _ => {
            eprintln!("replica: /view mismatch: primary {want:?} vs replica {got:?}");
            ok = false;
        }
    }

    // Stored XSS fails closed on the replica.
    match view(&mut repl, "/view_raw", &evil_id) {
        Some((status, body)) if !status.contains(" 200 ") && !body.contains("<script>") => {
            println!("replica: /view_raw fails closed ({status})");
        }
        other => {
            eprintln!("replica: /view_raw did NOT fail closed: {other:?}");
            ok = false;
        }
    }

    // Writes are refused.
    let form = "body=diverge";
    match request_ok(
        &mut repl,
        format!(
            "POST /post HTTP/1.1\r\nContent-Length: {}\r\n\r\n{form}",
            form.len()
        ),
    ) {
        Some((status, body)) if status.contains(" 403 ") && body.contains("read-only") => {
            println!("replica: writes refused (403 read-only)");
        }
        other => {
            eprintln!("replica: write was not refused: {other:?}");
            ok = false;
        }
    }

    // A second ship catches the replica up.
    let Some(late_id) = post(&mut prim, "post+after+first+ship") else {
        eprintln!("replica: late post failed");
        return false;
    };
    if let Err(e) = resin_sql::ship(primary_dir, &replica_dir) {
        eprintln!("replica: re-ship failed: {e}");
        return false;
    }
    match app.replica_refresh() {
        Ok(applied) => {
            println!(
                "replica: caught up {applied} records to seq {}",
                app.replica_applied_seq().unwrap_or(0)
            );
        }
        Err(e) => {
            eprintln!("replica: catch-up failed: {e}");
            ok = false;
        }
    }
    match view(&mut repl, "/view", &late_id) {
        Some((status, body)) if status.contains(" 200 ") && body.contains("after first ship") => {
            println!("replica: late write visible after catch-up");
        }
        other => {
            eprintln!("replica: late write missing after catch-up: {other:?}");
            ok = false;
        }
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&replica_dir);
    ok
}
