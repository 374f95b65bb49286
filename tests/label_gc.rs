//! Label-lifecycle GC through the product path: [`ForumApp::gc_labels`]
//! sweeps the process-wide label table between request bursts, and the
//! assertions keep firing afterwards because durable policy columns
//! re-intern on read — through the table's attach memo, which the sweep
//! empties so no memo hit can hand out a tombstoned label.
//!
//! These tests sweep the **global** label table (or replace process-wide
//! policy classes), which would race the label handles of unrelated tests
//! sharing the process. As its own integration-test binary this file gets
//! its own process and its own table, and every test holds [`exclusive`]
//! so they never run concurrently with each other.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use resin::lang::{Interp, Value};
use resin_apps::ForumApp;
use resin_core::{
    deserialize_spans, serialize_spans, Context, GateKind, Label, LabelTable, PolicyRef,
    StaticLabel, TaintedString, UntrustedData,
};
use resin_web::server::Server;
use resin_web::{Request, ServedPage, SessionStore};

fn exclusive() -> MutexGuard<'static, ()> {
    static GLOBAL_TABLE: Mutex<()> = Mutex::new(());
    GLOBAL_TABLE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn login(server: &Server, user: &str) -> String {
    let page = server.serve(Request::post("/login").with_param("user", user));
    assert!(page.outcome.is_ok(), "{:?}", page.outcome);
    page.body
}

fn post(server: &Server, sid: &str, body: &str) -> String {
    let page = server.serve(
        Request::post("/post")
            .with_cookie("sid", sid)
            .with_param("body", body),
    );
    assert!(page.outcome.is_ok(), "{:?}", page.outcome);
    page.body.strip_prefix("posted ").unwrap().to_string()
}

/// The status the wire would send: a blocked page answers 403.
fn wire_status(page: &ServedPage) -> u16 {
    if page.blocked() && page.status < 400 {
        403
    } else {
        page.status
    }
}

fn untrusted_from(source: &str) -> Label {
    Label::of(&(Arc::new(UntrustedData::from_source(source)) as PolicyRef))
}

#[test]
fn label_table_plateaus_under_request_churn_with_gc() {
    let _global = exclusive();
    let dir = std::env::temp_dir().join(format!("resin-label-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = Arc::new(ForumApp::open(&dir, Arc::new(SessionStore::new())).unwrap());
    app.db().set_wal_sync(false);
    let server = Server::start(app.clone(), 2);
    let sid = login(&server, "alice");

    let evil_id = server
        .serve(
            Request::post("/post")
                .with_cookie("sid", &sid)
                .with_param("body", "<script>steal()</script>"),
        )
        .body
        .strip_prefix("posted ")
        .unwrap()
        .to_string();

    let mut plateau = Vec::new();
    for round in 0..6 {
        // A burst of tainted traffic: every request interns labels for
        // its parse-boundary taint and its query results.
        for i in 0..20 {
            let page = server.serve(
                Request::post("/post")
                    .with_cookie("sid", &sid)
                    .with_param("body", &format!("round {round} post {i}")),
            );
            assert!(page.outcome.is_ok(), "{:?}", page.outcome);
            let page = server.serve(Request::get("/search").with_param("q", "post"));
            assert!(page.outcome.is_ok(), "{:?}", page.outcome);
        }
        let report = app.gc_labels().unwrap();
        plateau.push(LabelTable::global().label_count());
        if round > 0 {
            assert!(
                report.labels_swept > 0,
                "steady-state bursts must free labels: {report:?}"
            );
        }
    }
    // The table plateaus: later rounds hold no more live labels than the
    // first post-GC measurement (slack for allocator reuse ordering).
    let first = plateau[0];
    for &count in &plateau[1..] {
        assert!(
            count <= first + 4,
            "label table must plateau under churn: {plateau:?}"
        );
    }

    // Policies survive the sweeps: the stored payload still fails closed
    // and a benign read still renders — labels re-intern from the
    // serialized policy columns on demand.
    let page = server.serve(Request::get("/view_raw").with_param("id", &evil_id));
    assert!(
        page.blocked(),
        "XSS must fail closed after GC: {:?}",
        page.outcome
    );
    let page = server.serve(Request::get("/view").with_param("id", &evil_id));
    assert!(page.outcome.is_ok(), "{:?}", page.outcome);
    assert!(page.body.contains("&lt;script&gt;"));

    let _ = std::fs::remove_dir_all(&dir);
}

static GC_SLOT: StaticLabel =
    StaticLabel::new(|| Arc::new(UntrustedData::from_source("gc-static-slot")));

#[test]
fn memo_hits_never_return_swept_labels() {
    let _global = exclusive();
    let table = LabelTable::global();
    let stored = serialize_spans(&TaintedString::with_label(
        "payload",
        untrusted_from("gc-memo"),
    ));
    for round in 0..20 {
        let first = deserialize_spans("payload", &stored).unwrap().label_at(0);
        let hits = table.stats().memo_hits;
        let again = deserialize_spans("payload", &stored).unwrap().label_at(0);
        assert_eq!(again, first, "a memo hit equals the first revival");
        assert!(
            table.stats().memo_hits > hits,
            "round {round}: served by the memo"
        );
        let slot = GC_SLOT.get();
        assert!(table.stats().memo_entries >= 1);

        // Nothing roots or pins these handles: the sweep tombstones them
        // and must take every memo entry and static slot with it.
        table.sweep(std::iter::empty());
        assert_eq!(table.stats().memo_entries, 0, "round {round}");
        assert!(first.has_named("SweptLabel"), "round {round}: {first:?}");
        assert!(slot.has_named("SweptLabel"), "round {round}: {slot:?}");

        let revived = deserialize_spans("payload", &stored).unwrap().label_at(0);
        let fresh_slot = GC_SLOT.get();
        for (label, source) in [(revived, "gc-memo"), (fresh_slot, "gc-static-slot")] {
            assert!(!label.has_named("SweptLabel"), "round {round}: {label:?}");
            assert_eq!(
                label,
                untrusted_from(source),
                "round {round}: equals a fresh intern"
            );
        }
    }
}

#[test]
fn forum_reads_and_attacks_hold_across_gc() {
    let _global = exclusive();
    let dir = std::env::temp_dir().join(format!("resin-label-gc-attacks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = Arc::new(ForumApp::open(&dir, Arc::new(SessionStore::new())).unwrap());
    app.db().set_wal_sync(false);
    let server = Server::start(app.clone(), 2);
    let sid = login(&server, "alice");
    let benign = post(&server, &sid, "hello forum");
    let xss = post(&server, &sid, "<script>steal()</script>");

    for round in 0..5 {
        // Warm the memo, sweep it (and every label) away, then serve
        // everything again from re-interned labels.
        let view = |id: &str| server.serve(Request::get("/view").with_param("id", id));
        assert_eq!(wire_status(&view(&benign)), 200);
        app.gc_labels().unwrap();

        // Allowed reads: 200, escaped where they carry markup.
        let page = view(&benign);
        assert_eq!(wire_status(&page), 200, "round {round}: {:?}", page.outcome);
        assert!(page.body.contains("hello forum"));
        let page = view(&xss);
        assert_eq!(wire_status(&page), 200, "round {round}: {:?}", page.outcome);
        assert!(page.body.contains("&lt;script&gt;") && !page.body.contains("<script>"));
        let page = server.serve(Request::get("/search").with_param("q", "' OR '1'='1"));
        assert_eq!(wire_status(&page), 200, "round {round}: {:?}", page.outcome);
        assert!(
            !page.body.contains("hello forum"),
            "SQLi must not dump rows"
        );

        // Attacks: 403, payload never shipped.
        let page = server.serve(Request::get("/view_raw").with_param("id", &xss));
        assert_eq!(wire_status(&page), 403, "round {round}: stored XSS");
        assert!(!page.body.contains("<script>"));
        let page = server.serve(Request::get("/view_raw").with_param("id", &benign));
        assert_eq!(
            wire_status(&page),
            403,
            "round {round}: unescaped user text"
        );
        let page = server
            .serve(Request::get("/redirect").with_param("to", "/evil\r\n\r\n<html>owned</html>"));
        assert_eq!(wire_status(&page), 403, "round {round}: header splitting");
        assert!(!page.body.contains("owned"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn script_string(interp: &Interp, name: &str) -> TaintedString {
    match interp.global(name) {
        Some(Value::Str(s)) => s,
        other => panic!("`{name}` is not a string: {other:?}"),
    }
}

#[test]
fn reregistered_script_class_revives_with_new_code() {
    let _global = exclusive();
    let mut v1 = Interp::new();
    v1.run(
        r#"class MemoEvolving {
            fn init(n) { this.n = n; }
            fn export_check(context) { if (this.n > 5) { throw "v1 denies"; } }
        }
        let s = policy_add("secret", new MemoEvolving(9));"#,
    )
    .unwrap();
    let stored = serialize_spans(&script_string(&v1, "s"));
    let ctx = Context::new(GateKind::Http);

    let first = deserialize_spans("secret", &stored).unwrap().label_at(0);
    assert_eq!(
        deserialize_spans("secret", &stored).unwrap().label_at(0),
        first
    );
    assert!(
        first.policies()[0].export_check(&ctx).is_err(),
        "v1 code runs"
    );

    // Same class name, new code: the next revival must run the new
    // deserializer, not return the memoized v1 label.
    let mut v2 = Interp::new();
    v2.run(
        r#"class MemoEvolving {
            fn init(n) { this.n = n; }
            fn export_check(context) { if (this.n > 50) { throw "v2 denies"; } }
        }"#,
    )
    .unwrap();
    let evolved = deserialize_spans("secret", &stored).unwrap().label_at(0);
    assert_ne!(evolved.ids()[0], first.ids()[0], "new code, new PolicyId");
    assert!(
        evolved.policies()[0].export_check(&ctx).is_ok(),
        "v2 code runs"
    );
    assert_eq!(
        deserialize_spans("secret", &stored).unwrap().label_at(0),
        evolved
    );
}

#[test]
fn failing_revivals_fail_the_same_way_on_every_read() {
    let _global = exclusive();
    // A sound class whose stored field is undecodable, and a class the
    // linter rejects at definition (so it never registers).
    let mut i = Interp::new();
    i.run(
        r#"class MemoDecodes {
            fn export_check(context) { if (this.n > 1) { throw "no"; } }
        }"#,
    )
    .unwrap();
    let unsound = include_str!("../crates/lang/tests/lint_fixtures/rl003_undefined_method.rsl");
    let lint = Interp::new().run(unsound);
    assert!(lint.unwrap_err().to_string().contains("rejected by lint"));

    let table = LabelTable::global();
    for stored in [
        "#Mystery{}#0..1|0",
        "#UntrustedData{}#0..1|7",
        "#MemoDecodes{n=zz}#0..1|0",
        "#TypoCall{n=i:1}#0..1|0",
        "#UntrustedData{source=%G}#0..1|0",
    ] {
        let read = || deserialize_spans("x", stored).unwrap_err().to_string();
        let first = read();
        // Valid table entries before the failure may be memoized by the
        // first read; the failure itself never is.
        let entries = table.stats().memo_entries;
        for _ in 0..3 {
            assert_eq!(read(), first, "{stored}");
        }
        assert_eq!(
            table.stats().memo_entries,
            entries,
            "{stored}: errors are not memoized"
        );
    }
}
