//! SQL injection and the three guard formulations of §5.3, on the
//! admissions app of §6.2.
//!
//! ```text
//! cargo run --example sql_injection
//! ```

use std::sync::Arc;

use resin::apps::GradApp;
use resin::core::{TaintedString, UntrustedData};
use resin::sql::{GuardMode, SharedDb};

fn main() {
    // The Table 4 scenario: the internal committee UI has three injectable
    // paths; the assertion catches all of them.
    for resin in [false, true] {
        println!(
            "--- admissions app, assertion {} ---",
            if resin { "ON" } else { "off" }
        );
        let app = GradApp::new(resin);
        let hostile = TaintedString::with_policy(
            "admit' OR '1'='1",
            Arc::new(UntrustedData::from_source("http_param")),
        );
        match app.committee_filter_by_decision(&hostile) {
            Ok(r) if !resin => {
                assert_eq!(r.rows.len(), 3, "the injection dumps every applicant");
                println!("query ran; {} rows dumped (SSNs included)", r.rows.len());
            }
            Err(e) if resin && e.is_violation() => println!("prevented: {e}"),
            other => unreachable!("unexpected outcome: {other:?}"),
        }
    }

    // The auto-sanitizing variation: the tolerant tokenizer keeps the
    // hostile quotes inside the literal and the query runs *safely*.
    println!("--- auto-sanitizing SQL filter (tolerant tokenizer) ---");
    let mut db = SharedDb::new();
    db.set_guard(GuardMode::AutoSanitize);
    db.query_str("CREATE TABLE users (name TEXT, pw TEXT)")
        .unwrap();
    db.query_str("INSERT INTO users VALUES ('alice', 'pw1')")
        .unwrap();

    let mut q = TaintedString::from("SELECT pw FROM users WHERE name = '");
    q.push_tainted(&TaintedString::with_policy(
        "x' OR '1'='1",
        Arc::new(UntrustedData::new()),
    ));
    q.push_str("'");
    let r = db.query(&q).expect("sanitized query runs");
    assert!(r.rows.is_empty(), "the hostile name matches nothing");
    println!(
        "injection neutralized: query returned {} rows (attacker wanted 1)",
        r.rows.len()
    );
}
