//! Integration test for Figure 4: persistent policies through the SQL
//! database, end to end — register a password, store it, pull it back out
//! through a *different* query, and verify every export path still honors
//! the policy. Also covers the §5.3 remark that even a successful SQL
//! injection cannot disclose passwords, because the policy rides the data
//! out of the database.

use std::sync::Arc;

use resin::core::prelude::*;
use resin::sql::{GuardMode, SharedDb};
use resin::web::Response;

fn db_with_password() -> SharedDb {
    let db = SharedDb::new();
    db.query_str("CREATE TABLE userdb (user TEXT, password TEXT)")
        .unwrap();
    let mut q = TaintedString::from("INSERT INTO userdb VALUES ('victim', '");
    q.push_tainted(&TaintedString::with_policy(
        "hunter2",
        Arc::new(PasswordPolicy::new("victim@foo.com")),
    ));
    q.push_str("')");
    db.query(&q).unwrap();
    db
}

#[test]
fn figure4_roundtrip_preserves_policy() {
    let db = db_with_password();
    let r = db
        .query_str("SELECT password FROM userdb WHERE user = 'victim'")
        .unwrap();
    let pw = r.cell(0, "password").unwrap().as_text().unwrap().clone();
    assert_eq!(pw.as_str(), "hunter2");
    assert!(
        pw.has_policy::<PasswordPolicy>(),
        "policy revived from the policy column"
    );
    let policies = pw.label().policies();
    let p = policies
        .iter()
        .find_map(|p| downcast_policy::<PasswordPolicy>(p))
        .unwrap();
    assert_eq!(p.email(), "victim@foo.com");
}

#[test]
fn injected_select_star_cannot_disclose() {
    // §5.3: "even if an application has a SQL injection vulnerability, and
    // an adversary manages to execute SELECT user, password FROM userdb,
    // the policy object for each password will still be de-serialized from
    // the database, and will prevent password disclosure."
    let db = db_with_password();
    let r = db.query_str("SELECT user, password FROM userdb").unwrap();
    let stolen = r.cell(0, "password").unwrap().as_text().unwrap().clone();

    // The adversary's HTTP response is the export boundary that fails.
    let mut browser = Response::for_user("adversary");
    let err = browser.echo(stolen).unwrap_err();
    assert!(err.is_violation());
    assert_eq!(browser.body(), "");
}

#[test]
fn password_flows_to_owner_through_full_stack() {
    let db = db_with_password();
    let r = db.query_str("SELECT password FROM userdb").unwrap();
    let pw = r.cell(0, "password").unwrap().as_text().unwrap().clone();
    let mut mail = Runtime::global().open(GateKind::Email);
    mail.context_mut().set_str("email", "victim@foo.com");
    let mut body = TaintedString::from("your password: ");
    body.push_tainted(&pw);
    mail.write(body).unwrap();
    assert!(mail.output_text().contains("hunter2"));
}

#[test]
fn update_preserves_policies_and_guard_composes() {
    let mut db = db_with_password();
    db.set_guard(GuardMode::StructureCheck);

    // An UPDATE through the filter re-serializes the new policy.
    let mut q = TaintedString::from("UPDATE userdb SET password = '");
    q.push_tainted(&TaintedString::with_policy(
        "newpass",
        Arc::new(PasswordPolicy::new("victim@foo.com")),
    ));
    q.push_str("' WHERE user = 'victim'");
    assert_eq!(db.query(&q).unwrap().affected, 1);

    let r = db.query_str("SELECT password FROM userdb").unwrap();
    let pw = r.cell(0, "password").unwrap().as_text().unwrap().clone();
    assert_eq!(pw.as_str(), "newpass");
    assert!(pw.has_policy::<PasswordPolicy>());

    // The injection guard still protects the same channel.
    let mut evil = TaintedString::from("SELECT password FROM userdb WHERE user = '");
    evil.push_tainted(&TaintedString::with_policy(
        "x' OR '1'='1",
        Arc::new(UntrustedData::new()),
    ));
    evil.push_str("'");
    assert!(db.query(&evil).unwrap_err().is_violation());
}

#[test]
fn policies_survive_sql_then_file_then_http() {
    // DB -> file (xattr) -> RESIN-aware static server: the longest
    // persistence chain in the system.
    use resin::vfs::Vfs;
    let db = db_with_password();
    let r = db.query_str("SELECT password FROM userdb").unwrap();
    let pw = r.cell(0, "password").unwrap().as_text().unwrap().clone();

    let mut fs = Vfs::new();
    let ctx = Vfs::anonymous_ctx();
    fs.mkdir_p("/backup", &ctx).unwrap();
    fs.write_file("/backup/dump.txt", &pw, &ctx).unwrap();

    let mut browser = Response::new();
    let err = resin::web::serve_static_aware(&fs, "/backup/dump.txt", &mut browser).unwrap_err();
    assert!(err.is_violation(), "policy survived two persistence hops");
}
