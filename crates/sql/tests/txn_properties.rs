//! `SharedTransaction` properties over random statement sequences.
//!
//! A seeded generator emits CREATE, INSERT, UPDATE, DELETE, DROP and
//! index DDL over a few tables, with literals that carry `UntrustedData`
//! on some or all of their bytes (escaped quotes included). Each case
//! checks one of two properties of [`SharedDb::begin`]:
//!
//! * rollback — explicit, through a failing commit check, or by dropping
//!   the transaction — leaves every table byte- and label-identical to
//!   its state before `begin`;
//! * on a durable database, a commit followed by a reopen recovers
//!   exactly the live state.
//!
//! Statements may fail (a missing table, a duplicate index); failures
//! are part of the sequence, since a transaction must cover them too.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::TestRng;
use resin_core::{serialize_label, serialize_spans, PolicyViolation, TaintedString, UntrustedData};
use resin_sql::ast::ColumnDef;
use resin_sql::{IndexKind, SharedDb, TCell, Value};

const TABLES: &[&str] = &["a", "b", "c"];
const WORDS: &[&str] = &["alpha", "it''s", "x", "", "o''hara says", "42"];

/// A text literal, quotes included: untainted, fully untrusted, or
/// untrusted on a suffix only.
fn text_lit(rng: &mut TestRng) -> TaintedString {
    let word = WORDS[rng.below(WORDS.len() as u64) as usize];
    let untrusted = |s: &str| TaintedString::with_policy(s, Arc::new(UntrustedData::new()));
    let mut q = TaintedString::from("'");
    match rng.below(3) {
        0 => q.push_str(word),
        1 => q.push_tainted(&untrusted(word)),
        _ => {
            q.push_str("pre-");
            q.push_tainted(&untrusted(word));
        }
    }
    q.push_str("'");
    q
}

/// An integer literal, untrusted half of the time.
fn int_lit(rng: &mut TestRng) -> TaintedString {
    let digits = rng.below(20).to_string();
    if rng.below(2) == 0 {
        TaintedString::from(digits)
    } else {
        TaintedString::with_policy(&digits, Arc::new(UntrustedData::new()))
    }
}

fn rand_stmt(rng: &mut TestRng) -> TaintedString {
    let t = TABLES[rng.below(TABLES.len() as u64) as usize];
    let mut q = TaintedString::new();
    match rng.below(12) {
        0 | 1 => {
            let pk = if rng.below(2) == 0 {
                " PRIMARY KEY"
            } else {
                ""
            };
            q.push_str(&format!("CREATE TABLE {t} (id INTEGER{pk}, body TEXT)"));
        }
        2 => q.push_str(&format!("DROP TABLE {t}")),
        3..=5 => {
            q.push_str(&format!("INSERT INTO {t} VALUES ("));
            for row in 0..=rng.below(3) {
                if row > 0 {
                    q.push_str("), (");
                }
                q.push_tainted(&int_lit(rng));
                q.push_str(", ");
                q.push_tainted(&text_lit(rng));
            }
            q.push_str(")");
        }
        6 | 7 => {
            q.push_str(&format!("UPDATE {t} SET body = "));
            q.push_tainted(&text_lit(rng));
            q.push_str(", id = ");
            q.push_tainted(&int_lit(rng));
            q.push_str(" WHERE id < ");
            q.push_tainted(&int_lit(rng));
        }
        8 | 9 => {
            q.push_str(&format!("DELETE FROM {t} WHERE id > "));
            q.push_tainted(&int_lit(rng));
        }
        10 => {
            let using = if rng.below(2) == 0 { "HASH" } else { "BTREE" };
            q.push_str(&format!("CREATE INDEX ix_{t} ON {t} (body) USING {using}"));
        }
        _ => q.push_str(&format!("DROP INDEX ix_{t} ON {t}")),
    }
    q
}

/// Everything observable about one table: its schema, its raw rows
/// (policy-column blobs included, so byte-identical means label-blob
/// identical), its index definitions, and every cell as revived through
/// the filter, labels rendered per byte range.
#[derive(Debug, PartialEq)]
struct TableState {
    name: String,
    columns: Vec<ColumnDef>,
    rows: Vec<Vec<Value>>,
    indexes: Vec<(String, String, IndexKind)>,
    revived: Vec<Vec<String>>,
}

fn capture(db: &SharedDb) -> Vec<TableState> {
    db.raw()
        .table_names()
        .into_iter()
        .map(|name| {
            let t = db.raw().snapshot_table(&name).expect("listed table");
            let r = db.query_str(&format!("SELECT * FROM {name}")).unwrap();
            let revived = r
                .rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|c| match c {
                            TCell::Null => "NULL".to_string(),
                            TCell::Int(i) => {
                                format!("{} {}", i.value(), serialize_label(i.label()))
                            }
                            TCell::Text(s) => format!("{:?} {}", s.as_str(), serialize_spans(s)),
                        })
                        .collect()
                })
                .collect();
            TableState {
                indexes: t
                    .indexes()
                    .map(|ix| (ix.name().to_string(), ix.column().to_string(), ix.kind()))
                    .collect(),
                columns: t.columns,
                rows: t.rows,
                name,
                revived,
            }
        })
        .collect()
}

/// Runs `n` random statements directly, returning how many succeeded.
fn run_direct(db: &SharedDb, rng: &mut TestRng, n: u64) -> usize {
    (0..n).filter(|_| db.query(&rand_stmt(rng)).is_ok()).count()
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("resin-txn-props-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn rollback_restores_every_table_byte_and_label_identical() {
    let seed = proptest::seed_from_name("rollback_restores_every_table_byte_and_label_identical");
    let mut txn_writes = 0usize;
    for case in 0..64u64 {
        let mut rng = TestRng::new(seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        let db = SharedDb::new();
        let n = 4 + rng.below(12);
        run_direct(&db, &mut rng, n);
        let before = capture(&db);

        let mut txn = db.begin();
        let mut log = Vec::new();
        for _ in 0..1 + rng.below(10) {
            let q = rand_stmt(&mut rng);
            let ok = txn.query(&q).is_ok();
            txn_writes += ok as usize;
            log.push(format!("{} -> {ok}", q.as_str()));
        }
        let how = match rng.below(3) {
            0 => {
                txn.rollback();
                "rollback"
            }
            1 => {
                txn.add_check(Box::new(|_| Err(PolicyViolation::new("Never", "refused"))));
                let err = txn
                    .commit()
                    .expect_err("a failing check must refuse the commit");
                assert!(err.is_violation(), "case {case}: {err}");
                "failed check"
            }
            _ => {
                drop(txn);
                "drop"
            }
        };
        assert_eq!(
            capture(&db),
            before,
            "case {case}: {how} did not restore the state before begin; txn ran:\n{}",
            log.join("\n")
        );
    }
    // The generator must reach real writes, not just failing statements.
    assert!(txn_writes > 100, "only {txn_writes} statements succeeded");
}

#[test]
fn durable_commit_then_reopen_recovers_the_live_state() {
    let seed = proptest::seed_from_name("durable_commit_then_reopen_recovers_the_live_state");
    let mut txn_writes = 0usize;
    for case in 0..32u64 {
        let mut rng = TestRng::new(seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        let dir = tmp_dir("reopen");
        let live = {
            let db = SharedDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            let n = 2 + rng.below(8);
            run_direct(&db, &mut rng, n);
            if rng.below(2) == 0 {
                db.checkpoint().unwrap();
            }
            if rng.below(2) == 0 {
                // A rolled-back transaction in the history must not replay.
                let mut txn = db.begin();
                for _ in 0..1 + rng.below(4) {
                    let _ = txn.query(&rand_stmt(&mut rng));
                }
                txn.rollback();
            }
            let mut txn = db.begin();
            for _ in 0..1 + rng.below(10) {
                txn_writes += txn.query(&rand_stmt(&mut rng)).is_ok() as usize;
            }
            txn.commit().unwrap();
            let n = rng.below(4);
            run_direct(&db, &mut rng, n);
            capture(&db)
        };
        let reopened = SharedDb::open(&dir).unwrap();
        assert_eq!(
            capture(&reopened),
            live,
            "case {case}: reopen differs from the live state"
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(txn_writes > 50, "only {txn_writes} statements succeeded");
}
