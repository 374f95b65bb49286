//! The RESIN database: a table-sharded engine behind an `Arc`.
//!
//! Serving the paper's workloads under real traffic (§6 runs the
//! applications inside live web servers) means many worker threads
//! sharing one database; a single-threaded caller is simply a
//! [`SharedDb`] with one handle.
//!
//! * storage is a [`ShardedDatabase`] — a catalog `RwLock` mapping table
//!   names to `Arc<RwLock<Table>>`, so locking is **per table**: readers
//!   of `posts` never contend with writers of `sessions`, and two readers
//!   of the same table proceed in parallel;
//! * every query runs the RESIN SQL filter of [`crate::rewrite`] (policy
//!   columns, injection guards, the sql gate) over that storage;
//! * `SharedDb` is `Clone` (an `Arc` handle): hand one to every worker.
//!
//! Transactions ([`SharedDb::begin`], [`SharedTransaction`]) snapshot a
//! table lazily, on its first write inside the transaction, so touching
//! one small table never clones the whole database.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};

use resin_core::sync::{mlock, rlock, wlock};

use resin_core::TaintedString;

use crate::ast::{IndexKind, Statement};
use crate::durable::SqlStore;
use crate::engine::{
    check_table_name, new_table, table_delete, table_insert, table_select, table_update,
    QueryResult, Table,
};
use crate::error::{Result, SqlError};
use crate::rewrite::{
    prepare_query, prepare_statement, render_bound_sql, run_prepared, BindValue, BoundStatement,
    GuardMode, Prepared, TaintedResult, Tracking,
};
use crate::txn::{statement_write_target, SharedTransaction};
use crate::value::Value;

type TableShard = Arc<RwLock<Table>>;

/// The lock-sharded storage engine: one `RwLock` per table plus a catalog
/// lock for schema changes.
///
/// All methods take `&self`. Row statements hold the catalog lock in
/// shared mode (readers never block each other; per-table locks provide
/// the sharding), schema statements take it exclusively — so DDL
/// serializes cleanly against in-flight row work.
///
/// When opened durably ([`SharedDb::open`]), the catalog additionally
/// carries the shared snapshot+WAL store. The store handle is lock-free
/// here (`OnceLock`, set once at open): concurrent writers call straight
/// into the store's group-commit queue, which batches their fsyncs —
/// serializing appends behind an outer mutex would defeat exactly that.
#[derive(Debug, Default)]
pub struct ShardedDatabase {
    catalog: RwLock<BTreeMap<String, TableShard>>,
    store: OnceLock<SqlStore>,
    /// Checkpoint exclusion: writers hold it shared across their WAL
    /// append → execute window, `SharedDb::checkpoint` holds it
    /// exclusively — so a snapshot can never land between a statement's
    /// log record and its effect on the tables.
    ckpt: RwLock<()>,
    /// Open transactions that have written. Their table changes are live
    /// but their WAL records are buffered until commit, so a checkpoint
    /// waits for this to reach zero (`txn_done` signals each finish).
    txn_writers: Mutex<usize>,
    txn_done: Condvar,
    /// Live-WAL-bytes threshold above which a completed durable write
    /// triggers a checkpoint. Zero (the default) disables the trigger.
    /// Shared by every handle clone — retention is a store-wide policy.
    auto_ckpt_wal_bytes: std::sync::atomic::AtomicU64,
}

// Both lock levels guard data that is consistent at every panic point
// (rows are staged before being extended in; catalog changes are single
// map operations), so a panicking worker must not poison the database for
// every other request — the poison-recovering accessors of
// `resin_core::sync` apply.

impl ShardedDatabase {
    /// An empty sharded database.
    pub fn new() -> Self {
        ShardedDatabase::default()
    }

    fn resolve<'a>(
        catalog: &'a BTreeMap<String, TableShard>,
        name: &str,
    ) -> Result<&'a TableShard> {
        catalog
            .get(name)
            .ok_or_else(|| SqlError::schema(format!("no such table `{name}`")))
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        rlock(&self.catalog).keys().cloned().collect()
    }

    /// A point-in-time copy of one table, if it exists.
    pub fn snapshot_table(&self, name: &str) -> Option<Table> {
        let catalog = rlock(&self.catalog);
        let shard = catalog.get(name)?;
        let copy = rlock(shard).clone();
        Some(copy)
    }

    /// Restores one table to a snapshot: `Some` replaces (or re-creates)
    /// the table, `None` drops it.
    pub fn restore_table(&self, name: &str, snapshot: Option<Table>) {
        match snapshot {
            Some(t) => {
                let mut catalog = wlock(&self.catalog);
                match catalog.get(name) {
                    // Swap contents in place so concurrent holders of the
                    // shard Arc observe the restored state too.
                    Some(shard) => *wlock(shard) = t,
                    None => {
                        catalog.insert(name.to_string(), Arc::new(RwLock::new(t)));
                    }
                }
            }
            None => {
                wlock(&self.catalog).remove(name);
            }
        }
    }

    /// Executes one parsed statement against the sharded storage.
    ///
    /// Row statements hold the catalog lock in *shared* mode for their
    /// whole run (sharding comes from the per-table locks), so a schema
    /// change — which takes the catalog lock exclusively — serializes
    /// against in-flight row work instead of detaching a shard mid-write:
    /// a write racing a `DROP TABLE` either lands before the drop or
    /// reports "no such table", never a silently-lost `Ok`.
    pub fn execute(&self, stmt: &Statement, params: &[Value]) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
                primary_key,
            } => {
                let mut catalog = wlock(&self.catalog);
                if catalog.contains_key(name) {
                    // Existence wins over column validation: IF NOT EXISTS
                    // on an existing table is a no-op even for an invalid
                    // column list.
                    if *if_not_exists {
                        return Ok(QueryResult::default());
                    }
                    return Err(SqlError::schema(format!("table `{name}` already exists")));
                }
                check_table_name(name)?;
                let mut table = new_table(columns)?;
                if let Some(pk) = primary_key {
                    table.create_index(&format!("pk_{name}"), pk, IndexKind::Ordered, false)?;
                }
                catalog.insert(name.clone(), Arc::new(RwLock::new(table)));
                Ok(QueryResult::default())
            }
            Statement::DropTable { name } => {
                if wlock(&self.catalog).remove(name).is_none() {
                    return Err(SqlError::schema(format!("no such table `{name}`")));
                }
                Ok(QueryResult::default())
            }
            Statement::CreateIndex {
                name,
                table,
                column,
                kind,
                if_not_exists,
            } => {
                // Index DDL mutates one table, not the catalog map, so the
                // catalog lock stays shared — like a row statement.
                let catalog = rlock(&self.catalog);
                let shard = Self::resolve(&catalog, table)?;
                wlock(shard).create_index(name, column, *kind, *if_not_exists)?;
                Ok(QueryResult::default())
            }
            Statement::DropIndex { name, table } => {
                let catalog = rlock(&self.catalog);
                let shard = Self::resolve(&catalog, table)?;
                wlock(shard).drop_index(name)?;
                Ok(QueryResult::default())
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let catalog = rlock(&self.catalog);
                let shard = Self::resolve(&catalog, table)?;
                let mut t = wlock(shard);
                let affected = table_insert(&mut t, table, columns.as_deref(), rows, params)?;
                Ok(QueryResult {
                    affected,
                    ..QueryResult::default()
                })
            }
            Statement::Select(sel) => {
                let catalog = rlock(&self.catalog);
                let shard = Self::resolve(&catalog, &sel.table)?;
                let t = rlock(shard);
                table_select(&t, sel, params)
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                let catalog = rlock(&self.catalog);
                let shard = Self::resolve(&catalog, table)?;
                let mut t = wlock(shard);
                let affected = table_update(&mut t, assignments, where_clause.as_ref(), params)?;
                Ok(QueryResult {
                    affected,
                    ..QueryResult::default()
                })
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let catalog = rlock(&self.catalog);
                let shard = Self::resolve(&catalog, table)?;
                let mut t = wlock(shard);
                let affected = table_delete(&mut t, where_clause.as_ref(), params)?;
                Ok(QueryResult {
                    affected,
                    ..QueryResult::default()
                })
            }
        }
    }

    /// Parses and executes a query string (tests and diagnostics).
    pub fn execute_str(&self, sql: &str) -> Result<QueryResult> {
        let stmt = crate::parser::parse_str(sql)?;
        self.execute(&stmt, &[])
    }

    /// The access path the planner would pick for a SELECT — a one-line
    /// `EXPLAIN` (e.g. `probe-eq(users via pk_users [BTREE], 1 key)`)
    /// for tests and diagnostics. Non-SELECT statements report
    /// `(not a select)`.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let Statement::Select(sel) = crate::parser::parse_str(sql)? else {
            return Ok("(not a select)".to_string());
        };
        let catalog = rlock(&self.catalog);
        let t = rlock(Self::resolve(&catalog, &sel.table)?);
        Ok(crate::plan::explain_select(&t, &sel, &[]))
    }

    /// All column names of `table`, policy columns included, or a schema
    /// error when the table does not exist.
    pub(crate) fn columns_of(&self, table: &str) -> Result<Vec<String>> {
        let catalog = rlock(&self.catalog);
        let t = rlock(Self::resolve(&catalog, table)?);
        Ok(t.columns.iter().map(|c| c.name.clone()).collect())
    }
}

/// An `Arc`-shareable RESIN database: clone a handle per worker thread.
///
/// Each handle carries its own [`Tracking`]/[`GuardMode`] settings (so a
/// trusted maintenance path can run unguarded while request handlers keep
/// the injection guard), while all handles share the same sharded storage.
///
/// # Examples
///
/// ```
/// use resin_sql::{GuardMode, SharedDb};
///
/// let db = SharedDb::new();
/// db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)").unwrap();
///
/// let handle = db.clone();
/// let t = std::thread::spawn(move || {
///     handle.query_str("INSERT INTO posts VALUES (1, 'hello')").unwrap();
/// });
/// t.join().unwrap();
/// let r = db.query_str("SELECT body FROM posts").unwrap();
/// assert_eq!(r.rows.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedDb {
    inner: Arc<ShardedDatabase>,
    tracking: Tracking,
    guard: GuardMode,
    durable: bool,
    torn_recovery: bool,
    torn_cross_segment: bool,
}

impl SharedDb {
    /// A RESIN-tracked shared database with no injection guard.
    pub fn new() -> Self {
        SharedDb::default()
    }

    /// A shared database with explicit tracking and guard settings.
    pub fn with_modes(tracking: Tracking, guard: GuardMode) -> Self {
        SharedDb {
            inner: Arc::new(ShardedDatabase::new()),
            tracking,
            guard,
            durable: false,
            torn_recovery: false,
            torn_cross_segment: false,
        }
    }

    /// A non-durable shared database pre-loaded with a table catalog —
    /// the substrate of a read replica ([`crate::replica::Follower`]).
    pub(crate) fn from_tables(
        tables: BTreeMap<String, Table>,
        tracking: Tracking,
        guard: GuardMode,
    ) -> Self {
        let sharded = ShardedDatabase::new();
        {
            let mut catalog = wlock(&sharded.catalog);
            for (name, t) in tables {
                catalog.insert(name, Arc::new(RwLock::new(t)));
            }
        }
        SharedDb {
            inner: Arc::new(sharded),
            tracking,
            guard,
            durable: false,
            torn_recovery: false,
            torn_cross_segment: false,
        }
    }

    /// Opens (creating if needed) a durable shared database rooted at
    /// `dir`: loads the last checkpoint, replays the WAL's surviving
    /// prefix (torn tail tolerated), and logs every subsequent mutating
    /// statement write-ahead. All clones share the store.
    ///
    /// Applications persisting **custom** policy classes must register
    /// them (`register_policy_class`) before opening: WAL replay revives
    /// each logged query's taint, which deserializes its policies
    /// (snapshot cells stay serialized until a SELECT revives them).
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Self> {
        Self::open_with_modes(dir, Tracking::On, GuardMode::Off)
    }

    /// [`open`](SharedDb::open) with explicit tracking and guard settings
    /// (reopen with the same tracking mode the store was written under).
    pub fn open_with_modes(
        dir: impl AsRef<std::path::Path>,
        tracking: Tracking,
        guard: GuardMode,
    ) -> Result<Self> {
        let (store, recovered) = SqlStore::open(dir)?;
        let sharded = ShardedDatabase::new();
        {
            let mut catalog = wlock(&sharded.catalog);
            for (name, t) in recovered.tables {
                catalog.insert(name, Arc::new(RwLock::new(t)));
            }
        }
        for sql in &recovered.replay {
            // Post-guard text: skip the gate, re-run the same rewrite. A
            // statement that errors here failed identically pre-crash.
            let _ = Self::replay_on(&sharded, sql, tracking);
        }
        let _ = sharded.store.set(store);
        Ok(SharedDb {
            inner: Arc::new(sharded),
            tracking,
            guard,
            durable: true,
            torn_recovery: recovered.torn_tail,
            torn_cross_segment: recovered.torn_cross_segment,
        })
    }

    /// True when this open discarded a torn WAL tail: the store is
    /// consistent, but acknowledged-but-unsynced work from the crashed
    /// process may have been lost — worth logging or alerting on.
    pub fn recovered_from_torn_wal(&self) -> bool {
        self.torn_recovery
    }

    /// True when the torn tail spanned a segment boundary, so recovery
    /// dropped one or more whole later segments — a wider loss window
    /// than one in-flight append.
    pub fn recovered_torn_cross_segment(&self) -> bool {
        self.torn_cross_segment
    }

    /// Replays one post-guard statement through the standard rewrite
    /// pipeline (read replicas apply shipped WAL records with this).
    pub(crate) fn replay(&self, sql: &TaintedString) -> Result<()> {
        Self::replay_on(&self.inner, sql, self.tracking)
    }

    /// Replaces the whole catalog (read replicas rebuilding from a newer
    /// shipped checkpoint). In-flight readers holding a shard `Arc`
    /// finish against the old table; new queries resolve the new one.
    pub(crate) fn reset_tables(&self, tables: BTreeMap<String, Table>) {
        let mut catalog = wlock(&self.inner.catalog);
        catalog.clear();
        for (name, t) in tables {
            catalog.insert(name, Arc::new(RwLock::new(t)));
        }
    }

    fn replay_on(sharded: &ShardedDatabase, sql: &TaintedString, tracking: Tracking) -> Result<()> {
        let tokens = crate::token::lex(sql.as_str())?;
        let stmt = crate::parser::parse(&tokens)?;
        run_prepared(sharded, sql, stmt, tracking, &[])?;
        Ok(())
    }

    /// Runs the rewrite + execute back half of the pipeline on a statement
    /// that has already crossed the guard and been parsed.
    pub(crate) fn run_parsed(
        &self,
        sql: &TaintedString,
        stmt: Statement,
        params: &[BindValue],
    ) -> Result<TaintedResult> {
        run_prepared(&self.inner, sql, stmt, self.tracking, params)
    }

    /// True when a durable store backs this database.
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// Folds the WAL into a fresh snapshot (no-op without a store).
    ///
    /// The snapshot is statement-consistent: the checkpoint-exclusion
    /// lock keeps it out of every writer's WAL-append → execute window
    /// (a logged statement is never dropped unexecuted by the WAL
    /// truncation), and it waits for open *writing* transactions to
    /// finish (their table changes are live while their WAL records are
    /// buffered until commit — snapshotting mid-transaction would
    /// resurrect rollbacks or double-apply commits on recovery). The
    /// image is encoded under every shard's read lock simultaneously, so
    /// it is point-in-time consistent across tables.
    pub fn checkpoint(&self) -> Result<()> {
        self.checkpoint_with(false)
    }

    /// [`checkpoint`](SharedDb::checkpoint) with every table re-encoded
    /// regardless of dirtiness — the full-snapshot baseline incremental
    /// checkpoints are measured against.
    pub fn checkpoint_full(&self) -> Result<()> {
        self.checkpoint_with(true)
    }

    fn checkpoint_with(&self, full: bool) -> Result<()> {
        if !self.durable {
            return Ok(());
        }
        // Wait for writing transactions *without* holding the ckpt write
        // lock: their owner thread may need the read lock (a plain
        // durable write) before it can commit, so parking on the condvar
        // with the write lock held would deadlock the database. New
        // registrations take the read lock, so once the count reads zero
        // *under* the write lock, no transaction can slip in.
        let mut excl = wlock(&self.inner.ckpt);
        loop {
            if *mlock(&self.inner.txn_writers) == 0 {
                break;
            }
            drop(excl);
            {
                let mut open = mlock(&self.inner.txn_writers);
                while *open > 0 {
                    open = self
                        .inner
                        .txn_done
                        .wait(open)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
            excl = wlock(&self.inner.ckpt);
        }
        let _excl = excl;
        // Encode straight from the shard read guards — no whole-catalog
        // deep copy. Holding every shard lock at once also makes the
        // snapshot point-in-time consistent *across* tables: durable
        // writers are already excluded by the ckpt lock, and readers take
        // the same shared locks.
        let catalog = rlock(&self.inner.catalog);
        let shards: Vec<(&str, std::sync::RwLockReadGuard<'_, Table>)> = catalog
            .iter()
            .map(|(n, shard)| (n.as_str(), rlock(shard)))
            .collect();
        let Some(store) = self.inner.store.get() else {
            return Ok(());
        };
        let tables = shards.iter().map(|(n, t)| (*n, &**t));
        if full {
            store.checkpoint_full(tables)
        } else {
            store.checkpoint(tables)
        }
    }

    /// Live storage counters (segments, WAL bytes, checkpoint cost) of
    /// the underlying store, or `None` when not durable.
    pub fn store_stats(&self) -> Option<resin_store::StoreStats> {
        self.inner.store.get().map(SqlStore::stats)
    }

    /// Arms the size-based checkpoint trigger: once the live WAL grows
    /// past `bytes`, the durable write that crossed the line checkpoints
    /// the database before returning. Zero (the default) disables the
    /// trigger; the setting is shared by every clone of this handle.
    pub fn set_auto_checkpoint_wal_bytes(&self, bytes: u64) {
        self.inner
            .auto_ckpt_wal_bytes
            .store(bytes, std::sync::atomic::Ordering::Relaxed);
    }

    /// The armed auto-checkpoint threshold (0 = disabled).
    pub fn auto_checkpoint_wal_bytes(&self) -> u64 {
        self.inner
            .auto_ckpt_wal_bytes
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Runs the size-based trigger after a durable write, outside the
    /// checkpoint-exclusion window. Best-effort: the write that got us
    /// here is already applied *and* logged, so a checkpoint failure must
    /// not convert it into a caller-visible error (retrying the statement
    /// would double-apply it); the condition persists and the next
    /// explicit checkpoint will surface it. Concurrent writers crossing
    /// the line together serialize on the ckpt lock; the laggards'
    /// checkpoints are incremental over a now-clean store and cheap.
    fn maybe_auto_checkpoint(&self) {
        let threshold = self.auto_checkpoint_wal_bytes();
        if threshold == 0 {
            return;
        }
        let Some(stats) = self.store_stats() else {
            return;
        };
        if stats.live_wal_bytes >= threshold {
            let _ = self.checkpoint();
        }
    }

    /// Number of tables written since the last checkpoint — what the
    /// next incremental checkpoint will re-encode.
    pub fn dirty_table_count(&self) -> usize {
        self.inner.store.get().map_or(0, SqlStore::dirty_count)
    }

    /// Marks tables as written since the last checkpoint (transactions
    /// call this at commit, when their buffered WAL record lands).
    pub(crate) fn mark_tables_dirty<'a>(&self, names: impl IntoIterator<Item = &'a str>) {
        if let Some(store) = self.inner.store.get() {
            for name in names {
                store.mark_dirty(name);
            }
        }
    }

    /// Whether WAL appends fsync before returning (default `true`).
    pub fn set_wal_sync(&self, sync: bool) {
        if let Some(store) = self.inner.store.get() {
            store.set_sync(sync);
        }
    }

    /// Whether concurrent synced WAL appends share fsyncs (default
    /// `true`; off gives the per-append-fsync baseline for benchmarks).
    pub fn set_wal_group_commit(&self, group: bool) {
        if let Some(store) = self.inner.store.get() {
            store.set_group_commit(group);
        }
    }

    /// Total fsyncs the WAL has issued — the observable of group-commit
    /// amortization under concurrent committers.
    pub fn wal_sync_count(&self) -> u64 {
        self.inner.store.get().map_or(0, SqlStore::sync_count)
    }

    /// Appends one post-guard statement to the shared WAL.
    pub(crate) fn wal_log(&self, sql: &TaintedString) -> Result<()> {
        self.wal_log_batch(std::slice::from_ref(sql))
    }

    /// Appends a transaction's buffered statements as one atomic WAL
    /// record: a crash mid-commit persists the whole transaction or none
    /// of it, never a prefix.
    pub(crate) fn wal_log_batch(&self, stmts: &[TaintedString]) -> Result<()> {
        if !self.durable {
            return Ok(());
        }
        if let Some(store) = self.inner.store.get() {
            store.log_batch(stmts)?;
        }
        Ok(())
    }

    /// Sets the injection guard **for this handle** (other clones keep
    /// theirs — storage is shared, modes are per handle).
    pub fn set_guard(&mut self, guard: GuardMode) {
        self.guard = guard;
    }

    /// The enforced guard mode of this handle.
    pub fn guard(&self) -> GuardMode {
        self.guard
    }

    /// The underlying sharded engine (for tests and diagnostics).
    pub fn raw(&self) -> &ShardedDatabase {
        &self.inner
    }

    /// Executes a (possibly tainted) query through the RESIN SQL filter.
    ///
    /// Takes `&self`: any number of workers may query concurrently. On a
    /// durable database mutating statements are WAL-logged write-ahead
    /// (concurrent appends group-commit: the store batches them under
    /// shared fsyncs, in the order it sequences them), and recovery
    /// replays in WAL order. Two *racing* writers to the same table may
    /// therefore recover in the other interleaving than the one that
    /// executed — every statement is preserved, but non-commuting racing
    /// writes (two UPDATEs of one row) can recover to the other winner. Racing writers partitioned by
    /// table — the discipline the lock sharding already rewards — recover
    /// exactly. A statement that fails *execution* after logging stays in
    /// the WAL as a no-op (replay fails identically and is skipped) until
    /// the next checkpoint truncates it.
    pub fn query(&self, sql: &TaintedString) -> Result<TaintedResult> {
        let (sql, stmt) = prepare_query(sql, self.guard)?;
        let durable_write = self.durable && statement_write_target(&stmt).is_some();
        // Shared checkpoint-exclusion across log + execute: a checkpoint
        // must never truncate this statement's WAL record before its
        // effect is in the tables it snapshots.
        let _no_ckpt = durable_write.then(|| rlock(&self.inner.ckpt));
        if durable_write {
            self.wal_log(&sql)?;
            // Inside the exclusion window, so the checkpoint that would
            // truncate this record also sees its table as dirty.
            self.mark_tables_dirty(statement_write_target(&stmt));
        }
        let result = self.run_parsed(&sql, stmt, &[]);
        // The exclusion window must close before the trigger runs: the
        // checkpoint takes the same lock exclusively.
        drop(_no_ckpt);
        if durable_write && result.is_ok() {
            self.maybe_auto_checkpoint();
        }
        result
    }

    /// Executes an untainted query string.
    pub fn query_str(&self, sql: &str) -> Result<TaintedResult> {
        self.query(&TaintedString::from(sql))
    }

    /// Guards, lexes, and parses a statement template once; `?`
    /// placeholders become bind parameters ([`Prepared::bind`]).
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        prepare_statement(sql, self.guard)
    }

    /// Executes a prepared statement with bound values. Bound values
    /// reach the engine as data, never as query text. On a durable
    /// database a mutating statement is WAL-logged as rendered SQL
    /// (values spliced back as escaped, label-carrying literals), under
    /// the same checkpoint-exclusion window as [`query`](SharedDb::query).
    pub fn run(&self, bound: &BoundStatement<'_>) -> Result<TaintedResult> {
        let p = bound.prepared;
        let durable_write = self.durable && p.write_target().is_some();
        let _no_ckpt = durable_write.then(|| rlock(&self.inner.ckpt));
        if durable_write {
            let rendered = render_bound_sql(p, &bound.values);
            self.wal_log(&rendered)?;
            self.mark_tables_dirty(p.write_target());
        }
        let result = self.run_parsed(p.text_tainted(), p.statement().clone(), &bound.values);
        drop(_no_ckpt);
        if durable_write && result.is_ok() {
            self.maybe_auto_checkpoint();
        }
        result
    }

    /// [`prepare`](SharedDb::prepare)-bind-[`run`](SharedDb::run) in one
    /// call, for one-shot parameterized statements.
    pub fn exec_prepared(
        &self,
        prepared: &Prepared,
        values: Vec<BindValue>,
    ) -> Result<TaintedResult> {
        let bound = prepared.bind(values)?;
        self.run(&bound)
    }

    /// Opens a transaction on the shared database.
    pub fn begin(&self) -> SharedTransaction<'static> {
        SharedTransaction::begin(self.clone())
    }

    /// Counts an open transaction that has written durably: checkpoints
    /// wait until it finishes ([`release_txn_writer`](Self::release_txn_writer)).
    /// Taking the checkpoint-exclusion lock first blocks out a checkpoint
    /// that is already running.
    pub(crate) fn register_txn_writer(&self) {
        let _gate = rlock(&self.inner.ckpt);
        *mlock(&self.inner.txn_writers) += 1;
    }

    /// Ends a [`register_txn_writer`](Self::register_txn_writer) count and
    /// wakes checkpoints waiting on it.
    pub(crate) fn release_txn_writer(&self) {
        *mlock(&self.inner.txn_writers) -= 1;
        self.inner.txn_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::{PolicyViolation, UntrustedData};
    use std::sync::Arc;

    fn posts_db() -> SharedDb {
        let db = SharedDb::new();
        db.query_str("CREATE TABLE posts (id INTEGER, body TEXT)")
            .unwrap();
        db.query_str("CREATE TABLE sessions (sid TEXT, user TEXT)")
            .unwrap();
        db
    }

    fn untrusted(s: &str) -> TaintedString {
        TaintedString::with_policy(s, Arc::new(UntrustedData::new()))
    }

    #[test]
    fn policy_roundtrip_through_shared_storage() {
        let db = posts_db();
        let mut q = TaintedString::from("INSERT INTO posts VALUES (1, '");
        q.push_tainted(&untrusted("hello"));
        q.push_str("')");
        db.query(&q).unwrap();
        let r = db.query_str("SELECT body FROM posts").unwrap();
        let cell = r.cell(0, "body").unwrap().as_text().unwrap();
        assert_eq!(cell.as_str(), "hello");
        assert!(cell.has_policy::<UntrustedData>(), "taint survives storage");
    }

    #[test]
    fn injection_guard_applies_per_handle() {
        let db = posts_db();
        let mut guarded = db.clone();
        guarded.set_guard(GuardMode::StructureCheck);
        let mut q = TaintedString::from("SELECT body FROM posts WHERE id = ");
        q.push_tainted(&untrusted("1 OR 1=1"));
        assert!(guarded.query(&q).unwrap_err().is_violation());
        // The unguarded handle shares storage but not the guard.
        assert_eq!(db.guard(), GuardMode::Off);
    }

    #[test]
    fn clones_share_storage() {
        let db = posts_db();
        let other = db.clone();
        other
            .query_str("INSERT INTO posts VALUES (7, 'shared')")
            .unwrap();
        let r = db.query_str("SELECT body FROM posts WHERE id = 7").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn txn_snapshots_only_touched_tables() {
        let db = posts_db();
        db.query_str("INSERT INTO posts VALUES (1, 'keep')")
            .unwrap();
        let mut txn = db.begin();
        txn.query_str("INSERT INTO sessions VALUES ('s1', 'alice')")
            .unwrap();
        assert_eq!(
            txn.snapshotted_tables(),
            vec!["sessions"],
            "posts was never cloned"
        );
        txn.rollback();
        let r = db.query_str("SELECT COUNT(*) FROM sessions").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &0);
        let r = db.query_str("SELECT COUNT(*) FROM posts").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &1);
    }

    #[test]
    fn txn_commit_check_failure_restores() {
        let db = posts_db();
        let mut txn = db.begin();
        txn.add_check(Box::new(|db| {
            let r = db
                .query_str("SELECT COUNT(*) FROM posts WHERE id > 100")
                .map_err(|e| PolicyViolation::new("IdRange", e.to_string()))?;
            if r.rows[0][0].as_int().map(|v| *v.value()) == Some(0) {
                Ok(())
            } else {
                Err(PolicyViolation::new("IdRange", "id above 100"))
            }
        }));
        txn.query_str("INSERT INTO posts VALUES (999, 'out of range')")
            .unwrap();
        assert!(txn.commit().is_err());
        let r = db.query_str("SELECT COUNT(*) FROM posts").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &0);
    }

    #[test]
    fn txn_create_table_rolls_back_to_absent() {
        let db = posts_db();
        {
            let mut txn = db.begin();
            txn.query_str("CREATE TABLE scratch (x INTEGER)").unwrap();
            txn.query_str("INSERT INTO scratch VALUES (1)").unwrap();
            // Dropped uncommitted.
        }
        assert!(db.query_str("SELECT COUNT(*) FROM scratch").is_err());
    }

    #[test]
    fn drop_table_rolls_back() {
        let db = posts_db();
        db.query_str("INSERT INTO posts VALUES (1, 'precious')")
            .unwrap();
        let mut txn = db.begin();
        txn.query_str("DROP TABLE posts").unwrap();
        assert!(db.query_str("SELECT COUNT(*) FROM posts").is_err());
        txn.rollback();
        let r = db.query_str("SELECT body FROM posts").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn if_not_exists_wins_over_column_validation() {
        // Existence must win over column validation: IF NOT EXISTS on an
        // existing table is a no-op even when the new column list is
        // invalid, through the filter and on the raw engine alike.
        let db = posts_db();
        db.query_str("CREATE TABLE IF NOT EXISTS posts (a INTEGER, a INTEGER)")
            .unwrap();
        let raw = ShardedDatabase::new();
        raw.execute_str("CREATE TABLE posts (id INTEGER)").unwrap();
        raw.execute_str("CREATE TABLE IF NOT EXISTS posts (a INTEGER, a INTEGER)")
            .unwrap();
        // A fresh create with a duplicate column still fails on both.
        assert!(db
            .query_str("CREATE TABLE dup (a INTEGER, a INTEGER)")
            .is_err());
        assert!(raw
            .execute_str("CREATE TABLE dup (a INTEGER, a INTEGER)")
            .is_err());
    }

    #[test]
    fn guard_rewritten_txn_query_snapshots_one_table() {
        // The write target is read off the post-guard parse: a statement
        // the AutoSanitize guard must rewrite before it parses strictly
        // still snapshots only the table it writes.
        let mut db = posts_db();
        db.set_guard(GuardMode::AutoSanitize);
        let mut txn = db.begin();
        let mut q = TaintedString::from("INSERT INTO posts VALUES (1, '");
        q.push_tainted(&untrusted("o'hara says hi"));
        q.push_str("')");
        txn.query(&q).unwrap();
        assert_eq!(txn.snapshotted_tables(), vec!["posts"]);
        txn.rollback();
        let r = db.query_str("SELECT COUNT(*) FROM posts").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &0);
    }

    fn disk_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("resin-shard-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_waits_for_writing_transactions() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = disk_dir("ckpt-txn");
        {
            let db = SharedDb::open(&dir).unwrap();
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (1)").unwrap();

            let done = Arc::new(AtomicBool::new(false));
            let (db2, done2) = (db.clone(), done.clone());
            let h = std::thread::spawn(move || {
                db2.checkpoint().unwrap();
                done2.store(true, Ordering::SeqCst);
            });
            // Give the checkpoint ample time to (wrongly) complete: it
            // must instead be parked on the open writing transaction,
            // whose table change is live but whose WAL record is not.
            std::thread::sleep(std::time::Duration::from_millis(100));
            assert!(
                !done.load(Ordering::SeqCst),
                "checkpoint must wait for the writing transaction"
            );
            txn.rollback();
            h.join().unwrap();
            assert!(done.load(Ordering::SeqCst));
        }
        // The rolled-back row must not be resurrected by recovery.
        let db = SharedDb::open(&dir).unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_does_not_deadlock_mixed_txn_and_plain_writes() {
        // A checkpoint parked on an open writing transaction must not
        // hold the ckpt write lock while waiting: the transaction's own
        // thread may need the read lock (a plain durable write) before
        // it can ever commit.
        let dir = disk_dir("ckpt-deadlock");
        {
            let db = SharedDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (1)").unwrap();
            let db2 = db.clone();
            let h = std::thread::spawn(move || db2.checkpoint().unwrap());
            // Let the checkpoint reach its wait on the open transaction.
            std::thread::sleep(std::time::Duration::from_millis(50));
            // Pre-fix this deadlocked against the parked checkpoint.
            db.query_str("INSERT INTO t VALUES (2)").unwrap();
            txn.commit().unwrap();
            h.join().unwrap();
        }
        let db = SharedDb::open(&dir).unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prepared_writes_replay_byte_and_label_identical() {
        // A bound write is WAL-logged as rendered SQL (values spliced
        // back as escaped, labeled literals). Recovery must revive the
        // same cells — payload bytes, escaping undone, labels intact —
        // and rebuild the PRIMARY KEY index so probes work post-restart.
        let dir = disk_dir("prepared-replay");
        {
            let db =
                SharedDb::open_with_modes(&dir, Tracking::On, GuardMode::StructureCheck).unwrap();
            db.query_str("CREATE TABLE posts (id INTEGER PRIMARY KEY, body TEXT)")
                .unwrap();
            let ins = db.prepare("INSERT INTO posts VALUES (?, ?)").unwrap();
            db.exec_prepared(&ins, vec![1i64.into(), untrusted("it's ''quoted''").into()])
                .unwrap();
            db.exec_prepared(&ins, vec![2i64.into(), "plain".into()])
                .unwrap();
        }
        let db = SharedDb::open_with_modes(&dir, Tracking::On, GuardMode::StructureCheck).unwrap();
        let sel = db.prepare("SELECT body FROM posts WHERE id = ?").unwrap();
        let r = db.exec_prepared(&sel, vec![1i64.into()]).unwrap();
        let body = r.cell(0, "body").unwrap().as_text().unwrap();
        assert_eq!(
            body.as_str(),
            "it's ''quoted''",
            "escaping undone on replay"
        );
        assert!(
            body.all_bytes_have::<UntrustedData>(),
            "labels recovered on every byte"
        );
        let r = db.exec_prepared(&sel, vec![2i64.into()]).unwrap();
        assert!(r.cell(0, "body").unwrap().as_text().unwrap().is_untainted());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn txn_commit_is_one_atomic_wal_record() {
        // A crash mid-commit must never persist a prefix of a
        // transaction, so the whole buffered batch goes down as a single
        // WAL record (and a single fsync).
        let dir = disk_dir("txn-batch");
        {
            let db = SharedDb::open(&dir).unwrap();
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (1)").unwrap();
            txn.query_str("INSERT INTO t VALUES (2)").unwrap();
            txn.commit().unwrap();
        }
        {
            let (store, recovered) = resin_store::Store::open(&dir).unwrap();
            assert_eq!(
                recovered.records.len(),
                2,
                "CREATE plus exactly one commit record"
            );
            drop(store);
        }
        let db = SharedDb::open(&dir).unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_txn_then_checkpoint_never_double_applies() {
        let dir = disk_dir("ckpt-commit");
        {
            let db = SharedDb::open(&dir).unwrap();
            db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
            let mut txn = db.begin();
            txn.query_str("INSERT INTO t VALUES (7)").unwrap();
            txn.commit().unwrap();
            db.checkpoint().unwrap();
        }
        let db = SharedDb::open(&dir).unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(
            r.rows[0][0].as_int().unwrap().value(),
            &1,
            "snapshot covers the commit; its WAL record must not replay on top"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_checkpoint_rewrites_only_dirty_tables() {
        let dir = disk_dir("incr-ckpt");
        {
            let db = SharedDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE a (x INTEGER)").unwrap();
            db.query_str("CREATE TABLE b (x INTEGER)").unwrap();
            db.query_str("CREATE TABLE c (x INTEGER)").unwrap();
            db.query_str("INSERT INTO a VALUES (1)").unwrap();
            assert_eq!(db.dirty_table_count(), 3);
            db.checkpoint().unwrap();
            let s = db.store_stats().unwrap();
            assert_eq!(
                s.last_checkpoint_parts_written, 3,
                "first checkpoint writes every part"
            );
            assert_eq!(db.dirty_table_count(), 0);

            db.query_str("INSERT INTO b VALUES (2)").unwrap();
            assert_eq!(db.dirty_table_count(), 1);
            db.checkpoint().unwrap();
            let s = db.store_stats().unwrap();
            assert_eq!(s.last_checkpoint_parts_written, 1, "only b re-encoded");
            assert_eq!(s.parts, 3, "a and c carried over by reference");

            db.checkpoint_full().unwrap();
            assert_eq!(db.store_stats().unwrap().last_checkpoint_parts_written, 3);
        }
        // Everything recovers across incremental checkpoints.
        let db = SharedDb::open(&dir).unwrap();
        for (t, n) in [("a", 1), ("b", 1), ("c", 0)] {
            let r = db.query_str(&format!("SELECT COUNT(*) FROM {t}")).unwrap();
            assert_eq!(r.rows[0][0].as_int().unwrap().value(), &n, "table {t}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_table_leaves_the_checkpoint() {
        let dir = disk_dir("drop-ckpt");
        {
            let db = SharedDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE keep (x INTEGER)").unwrap();
            db.query_str("CREATE TABLE gone (x INTEGER)").unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.store_stats().unwrap().parts, 2);
            db.query_str("DROP TABLE gone").unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.store_stats().unwrap().parts, 1);
        }
        let db = SharedDb::open(&dir).unwrap();
        assert!(db.query_str("SELECT COUNT(*) FROM keep").is_ok());
        assert!(db.query_str("SELECT COUNT(*) FROM gone").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn txn_commit_marks_written_tables_dirty() {
        let dir = disk_dir("txn-dirty");
        let db = SharedDb::open(&dir).unwrap();
        db.set_wal_sync(false);
        db.query_str("CREATE TABLE t (a INTEGER)").unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.dirty_table_count(), 0);
        let mut txn = db.begin();
        txn.query_str("INSERT INTO t VALUES (1)").unwrap();
        txn.commit().unwrap();
        assert_eq!(db.dirty_table_count(), 1);
        // A rolled-back transaction leaves no dirty mark behind.
        db.checkpoint().unwrap();
        let mut txn = db.begin();
        txn.query_str("INSERT INTO t VALUES (2)").unwrap();
        txn.rollback();
        assert_eq!(db.dirty_table_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_policy_columns_still_hidden() {
        let db = posts_db();
        db.query_str("INSERT INTO posts VALUES (1, 'x')").unwrap();
        let r = db.query_str("SELECT * FROM posts").unwrap();
        assert_eq!(r.columns, vec!["id", "body"]);
        assert!(db.query_str("SELECT __rp_body FROM posts").is_err());
    }

    #[test]
    fn size_based_auto_checkpoint_bounds_the_wal() {
        let dir = disk_dir("auto-ckpt");
        {
            let db = SharedDb::open(&dir).unwrap();
            db.set_wal_sync(false);
            db.query_str("CREATE TABLE t (a INTEGER, body TEXT)")
                .unwrap();
            // Off by default: the WAL grows without bound.
            for i in 0..32 {
                db.query_str(&format!(
                    "INSERT INTO t VALUES ({i}, 'some body text to fatten the record')"
                ))
                .unwrap();
            }
            let before = db.store_stats().unwrap();
            assert_eq!(before.base_seq, 0, "no checkpoint without the trigger");
            assert!(before.live_wal_bytes > 512);

            // Armed: the write crossing the threshold checkpoints, so the
            // live WAL stays bounded even under a long insert stream.
            db.set_auto_checkpoint_wal_bytes(512);
            assert_eq!(db.auto_checkpoint_wal_bytes(), 512);
            let mut max_wal = 0;
            for i in 32..96 {
                db.query_str(&format!(
                    "INSERT INTO t VALUES ({i}, 'some body text to fatten the record')"
                ))
                .unwrap();
                max_wal = max_wal.max(db.store_stats().unwrap().live_wal_bytes);
            }
            let after = db.store_stats().unwrap();
            assert!(after.base_seq > 0, "trigger never checkpointed");
            // One statement may overshoot the line before the trigger
            // fires, but the WAL never grows a second threshold past it.
            assert!(
                max_wal < 512 + 1024,
                "WAL unbounded with the trigger armed: {max_wal}"
            );
        }
        // Recovery sees checkpoint + tail, nothing lost.
        let db = SharedDb::open(&dir).unwrap();
        let r = db.query_str("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap().value(), &96);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
