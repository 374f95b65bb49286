//! Interned policy labels: O(1) handles for policy sets.
//!
//! The paper stores "a pointer, that points to a set of policy objects" per
//! datum (§4). Representing that literally as a shared vector makes every
//! `union`/`contains` a structural scan — O(n²) policy comparisons on the
//! merge- and concat-heavy hot paths. This module interns instead:
//!
//! * a [`PolicyInterner`] assigns each structurally-distinct policy object a
//!   [`PolicyId`] (keyed on `name()` + `serialize_fields()`, sound because
//!   policies are immutable once attached);
//! * a [`LabelTable`] interns each canonical, sorted set of `PolicyId`s as a
//!   [`Label`] handle, with [`Label::EMPTY`] reserved for the empty set and
//!   a memoized pairwise-union cache.
//!
//! After interning, set **union**, **equality**, and **dedup** are integer
//! table hits — no policy is compared structurally ever again. `Label` is
//! `Copy`, hashable, and cheap to ship across threads, which is what the
//! sharding/caching work on the ROADMAP needs.
//!
//! # Examples
//!
//! ```
//! use resin_core::prelude::*;
//! use std::sync::Arc;
//!
//! let untrusted: PolicyRef = Arc::new(UntrustedData::new());
//! let sanitized: PolicyRef = Arc::new(SqlSanitized::new());
//!
//! let a = Label::of(&untrusted);
//! let b = Label::of(&sanitized);
//! let ab = a.union(b);            // memoized: an integer table hit
//! assert_eq!(ab, b.union(a));     // canonical: equality is `u32 ==`
//! assert_eq!(ab.union(a), ab);    // idempotent
//! assert!(ab.has::<UntrustedData>() && ab.has::<SqlSanitized>());
//!
//! // Structurally equal policies intern to the same id, so dedup is free.
//! let again: PolicyRef = Arc::new(UntrustedData::new());
//! assert_eq!(a, Label::of(&again));
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::context::Context;
use crate::error::PolicyViolation;
use crate::policy::{Policy, PolicyRef};

/// The interned identity of one structurally-distinct policy object.
///
/// Two policy objects receive the same `PolicyId` exactly when they agree on
/// `name()` and `serialize_fields()` — the same key the persistent-policy
/// serializer uses (§3.4.1), so an id round-trips through storage.
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// let a = PolicyId::intern(&(Arc::new(PasswordPolicy::new("u@x")) as PolicyRef));
/// let b = PolicyId::intern(&(Arc::new(PasswordPolicy::new("u@x")) as PolicyRef));
/// assert_eq!(a, b, "structural duplicates share an id");
/// assert_eq!(a.resolve().name(), "PasswordPolicy");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PolicyId(u32);

impl PolicyId {
    /// Interns `policy`, returning its stable id.
    pub fn intern(policy: &PolicyRef) -> PolicyId {
        LabelTable::global().intern_policy(policy)
    }

    /// The canonical policy object for this id.
    pub fn resolve(self) -> PolicyRef {
        LabelTable::global().resolve_policy(self)
    }

    /// The raw table index (stable for the life of the process).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// An O(1) handle for an interned policy set.
///
/// `Label` replaces the per-datum `Arc<Vec<PolicyRef>>` of earlier
/// revisions: the set itself lives once in the global [`LabelTable`], and
/// data carries this 4-byte `Copy` handle. Union, equality, and dedup are
/// table hits; only operations that genuinely need the policy *objects*
/// (running `export_check`, downcasting) resolve through the table.
///
/// # Examples
///
/// ```
/// use resin_core::prelude::*;
/// use std::sync::Arc;
///
/// let l = Label::of(&(Arc::new(UntrustedData::new()) as PolicyRef));
/// assert!(!l.is_empty());
/// assert_eq!(l.len(), 1);
/// assert!(l.has::<UntrustedData>());
/// assert_eq!(l.union(Label::EMPTY), l);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

impl Label {
    /// The empty policy set. The zero handle, so untainted data costs one
    /// integer compare — the moral equivalent of the paper's null pointer.
    pub const EMPTY: Label = Label(0);

    /// The label for a single policy (interning it if new).
    pub fn of(policy: &PolicyRef) -> Label {
        LabelTable::global().label_of(policy)
    }

    /// The label for one already-interned policy id.
    pub fn from_id(id: PolicyId) -> Label {
        LabelTable::global().intern_ids(vec![id])
    }

    /// Builds a label from policies, deduplicating structurally.
    pub fn from_policies<'a, I>(policies: I) -> Label
    where
        I: IntoIterator<Item = &'a PolicyRef>,
    {
        let table = LabelTable::global();
        let mut ids: Vec<PolicyId> = policies
            .into_iter()
            .map(|p| table.intern_policy(p))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        table.intern_ids(ids)
    }

    /// True when no policy is attached.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of policies in the set.
    pub fn len(self) -> usize {
        if self.is_empty() {
            0
        } else {
            LabelTable::global().with_entry(self, |e| e.ids.len())
        }
    }

    /// The sorted policy ids of the set.
    pub fn ids(self) -> Arc<[PolicyId]> {
        LabelTable::global().with_entry(self, |e| e.ids.clone())
    }

    /// The canonical policy objects of the set (shared, not cloned).
    pub fn policies(self) -> Arc<Vec<PolicyRef>> {
        LabelTable::global().with_entry(self, |e| e.refs.clone())
    }

    /// Set union — an O(1) memoized table hit after the first computation.
    ///
    /// ```
    /// use resin_core::Label;
    /// assert_eq!(Label::EMPTY.union(Label::EMPTY), Label::EMPTY);
    /// ```
    pub fn union(self, other: Label) -> Label {
        if self == other || other.is_empty() {
            return self;
        }
        if self.is_empty() {
            return other;
        }
        LabelTable::global().union(self, other)
    }

    /// True if the set contains the policy with `id`.
    pub fn contains(self, id: PolicyId) -> bool {
        !self.is_empty()
            && LabelTable::global().with_entry(self, |e| e.ids.binary_search(&id).is_ok())
    }

    /// True if the set contains a policy structurally equal to `policy`.
    pub fn contains_policy(self, policy: &PolicyRef) -> bool {
        self.contains(PolicyId::intern(policy))
    }

    /// True if any policy in the set has concrete type `T`.
    pub fn has<T: Policy>(self) -> bool {
        !self.is_empty()
            && LabelTable::global()
                .with_entry(self, |e| e.refs.iter().any(|p| p.as_any().is::<T>()))
    }

    /// True if any policy reports `name()` equal to `name`.
    pub fn has_named(self, name: &str) -> bool {
        !self.is_empty()
            && LabelTable::global().with_entry(self, |e| e.refs.iter().any(|p| p.name() == name))
    }

    /// The label with `id` added.
    pub fn insert(self, id: PolicyId) -> Label {
        self.union(Label::from_id(id))
    }

    /// The label with `id` removed (no-op when absent).
    pub fn remove(self, id: PolicyId) -> Label {
        if !self.contains(id) {
            return self;
        }
        let ids: Vec<PolicyId> = self.ids().iter().copied().filter(|&i| i != id).collect();
        LabelTable::global().intern_ids(ids)
    }

    /// The label keeping only policies satisfying `pred`.
    pub fn retain<F>(self, pred: F) -> Label
    where
        F: Fn(&PolicyRef) -> bool,
    {
        if self.is_empty() {
            return self;
        }
        let entry = LabelTable::global().entry(self);
        let ids: Vec<PolicyId> = entry
            .ids
            .iter()
            .zip(entry.refs.iter())
            .filter(|(_, p)| pred(p))
            .map(|(&id, _)| id)
            .collect();
        if ids.len() == entry.ids.len() {
            self
        } else {
            LabelTable::global().intern_ids(ids)
        }
    }

    /// The label with every policy of concrete type `T` removed.
    pub fn without_type<T: Policy>(self) -> Label {
        self.retain(|p| p.as_any().downcast_ref::<T>().is_none())
    }

    /// The raw table index of this label.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl Default for Label {
    fn default() -> Self {
        Label::EMPTY
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Label[]");
        }
        let refs = self.policies();
        let names: Vec<&str> = refs.iter().map(|p| p.name()).collect();
        write!(f, "Label{names:?}")
    }
}

// ---- the interner ----

/// Key under which a policy is interned: class name + serialized fields
/// (the same identity the persistent-policy format uses, §3.4.1) + the
/// policy's [`intern_discriminator`](Policy::intern_discriminator), which
/// keeps policies whose behaviour lives outside their fields (script
/// policies carrying interpreted code) from conflating.
#[derive(PartialEq, Eq, Hash)]
struct PolicyKey {
    name: String,
    fields: Vec<(String, String)>,
    discriminator: u64,
}

impl PolicyKey {
    fn of(policy: &PolicyRef) -> PolicyKey {
        PolicyKey {
            name: policy.name().to_string(),
            fields: policy.serialize_fields(),
            discriminator: policy.intern_discriminator(),
        }
    }
}

/// Assigns each structurally-distinct policy object a stable [`PolicyId`].
///
/// Interning is keyed on `name()` + `serialize_fields()` +
/// [`intern_discriminator`](Policy::intern_discriminator). This is sound
/// because policies are immutable once attached and their behaviour is a
/// pure function of that key (the contract [`Policy::policy_eq`] already
/// relies on for name + fields; policies carrying code override the
/// discriminator). The first object interned under a key becomes the
/// canonical [`PolicyRef`] every resolution returns.
///
/// The interner's growth is bounded by the **label lifecycle** (epoch/
/// pin/sweep, see [`LabelTable::sweep`]): ids are still never recycled
/// while any epoch pinned before their release is live, so a `PolicyId`
/// held under a pin (or a serialized reference re-interned on read) can
/// never dangle. A swept slot turns into a fail-closed tombstone until
/// it is provably safe to reuse, so even a contract-violating stale
/// handle denies export instead of laundering.
#[derive(Default)]
pub struct PolicyInterner {
    policies: Vec<PolicyRef>,
    by_key: HashMap<PolicyKey, u32>,
    /// Epoch at which each slot was (last) interned; parallel to
    /// `policies`.
    epochs: Vec<u64>,
    /// Swept slots awaiting reuse, with the epoch they were freed at.
    free: Vec<(u32, u64)>,
}

impl PolicyInterner {
    /// Interns `policy`, returning its id (existing id for duplicates).
    /// `epoch` stamps a fresh slot; `reuse_floor` is the oldest pinned
    /// epoch (freed slots are reused only when freed strictly before it).
    fn intern(
        &mut self,
        key: PolicyKey,
        policy: &PolicyRef,
        epoch: u64,
        reuse_floor: Option<u64>,
    ) -> PolicyId {
        if let Some(&id) = self.by_key.get(&key) {
            return PolicyId(id);
        }
        let id = match self.pop_free(reuse_floor) {
            Some(slot) => {
                self.policies[slot as usize] = policy.clone();
                self.epochs[slot as usize] = epoch;
                slot
            }
            None => {
                let id = u32::try_from(self.policies.len()).expect("policy interner overflow");
                self.policies.push(policy.clone());
                self.epochs.push(epoch);
                id
            }
        };
        self.by_key.insert(key, id);
        PolicyId(id)
    }

    /// A freed slot safe to reuse: no live pin predates its release.
    fn pop_free(&mut self, reuse_floor: Option<u64>) -> Option<u32> {
        let (i, _) = self
            .free
            .iter()
            .enumerate()
            .find(|(_, &(_, freed))| reuse_floor.is_none_or(|floor| freed < floor))?;
        Some(self.free.swap_remove(i).0)
    }

    /// Number of distinct live policies interned.
    pub fn len(&self) -> usize {
        self.policies.len() - self.free.len()
    }

    /// True when nothing live is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time interner counters.
    pub fn stats(&self) -> PolicyInternerStats {
        PolicyInternerStats {
            live: self.len(),
            slots: self.policies.len(),
            free: self.free.len(),
        }
    }
}

/// Counters for [`PolicyInterner::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyInternerStats {
    /// Live (non-tombstone) policies.
    pub live: usize,
    /// Total slots ever allocated (live + free).
    pub slots: usize,
    /// Swept slots awaiting reuse.
    pub free: usize,
}

// ---- the label table ----

#[derive(Clone)]
struct LabelEntry {
    /// Sorted, deduplicated member ids (canonical form).
    ids: Arc<[PolicyId]>,
    /// Resolved canonical policy objects, index-aligned with `ids`.
    refs: Arc<Vec<PolicyRef>>,
}

#[derive(Default)]
struct TableInner {
    interner: PolicyInterner,
    /// `sets[0]` is the empty set; labels index this vector.
    sets: Vec<LabelEntry>,
    by_ids: HashMap<Arc<[PolicyId]>, u32>,
    union_cache: HashMap<(u32, u32), u32>,
    /// Epoch at which each set slot was (last) interned; parallel to
    /// `sets`.
    set_epochs: Vec<u64>,
    /// Swept set slots awaiting reuse, with the epoch they were freed at.
    free_sets: Vec<(u32, u64)>,
}

impl TableInner {
    /// A freed label slot safe to reuse: no live pin predates its
    /// release.
    fn pop_free_set(&mut self, reuse_floor: Option<u64>) -> Option<u32> {
        let (i, _) = self
            .free_sets
            .iter()
            .enumerate()
            .find(|(_, &(_, freed))| reuse_floor.is_none_or(|floor| freed < floor))?;
        Some(self.free_sets.swap_remove(i).0)
    }
}

/// The fail-closed tombstone installed in a swept slot: any export of
/// data still (incorrectly) carrying a swept label denies instead of
/// laundering. Reaching this policy means the sweep-roots contract was
/// violated — the denial is the tripwire, not normal operation.
#[derive(Debug)]
struct SweptLabel;

impl Policy for SweptLabel {
    fn name(&self) -> &str {
        "SweptLabel"
    }

    fn export_check(&self, _context: &Context) -> Result<(), PolicyViolation> {
        Err(PolicyViolation::new(
            "SweptLabel",
            "data carries a label swept by lifecycle GC; export denied (stale handle)",
        ))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn tombstone_entry() -> LabelEntry {
    LabelEntry {
        ids: Arc::from(Vec::<PolicyId>::new()),
        refs: Arc::new(vec![Arc::new(SweptLabel) as PolicyRef]),
    }
}

/// What one [`LabelTable::sweep`] pass reclaimed and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Label slots tombstoned by this pass.
    pub labels_swept: usize,
    /// Policy slots tombstoned by this pass.
    pub policies_swept: usize,
    /// Live label slots after the pass (excluding the empty label).
    pub labels_live: usize,
    /// Live policy slots after the pass.
    pub policies_live: usize,
}

/// Point-in-time counters for [`LabelTable::stats`] (the observability
/// satellite): entry counts, lifecycle epoch, and an estimate of bytes
/// retained by the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelTableStats {
    /// Live label entries (excluding the empty label and tombstones).
    pub labels: usize,
    /// Live interned policies.
    pub policies: usize,
    /// Tombstoned label slots awaiting reuse.
    pub free_labels: usize,
    /// Tombstoned policy slots awaiting reuse.
    pub free_policies: usize,
    /// Memoized pairwise unions.
    pub union_cache: usize,
    /// Current lifecycle epoch (advances on every sweep).
    pub epoch: u64,
    /// Epoch pins currently held (transactions/requests in flight).
    pub active_pins: usize,
    /// Rough estimate of heap bytes retained by sets + interner
    /// bookkeeping (not the policy objects themselves).
    pub bytes_retained: usize,
    /// Entries in the revival memo (wire text → label).
    pub memo_entries: usize,
    /// Attaches served from the revival memo or a [`StaticLabel`] slot.
    pub memo_hits: u64,
    /// Attaches that had to build and intern the policy.
    pub memo_misses: u64,
}

/// An RAII epoch pin: while alive, the sweep treats every label or
/// policy interned at or after the pinned epoch as reachable, and no
/// slot freed at or after it is reused. Take one at transaction or
/// request start so in-flight handles survive a concurrent sweep.
pub struct EpochPin<'a> {
    table: &'a LabelTable,
    epoch: u64,
}

impl fmt::Debug for EpochPin<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochPin")
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        let mut pins = crate::sync::mlock(&self.table.pins);
        if let Some(count) = pins.get_mut(&self.epoch) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.epoch);
            }
        }
    }
}

/// The process-wide intern table for policies and policy sets.
///
/// All [`Label`] and [`PolicyId`] operations go through the global table
/// ([`LabelTable::global`]); the handles themselves stay plain integers.
/// Reads (resolution, union-cache hits) take a shared lock; first-time
/// interning takes the exclusive lock briefly.
///
/// # Label lifecycle
///
/// The table no longer grows without bound: it carries an **epoch**
/// counter, [`EpochPin`]s taken at transaction/request start, and a
/// [`sweep`](LabelTable::sweep) that tombstones every label not in the
/// caller-supplied root set, not pinned, and not recently interned.
/// Durable data is safe by construction — policies persist *serialized*
/// with their data and re-intern on read — so after a checkpoint the
/// roots are just the labels still held by live in-memory state. Swept
/// slots deny export (fail closed) until every pin that could hold a
/// stale handle has dropped, then become reusable.
pub struct LabelTable {
    inner: RwLock<TableInner>,
    /// Lifecycle epoch; advances on every sweep.
    epoch: AtomicU64,
    /// Epoch → number of live pins taken at that epoch.
    pins: Mutex<BTreeMap<u64, usize>>,
    memo: LabelMemo,
}

/// Upper bound on revival-memo entries; a full memo starts over, so the
/// hot policies of the moment are back after one miss each.
const MEMO_CAPACITY: usize = 4096;

/// The attach memo: policy → interned [`Label`], keyed by the policy's
/// wire text ([`serialize_policy`](crate::serialize::serialize_policy)
/// form), plus the [`StaticLabel`] slots of the fixed boundary and
/// sanitizer policies.
///
/// It only saves work: a hit is the label a fresh build-and-intern would
/// return at that moment, because
///
/// * [`sweep`](LabelTable::sweep) drops every entry and slot while it
///   still holds the table's write lock, so no hit outlives a tombstone;
/// * replacing a policy class drops that class's entries
///   ([`forget_memo`](LabelTable::forget_memo)), so the next
///   revival runs the new deserializer;
/// * both bump `generation`, and a miss stores its result only if the
///   generation it started under is still current, so a build that raced
///   a sweep or a class replacement is not memoized;
/// * errors are never memoized: a malformed or rejected policy fails the
///   same way on every read.
struct LabelMemo {
    by_text: RwLock<HashMap<Box<str>, Label>>,
    /// Bumped by every sweep and class replacement.
    generation: AtomicU64,
    /// Static slots that have stored a label (cleared by every sweep).
    slots: Mutex<Vec<&'static AtomicU64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LabelMemo {
    fn new() -> LabelMemo {
        LabelMemo {
            by_text: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(0),
            slots: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A process-wide memo slot for one fixed policy — a boundary source's
/// `UntrustedData`, a sanitizer marker — so attaching it costs two atomic
/// loads instead of building, keying and interning the policy.
///
/// The slot holds the label interned by [`LabelTable::global`] together
/// with the memo generation it was built under; [`LabelTable::sweep`]
/// clears it, and a stale generation reads as a miss, so
/// [`get`](StaticLabel::get) always equals `Label::of(&make())`.
///
/// ```
/// use resin_core::prelude::*;
/// use resin_core::StaticLabel;
/// use std::sync::Arc;
///
/// static PARAM: StaticLabel =
///     StaticLabel::new(|| Arc::new(UntrustedData::from_source("doc_param")));
/// let fresh = Label::of(&(Arc::new(UntrustedData::from_source("doc_param")) as PolicyRef));
/// assert_eq!(PARAM.get(), fresh);
/// assert_eq!(PARAM.get(), fresh, "served from the slot");
/// ```
pub struct StaticLabel {
    make: fn() -> PolicyRef,
    /// `generation << 32 | label`, with the low 32 bits of the memo
    /// generation; `0` is empty (no policy interns as `Label::EMPTY`).
    slot: AtomicU64,
    registered: std::sync::atomic::AtomicBool,
}

impl StaticLabel {
    /// A slot for the policy `make` builds.
    pub const fn new(make: fn() -> PolicyRef) -> StaticLabel {
        StaticLabel {
            make,
            slot: AtomicU64::new(0),
            registered: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The policy's label in the global table.
    pub fn get(&'static self) -> Label {
        let table = LabelTable::global();
        let generation = table.memo.generation() as u32;
        let packed = self.slot.load(Ordering::Acquire);
        if packed as u32 != 0 && (packed >> 32) as u32 == generation {
            table.memo.count(true);
            return Label(packed as u32);
        }
        table.memo.count(false);
        if !self.registered.swap(true, Ordering::AcqRel) {
            crate::sync::mlock(&table.memo.slots).push(&self.slot);
        }
        let label = table.label_of(&(self.make)());
        self.slot.store(
            (u64::from(generation) << 32) | u64::from(label.0),
            Ordering::Release,
        );
        label
    }
}

impl LabelTable {
    /// A fresh, empty table (slot 0 = the empty label). Product code
    /// uses [`global`](LabelTable::global); standalone tables exist so
    /// lifecycle tests can churn and sweep without touching process-wide
    /// state.
    pub fn new() -> LabelTable {
        let empty = LabelEntry {
            ids: Arc::from(Vec::<PolicyId>::new()),
            refs: Arc::new(Vec::new()),
        };
        let inner = TableInner {
            sets: vec![empty], // index 0 = Label::EMPTY
            set_epochs: vec![0],
            ..TableInner::default()
        };
        LabelTable {
            inner: RwLock::new(inner),
            epoch: AtomicU64::new(1),
            pins: Mutex::new(BTreeMap::new()),
            memo: LabelMemo::new(),
        }
    }

    /// The global table.
    pub fn global() -> &'static LabelTable {
        static TABLE: OnceLock<LabelTable> = OnceLock::new();
        TABLE.get_or_init(LabelTable::new)
    }

    // The table is append-only and every write-locked section leaves it
    // consistent at each possible panic point (a pushed policy or set whose
    // index entry was never written is merely unreachable — no handed-out
    // handle can dangle), so a poisoned lock is recoverable; see
    // [`crate::sync`].
    fn read(&self) -> std::sync::RwLockReadGuard<'_, TableInner> {
        crate::sync::rlock(&self.inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, TableInner> {
        crate::sync::wlock(&self.inner)
    }

    /// The current lifecycle epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The oldest epoch with a live pin, if any.
    fn oldest_pin(&self) -> Option<u64> {
        crate::sync::mlock(&self.pins).keys().next().copied()
    }

    /// Pins the current epoch for the pin's lifetime. Take one at
    /// transaction/request start: labels and policies interned while the
    /// pin is live (or already live when it was taken, transitively via
    /// the reuse floor) survive concurrent sweeps.
    pub fn pin(&self) -> EpochPin<'_> {
        let epoch = self.epoch.load(Ordering::Relaxed);
        *crate::sync::mlock(&self.pins).entry(epoch).or_insert(0) += 1;
        EpochPin { table: self, epoch }
    }

    /// Interns one policy, returning its [`PolicyId`].
    pub fn intern_policy(&self, policy: &PolicyRef) -> PolicyId {
        // Compute the key outside the lock (serialize_fields may allocate).
        let key = PolicyKey::of(policy);
        if let Some(&id) = self.read().interner.by_key.get(&key) {
            return PolicyId(id);
        }
        let epoch = self.current_epoch();
        let floor = self.oldest_pin();
        self.write().interner.intern(key, policy, epoch, floor)
    }

    /// The canonical policy object for `id`.
    ///
    /// # Panics
    /// Panics if `id` did not come from this table.
    pub fn resolve_policy(&self, id: PolicyId) -> PolicyRef {
        self.read().interner.policies[id.0 as usize].clone()
    }

    /// The label for a single policy.
    pub fn label_of(&self, policy: &PolicyRef) -> Label {
        let id = self.intern_policy(policy);
        self.intern_ids(vec![id])
    }

    /// The label of the policy whose wire text is `text`, served from the
    /// attach memo; on a miss `build` makes the policy, which is interned
    /// and memoized. Errors from `build` pass through and are never
    /// memoized. A hit always equals a fresh build-and-intern:
    /// [`sweep`](LabelTable::sweep) empties the memo,
    /// [`forget_memo`](LabelTable::forget_memo) drops a replaced class's
    /// entries, and a build that raced either is not stored.
    pub fn memo_label<E>(
        &self,
        text: &str,
        build: impl FnOnce() -> Result<PolicyRef, E>,
    ) -> Result<Label, E> {
        if let Some(&label) = crate::sync::rlock(&self.memo.by_text).get(text) {
            self.memo.count(true);
            return Ok(label);
        }
        self.memo.count(false);
        let generation = self.memo.generation();
        let label = self.label_of(&build()?);
        let mut by_text = crate::sync::wlock(&self.memo.by_text);
        if self.memo.generation() == generation {
            if by_text.len() >= MEMO_CAPACITY {
                by_text.clear();
            }
            by_text.insert(text.into(), label);
        }
        Ok(label)
    }

    /// Drops every memo entry whose wire text satisfies `stale` and
    /// invalidates builds in flight. Called when a policy class is
    /// (re-)registered, with a predicate matching that class's entries.
    pub fn forget_memo(&self, stale: impl Fn(&str) -> bool) {
        let mut by_text = crate::sync::wlock(&self.memo.by_text);
        by_text.retain(|text, _| !stale(text));
        self.memo.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Interns a set of ids (sorted and deduplicated here) as a label.
    pub fn intern_ids(&self, mut ids: Vec<PolicyId>) -> Label {
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Label::EMPTY;
        }
        let ids: Arc<[PolicyId]> = ids.into();
        if let Some(&idx) = self.read().by_ids.get(&ids) {
            return Label(idx);
        }
        let refs: Vec<PolicyRef> = {
            let inner = self.read();
            ids.iter()
                .map(|id| inner.interner.policies[id.0 as usize].clone())
                .collect()
        };
        let epoch = self.current_epoch();
        let floor = self.oldest_pin();
        let mut inner = self.write();
        if let Some(&idx) = inner.by_ids.get(&ids) {
            return Label(idx); // raced: another thread interned it first
        }
        let entry = LabelEntry {
            ids: ids.clone(),
            refs: Arc::new(refs),
        };
        let idx = match inner.pop_free_set(floor) {
            Some(slot) => {
                inner.sets[slot as usize] = entry;
                inner.set_epochs[slot as usize] = epoch;
                slot
            }
            None => {
                let idx = u32::try_from(inner.sets.len()).expect("label table overflow");
                inner.sets.push(entry);
                inner.set_epochs.push(epoch);
                idx
            }
        };
        inner.by_ids.insert(ids, idx);
        Label(idx)
    }

    fn entry(&self, label: Label) -> LabelEntry {
        self.with_entry(label, LabelEntry::clone)
    }

    /// Runs `f` on `label`'s entry under the read lock: a query costs one
    /// lock round-trip and no `Arc` traffic.
    fn with_entry<R>(&self, label: Label, f: impl FnOnce(&LabelEntry) -> R) -> R {
        f(&self.read().sets[label.0 as usize])
    }

    fn union(&self, a: Label, b: Label) -> Label {
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(&idx) = self.read().union_cache.get(&key) {
            return Label(idx);
        }
        // Merge the two sorted id lists outside the write lock.
        let (ea, eb) = (self.entry(a), self.entry(b));
        let mut merged = Vec::with_capacity(ea.ids.len() + eb.ids.len());
        let (mut i, mut j) = (0, 0);
        while i < ea.ids.len() && j < eb.ids.len() {
            match ea.ids[i].cmp(&eb.ids[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(ea.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(eb.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(ea.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&ea.ids[i..]);
        merged.extend_from_slice(&eb.ids[j..]);
        let result = self.intern_ids(merged);
        self.write().union_cache.insert(key, result.0);
        result
    }

    /// Number of distinct live policies interned.
    pub fn policy_count(&self) -> usize {
        self.read().interner.len()
    }

    /// Number of label slots (including the empty label and tombstones).
    pub fn label_count(&self) -> usize {
        self.read().sets.len()
    }

    /// Number of memoized pairwise unions.
    pub fn union_cache_len(&self) -> usize {
        self.read().union_cache.len()
    }

    /// Sweeps every label not rooted, not pinned, and not freshly
    /// interned, tombstoning its slot for eventual reuse; policies
    /// referenced by no surviving label are swept the same way.
    ///
    /// **Roots contract.** `roots` must contain every label still
    /// reachable from long-lived in-memory state (sessions, caches,
    /// app-held tainted values). Durable state needs no roots: policies
    /// persist serialized with their data and re-intern on read. Call
    /// after a checkpoint, when durable state is self-contained, so the
    /// root set is exactly the in-memory survivors. Handles interned
    /// while an [`EpochPin`] is live (request/transaction scratch) are
    /// kept via the epoch check, and no swept slot is reused while a pin
    /// predating its release remains — so a contract *violation* (a
    /// stale handle outside roots and pins) resolves to the fail-closed
    /// `SweptLabel` tombstone, denying export instead of laundering
    /// another datum's policies.
    pub fn sweep<I: IntoIterator<Item = Label>>(&self, roots: I) -> SweepReport {
        // Advance the epoch first: everything interned from here on is
        // young and untouchable by this pass.
        let sweep_epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let safe_before = self.oldest_pin().unwrap_or(sweep_epoch).min(sweep_epoch);
        let root_set: HashSet<u32> = roots.into_iter().map(|l| l.0).collect();
        let mut inner = self.write();

        let already_free: HashSet<u32> = inner.free_sets.iter().map(|&(i, _)| i).collect();
        let mut swept_labels: HashSet<u32> = HashSet::new();
        for idx in 1..inner.sets.len() as u32 {
            if root_set.contains(&idx)
                || already_free.contains(&idx)
                || inner.set_epochs[idx as usize] >= safe_before
            {
                continue;
            }
            swept_labels.insert(idx);
        }
        // Policies referenced by surviving labels form the policy roots.
        let mut live_policies: HashSet<u32> = HashSet::new();
        for idx in 1..inner.sets.len() as u32 {
            if swept_labels.contains(&idx) || already_free.contains(&idx) {
                continue;
            }
            for id in inner.sets[idx as usize].ids.iter() {
                live_policies.insert(id.0);
            }
        }
        for &idx in &swept_labels {
            inner.sets[idx as usize] = tombstone_entry();
            inner.set_epochs[idx as usize] = sweep_epoch;
            inner.free_sets.push((idx, sweep_epoch));
        }
        inner.by_ids.retain(|_, idx| !swept_labels.contains(idx));
        // Memoized unions naming a swept operand or result are stale.
        // (Entries naming *previously* freed slots were purged by the
        // pass that freed them; reused slots only re-enter the cache
        // after reuse, so this pass's swept set is the whole stale set.)
        inner.union_cache.retain(|&(a, b), r| {
            !(swept_labels.contains(&a) || swept_labels.contains(&b) || swept_labels.contains(r))
        });

        let policy_free: HashSet<u32> = inner.interner.free.iter().map(|&(i, _)| i).collect();
        let mut swept_policies: HashSet<u32> = HashSet::new();
        for idx in 0..inner.interner.policies.len() as u32 {
            if live_policies.contains(&idx)
                || policy_free.contains(&idx)
                || inner.interner.epochs[idx as usize] >= safe_before
            {
                continue;
            }
            swept_policies.insert(idx);
        }
        for &idx in &swept_policies {
            inner.interner.policies[idx as usize] = Arc::new(SweptLabel) as PolicyRef;
            inner.interner.epochs[idx as usize] = sweep_epoch;
            inner.interner.free.push((idx, sweep_epoch));
        }
        inner
            .interner
            .by_key
            .retain(|_, id| !swept_policies.contains(id));
        // Empty the attach memo before releasing the write lock, so no
        // later hit returns a label this pass tombstoned, and move the
        // generation under the memo lock, so no build that started before
        // this pass stores its result after the clear.
        let mut by_text = crate::sync::wlock(&self.memo.by_text);
        by_text.clear();
        for slot in crate::sync::mlock(&self.memo.slots).iter() {
            slot.store(0, Ordering::Release);
        }
        self.memo.generation.fetch_add(1, Ordering::AcqRel);
        drop(by_text);

        SweepReport {
            labels_swept: swept_labels.len(),
            policies_swept: swept_policies.len(),
            labels_live: inner.sets.len() - 1 - inner.free_sets.len(),
            policies_live: inner.interner.len(),
        }
    }

    /// Point-in-time lifecycle and size counters.
    pub fn stats(&self) -> LabelTableStats {
        let inner = self.read();
        let sets_bytes: usize = inner.sets.iter().map(|e| e.ids.len() * 12 + 64).sum();
        let interner_bytes = inner.interner.policies.len() * 48;
        let cache_bytes = inner.union_cache.len() * 24;
        LabelTableStats {
            labels: inner.sets.len() - 1 - inner.free_sets.len(),
            policies: inner.interner.len(),
            free_labels: inner.free_sets.len(),
            free_policies: inner.interner.free.len(),
            union_cache: inner.union_cache.len(),
            epoch: self.current_epoch(),
            active_pins: crate::sync::mlock(&self.pins).values().sum(),
            bytes_retained: sets_bytes + interner_bytes + cache_bytes,
            memo_entries: crate::sync::rlock(&self.memo.by_text).len(),
            memo_hits: self.memo.hits.load(Ordering::Relaxed),
            memo_misses: self.memo.misses.load(Ordering::Relaxed),
        }
    }

    /// Point-in-time counters for the policy interner alone.
    pub fn policy_interner_stats(&self) -> PolicyInternerStats {
        self.read().interner.stats()
    }
}

impl Default for LabelTable {
    fn default() -> Self {
        LabelTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{HtmlSanitized, PasswordPolicy, SqlSanitized, UntrustedData};

    fn pw(email: &str) -> PolicyRef {
        Arc::new(PasswordPolicy::new(email))
    }

    fn untrusted() -> PolicyRef {
        Arc::new(UntrustedData::new())
    }

    #[test]
    fn empty_label_is_zero() {
        assert!(Label::EMPTY.is_empty());
        assert_eq!(Label::EMPTY.len(), 0);
        assert_eq!(Label::EMPTY.index(), 0);
        assert_eq!(Label::default(), Label::EMPTY);
        assert!(!Label::EMPTY.has::<UntrustedData>());
        assert!(!Label::EMPTY.has_named("UntrustedData"));
    }

    #[test]
    fn structural_duplicates_share_ids_and_labels() {
        let a = PolicyId::intern(&pw("a@x"));
        let b = PolicyId::intern(&pw("a@x"));
        assert_eq!(a, b);
        let c = PolicyId::intern(&pw("b@x"));
        assert_ne!(a, c);
        assert_eq!(Label::of(&pw("a@x")), Label::of(&pw("a@x")));
        assert_ne!(Label::of(&pw("a@x")), Label::of(&pw("b@x")));
    }

    #[test]
    fn union_laws() {
        let a = Label::of(&pw("a@x"));
        let b = Label::of(&pw("b@x"));
        let c = Label::of(&untrusted());
        // Idempotent / identity.
        assert_eq!(a.union(a), a);
        assert_eq!(a.union(Label::EMPTY), a);
        assert_eq!(Label::EMPTY.union(a), a);
        // Commutative / associative — equality is handle equality.
        assert_eq!(a.union(b), b.union(a));
        assert_eq!(a.union(b).union(c), a.union(b.union(c)));
        assert_eq!(a.union(b).len(), 2);
    }

    #[test]
    fn union_is_memoized() {
        let a = Label::of(&pw("memo-a@x"));
        let b = Label::of(&pw("memo-b@x"));
        let first = a.union(b);
        let before = LabelTable::global().label_count();
        let second = a.union(b);
        assert_eq!(first, second);
        assert_eq!(
            LabelTable::global().label_count(),
            before,
            "second union allocates nothing"
        );
    }

    #[test]
    fn membership_and_type_queries() {
        let u = untrusted();
        let l = Label::of(&u).union(Label::of(&(Arc::new(SqlSanitized::new()) as PolicyRef)));
        assert!(l.contains(PolicyId::intern(&u)));
        assert!(l.contains_policy(&untrusted()), "structural membership");
        assert!(l.has::<UntrustedData>());
        assert!(l.has::<SqlSanitized>());
        assert!(!l.has::<HtmlSanitized>());
        assert!(l.has_named("UntrustedData"));
        assert!(!l.has_named("Nope"));
    }

    #[test]
    fn insert_remove_retain() {
        let id_u = PolicyId::intern(&untrusted());
        let id_p = PolicyId::intern(&pw("r@x"));
        let l = Label::EMPTY.insert(id_u).insert(id_p);
        assert_eq!(l.len(), 2);
        let no_u = l.remove(id_u);
        assert!(!no_u.has::<UntrustedData>());
        assert!(no_u.has::<PasswordPolicy>());
        assert_eq!(l.remove(PolicyId::intern(&pw("absent@x"))), l);
        assert_eq!(l.without_type::<UntrustedData>(), no_u);
        assert_eq!(l.retain(|_| true), l, "full retain returns same handle");
        assert_eq!(l.retain(|_| false), Label::EMPTY);
    }

    #[test]
    fn resolution_returns_canonical_object() {
        let id = PolicyId::intern(&pw("canon@x"));
        let p = id.resolve();
        assert_eq!(p.name(), "PasswordPolicy");
        let l = Label::from_id(id);
        assert_eq!(l.policies().len(), 1);
        assert_eq!(l.ids().len(), 1);
        assert_eq!(l.ids()[0], id);
    }

    #[test]
    fn from_policies_dedups() {
        let l = Label::from_policies([&untrusted(), &untrusted(), &pw("d@x")]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn debug_renders_names() {
        let l = Label::of(&untrusted());
        assert!(format!("{l:?}").contains("UntrustedData"));
        assert_eq!(format!("{:?}", Label::EMPTY), "Label[]");
    }

    #[test]
    fn discriminator_keeps_behaviourally_distinct_policies_apart() {
        // Two policies with identical name + fields but different
        // behaviour (modeled by the discriminator, as script policies
        // carrying different class bodies do) must not conflate.
        #[derive(Debug)]
        struct CodeCarrying(u64);
        impl crate::policy::Policy for CodeCarrying {
            fn name(&self) -> &str {
                "DiscriminatorTestPolicy"
            }
            fn intern_discriminator(&self) -> u64 {
                self.0
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let a: PolicyRef = Arc::new(CodeCarrying(1));
        let b: PolicyRef = Arc::new(CodeCarrying(2));
        let same_as_a: PolicyRef = Arc::new(CodeCarrying(1));
        assert_ne!(PolicyId::intern(&a), PolicyId::intern(&b));
        assert_eq!(PolicyId::intern(&a), PolicyId::intern(&same_as_a));
        // Resolution returns the object with the matching behaviour.
        let got = PolicyId::intern(&b).resolve();
        assert_eq!(
            got.as_any()
                .downcast_ref::<CodeCarrying>()
                .expect("same type")
                .0,
            2
        );
    }

    #[test]
    fn poisoned_lock_recovers() {
        // A worker thread that panics while holding the write lock used to
        // poison the global table, turning every later intern/resolve in
        // the whole process into a panic. The table is append-only, so the
        // lock state is always consistent — recover and keep going.
        let table = LabelTable::global();
        let _ = std::thread::spawn(|| {
            let _guard = LabelTable::global().inner.write();
            panic!("worker dies while holding the label-table lock");
        })
        .join();
        assert!(table.inner.is_poisoned(), "the panic poisoned the lock");
        // Interning from another thread must still work end-to-end:
        // policy interner, label sets, and the union cache.
        let l = std::thread::spawn(|| {
            let a = Label::of(&(Arc::new(UntrustedData::from_source("post-poison")) as PolicyRef));
            let b = Label::of(&pw("post-poison@x"));
            a.union(b)
        })
        .join()
        .expect("interning after poison must not panic");
        assert_eq!(l.len(), 2);
        assert!(l.has::<UntrustedData>());
        assert!(l.has::<PasswordPolicy>());
    }

    // Lifecycle tests run on standalone tables: sweeping the global
    // table would race other tests' un-pinned, un-rooted handles.

    #[test]
    fn sweep_tombstones_unrooted_labels_fail_closed() {
        let t = LabelTable::new();
        let l = t.label_of(&pw("gc-unrooted@x"));
        let before = t.stats();
        assert_eq!(before.labels, 1);
        assert_eq!(before.policies, 1);
        let report = t.sweep([]);
        assert_eq!(report.labels_swept, 1);
        assert_eq!(report.policies_swept, 1);
        assert_eq!(report.labels_live, 0);
        // The stale handle now resolves to the fail-closed tombstone.
        let entry = t.entry(l);
        assert!(entry.ids.is_empty());
        let ctx = Context::new(crate::gate::GateKind::Http);
        let err = entry.refs[0].export_check(&ctx).unwrap_err();
        assert_eq!(err.policy, "SweptLabel");
        let stats = t.stats();
        assert_eq!(stats.labels, 0);
        assert_eq!(stats.free_labels, 1);
        assert_eq!(stats.epoch, 2);
    }

    #[test]
    fn rooted_labels_survive_sweep_and_slots_are_reused() {
        let t = LabelTable::new();
        let keep = t.label_of(&pw("gc-keep@x"));
        let drop_me = t.label_of(&pw("gc-drop@x"));
        let report = t.sweep([keep]);
        assert_eq!(report.labels_swept, 1);
        assert_eq!(report.labels_live, 1);
        // The root still interns to the same handle, object intact.
        assert_eq!(t.label_of(&pw("gc-keep@x")), keep);
        assert_eq!(t.entry(keep).refs[0].name(), "PasswordPolicy");
        // With no pins, the freed slot is reused by the next intern.
        let fresh = t.label_of(&pw("gc-fresh@x"));
        assert_eq!(fresh.0, drop_me.0, "freed slot reused");
        assert_eq!(t.stats().free_labels, 0);
    }

    #[test]
    fn pinned_epochs_are_not_swept_and_block_slot_reuse() {
        let t = LabelTable::new();
        let pin = t.pin();
        let l = t.label_of(&pw("gc-pinned@x"));
        let report = t.sweep([]);
        assert_eq!(report.labels_swept, 0, "pinned epoch survives");
        assert_eq!(t.label_of(&pw("gc-pinned@x")), l);
        assert_eq!(t.stats().active_pins, 1);
        drop(pin);
        let report = t.sweep([]);
        assert_eq!(report.labels_swept, 1);
        // A pin taken before a future free also blocks reuse: free the
        // slot while a fresh pin predates nothing — simulate by pinning
        // *before* the sweep that frees.
        let pin2 = t.pin();
        let l2 = t.label_of(&pw("gc-pinned2@x"));
        drop(pin2);
        let pin3 = t.pin(); // taken before the sweep below frees l2's slot
        let _ = l2;
        t.sweep([]);
        let freed = t.stats().free_labels;
        assert!(freed >= 1);
        let _fresh = t.label_of(&pw("gc-after@x"));
        assert_eq!(
            t.stats().free_labels,
            freed,
            "slots freed at/after a live pin's epoch are not reused"
        );
        drop(pin3);
    }

    #[test]
    fn sweep_purges_stale_union_cache_entries() {
        let t = LabelTable::new();
        let a = t.label_of(&pw("gc-ua@x"));
        let b = t.label_of(&pw("gc-ub@x"));
        let _ab = t.union(a, b);
        assert_eq!(t.union_cache_len(), 1);
        t.sweep([a]);
        assert_eq!(
            t.union_cache_len(),
            0,
            "cached union names a swept operand/result"
        );
    }

    #[test]
    fn session_churn_plateaus_under_sweep() {
        // The acceptance scenario: login/expire churn interning one
        // fresh per-user policy per login. Without GC the table grows
        // linearly (10k entries); with periodic sweeps it plateaus at
        // the sweep interval.
        const CHURN: usize = 10_000;
        const INTERVAL: usize = 100;
        let t = LabelTable::new();
        let mut peak_slots = 0usize;
        for i in 0..CHURN {
            // login: a session-scoped label; expire: the handle drops.
            let _label = t.label_of(&pw(&format!("churn-{i}@x")));
            if (i + 1) % INTERVAL == 0 {
                t.sweep([]);
            }
            peak_slots = peak_slots.max(t.label_count());
        }
        let stats = t.stats();
        assert!(
            peak_slots <= 2 * INTERVAL + 2,
            "label slots must plateau near the sweep interval, got {peak_slots}"
        );
        assert!(
            t.policy_interner_stats().slots <= 2 * INTERVAL + 2,
            "policy slots must plateau too, got {}",
            t.policy_interner_stats().slots
        );
        assert!(stats.labels <= INTERVAL, "live labels bounded");
        assert!(stats.epoch >= (CHURN / INTERVAL) as u64);
    }

    #[test]
    fn table_stats_grow_monotonically() {
        let t = LabelTable::global();
        let before = t.policy_count();
        let _ = Label::of(&pw("stats-unique@x"));
        assert!(t.policy_count() > before);
        assert!(t.label_count() >= 1);
        let _ = t.union_cache_len(); // smoke: accessible
        let interner_len = t.read().interner.len();
        assert!(!t.read().interner.is_empty());
        assert_eq!(interner_len, t.policy_count());
    }
}
