//! The RSL tree-walking interpreter.
//!
//! Policy tracking is woven into every operation handler, the way the
//! paper's prototype modifies PHP's opcode handlers (§4):
//!
//! * string concatenation carries byte-range policy spans;
//! * integer arithmetic merges the operands' policy sets (§3.4.2);
//! * `echo` writes through the HTTP channel's default filter;
//! * `email` writes through a recipient-annotated email channel;
//! * `import` pulls code through the interpreter's code-import boundary
//!   (§3.2.2, Figure 6);
//! * file builtins go through the policy-persisting VFS (§3.4.1).
//!
//! [`Tracking::Off`] reproduces the *unmodified* interpreter: operations
//! take fast paths that skip policy propagation entirely, channels are
//! unguarded, and file policies are dropped — the baseline column of
//! Table 5.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use resin_core::{
    merge_sets, register_policy_class, AuthenticData, CodeApproval, Context, CtxValue, EmptyPolicy,
    Gate, GateKind, HtmlSanitized, Label, PolicyRef, PolicyViolation, Runtime, SqlSanitized,
    TaintedString, UntrustedData,
};
use resin_vfs::{TrackingMode as VfsTracking, Vfs};

use crate::ast::{BinOp, ClassDecl, Expr, FnDecl, Stmt, StmtKind, Target};
use crate::chunk::Chunk;
use crate::parser::parse_program;
use crate::value::{Obj, PValue, ScriptPolicy, Value};

/// Whether the interpreter performs RESIN data tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tracking {
    /// The unmodified interpreter: no propagation, unguarded channels.
    Off,
    /// The RESIN interpreter.
    #[default]
    On,
}

/// Which execution engine runs RSL code.
///
/// Both engines implement identical semantics — value results, label
/// propagation, and error messages line up bit for bit (the differential
/// test suite asserts it). The tree-walker is kept as the oracle; the VM
/// is the production path because policy checks run on every gate
/// crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The original tree-walking interpreter (the differential oracle).
    Tree,
    /// The bytecode pipeline: AST → chunk compiler → stack-machine VM.
    #[default]
    Vm,
}

impl Engine {
    /// Stable wire name, used when an engine pin is persisted alongside a
    /// [`ScriptPolicy`]'s fields.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tree => "tree",
            Engine::Vm => "vm",
        }
    }

    /// Inverse of [`Engine::name`].
    pub fn from_name(s: &str) -> Option<Engine> {
        match s {
            "tree" => Some(Engine::Tree),
            "vm" => Some(Engine::Vm),
            _ => None,
        }
    }
}

/// The process-default engine.
///
/// `RESIN_RSL_ENGINE=tree` selects the tree-walker (for differential
/// debugging); anything else — or unset — selects the VM. Read once and
/// cached so a process cannot change engines mid-flight.
pub fn default_engine() -> Engine {
    static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
    *ENGINE.get_or_init(|| match std::env::var("RESIN_RSL_ENGINE") {
        Ok(v) if v.eq_ignore_ascii_case("tree") || v.eq_ignore_ascii_case("interp") => Engine::Tree,
        _ => Engine::Vm,
    })
}

/// A runtime error (including policy violations surfacing in script).
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// Human-readable message.
    pub message: String,
    /// True when the error is a data flow assertion failure.
    pub violation: bool,
    /// 1-based source line of the statement that failed, when known.
    pub line: Option<u32>,
}

impl LangError {
    /// A plain (non-violation) runtime error.
    pub fn new(msg: impl Into<String>) -> Self {
        LangError {
            message: msg.into(),
            violation: false,
            line: None,
        }
    }

    pub(crate) fn flagged(message: String, violation: bool) -> Self {
        LangError {
            message,
            violation,
            line: None,
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        Ok(())
    }
}

impl std::error::Error for LangError {}

/// Control-flow signals inside the evaluator (shared with the VM).
pub(crate) enum Flow {
    Error(LangError),
    Return(Value),
    Throw(Value),
}

pub(crate) type R<T> = Result<T, Flow>;

pub(crate) fn rt(msg: impl Into<String>) -> Flow {
    Flow::Error(LangError::new(msg))
}

/// A delivered email (for inspection by tests and harnesses).
#[derive(Debug, Clone)]
pub struct SentMail {
    /// Recipient.
    pub to: String,
    /// Body as it left the system.
    pub body: String,
}

/// How deep script calls may recurse (both engines).
///
/// Conservative limit: each script frame costs many Rust frames in a
/// tree-walker, and debug-build test threads have small stacks. The VM
/// uses the same cap so a recursive policy fails identically under either
/// engine instead of overflowing the native stack.
pub(crate) const MAX_CALL_DEPTH: usize = 64;

/// The interpreter.
pub struct Interp {
    pub(crate) tracking: Tracking,
    engine: Engine,
    pub(crate) globals: HashMap<String, Value>,
    locals: Vec<HashMap<String, Value>>,
    pub(crate) fns: HashMap<String, Arc<FnDecl>>,
    pub(crate) classes: HashMap<String, Arc<ClassDecl>>,
    /// The virtual filesystem, built on first file operation (policy
    /// checks through the VM never pay for one).
    vfs: Option<Vfs>,
    /// The HTTP output gate (`echo` writes here), built on first use.
    http: Option<Gate>,
    /// Emails actually delivered.
    pub emails: Vec<SentMail>,
    email_preview: bool,
    require_code_approval: bool,
    print_buf: String,
    current_user: Option<String>,
    pub(crate) call_depth: usize,
    /// Per-interpreter chunk cache for script functions, keyed by the
    /// `FnDecl` allocation (the `Arc` is held so the address stays valid).
    pub(crate) chunks: HashMap<usize, (Arc<FnDecl>, Arc<Chunk>)>,
    /// Route chunk lookups through the process-wide policy-method cache
    /// (set for the short-lived interpreters that run `export_check`).
    pub(crate) use_global_chunk_cache: bool,
    /// Warning-level lint reports accumulated as policy classes were
    /// registered (error-level findings fail registration instead).
    lint_reports: Vec<crate::analysis::LintReport>,
}

impl Interp {
    /// A RESIN interpreter (tracking on, process-default engine).
    pub fn new() -> Self {
        Interp::with_config(Tracking::On, default_engine())
    }

    /// An interpreter with the given tracking mode.
    pub fn with_tracking(tracking: Tracking) -> Self {
        Interp::with_config(tracking, default_engine())
    }

    /// An interpreter with the given engine (tracking on).
    pub fn with_engine(engine: Engine) -> Self {
        Interp::with_config(Tracking::On, engine)
    }

    /// An interpreter with explicit tracking mode and engine.
    pub fn with_config(tracking: Tracking, engine: Engine) -> Self {
        Interp {
            tracking,
            engine,
            globals: HashMap::new(),
            locals: Vec::new(),
            fns: HashMap::new(),
            classes: HashMap::new(),
            vfs: None,
            http: None,
            emails: Vec::new(),
            email_preview: false,
            require_code_approval: false,
            print_buf: String::new(),
            current_user: None,
            call_depth: 0,
            chunks: HashMap::new(),
            use_global_chunk_cache: false,
            lint_reports: Vec::new(),
        }
    }

    /// Lint reports (warnings only) collected while registering policy
    /// classes; one report per class, newest registration wins.
    pub fn lint_reports(&self) -> &[crate::analysis::LintReport] {
        &self.lint_reports
    }

    /// Drains the accumulated lint reports (for apps that surface them
    /// once on stderr and do not want repeats).
    pub fn take_lint_reports(&mut self) -> Vec<crate::analysis::LintReport> {
        std::mem::take(&mut self.lint_reports)
    }

    /// Runs the policy linter over a registered class by name.
    pub fn lint_class(&self, name: &str) -> Option<crate::analysis::LintReport> {
        self.classes
            .get(name)
            .map(|c| crate::analysis::lint_class(c))
    }

    /// The tracking mode.
    pub fn tracking(&self) -> Tracking {
        self.tracking
    }

    /// The execution engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The virtual filesystem (created on first use).
    pub fn vfs(&mut self) -> &mut Vfs {
        let tracking = self.tracking;
        self.vfs.get_or_insert_with(|| match tracking {
            Tracking::On => Vfs::new(),
            Tracking::Off => Vfs::with_mode(VfsTracking::Off),
        })
    }

    /// The HTTP output gate (created on first use).
    pub fn http(&mut self) -> &mut Gate {
        let tracking = self.tracking;
        self.http.get_or_insert_with(|| match tracking {
            Tracking::On => Runtime::global().open(GateKind::Http),
            Tracking::Off => Gate::unguarded(GateKind::Http),
        })
    }

    /// Accumulated `print` output.
    pub fn print_output(&self) -> &str {
        &self.print_buf
    }

    /// The HTTP body produced so far.
    pub fn http_output(&self) -> String {
        self.http
            .as_ref()
            .map(|g| g.output_text())
            .unwrap_or_default()
    }

    /// A script-visible global, if defined (used by harnesses and the
    /// differential tests to compare engine states).
    pub fn global(&self, name: &str) -> Option<Value> {
        self.globals.get(name).cloned()
    }

    /// Parses and runs a program in the global scope.
    pub fn run(&mut self, src: &str) -> Result<Value, LangError> {
        let program = parse_program(src).map_err(|e| LangError {
            message: e.to_string(),
            violation: false,
            line: Some(e.line),
        })?;
        self.exec_program(&program)
    }

    /// Runs a pre-parsed program (used by the benchmarks to exclude parse
    /// time, as the paper's microbenchmarks do).
    pub fn exec_program(&mut self, program: &[Stmt]) -> Result<Value, LangError> {
        match self.engine {
            Engine::Tree => {
                let flow = self.exec_block(program);
                finish(flow)
            }
            Engine::Vm => {
                let chunk = self.compile(program)?;
                self.exec_chunk(&chunk)
            }
        }
    }

    /// Compiles a pre-parsed program to a chunk (top-level scope).
    ///
    /// Benchmarks compile once and run the chunk repeatedly, exactly as
    /// the tree engine re-walks a pre-parsed AST.
    pub fn compile(&mut self, program: &[Stmt]) -> Result<Arc<Chunk>, LangError> {
        crate::compiler::compile_program(program).map(Arc::new)
    }

    /// Runs a compiled top-level chunk on the VM.
    pub fn exec_chunk(&mut self, chunk: &Arc<Chunk>) -> Result<Value, LangError> {
        let flow = crate::vm::run_chunk(self, chunk.clone(), Vec::new(), None);
        finish(flow)
    }

    /// Calls a script-defined function by name.
    pub fn call_function(&mut self, name: &str, args: Vec<Value>) -> Result<Value, LangError> {
        let decl = self
            .fns
            .get(name)
            .cloned()
            .ok_or_else(|| LangError::new(format!("undefined function `{name}`")))?;
        let flow = match self.engine {
            Engine::Tree => self.call_decl(&decl, args, None),
            Engine::Vm => crate::vm::call_function(self, &decl, args, None),
        };
        finish(flow)
    }

    // ---- scopes ----

    fn lookup(&self, name: &str) -> Option<Value> {
        if let Some(frame) = self.locals.last() {
            if let Some(v) = frame.get(name) {
                return Some(v.clone());
            }
        }
        self.globals.get(name).cloned()
    }

    fn define(&mut self, name: &str, value: Value) {
        match self.locals.last_mut() {
            Some(frame) => {
                frame.insert(name.to_string(), value);
            }
            None => {
                self.globals.insert(name.to_string(), value);
            }
        }
    }

    fn set_var(&mut self, name: &str, value: Value) -> R<()> {
        if let Some(frame) = self.locals.last_mut() {
            if frame.contains_key(name) {
                frame.insert(name.to_string(), value);
                return Ok(());
            }
        }
        if self.globals.contains_key(name) {
            self.globals.insert(name.to_string(), value);
            return Ok(());
        }
        // Implicit definition on first assignment (PHP-style).
        self.define(name, value);
        Ok(())
    }

    // ---- execution ----

    fn exec_block(&mut self, stmts: &[Stmt]) -> R<Value> {
        let mut last = Value::Null;
        for s in stmts {
            last = self.exec_stmt(s)?;
        }
        Ok(last)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> R<Value> {
        match self.exec_stmt_kind(&stmt.kind) {
            Err(Flow::Error(mut e)) => {
                // Innermost statement wins: inner frames attach first.
                if e.line.is_none() {
                    e.line = Some(stmt.line);
                }
                Err(Flow::Error(e))
            }
            other => other,
        }
    }

    fn exec_stmt_kind(&mut self, stmt: &StmtKind) -> R<Value> {
        match stmt {
            StmtKind::Let(name, e) => {
                let v = self.eval(e)?;
                self.define(name, v);
                Ok(Value::Null)
            }
            StmtKind::Assign(target, e) => {
                let v = self.eval(e)?;
                match target {
                    Target::Var(name) => self.set_var(name, v)?,
                    Target::Prop(obj, field) => {
                        let o = self.eval(obj)?;
                        Interp::prop_assign(&o, field, v)?;
                    }
                    Target::Index(arr, idx) => {
                        let a = self.eval(arr)?;
                        let i = self.eval(idx)?;
                        Interp::index_assign(&a, &i, v)?;
                    }
                }
                Ok(Value::Null)
            }
            StmtKind::Expr(e) => self.eval(e),
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then_body)
                } else {
                    self.exec_block(else_body)
                }
            }
            StmtKind::While { cond, body } => {
                let mut iterations = 0u64;
                while self.eval(cond)?.truthy() {
                    self.exec_block(body)?;
                    iterations += 1;
                    if iterations > 100_000_000 {
                        return Err(rt("loop iteration limit exceeded"));
                    }
                }
                Ok(Value::Null)
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                Err(Flow::Return(v))
            }
            StmtKind::Throw(e) => {
                let v = self.eval(e)?;
                Err(Flow::Throw(v))
            }
            StmtKind::FnDef(decl) => {
                self.fns.insert(decl.name.clone(), decl.clone());
                Ok(Value::Null)
            }
            StmtKind::ClassDef(decl) => {
                self.register_class(decl)?;
                Ok(Value::Null)
            }
        }
    }

    /// Registers a class definition (shared by both engines). Classes with
    /// an `export_check` method are policy classes: they are statically
    /// analyzed first — error-severity lint findings fail the definition
    /// closed (an unsound policy never guards traffic), warnings accumulate
    /// on [`Interp::lint_reports`] — then registered with the process-wide
    /// policy registry so persisted instances can be revived (§3.4.1 —
    /// only class name and fields are stored).
    pub(crate) fn register_class(&mut self, decl: &Arc<ClassDecl>) -> R<()> {
        if decl.method("export_check").is_some() {
            let report = crate::analysis::lint_class(decl);
            if let Some(err) = report.errors().next() {
                return Err(rt(format!(
                    "policy class `{}` rejected by lint: {err}",
                    decl.name
                )));
            }
            if !report.diagnostics.is_empty() {
                self.lint_reports
                    .retain(|r| r.class_name != report.class_name);
                self.lint_reports.push(report);
            }
        }
        self.classes.insert(decl.name.clone(), decl.clone());
        if decl.method("export_check").is_some() {
            let class_name = decl.name.clone();
            let class = decl.clone();
            // Revival re-runs the analyzer (memoized — once per process
            // per class) so a policy persisted before the linter existed
            // still fails closed when its class turns out unsound.
            let lint_memo: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
            register_policy_class(class_name.clone(), move |fields| {
                let lint_err = lint_memo.get_or_init(|| {
                    crate::analysis::lint_class(&class)
                        .errors()
                        .next()
                        .map(|d| d.to_string())
                });
                if let Some(err) = lint_err {
                    return Err(resin_core::SerializeError::BadField {
                        class: class_name.clone(),
                        field: "<lint>".into(),
                        reason: err.clone(),
                    });
                }
                let mut decoded = BTreeMap::new();
                let mut engine = None;
                for (k, v) in fields {
                    // The engine pin rides along as a reserved field, not an
                    // instance field: strip it here and re-apply it below so
                    // a pinned policy keeps checking on the engine it was
                    // stored under (§3.4.1 stores only name + fields, so the
                    // pin has to travel inside the field list).
                    if k == ScriptPolicy::ENGINE_FIELD {
                        engine = Engine::from_name(v);
                        if engine.is_none() {
                            return Err(resin_core::SerializeError::BadField {
                                class: class_name.clone(),
                                field: k.clone(),
                                reason: format!("unknown engine {v:?}"),
                            });
                        }
                        continue;
                    }
                    let pv =
                        PValue::decode(v).ok_or_else(|| resin_core::SerializeError::BadField {
                            class: class_name.clone(),
                            field: k.clone(),
                            reason: "undecodable field".into(),
                        })?;
                    decoded.insert(k.clone(), pv);
                }
                let mut policy =
                    ScriptPolicy::new(class_name.clone(), decoded, Some(class.clone()));
                if let Some(engine) = engine {
                    policy = policy.with_engine(engine);
                }
                Ok(Arc::new(policy) as PolicyRef)
            });
        }
        Ok(())
    }

    // ---- shared operation semantics (used by both engines) ----

    /// `a[i] = v` (array by int, map by string).
    pub(crate) fn index_assign(a: &Value, i: &Value, v: Value) -> R<()> {
        match (a, i) {
            (Value::Array(a), Value::Int(n, _)) => {
                let mut a = a.borrow_mut();
                let n = *n as usize;
                if n >= a.len() {
                    return Err(rt("array index out of range"));
                }
                a[n] = v;
                Ok(())
            }
            (Value::Map(m), Value::Str(k)) => {
                m.borrow_mut().insert(k.as_str().to_string(), v);
                Ok(())
            }
            _ => Err(rt(format!(
                "cannot index {} with {}",
                a.type_name(),
                i.type_name()
            ))),
        }
    }

    /// `a[i]` (array by int, map by string, string by int).
    pub(crate) fn index_value(a: &Value, i: &Value) -> R<Value> {
        match (a, i) {
            (Value::Array(a), Value::Int(n, _)) => {
                let a = a.borrow();
                a.get(*n as usize)
                    .cloned()
                    .ok_or_else(|| rt("array index out of range"))
            }
            (Value::Map(m), Value::Str(k)) => {
                Ok(m.borrow().get(k.as_str()).cloned().unwrap_or(Value::Null))
            }
            (Value::Str(s), Value::Int(n, _)) => {
                let n = *n as usize;
                Ok(Value::Str(s.slice(n..n + 1)))
            }
            _ => Err(rt(format!(
                "cannot index {} with {}",
                a.type_name(),
                i.type_name()
            ))),
        }
    }

    /// `obj.field` read.
    pub(crate) fn prop_value(o: &Value, field: &str) -> R<Value> {
        let Value::Object(o) = o else {
            return Err(rt(format!("cannot read field of {}", o.type_name())));
        };
        let v = o.borrow().fields.get(field).cloned();
        v.ok_or_else(|| rt(format!("no field `{field}`")))
    }

    /// `obj.field = v` write.
    pub(crate) fn prop_assign(o: &Value, field: &str, v: Value) -> R<()> {
        let Value::Object(o) = o else {
            return Err(rt(format!("cannot set field on {}", o.type_name())));
        };
        o.borrow_mut().fields.insert(field.to_string(), v);
        Ok(())
    }

    /// Unary minus.
    pub(crate) fn neg_value(v: Value) -> R<Value> {
        match v {
            Value::Int(n, p) => Ok(Value::Int(-n, p)),
            other => Err(rt(format!("cannot negate {}", other.type_name()))),
        }
    }

    /// `-`/`*`/`/`/`%` on ints, merging the operands' labels.
    pub(crate) fn arith_values(&mut self, op: BinOp, l: Value, r: Value) -> R<Value> {
        let (Value::Int(a, pa), Value::Int(b, pb)) = (&l, &r) else {
            return Err(rt(format!(
                "arithmetic on {} and {}",
                l.type_name(),
                r.type_name()
            )));
        };
        if matches!(op, BinOp::Div | BinOp::Mod) && *b == 0 {
            return Err(rt("division by zero"));
        }
        let n = match op {
            BinOp::Sub => a.wrapping_sub(*b),
            BinOp::Mul => a.wrapping_mul(*b),
            BinOp::Div => a / b,
            BinOp::Mod => a % b,
            _ => unreachable!("arith_values only handles -, *, /, %"),
        };
        let pol = self.merge_int_policies(*pa, *pb)?;
        Ok(Value::Int(n, pol))
    }

    /// `<`/`<=`/`>`/`>=` on ints or strings; results are untainted bools.
    pub(crate) fn compare_values(op: BinOp, l: &Value, r: &Value) -> R<Value> {
        let ord = match (l, r) {
            (Value::Int(a, _), Value::Int(b, _)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_str().cmp(b.as_str()),
            _ => {
                return Err(rt(format!(
                    "cannot compare {} and {}",
                    l.type_name(),
                    r.type_name()
                )));
            }
        };
        let b = match op {
            BinOp::Lt => ord.is_lt(),
            BinOp::Le => ord.is_le(),
            BinOp::Gt => ord.is_gt(),
            BinOp::Ge => ord.is_ge(),
            _ => unreachable!("compare_values only handles <, <=, >, >="),
        };
        Ok(Value::Bool(b))
    }

    // ---- expression evaluation ----

    fn eval(&mut self, expr: &Expr) -> R<Value> {
        match expr {
            Expr::Int(n) => Ok(Value::int(*n)),
            Expr::Str(s) => Ok(Value::str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Var(name) => self
                .lookup(name)
                .ok_or_else(|| rt(format!("undefined variable `{name}`"))),
            Expr::This => self
                .lookup("this")
                .ok_or_else(|| rt("`this` outside method")),
            Expr::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for i in items {
                    out.push(self.eval(i)?);
                }
                Ok(Value::new_array(out))
            }
            Expr::Not(e) => Ok(Value::Bool(!self.eval(e)?.truthy())),
            Expr::Neg(e) => {
                let v = self.eval(e)?;
                Interp::neg_value(v)
            }
            Expr::Binary { op, left, right } => self.eval_binary(*op, left, right),
            Expr::Index(arr, idx) => {
                let a = self.eval(arr)?;
                let i = self.eval(idx)?;
                Interp::index_value(&a, &i)
            }
            Expr::Prop(obj, field) => {
                let o = self.eval(obj)?;
                Interp::prop_value(&o, field)
            }
            Expr::New { class, args } => {
                let decl = self
                    .classes
                    .get(class)
                    .cloned()
                    .ok_or_else(|| rt(format!("undefined class `{class}`")))?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                let obj = Rc::new(std::cell::RefCell::new(Obj {
                    class: decl.clone(),
                    fields: BTreeMap::new(),
                }));
                if let Some(init) = decl.method("init") {
                    let init = init.clone();
                    self.call_decl(&init, argv, Some(Value::Object(obj.clone())))?;
                }
                Ok(Value::Object(obj))
            }
            Expr::MethodCall { recv, method, args } => {
                let r = self.eval(recv)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                let Value::Object(o) = &r else {
                    return Err(rt(format!("cannot call method on {}", r.type_name())));
                };
                let decl = o.borrow().class.clone();
                let m = decl
                    .method(method)
                    .cloned()
                    .ok_or_else(|| rt(format!("no method `{method}` on `{}`", decl.name)))?;
                self.call_decl(&m, argv, Some(r.clone()))
            }
            Expr::Call { name, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                if let Some(decl) = self.fns.get(name).cloned() {
                    return self.call_decl(&decl, argv, None);
                }
                self.builtin(name, argv)
            }
        }
    }

    pub(crate) fn call_decl(
        &mut self,
        decl: &FnDecl,
        args: Vec<Value>,
        this: Option<Value>,
    ) -> R<Value> {
        if args.len() != decl.params.len() {
            return Err(rt(format!(
                "`{}` expects {} arguments, got {}",
                decl.name,
                decl.params.len(),
                args.len()
            )));
        }
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(rt("call depth limit exceeded"));
        }
        let mut frame = HashMap::with_capacity(args.len() + 1);
        for (p, a) in decl.params.iter().zip(args) {
            frame.insert(p.clone(), a);
        }
        if let Some(t) = this {
            frame.insert("this".to_string(), t);
        }
        self.locals.push(frame);
        self.call_depth += 1;
        let result = self.exec_block(&decl.body);
        self.call_depth -= 1;
        self.locals.pop();
        match result {
            Ok(_) => Ok(Value::Null),
            Err(Flow::Return(v)) => Ok(v),
            Err(other) => Err(other),
        }
    }

    fn eval_binary(&mut self, op: BinOp, left: &Expr, right: &Expr) -> R<Value> {
        // Short-circuit logicals first.
        match op {
            BinOp::And => {
                let l = self.eval(left)?;
                if !l.truthy() {
                    return Ok(Value::Bool(false));
                }
                return Ok(Value::Bool(self.eval(right)?.truthy()));
            }
            BinOp::Or => {
                let l = self.eval(left)?;
                if l.truthy() {
                    return Ok(Value::Bool(true));
                }
                return Ok(Value::Bool(self.eval(right)?.truthy()));
            }
            _ => {}
        }
        let l = self.eval(left)?;
        let r = self.eval(right)?;
        match op {
            BinOp::Eq => Ok(Value::Bool(l.loose_eq(&r))),
            BinOp::Ne => Ok(Value::Bool(!l.loose_eq(&r))),
            BinOp::Add => self.add_values(l, r),
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => self.arith_values(op, l, r),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => Interp::compare_values(op, &l, &r),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    /// `+`: integer addition (merging policies) or string concatenation
    /// (carrying byte-range spans). These are the first two opcode handlers
    /// Table 5 measures.
    pub(crate) fn add_values(&mut self, l: Value, r: Value) -> R<Value> {
        match (&l, &r) {
            (Value::Int(a, pa), Value::Int(b, pb)) => {
                let pol = self.merge_int_policies(*pa, *pb)?;
                Ok(Value::Int(a.wrapping_add(*b), pol))
            }
            (Value::Str(_), _) | (_, Value::Str(_)) => {
                let a = l.to_tainted();
                let b = r.to_tainted();
                if self.tracking == Tracking::Off {
                    // Unmodified runtime: plain text concatenation.
                    let mut s = String::with_capacity(a.len() + b.len());
                    s.push_str(a.as_str());
                    s.push_str(b.as_str());
                    Ok(Value::Str(TaintedString::from(s)))
                } else {
                    // The Table 5 concat opcode: a pre-sized builder append
                    // inside `concat`, spans carried with a seam coalesce.
                    Ok(Value::Str(a.concat(&b)))
                }
            }
            _ => Err(rt(format!(
                "cannot add {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        }
    }

    pub(crate) fn merge_int_policies(&self, pa: Label, pb: Label) -> R<Label> {
        if self.tracking == Tracking::Off {
            return Ok(Label::EMPTY);
        }
        merge_sets(pa, pb)
            .map_err(|e| Flow::Error(LangError::flagged(e.to_string(), e.is_violation())))
    }

    // ---- builtins ----

    pub(crate) fn builtin(&mut self, name: &str, mut args: Vec<Value>) -> R<Value> {
        // Helpers for argument extraction.
        fn want_str(v: &Value, what: &str) -> R<TaintedString> {
            match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(rt(format!(
                    "{what}: expected string, got {}",
                    other.type_name()
                ))),
            }
        }
        fn want_int(v: &Value, what: &str) -> R<i64> {
            match v {
                Value::Int(n, _) => Ok(*n),
                other => Err(rt(format!(
                    "{what}: expected int, got {}",
                    other.type_name()
                ))),
            }
        }
        let arity = |n: usize| -> R<()> {
            if args.len() == n {
                Ok(())
            } else {
                Err(rt(format!(
                    "{name}: expected {n} arguments, got {}",
                    args.len()
                )))
            }
        };

        match name {
            "print" => {
                let parts: Vec<String> = args
                    .iter()
                    .map(|v| v.to_tainted().as_str().to_string())
                    .collect();
                self.print_buf.push_str(&parts.join(" "));
                self.print_buf.push('\n');
                Ok(Value::Null)
            }
            "echo" => {
                arity(1)?;
                let data = args[0].to_tainted();
                self.http().write(data).map_err(|e| {
                    Flow::Error(LangError::flagged(e.to_string(), e.is_violation()))
                })?;
                Ok(Value::Null)
            }
            "http_context" => {
                arity(2)?;
                let key = want_str(&args[0], name)?;
                let ctx = self.http().context_mut();
                match &args[1] {
                    Value::Str(s) => ctx.set_str(key.as_str(), s.as_str()),
                    Value::Int(n, _) => ctx.set(key.as_str(), *n),
                    Value::Bool(b) => ctx.set(key.as_str(), *b),
                    other => {
                        return Err(rt(format!("http_context: bad value {}", other.type_name())))
                    }
                };
                Ok(Value::Null)
            }
            "set_email_preview" => {
                arity(1)?;
                self.email_preview = args[0].truthy();
                Ok(Value::Null)
            }
            "email" => {
                arity(2)?;
                let to = want_str(&args[0], name)?;
                let body = args[1].to_tainted();
                if self.email_preview {
                    // Preview mode: the message goes to the browser — the
                    // HotCRP vulnerability path (§2). The HTTP boundary
                    // decides whether that is allowed.
                    self.http().write(body).map_err(|e| {
                        Flow::Error(LangError::flagged(e.to_string(), e.is_violation()))
                    })?;
                    return Ok(Value::Null);
                }
                let mut ch = match self.tracking {
                    Tracking::On => Runtime::global().open(GateKind::Email),
                    Tracking::Off => Gate::unguarded(GateKind::Email),
                };
                ch.context_mut().set_str("email", to.as_str());
                ch.write(body).map_err(|e| {
                    Flow::Error(LangError::flagged(e.to_string(), e.is_violation()))
                })?;
                self.emails.push(SentMail {
                    to: to.as_str().to_string(),
                    body: ch.output_text(),
                });
                Ok(Value::Null)
            }
            "set_user" => {
                arity(1)?;
                let u = want_str(&args[0], name)?;
                self.current_user = Some(u.as_str().to_string());
                self.http().context_mut().set_str("user", u.as_str());
                Ok(Value::Null)
            }
            // ---- policy API (Table 3) ----
            "policy_add" => {
                arity(2)?;
                let policy = self.policy_from_value(&args[1])?;
                match args.remove(0) {
                    Value::Str(mut s) => {
                        s.add_policy(policy);
                        Ok(Value::Str(s))
                    }
                    Value::Int(n, p) => Ok(Value::Int(n, p.union(Label::of(&policy)))),
                    other => Err(rt(format!(
                        "policy_add: cannot label {}",
                        other.type_name()
                    ))),
                }
            }
            "policy_remove" => {
                arity(2)?;
                let cname = want_str(&args[1], name)?;
                match args.remove(0) {
                    Value::Str(mut s) => {
                        let to_remove: Vec<PolicyRef> = s
                            .label()
                            .policies()
                            .iter()
                            .filter(|p| p.name() == cname.as_str())
                            .cloned()
                            .collect();
                        for p in &to_remove {
                            s.remove_policy(p);
                        }
                        Ok(Value::Str(s))
                    }
                    Value::Int(n, p) => {
                        let kept = p.retain(|q| q.name() != cname.as_str());
                        Ok(Value::Int(n, kept))
                    }
                    other => Err(rt(format!(
                        "policy_remove: cannot unlabel {}",
                        other.type_name()
                    ))),
                }
            }
            "policy_get" => {
                arity(1)?;
                let label = match &args[0] {
                    Value::Str(s) => s.label(),
                    Value::Int(_, p) => *p,
                    _ => Label::EMPTY,
                };
                Ok(Value::new_array(
                    label
                        .policies()
                        .iter()
                        .map(|p| Value::str(p.name().to_string()))
                        .collect(),
                ))
            }
            // ---- strings ----
            "len" => {
                arity(1)?;
                match &args[0] {
                    Value::Str(s) => Ok(Value::int(s.len() as i64)),
                    Value::Array(a) => Ok(Value::int(a.borrow().len() as i64)),
                    Value::Map(m) => Ok(Value::int(m.borrow().len() as i64)),
                    other => Err(rt(format!("len: unsupported {}", other.type_name()))),
                }
            }
            "substr" => {
                arity(3)?;
                let s = want_str(&args[0], name)?;
                let off = want_int(&args[1], name)?.max(0) as usize;
                let n = want_int(&args[2], name)?.max(0) as usize;
                Ok(Value::Str(s.substr(off, n)))
            }
            "upper" => {
                arity(1)?;
                Ok(Value::Str(want_str(&args[0], name)?.to_ascii_uppercase()))
            }
            "lower" => {
                arity(1)?;
                Ok(Value::Str(want_str(&args[0], name)?.to_ascii_lowercase()))
            }
            "trim" => {
                arity(1)?;
                Ok(Value::Str(want_str(&args[0], name)?.trim()))
            }
            "contains" => {
                arity(2)?;
                let s = want_str(&args[0], name)?;
                let sub = want_str(&args[1], name)?;
                Ok(Value::Bool(s.contains(sub.as_str())))
            }
            "replace" => {
                arity(3)?;
                let s = want_str(&args[0], name)?;
                let from = want_str(&args[1], name)?;
                let to = want_str(&args[2], name)?;
                if from.is_empty() {
                    return Err(rt("replace: empty pattern"));
                }
                Ok(Value::Str(s.replace(from.as_str(), &to)))
            }
            "split" => {
                arity(2)?;
                let s = want_str(&args[0], name)?;
                let sep = want_str(&args[1], name)?;
                if sep.is_empty() {
                    return Err(rt("split: empty separator"));
                }
                Ok(Value::new_array(
                    s.split(sep.as_str()).into_iter().map(Value::Str).collect(),
                ))
            }
            "join" => {
                arity(2)?;
                let sep = want_str(&args[0], name)?;
                let Value::Array(a) = &args[1] else {
                    return Err(rt("join: expected array"));
                };
                let parts: Vec<TaintedString> = a.borrow().iter().map(|v| v.to_tainted()).collect();
                Ok(Value::Str(TaintedString::join(sep.as_str(), parts.iter())))
            }
            "str" => {
                arity(1)?;
                Ok(Value::Str(args[0].to_tainted()))
            }
            "int" => {
                arity(1)?;
                match &args[0] {
                    Value::Int(n, p) => Ok(Value::Int(*n, *p)),
                    Value::Str(s) => {
                        if self.tracking == Tracking::Off {
                            let n: i64 =
                                s.as_str().trim().parse().map_err(|_| {
                                    rt(format!("int: not a number `{}`", s.as_str()))
                                })?;
                            return Ok(Value::int(n));
                        }
                        // Conversion merges the string's policies (§3.4.2).
                        let t = s.to_int().map_err(|e| {
                            Flow::Error(LangError::flagged(e.to_string(), e.is_violation()))
                        })?;
                        Ok(Value::Int(*t.value(), t.label()))
                    }
                    Value::Bool(b) => Ok(Value::int(*b as i64)),
                    other => Err(rt(format!("int: unsupported {}", other.type_name()))),
                }
            }
            "typeof" => {
                arity(1)?;
                Ok(Value::str(args[0].type_name()))
            }
            // ---- arrays & maps ----
            "push" => {
                arity(2)?;
                let Value::Array(a) = &args[0] else {
                    return Err(rt("push: expected array"));
                };
                a.borrow_mut().push(args[1].clone());
                Ok(Value::Null)
            }
            "pop" => {
                arity(1)?;
                let Value::Array(a) = &args[0] else {
                    return Err(rt("pop: expected array"));
                };
                let v = a.borrow_mut().pop();
                Ok(v.unwrap_or(Value::Null))
            }
            "map" => {
                arity(0)?;
                Ok(Value::new_map())
            }
            "keys" => {
                arity(1)?;
                let Value::Map(m) = &args[0] else {
                    return Err(rt("keys: expected map"));
                };
                Ok(Value::new_array(
                    m.borrow().keys().map(|k| Value::str(k.clone())).collect(),
                ))
            }
            // ---- files (through the policy-persisting VFS) ----
            "mkdir" => {
                arity(1)?;
                let p = want_str(&args[0], name)?;
                let ctx = self.file_ctx();
                self.vfs().mkdir_p(p.as_str(), &ctx).map_err(vfs_err)?;
                Ok(Value::Null)
            }
            "file_write" => {
                arity(2)?;
                let p = want_str(&args[0], name)?;
                let data = args[1].to_tainted();
                let ctx = self.file_ctx();
                self.vfs()
                    .write_file(p.as_str(), &data, &ctx)
                    .map_err(vfs_err)?;
                Ok(Value::Null)
            }
            "file_append" => {
                arity(2)?;
                let p = want_str(&args[0], name)?;
                let data = args[1].to_tainted();
                let ctx = self.file_ctx();
                self.vfs()
                    .append_file(p.as_str(), &data, &ctx)
                    .map_err(vfs_err)?;
                Ok(Value::Null)
            }
            "file_read" => {
                arity(1)?;
                let p = want_str(&args[0], name)?;
                let ctx = self.file_ctx();
                let data = self.vfs().read_file(p.as_str(), &ctx).map_err(vfs_err)?;
                Ok(Value::Str(data))
            }
            "file_exists" => {
                arity(1)?;
                let p = want_str(&args[0], name)?;
                Ok(Value::Bool(self.vfs().exists(p.as_str())))
            }
            // ---- code import (§3.2.2, Figure 6) ----
            "make_executable" => {
                arity(1)?;
                let p = want_str(&args[0], name)?;
                let ctx = self.file_ctx();
                let mut code = self.vfs().read_file(p.as_str(), &ctx).map_err(vfs_err)?;
                code.add_policy(Arc::new(CodeApproval::new()));
                self.vfs()
                    .write_file(p.as_str(), &code, &ctx)
                    .map_err(vfs_err)?;
                Ok(Value::Null)
            }
            "require_code_approval" => {
                arity(0)?;
                self.require_code_approval = true;
                Ok(Value::Null)
            }
            "import" => {
                arity(1)?;
                let p = want_str(&args[0], name)?;
                self.import(p.as_str())
            }
            "assert" => {
                arity(1)?;
                if args[0].truthy() {
                    Ok(Value::Null)
                } else {
                    Err(rt("assertion failed"))
                }
            }
            other => Err(rt(format!("undefined function `{other}`"))),
        }
    }

    fn file_ctx(&self) -> Context {
        match &self.current_user {
            Some(u) => Vfs::user_ctx(u),
            None => Vfs::anonymous_ctx(),
        }
    }

    /// The interpreter's code-import boundary: reads the file (reviving
    /// persistent policies) and applies the import filter before executing.
    ///
    /// Under the tree engine imported code runs in the *caller's* scope
    /// (PHP `include` style); under the VM it runs at global scope. The
    /// two agree everywhere except an `import` nested inside a function
    /// body, which RESIN applications do not do (imports happen at load
    /// time, before any request handler runs).
    fn import(&mut self, path: &str) -> R<Value> {
        let ctx = self.file_ctx();
        let code = self.vfs().read_file(path, &ctx).map_err(vfs_err)?;
        if self.tracking == Tracking::On && self.require_code_approval {
            // Figure 6: every character must carry CodeApproval.
            if !code.all_bytes_have::<CodeApproval>() {
                return Err(Flow::Error(LangError::flagged(
                    format!("not executable: `{path}` lacks CodeApproval"),
                    true,
                )));
            }
        }
        let program =
            parse_program(code.as_str()).map_err(|e| rt(format!("import `{path}`: {e}")))?;
        match self.engine {
            Engine::Tree => self.exec_block(&program),
            Engine::Vm => {
                let chunk = crate::compiler::compile_program(&program)
                    .map(Arc::new)
                    .map_err(Flow::Error)?;
                crate::vm::run_chunk(self, chunk, Vec::new(), None)
            }
        }
    }

    /// Converts a script value into a policy object.
    ///
    /// Strings name stock policies; objects of classes with an
    /// `export_check` method become [`ScriptPolicy`] snapshots.
    fn policy_from_value(&mut self, v: &Value) -> R<PolicyRef> {
        match v {
            Value::Str(s) => match s.as_str() {
                "UntrustedData" => Ok(Arc::new(UntrustedData::new())),
                "SqlSanitized" => Ok(Arc::new(SqlSanitized::new())),
                "HtmlSanitized" => Ok(Arc::new(HtmlSanitized::new())),
                "CodeApproval" => Ok(Arc::new(CodeApproval::new())),
                "AuthenticData" => Ok(Arc::new(AuthenticData::new())),
                "EmptyPolicy" => Ok(Arc::new(EmptyPolicy::new())),
                other => Err(rt(format!("unknown stock policy `{other}`"))),
            },
            Value::Object(o) => {
                let o = o.borrow();
                let mut fields = BTreeMap::new();
                for (k, fv) in &o.fields {
                    let pv = PValue::from_value(fv).ok_or_else(|| {
                        rt(format!("policy field `{k}` is not a persistable scalar"))
                    })?;
                    fields.insert(k.clone(), pv);
                }
                Ok(Arc::new(ScriptPolicy::new(
                    o.class.name.clone(),
                    fields,
                    Some(o.class.clone()),
                )))
            }
            other => Err(rt(format!("not a policy: {}", other.type_name()))),
        }
    }
}

impl Default for Interp {
    fn default() -> Self {
        Interp::new()
    }
}

fn vfs_err(e: resin_vfs::VfsError) -> Flow {
    Flow::Error(LangError::flagged(e.to_string(), e.is_violation()))
}

/// Maps terminal control flow to the public result type. `Return` at the
/// top level yields the returned value; an uncaught `throw` becomes a
/// non-violation error, as in the tree engine.
pub(crate) fn finish(flow: R<Value>) -> Result<Value, LangError> {
    match flow {
        Ok(v) => Ok(v),
        Err(Flow::Return(v)) => Ok(v),
        Err(Flow::Throw(v)) => Err(LangError::new(format!(
            "uncaught exception: {}",
            v.to_tainted().as_str()
        ))),
        Err(Flow::Error(e)) => Err(e),
    }
}

/// Converts a channel context into the script-visible hash table that
/// `export_check(context)` receives (shared by both engines).
pub(crate) fn context_to_map(context: &Context) -> Value {
    let ctx_map = Value::new_map();
    if let Value::Map(m) = &ctx_map {
        let mut m = m.borrow_mut();
        for (k, v) in context.iter() {
            let val = match v {
                CtxValue::Str(s) => Value::str(s.clone()),
                CtxValue::Int(i) => Value::int(*i),
                CtxValue::Bool(b) => Value::Bool(*b),
            };
            m.insert(k.to_string(), val);
        }
    }
    ctx_map
}

// ---- per-crossing check caches ----
//
// The dominant per-crossing costs after chunk caching are re-materializing
// `this` (every `PValue` field converted to a fresh `Value`, allocating a
// new `Rc` per list) and rebuilding the `$context` map. Both conversions
// produce reference-semantics values, so reusing them across crossings is
// only sound when the policy code provably never mutates them — which a
// static scan of the method ASTs can establish, because the mini-evaluator
// is a closed world: no user-defined free functions exist, so every bare
// call is a builtin, and only `push`/`pop` mutate a value in place.

/// True when the field-sensitive effects analysis certifies the class for
/// the per-crossing caches (see [`crate::analysis::effects`]): nothing
/// escapes, no container reachable from a field or the context is mutated
/// in place, and every directly-written field is write-only — never read
/// by any reachable method, so a later crossing cannot observe the
/// previous crossing's value. Unlike the earlier all-or-nothing BFS, a
/// policy that records into a scratch/audit field still qualifies.
fn check_is_cacheable(class: &ClassDecl) -> bool {
    crate::analysis::class_effects(class).cache_eligible()
}

/// A materialized `this` object plus the field snapshot it was built
/// from (revalidated by equality, since two policy instances of one
/// class can carry different fields).
type CachedThis = (BTreeMap<String, PValue>, Rc<std::cell::RefCell<Obj>>);

/// Materialized `this` objects kept per cache-eligible class. Instances
/// of one class differ only in their fields (a wiki page policy's reader
/// list), so a handful of snapshots covers a class's working set; past
/// the bound the oldest is dropped.
const CACHED_THIS_PER_CLASS: usize = 16;

/// Materialized `this` objects kept per thread across all classes. Every
/// class definition is a new class (a re-booted app's classes stay alive
/// in the policy interner), so past this bound every other class's
/// objects are dropped and the live classes refill theirs.
const CACHED_THIS_PER_THREAD: usize = 64;

/// One cached policy class: the analysis verdict plus — for cacheable
/// checks — the materialized `this` objects, keyed by field snapshot.
struct CheckPlan {
    /// Liveness + identity token for the cache key (the `Arc`'s address).
    class: std::sync::Weak<ClassDecl>,
    cacheable: bool,
    cached_this: std::collections::VecDeque<CachedThis>,
}

thread_local! {
    static CHECK_PLANS: std::cell::RefCell<HashMap<usize, CheckPlan>> =
        std::cell::RefCell::new(HashMap::new());
    /// Single-slot `$context` map cache keyed by the context's content
    /// stamp (equal stamps guarantee equal content). Only read-only
    /// checks consult or fill it, so the cached map is never mutated.
    static CTX_MAP: std::cell::RefCell<Option<(u64, Value)>> = const { std::cell::RefCell::new(None) };
    static CACHED_THIS_COUNT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static CHECK_CACHE_HITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static CHECK_CACHE_MISSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static CHECK_CACHE_ENABLED: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Disables (or re-enables) this thread's policy-check caches. For
/// benchmarks and tests that need the uncached per-crossing cost as a
/// baseline; production callers leave the caches on.
pub fn set_check_cache(enabled: bool) {
    CHECK_CACHE_ENABLED.with(|c| c.set(enabled));
}

/// Per-thread policy-check cache counters `(hits, misses)`: a hit means a
/// crossing reused the materialized `this`; a miss means it rebuilt it
/// (first crossing, mutating policy class, or changed fields).
pub fn check_cache_stats() -> (u64, u64) {
    (
        CHECK_CACHE_HITS.with(|c| c.get()),
        CHECK_CACHE_MISSES.with(|c| c.get()),
    )
}

/// Returns `(cacheable, this)` for a check, reusing the per-class cached
/// object when the class's check is cache-eligible and the fields match.
fn this_for_check(class: &Arc<ClassDecl>, fields: &BTreeMap<String, PValue>) -> (bool, Value) {
    let build = || {
        Rc::new(std::cell::RefCell::new(Obj {
            class: class.clone(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        }))
    };
    if !CHECK_CACHE_ENABLED.with(|c| c.get()) {
        CHECK_CACHE_MISSES.with(|c| c.set(c.get() + 1));
        return (false, Value::Object(build()));
    }
    let (cacheable, obj) = CHECK_PLANS.with(|plans| {
        let mut plans = plans.borrow_mut();
        let key = Arc::as_ptr(class) as usize;
        if CACHED_THIS_COUNT.with(|c| c.get()) >= CACHED_THIS_PER_THREAD {
            let mut kept = 0;
            for (k, plan) in plans.iter_mut() {
                if *k == key {
                    kept = plan.cached_this.len();
                } else {
                    plan.cached_this.clear();
                }
            }
            CACHED_THIS_COUNT.with(|c| c.set(kept));
        }
        let entry = match plans.get_mut(&key) {
            // The upgrade-and-compare guards against a freed class whose
            // address was reused by a different allocation.
            Some(p) if p.class.upgrade().is_some_and(|c| Arc::ptr_eq(&c, class)) => p,
            _ => {
                let plan = CheckPlan {
                    class: Arc::downgrade(class),
                    cacheable: check_is_cacheable(class),
                    cached_this: std::collections::VecDeque::new(),
                };
                plans.entry(key).insert_entry(plan).into_mut()
            }
        };
        if !entry.cacheable {
            CHECK_CACHE_MISSES.with(|c| c.set(c.get() + 1));
            return (false, build());
        }
        if let Some((_, obj)) = entry.cached_this.iter().find(|(snap, _)| snap == fields) {
            CHECK_CACHE_HITS.with(|c| c.set(c.get() + 1));
            return (true, obj.clone());
        }
        CHECK_CACHE_MISSES.with(|c| c.set(c.get() + 1));
        let obj = build();
        if entry.cached_this.len() == CACHED_THIS_PER_CLASS {
            entry.cached_this.pop_front();
        } else {
            CACHED_THIS_COUNT.with(|c| c.set(c.get() + 1));
        }
        entry.cached_this.push_back((fields.clone(), obj.clone()));
        (true, obj)
    });
    (cacheable, Value::Object(obj))
}

/// Returns the `$context` argument map, served from the stamp-keyed cache
/// when the check is read-only (`cacheable`).
fn context_map_for_check(context: &Context, cacheable: bool) -> Value {
    if !cacheable {
        return context_to_map(context);
    }
    CTX_MAP.with(|slot| {
        let mut slot = slot.borrow_mut();
        match &*slot {
            Some((stamp, map)) if *stamp == context.cache_stamp() => map.clone(),
            _ => {
                let map = context_to_map(context);
                *slot = Some((context.cache_stamp(), map.clone()));
                map
            }
        }
    })
}

/// Evaluates a script policy's `export_check` method against a channel
/// context — the bridge that lets Rust-side filters invoke script-defined
/// assertion code. Uses the process-default engine.
pub fn eval_policy_method(
    class: &Arc<ClassDecl>,
    fields: &BTreeMap<String, PValue>,
    context: &Context,
) -> Result<(), PolicyViolation> {
    eval_policy_method_on(default_engine(), class, fields, context)
}

/// [`eval_policy_method`] pinned to a specific engine (the differential
/// bench compares them head to head).
pub(crate) fn eval_policy_method_on(
    engine: Engine,
    class: &Arc<ClassDecl>,
    fields: &BTreeMap<String, PValue>,
    context: &Context,
) -> Result<(), PolicyViolation> {
    let class_name = class.name.as_str();
    let method = class
        .method("export_check")
        .expect("caller checked export_check exists")
        .clone();
    // A lightweight evaluator per check: no VFS or HTTP gate is built
    // unless the policy body actually touches one. Chunk lookups go
    // through the process-wide cache so the method compiles once per
    // process, not once per crossing.
    let mut interp = Interp::with_config(Tracking::On, engine);
    interp.use_global_chunk_cache = true;
    // The policy's class is visible to the mini-evaluator so export_check
    // can call the class's other methods.
    interp.classes.insert(class.name.clone(), class.clone());
    // Bind `this` to an object with the snapshotted fields; read-only
    // checks reuse the materialized object and context map across
    // crossings instead of reconverting every field.
    let (cacheable, this) = this_for_check(class, fields);
    let args = if method.params.is_empty() {
        Vec::new()
    } else {
        vec![context_map_for_check(context, cacheable)]
    };
    let flow = match engine {
        Engine::Tree => interp.call_decl(&method, args, Some(this)),
        Engine::Vm => crate::vm::call_function(&mut interp, &method, args, Some(this)),
    };
    match flow {
        Ok(_) => Ok(()),
        Err(Flow::Return(_)) => Ok(()),
        Err(Flow::Throw(v)) => Err(PolicyViolation::new(
            class_name,
            v.to_tainted().as_str().to_string(),
        )),
        Err(Flow::Error(e)) => Err(PolicyViolation::new(
            class_name,
            format!("policy error: {}", e.message),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resin_core::PasswordPolicy;

    fn run(src: &str) -> Interp {
        let mut i = Interp::new();
        i.run(src).unwrap();
        i
    }

    fn run_value(src: &str) -> Value {
        let mut i = Interp::new();
        i.run(src).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert!(run_value("1 + 2 * 3;").loose_eq(&Value::int(7)));
        assert!(run_value("(1 + 2) * 3;").loose_eq(&Value::int(9)));
        assert!(run_value("10 % 3;").loose_eq(&Value::int(1)));
        assert!(run_value("-4 / 2;").loose_eq(&Value::int(-2)));
    }

    #[test]
    fn string_concat_and_compare() {
        assert!(run_value(r#""a" + "b" + 1;"#).loose_eq(&Value::str("ab1")));
        assert!(run_value(r#""a" < "b";"#).loose_eq(&Value::Bool(true)));
    }

    #[test]
    fn control_flow() {
        let v = run_value(
            "let total = 0; let i = 0;
             while (i < 5) { if (i % 2 == 0) { total = total + i; } i = i + 1; }
             total;",
        );
        assert!(v.loose_eq(&Value::int(6)));
    }

    #[test]
    fn functions_and_recursion() {
        let v = run_value(
            "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             fib(10);",
        );
        assert!(v.loose_eq(&Value::int(55)));
    }

    #[test]
    fn classes_and_methods() {
        let v = run_value(
            "class Counter {
               fn init(start) { this.n = start; }
               fn bump() { this.n = this.n + 1; return this.n; }
             }
             let c = new Counter(10);
             c.bump(); c.bump();",
        );
        assert!(v.loose_eq(&Value::int(12)));
    }

    #[test]
    fn arrays_and_maps() {
        let v = run_value("let a = [1, 2]; push(a, 3); a[2] + len(a);");
        assert!(v.loose_eq(&Value::int(6)));
        let v = run_value(r#"let m = map(); m["k"] = 7; m["k"];"#);
        assert!(v.loose_eq(&Value::int(7)));
        let v = run_value(r#"let m = map(); m["absent"];"#);
        assert!(v.loose_eq(&Value::Null));
    }

    #[test]
    fn taint_propagates_through_concat() {
        let i = run(r#"let pw = policy_add("s3cret", "UntrustedData");
               let msg = "password: " + pw;
               let names = policy_get(msg);"#);
        let names = i.globals.get("names").unwrap();
        let Value::Array(a) = names else { panic!() };
        assert_eq!(a.borrow().len(), 1);
        // And byte-level: the prefix is clean.
        let Value::Str(msg) = i.globals.get("msg").unwrap() else {
            panic!()
        };
        assert!(msg.label_at(0).is_empty());
        assert!(msg.label_at(11).has::<UntrustedData>());
    }

    #[test]
    fn int_conversion_merges() {
        let i = run(r#"let s = policy_add("42", "UntrustedData");
               let n = int(s);
               let names = policy_get(n);"#);
        let Value::Array(a) = i.globals.get("names").unwrap() else {
            panic!()
        };
        assert_eq!(a.borrow().len(), 1);
    }

    #[test]
    fn script_password_policy_blocks_echo() {
        // The Figure 2 flow, written in RSL.
        let mut i = Interp::new();
        let err = i
            .run(
                r#"class PasswordPolicy {
                     fn init(email) { this.email = email; }
                     fn export_check(context) {
                       if (context["type"] == "email" && context["email"] == this.email) {
                         return;
                       }
                       if (context["type"] == "http" && context["priv_chair"]) {
                         return;
                       }
                       throw "unauthorized disclosure";
                     }
                   }
                   let pw = policy_add("s3cret", new PasswordPolicy("u@foo.com"));
                   echo("Your password is: " + pw);"#,
            )
            .unwrap_err();
        assert!(err.violation, "{err}");
        assert_eq!(i.http_output(), "", "nothing leaked");
    }

    #[test]
    fn same_named_script_policies_keep_their_own_behaviour() {
        // Two interpreters define a class with the same name and the same
        // fields but opposite export_check bodies. The global interner
        // must not canonicalize the second policy to the first class's
        // code (the class Arc is the intern discriminator).
        let mut permissive = Interp::new();
        permissive
            .run(
                r#"class Gatekeeper {
                     fn init(tag) { this.tag = tag; }
                     fn export_check(context) { return; }
                   }
                   echo(policy_add("ok", new Gatekeeper("t")));"#,
            )
            .unwrap();
        assert_eq!(permissive.http_output(), "ok");

        let mut strict = Interp::new();
        let err = strict
            .run(
                r#"class Gatekeeper {
                     fn init(tag) { this.tag = tag; }
                     fn export_check(context) { throw "never"; }
                   }
                   echo(policy_add("no", new Gatekeeper("t")));"#,
            )
            .unwrap_err();
        assert!(err.violation, "strict class must enforce its own code");
        assert_eq!(strict.http_output(), "", "nothing leaked");
    }

    #[test]
    fn script_password_policy_allows_owner_email() {
        let mut i = Interp::new();
        i.run(
            r#"class PasswordPolicy {
                 fn init(email) { this.email = email; }
                 fn export_check(context) {
                   if (context["type"] == "email" && context["email"] == this.email) {
                     return;
                   }
                   throw "unauthorized disclosure";
                 }
               }
               let pw = policy_add("s3cret", new PasswordPolicy("u@foo.com"));
               email("u@foo.com", "Your password is: " + pw);"#,
        )
        .unwrap();
        assert_eq!(i.emails.len(), 1);
        assert!(i.emails[0].body.contains("s3cret"));
    }

    #[test]
    fn email_preview_mode_reproduces_hotcrp_bug() {
        let mut i = Interp::new();
        let err = i
            .run(
                r#"class PasswordPolicy {
                     fn init(email) { this.email = email; }
                     fn export_check(context) {
                       if (context["type"] == "email" && context["email"] == this.email) { return; }
                       throw "unauthorized disclosure";
                     }
                   }
                   set_email_preview(true);
                   let pw = policy_add("s3cret", new PasswordPolicy("victim@foo.com"));
                   email("victim@foo.com", "reminder: " + pw);"#,
            )
            .unwrap_err();
        assert!(err.violation);
        assert_eq!(i.http_output(), "");
    }

    #[test]
    fn chair_exception_via_http_context() {
        let mut i = Interp::new();
        i.run(
            r#"class PasswordPolicy {
                 fn init(email) { this.email = email; }
                 fn export_check(context) {
                   if (context["type"] == "http" && context["priv_chair"]) { return; }
                   throw "unauthorized";
                 }
               }
               http_context("priv_chair", true);
               let pw = policy_add("x", new PasswordPolicy("u@x"));
               echo(pw);"#,
        )
        .unwrap();
        assert_eq!(i.http_output(), "x");
    }

    #[test]
    fn stock_password_policy_via_rust() {
        // Rust-attached policies work identically inside the interpreter.
        let mut i = Interp::new();
        i.run("fn show(x) { echo(x); }").unwrap();
        let mut s = TaintedString::from("pw");
        s.add_policy(Arc::new(PasswordPolicy::new("u@x")));
        let err = i.call_function("show", vec![Value::Str(s)]).unwrap_err();
        assert!(err.violation);
    }

    #[test]
    fn persistent_policies_through_files() {
        let mut i = Interp::new();
        i.run(
            r#"mkdir("/data");
               let secret = policy_add("token", "UntrustedData");
               file_write("/data/t", secret);
               let back = policy_get(file_read("/data/t"));"#,
        )
        .unwrap();
        let Value::Array(a) = i.globals.get("back").unwrap() else {
            panic!()
        };
        assert_eq!(a.borrow().len(), 1, "policy revived from xattr");
    }

    #[test]
    fn script_policy_persists_and_revives() {
        // Define a policy class, persist labeled data to a file, read it
        // back: the revived ScriptPolicy still enforces export_check.
        let mut i = Interp::new();
        let err = i
            .run(
                r#"class SecretPolicy {
                     fn init() { this.owner = "alice"; }
                     fn export_check(context) { throw "no export ever"; }
                   }
                   mkdir("/d");
                   let s = policy_add("data", new SecretPolicy());
                   file_write("/d/f", s);
                   echo(file_read("/d/f"));"#,
            )
            .unwrap_err();
        assert!(err.violation, "revived script policy enforced: {err}");
    }

    #[test]
    fn engine_pin_survives_policy_serialization() {
        // A pinned policy serialized to the wire format and revived via
        // the class registry keeps its pin; an unpinned one stays on the
        // process default (no reserved field is ever emitted for it).
        let mut i = Interp::new();
        i.run(
            r#"class PinnedPolicy {
                 fn init(owner) { this.owner = owner; }
                 fn export_check(context) { throw "nope"; }
               }"#,
        )
        .unwrap();
        let class = i.classes.get("PinnedPolicy").unwrap().clone();
        let mut fields = BTreeMap::new();
        fields.insert("owner".to_string(), PValue::Str("alice".to_string()));
        for (pin, expect) in [
            (None, None),
            (Some(Engine::Tree), Some(Engine::Tree)),
            (Some(Engine::Vm), Some(Engine::Vm)),
        ] {
            let mut p =
                ScriptPolicy::new("PinnedPolicy".into(), fields.clone(), Some(class.clone()));
            if let Some(e) = pin {
                p = p.with_engine(e);
            }
            let wire = resin_core::serialize_policy(&(Arc::new(p) as resin_core::PolicyRef));
            if pin.is_none() {
                assert!(!wire.contains("__rp_engine"), "no pin, no field: {wire}");
            }
            let back = resin_core::deserialize_policy(&wire).unwrap();
            let back = back
                .as_any()
                .downcast_ref::<ScriptPolicy>()
                .expect("revives as a script policy");
            assert_eq!(back.engine(), expect, "wire: {wire}");
            assert_eq!(
                back.fields().get("owner"),
                Some(&PValue::Str("alice".to_string())),
                "reserved field stripped, real fields intact"
            );
        }
        // An unknown engine name fails closed rather than silently
        // falling back to the process default.
        let bad = "PinnedPolicy{owner=s%3Aalice;__rp_engine=quantum}";
        assert!(resin_core::deserialize_policy(bad).is_err());
    }

    #[test]
    fn import_filter_blocks_unapproved_code() {
        let mut i = Interp::new();
        // Install approved code and adversary code.
        i.run(
            r#"mkdir("/app");
               file_write("/app/lib.rsl", "let lib_loaded = 1;");
               make_executable("/app/lib.rsl");
               file_write("/app/evil.rsl", "let owned = 1;");
               require_code_approval();
               import("/app/lib.rsl");"#,
        )
        .unwrap();
        assert!(i.globals.contains_key("lib_loaded"));
        let err = i.run(r#"import("/app/evil.rsl");"#).unwrap_err();
        assert!(err.violation);
        assert!(!i.globals.contains_key("owned"));
    }

    #[test]
    fn import_without_filter_is_vulnerable() {
        let mut i = Interp::new();
        i.run(
            r#"mkdir("/app");
               file_write("/app/evil.rsl", "let owned = 1;");
               import("/app/evil.rsl");"#,
        )
        .unwrap();
        assert!(i.globals.contains_key("owned"), "no filter, no protection");
    }

    #[test]
    fn tracking_off_drops_taint() {
        let mut i = Interp::with_tracking(Tracking::Off);
        i.run(
            r#"let pw = policy_add("s3cret", "UntrustedData");
               let msg = "x" + pw;
               let names = policy_get(msg);"#,
        )
        .unwrap();
        let Value::Array(a) = i.globals.get("names").unwrap() else {
            panic!()
        };
        assert_eq!(a.borrow().len(), 0, "unmodified runtime loses taint");
        assert_eq!(i.tracking(), Tracking::Off);
    }

    #[test]
    fn string_builtins() {
        assert!(run_value(r#"upper("abc");"#).loose_eq(&Value::str("ABC")));
        assert!(run_value(r#"substr("abcdef", 2, 3);"#).loose_eq(&Value::str("cde")));
        assert!(run_value(r#"trim("  x ");"#).loose_eq(&Value::str("x")));
        assert!(run_value(r#"contains("hello", "ell");"#).loose_eq(&Value::Bool(true)));
        assert!(run_value(r#"replace("a-b", "-", "+");"#).loose_eq(&Value::str("a+b")));
        assert!(run_value(r#"join(",", split("a,b,c", ","));"#).loose_eq(&Value::str("a,b,c")));
        assert!(run_value(r#"len("abcd");"#).loose_eq(&Value::int(4)));
    }

    #[test]
    fn print_collects_output() {
        let i = run(r#"print("a", 1); print("b");"#);
        assert_eq!(i.print_output(), "a 1\nb\n");
    }

    #[test]
    fn runtime_errors() {
        let mut i = Interp::new();
        assert!(i.run("undefined_var;").is_err());
        assert!(i.run("nosuchfn();").is_err());
        assert!(i.run("1 / 0;").is_err());
        assert!(i.run(r#""a" - 1;"#).is_err());
        assert!(i.run("let a = [1]; a[5];").is_err());
        assert!(i.run("fn f(x) { return x; } f();").is_err());
        assert!(i.run("fn loop_(n) { return loop_(n); } loop_(1);").is_err());
        assert!(i.run(r#"throw "boom";"#).is_err());
    }

    #[test]
    fn this_outside_method_errors() {
        let mut i = Interp::new();
        assert!(i.run("this;").is_err());
    }

    #[test]
    fn call_function_from_rust() {
        let mut i = Interp::new();
        i.run("fn double(x) { return x * 2; }").unwrap();
        let v = i.call_function("double", vec![Value::int(21)]).unwrap();
        assert!(v.loose_eq(&Value::int(42)));
        assert!(i.call_function("nope", vec![]).is_err());
    }

    #[test]
    fn both_engines_cap_call_depth() {
        // A self-recursive policy must fail with a lang error, not blow
        // the native stack (satellite: bounded recursion, both engines).
        for engine in [Engine::Tree, Engine::Vm] {
            let mut i = Interp::with_engine(engine);
            let e = i
                .run("fn loop_(n) { return loop_(n); } loop_(1);")
                .unwrap_err();
            assert!(
                e.message.contains("call depth limit exceeded"),
                "{engine:?}: {e}"
            );
            assert!(!e.violation);
        }
    }

    #[test]
    fn runtime_errors_carry_lines() {
        for engine in [Engine::Tree, Engine::Vm] {
            let mut i = Interp::with_engine(engine);
            let e = i.run("let a = 1;\nlet b = 2;\na / (b - 2);").unwrap_err();
            assert_eq!(e.message, "division by zero");
            assert_eq!(e.line, Some(3), "{engine:?}");
            assert!(e.to_string().contains("(line 3)"), "{e}");
        }
    }

    #[test]
    fn error_lines_point_into_the_callee() {
        for engine in [Engine::Tree, Engine::Vm] {
            let mut i = Interp::with_engine(engine);
            let e = i
                .run("fn f() {\n  return missing_var;\n}\nf();")
                .unwrap_err();
            assert_eq!(e.message, "undefined variable `missing_var`");
            assert_eq!(e.line, Some(2), "innermost frame wins ({engine:?})");
        }
    }

    #[test]
    fn vm_compile_once_run_many() {
        // The exec_chunk API lets callers pay compilation once.
        let mut i = Interp::with_engine(Engine::Vm);
        let program = parse_program("let n = 0; n = n + 1; n;").unwrap();
        let chunk = i.compile(&program).unwrap();
        for _ in 0..3 {
            let v = i.exec_chunk(&chunk).unwrap();
            assert!(v.loose_eq(&Value::int(1)));
        }
    }

    #[test]
    fn function_chunks_cached_per_interp() {
        let mut i = Interp::with_engine(Engine::Vm);
        i.run("fn f() { return 1; }").unwrap();
        assert_eq!(i.chunks.len(), 0, "compilation is lazy");
        i.call_function("f", vec![]).unwrap();
        i.call_function("f", vec![]).unwrap();
        assert_eq!(i.chunks.len(), 1, "same decl compiles once");
    }

    #[test]
    fn engine_selection_helpers() {
        assert_eq!(Interp::new().engine(), default_engine());
        assert_eq!(Interp::with_engine(Engine::Tree).engine(), Engine::Tree);
        assert_eq!(
            Interp::with_config(Tracking::Off, Engine::Vm).tracking(),
            Tracking::Off
        );
    }

    // ---- per-crossing check caches ----

    fn policy_class(src: &str) -> Arc<ClassDecl> {
        parse_program(src)
            .unwrap()
            .into_iter()
            .find_map(|s| match s.kind {
                StmtKind::ClassDef(c) => Some(c),
                _ => None,
            })
            .expect("class decl")
    }

    #[test]
    fn read_only_check_reuses_cached_this() {
        let class = policy_class(
            r#"class Quota {
                fn export_check(context) {
                    let w = this.weights;
                    if (w[0] + w[1] > this.limit) { throw "over"; }
                    if (context["type"] != "http") { throw "channel"; }
                }
            }"#,
        );
        assert!(check_is_cacheable(&class));
        let mut fields = BTreeMap::new();
        fields.insert(
            "weights".to_string(),
            PValue::List(vec![PValue::Int(1), PValue::Int(2)]),
        );
        fields.insert("limit".to_string(), PValue::Int(10));
        let ctx = Context::new(GateKind::Http);
        let (h0, m0) = check_cache_stats();
        for engine in [Engine::Tree, Engine::Vm, Engine::Tree, Engine::Vm] {
            eval_policy_method_on(engine, &class, &fields, &ctx).unwrap();
        }
        let (h1, m1) = check_cache_stats();
        assert_eq!(m1 - m0, 1, "this materialized once");
        assert_eq!(h1 - h0, 3, "then reused on every crossing");
        // Changed fields invalidate the snapshot; the verdict follows the
        // new values, never the cached ones.
        fields.insert("limit".to_string(), PValue::Int(0));
        let err = eval_policy_method_on(Engine::Vm, &class, &fields, &ctx).unwrap_err();
        assert!(err.to_string().contains("over"));
        let (h2, m2) = check_cache_stats();
        assert_eq!((h2 - h1, m2 - m1), (0, 1));
    }

    #[test]
    fn alternating_snapshots_each_keep_their_cached_this() {
        let class = policy_class(
            r#"class Limit {
                fn export_check(context) {
                    if (this.used > this.limit) { throw "over"; }
                }
            }"#,
        );
        let snapshot = |limit: i64| {
            let mut fields = BTreeMap::new();
            fields.insert("used".to_string(), PValue::Int(5));
            fields.insert("limit".to_string(), PValue::Int(limit));
            fields
        };
        let (allow, deny) = (snapshot(10), snapshot(0));
        let ctx = Context::new(GateKind::Http);
        let (h0, m0) = check_cache_stats();
        for _ in 0..3 {
            eval_policy_method_on(Engine::Vm, &class, &allow, &ctx).unwrap();
            eval_policy_method_on(Engine::Vm, &class, &deny, &ctx).unwrap_err();
        }
        let (h1, m1) = check_cache_stats();
        assert_eq!((h1 - h0, m1 - m0), (4, 2), "one build per snapshot");
        // The map is bounded: enough other snapshots evict the oldest,
        // which is then rebuilt (a miss, never a stale verdict).
        for limit in 100..100 + CACHED_THIS_PER_CLASS as i64 {
            eval_policy_method_on(Engine::Vm, &class, &snapshot(limit), &ctx).unwrap();
        }
        let (h2, m2) = check_cache_stats();
        eval_policy_method_on(Engine::Vm, &class, &allow, &ctx).unwrap();
        let (h3, m3) = check_cache_stats();
        assert_eq!((h3 - h2, m3 - m2), (0, 1), "evicted snapshot rebuilt");
    }

    #[test]
    fn cached_objects_are_bounded_per_thread() {
        // Each parse is a new class (a re-booted app): together they
        // would cache more objects than the thread keeps.
        let ctx = Context::new(GateKind::Http);
        for _ in 0..2 * CACHED_THIS_PER_THREAD / CACHED_THIS_PER_CLASS {
            let class = policy_class(
                r#"class Reboot { fn export_check(context) { if (this.n < 0) { throw "neg"; } } }"#,
            );
            for n in 0..CACHED_THIS_PER_CLASS as i64 {
                let mut fields = BTreeMap::new();
                fields.insert("n".to_string(), PValue::Int(n));
                eval_policy_method_on(Engine::Vm, &class, &fields, &ctx).unwrap();
                assert!(CACHED_THIS_COUNT.with(|c| c.get()) <= CACHED_THIS_PER_THREAD);
            }
        }
        let held: usize =
            CHECK_PLANS.with(|p| p.borrow().values().map(|p| p.cached_this.len()).sum());
        assert!(held <= CACHED_THIS_PER_THREAD, "{held} objects held");
    }

    #[test]
    fn mutating_check_is_rebuilt_every_crossing() {
        // `this.n = this.n + 1` writes a field: the analysis must refuse
        // to cache, so every crossing sees the pristine snapshot and the
        // policy never observes its own prior runs.
        let class = policy_class(
            r#"class Once {
                fn export_check(context) {
                    this.n = this.n + 1;
                    if (this.n > 1) { throw "ran twice"; }
                }
            }"#,
        );
        assert!(!check_is_cacheable(&class));
        let mut fields = BTreeMap::new();
        fields.insert("n".to_string(), PValue::Int(0));
        let ctx = Context::new(GateKind::Http);
        let (h0, _) = check_cache_stats();
        for _ in 0..3 {
            eval_policy_method_on(Engine::Vm, &class, &fields, &ctx).unwrap();
        }
        let (h1, _) = check_cache_stats();
        assert_eq!(h1 - h0, 0, "mutating checks never hit the cache");
    }

    #[test]
    fn context_mutation_refreshes_cached_map() {
        let class = policy_class(
            r#"class ForUser {
                fn export_check(context) {
                    if (context["user"] != "alice") { throw "wrong user"; }
                }
            }"#,
        );
        let fields = BTreeMap::new();
        let mut ctx = Context::new(GateKind::Http);
        ctx.set_str("user", "alice");
        eval_policy_method_on(Engine::Vm, &class, &fields, &ctx).unwrap();
        // Mutating the context refreshes its stamp, so the cached map
        // cannot be served stale.
        ctx.set_str("user", "mallory");
        let err = eval_policy_method_on(Engine::Vm, &class, &fields, &ctx).unwrap_err();
        assert!(err.to_string().contains("wrong user"));
        ctx.set_str("user", "alice");
        eval_policy_method_on(Engine::Vm, &class, &fields, &ctx).unwrap();
    }

    #[test]
    fn read_only_analysis_walks_reachable_methods() {
        // A helper that pushes into a list reached through `this` must
        // poison the verdict even though export_check itself is clean.
        let class = policy_class(
            r#"class Sneaky {
                fn bump() { push(this.log, 1); }
                fn export_check(context) { this.bump(); }
            }"#,
        );
        assert!(!check_is_cacheable(&class));
        // Index stores through a local alias are stores all the same.
        let alias = policy_class(
            r#"class Alias {
                fn export_check(context) { let w = this.weights; w[0] = 9; }
            }"#,
        );
        assert!(!check_is_cacheable(&alias));
        // An unreachable mutating method does not poison the verdict.
        let unreachable = policy_class(
            r#"class Clean {
                fn init(n) { this.n = n; }
                fn export_check(context) { if (this.n > 0) { return; } throw "no"; }
            }"#,
        );
        assert!(check_is_cacheable(&unreachable));
    }

    #[test]
    fn scratch_field_write_is_cacheable_and_unobservable() {
        // Writes an audit field no reachable method reads: the old
        // all-or-nothing BFS rejected this shape outright; the
        // field-sensitive analysis certifies it, because a write-only
        // field cannot be observed on a later crossing.
        let class = policy_class(
            r#"class Audited {
                fn export_check(context) {
                    let sum = this.a + this.b;
                    this.last_sum = sum;
                    if (sum > this.limit) { throw "over"; }
                }
            }"#,
        );
        assert!(check_is_cacheable(&class));
        let mut fields = BTreeMap::new();
        fields.insert("a".to_string(), PValue::Int(3));
        fields.insert("b".to_string(), PValue::Int(4));
        fields.insert("limit".to_string(), PValue::Int(10));
        let ctx = Context::new(GateKind::Http);
        let (h0, m0) = check_cache_stats();
        for engine in [Engine::Tree, Engine::Vm, Engine::Tree, Engine::Vm] {
            eval_policy_method_on(engine, &class, &fields, &ctx).unwrap();
        }
        let (h1, m1) = check_cache_stats();
        assert_eq!(m1 - m0, 1, "this materialized once");
        assert_eq!(h1 - h0, 3, "scratch-field writer reuses the cached this");
        // The scratch write never feeds back into the snapshot or the
        // verdict: cached and uncached crossings agree, and the Rust-side
        // field snapshot stays pristine.
        fields.insert("limit".to_string(), PValue::Int(5));
        let cached = eval_policy_method_on(Engine::Vm, &class, &fields, &ctx).unwrap_err();
        set_check_cache(false);
        let uncached = eval_policy_method_on(Engine::Vm, &class, &fields, &ctx).unwrap_err();
        set_check_cache(true);
        assert_eq!(cached.to_string(), uncached.to_string());
        assert!(!fields.contains_key("last_sum"), "snapshot stays pristine");
    }

    #[test]
    fn unsound_policy_class_fails_registration_closed() {
        // Error-severity lint findings refuse the class definition on
        // both engines (the differential harness needs them to agree).
        for engine in [Engine::Tree, Engine::Vm] {
            let mut i = Interp::with_engine(engine);
            let err = i
                .run(r#"class BadCall { fn export_check(context) { this.nope(); } }"#)
                .unwrap_err();
            assert!(err.to_string().contains("rejected by lint"), "{err}");
            assert!(err.to_string().contains("RL003"), "{err}");
        }
        // Warnings do not block registration; they accumulate on the
        // interpreter for the application to surface.
        let mut i = Interp::new();
        i.run(r#"class AllowAll { fn export_check(context) { return; } }"#)
            .unwrap();
        assert_eq!(i.lint_reports().len(), 1);
        assert_eq!(i.lint_reports()[0].diagnostics[0].code, "RL001");
        assert!(i.lint_class("AllowAll").is_some());
        assert_eq!(i.take_lint_reports().len(), 1);
        assert!(i.lint_reports().is_empty());
    }

    #[test]
    fn review_probe_array_smuggled_this_mutation() {
        // `this` smuggled through an array literal, mutated via the alias.
        let class = policy_class(
            r#"class Smuggle {
                fn export_check(context) {
                    let a = [this];
                    let t = a[0];
                    t.n = t.n + 1;
                    if (t.n > 1) { throw "ran twice"; }
                }
            }"#,
        );
        assert!(
            !check_is_cacheable(&class),
            "UNSOUND: array-smuggled this mutation certified cacheable"
        );
        let mut fields = BTreeMap::new();
        fields.insert("n".to_string(), PValue::Int(0));
        let ctx = Context::new(GateKind::Http);
        for i in 0..3 {
            eval_policy_method_on(Engine::Vm, &class, &fields, &ctx)
                .unwrap_or_else(|e| panic!("crossing {i} observed prior run: {e}"));
        }
    }
}
