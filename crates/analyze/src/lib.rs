#![warn(missing_docs)]

//! # cm-analyze
//!
//! The workspace's offline static-analysis pass: a hand-rolled lexer
//! ([`lexer`]) plus a registry of lexical rules that enforce the
//! invariants the CIPHERMATCH codebase is built around — concurrency
//! only through the shared `cm_core::exec` runtime, constant-time
//! comparison of secret material, no panics on serving paths, every
//! wire tag declared once with its message, no lock guards held
//! across work-pool submission, sockets and frame writers that cannot
//! stall on a delayed ACK, `unsafe` only in two audited files and
//! each use under its `// SAFETY:` argument, and manifests that resolve
//! shimmed crates to the in-tree shims.
//!
//! Run it as `cargo run -p cm_analyze` (from anywhere in the workspace):
//! it walks `crates/`, `src/`, `examples/`, and `tests/` under the
//! workspace root, prints `file:line: rule: message` diagnostics, and
//! exits nonzero when any unwaived violation remains. A finding can be
//! waived inline with
//! `// cm_analyze::allow(<rule>): <justification>` on the offending
//! line or the line above; waivers without a justification are ignored,
//! and every honored waiver is counted and reported.
//!
//! The rules are *lexical*: they see tokens, not types, so they can run
//! with zero dependencies and no compiler plumbing. That buys
//! simplicity at the price of blind spots (a call submitted through a
//! re-exported alias, a lock guard passed across a function boundary),
//! which is the usual static-analysis trade and why the waiver requires
//! a written justification rather than being a bare marker.

pub mod lexer;

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{lex, test_mask, Token, TokenKind, Waiver};

/// Rule: concurrency only through `cm_core::exec` — no raw
/// `std::thread::{spawn, scope, Builder}` outside the runtime module
/// and test code.
pub const RULE_EXEC_THREADS: &str = "exec-threads";
/// Rule: no `==`/`!=` on secret-named values; compare through
/// `cm_server::secrecy::{keys_match, tags_match}`.
pub const RULE_CT_SECRECY: &str = "ct-secrecy";
/// Rule: no `unwrap`/`expect`/`panic!`-family macros in `cm_server`
/// or `cm_reactor` non-test code; serving paths return typed
/// `MatchError`s.
pub const RULE_NO_PANIC: &str = "no-panic";
/// Rule: every wire tag in `wire.rs` is in exactly one declaration (a
/// `wire_enum!` or `wire_errors!` variant's `= NAME: value`), distinct
/// within its family, and no codec body matches or pushes a raw integer
/// tag.
pub const RULE_WIRE_TAGS: &str = "wire-tags";
/// Rule: no `.lock()` / `lock_unpoisoned` guard lexically live across a
/// `submit` call.
pub const RULE_LOCK_ACROSS_SUBMIT: &str = "lock-across-submit";
/// Rule: manifests must resolve crates shadowed by `shims/` as
/// path/workspace dependencies, never by crates.io version, and every
/// `shims/<name>` has at least one manifest depending on it.
pub const RULE_SHIM_HYGIENE: &str = "shim-hygiene";
/// Rule: the `metric_names` table in `cm_telemetry` is duplicate-free,
/// and no `register_counter`/`register_gauge`/`register_histogram` call
/// outside it passes a raw string literal as the metric name.
pub const RULE_METRIC_NAMES: &str = "metric-names";

/// Rule: no delayed-ACK stalls. Under `crates/*/src`, a function that
/// obtains a `TcpStream` (`TcpStream::connect*` or `.accept()`) sets
/// `TCP_NODELAY` on it in the same function, and no function issues two
/// `write_all`s on one sink — header-then-payload is one buffer and one
/// write (`wire::begin_frame` / `finish_frame`), or one `write_vectored`.
pub const RULE_SOCKET_STALL: &str = "socket-stall";

/// Rule: non-test `unsafe` lives only in `crates/reactor/src/sys.rs`
/// and `crates/hemath/src/ntt.rs`, and each use there sits directly
/// under a `// SAFETY:` comment that says why it is sound.
pub const RULE_UNSAFE_SITES: &str = "unsafe-sites";

/// Every rule this analyzer evaluates.
pub const RULES: &[&str] = &[
    RULE_EXEC_THREADS,
    RULE_CT_SECRECY,
    RULE_NO_PANIC,
    RULE_WIRE_TAGS,
    RULE_LOCK_ACROSS_SUBMIT,
    RULE_SHIM_HYGIENE,
    RULE_METRIC_NAMES,
    RULE_SOCKET_STALL,
    RULE_UNSAFE_SITES,
];

/// The one module allowed to touch raw scoped/spawned threads.
const EXEC_FILE: &str = "crates/core/src/exec.rs";
/// The reactor's event loop: the one legitimate non-exec thread in the
/// workspace. It multiplexes every socket and must outlive any single
/// pool job, so it cannot itself be a job (a pool drain would deadlock
/// behind its own front-end).
const REACTOR_FILE: &str = "crates/reactor/src/reactor.rs";
/// The one module allowed to compare secret bytes (in constant time).
const SECRECY_FILE: &str = "crates/server/src/secrecy.rs";
/// The wire codec whose tag declarations [`RULE_WIRE_TAGS`] audits.
const WIRE_FILE: &str = "crates/server/src/wire.rs";
/// The metric-name table whose values [`RULE_METRIC_NAMES`] audits for
/// duplicates — and the one place a metric-name string literal may live.
const METRIC_NAMES_FILE: &str = "crates/telemetry/src/metric_names.rs";
/// The files whose non-test code may use `unsafe`: the reactor's
/// `extern "C"` system calls, and the NTT's call into its AVX2-compiled
/// inverse.
const UNSAFE_FILES: &[&str] = &["crates/reactor/src/sys.rs", "crates/hemath/src/ntt.rs"];
/// The no-panic serving surface: the dispatch layer…
const SERVER_SRC: &str = "crates/server/src/";
/// …and the reactor, which owns every socket — a panic there drops all
/// of them at once.
const REACTOR_SRC: &str = "crates/reactor/src/";

/// One diagnostic: a rule violated at a source location.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path (unix separators).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
    /// `Some(justification)` when an inline waiver covers this finding.
    pub waived: Option<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of analyzing a tree: every finding, waived or not.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in walk order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// The findings no waiver covers — these fail the build.
    pub fn unwaived(&self) -> Vec<&Violation> {
        self.violations
            .iter()
            .filter(|v| v.waived.is_none())
            .collect()
    }

    /// How many findings an inline waiver covers.
    pub fn waived_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.waived.is_some())
            .count()
    }
}

/// One constant parsed from the `metric_names` table in `cm_telemetry`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricNameConst {
    /// The constant's name (`SERVER_REQUESTS`, …).
    pub name: String,
    /// The metric name the constant carries (`cm_server_requests_total`).
    pub value: String,
    /// Line the constant is declared on.
    pub line: usize,
}

/// One tag declared in `wire.rs`: a `wire_enum!` or `wire_errors!`
/// variant's `= NAME: value`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagConst {
    /// Tag family: the name's prefix up to the first `_` (`REQ`,
    /// `RESP`, `ERR`, …). Values must be unique per family.
    pub family: String,
    /// The tag's name.
    pub name: String,
    /// The tag's value.
    pub value: u64,
    /// Line the tag is declared on.
    pub line: usize,
}

/// Analyzes a whole tree rooted at `root` (the workspace root): every
/// `.rs` file and `Cargo.toml` under `crates/`, `src/`, `examples/`,
/// and `tests/`, plus the root manifest. Directories named `target` or
/// `fixtures` (and hidden ones) are skipped.
///
/// # Errors
///
/// Propagates I/O errors from walking and reading the tree (individual
/// unreadable files abort the run — a lint that silently skips files
/// reads as a pass it never performed).
pub fn analyze_root(root: &Path) -> io::Result<Report> {
    let shimmed = shimmed_crates(root)?;
    let mut files = Vec::new();
    for top in ["crates", "src", "examples", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_files(&dir, &mut files)?;
        }
    }
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        files.push(root_manifest);
    }
    files.sort();
    let mut violations = Vec::new();
    let mut depended_on = Vec::new();
    for path in files {
        let rel = relative_path(root, &path);
        let source = fs::read_to_string(&path)?;
        if rel.ends_with(".rs") {
            violations.extend(analyze_rust_source(&rel, &source));
        } else {
            violations.extend(analyze_manifest(&rel, &source, &shimmed));
            depended_on.extend(manifest_dependencies(&source));
        }
    }
    // One shim may exist for another (`proptest` draws from `rand`).
    for name in &shimmed {
        if let Ok(source) = fs::read_to_string(root.join("shims").join(name).join("Cargo.toml")) {
            depended_on.extend(manifest_dependencies(&source));
        }
    }
    for name in shimmed.iter().filter(|name| !depended_on.contains(name)) {
        violations.push(Violation {
            file: format!("shims/{name}/Cargo.toml"),
            line: 1,
            rule: RULE_SHIM_HYGIENE,
            message: format!(
                "no manifest depends on `{name}` — delete `shims/{name}` and its \
                 `[workspace.dependencies]` entry rather than carry a shim without a user"
            ),
            waived: None,
        });
    }
    Ok(Report { violations })
}

/// The crate names `shims/` shadows (one subdirectory per shim).
///
/// # Errors
///
/// Propagates `read_dir` failures; a missing `shims/` directory is an
/// empty list, not an error.
pub fn shimmed_crates(root: &Path) -> io::Result<Vec<String>> {
    let dir = root.join("shims");
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut names = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.path().is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    Ok(names)
}

fn collect_files(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_files(&path, files)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            files.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs every Rust-source rule over one file. `rel_path` is the
/// workspace-relative path with unix separators (it selects which rules
/// and whitelists apply). Waivers are already applied in the result.
pub fn analyze_rust_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let (tokens, waivers) = lex(source);
    let mask = test_mask(&tokens);
    let is_test_path = rel_path.split('/').any(|c| c == "tests" || c == "benches");
    let mut out = Vec::new();
    if !is_test_path {
        if rel_path != EXEC_FILE && rel_path != REACTOR_FILE {
            rule_exec_threads(rel_path, &tokens, &mask, &mut out);
        }
        if rel_path != SECRECY_FILE {
            rule_ct_secrecy(rel_path, &tokens, &mask, &mut out);
        }
        if rel_path.starts_with(SERVER_SRC) || rel_path.starts_with(REACTOR_SRC) {
            rule_no_panic(rel_path, &tokens, &mask, &mut out);
        }
        rule_lock_across_submit(rel_path, &tokens, &mask, &mut out);
        if rel_path != METRIC_NAMES_FILE {
            rule_metric_names_adhoc(rel_path, &tokens, &mask, &mut out);
        }
        if rel_path.starts_with("crates/") && rel_path.contains("/src/") {
            rule_socket_stall(rel_path, &tokens, &mask, &mut out);
        }
        rule_unsafe_sites(rel_path, source, &tokens, &mask, &mut out);
    }
    if rel_path == WIRE_FILE {
        rule_wire_tags(rel_path, &tokens, &mask, &mut out);
    }
    if rel_path == METRIC_NAMES_FILE {
        rule_metric_names_table(rel_path, source, &mut out);
    }
    apply_waivers(&waivers, &mut out);
    out
}

fn apply_waivers(waivers: &[Waiver], violations: &mut [Violation]) {
    for v in violations {
        if let Some(w) = waivers
            .iter()
            .find(|w| w.rule == v.rule && (w.line == v.line || w.line + 1 == v.line))
        {
            v.waived = Some(w.justification.clone());
        }
    }
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

// ---------------------------------------------------------------------
// Rule: exec-threads
// ---------------------------------------------------------------------

/// Thread entry points that bypass the shared runtime.
const RAW_THREAD_CALLS: &[&str] = &["spawn", "scope", "Builder"];

fn rule_exec_threads(rel: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..tokens.len().saturating_sub(2) {
        if is_ident(&tokens[i], "thread")
            && is_punct(&tokens[i + 1], "::")
            && tokens[i + 2].kind == TokenKind::Ident
            && RAW_THREAD_CALLS.contains(&tokens[i + 2].text.as_str())
            && !mask[i + 2]
        {
            out.push(Violation {
                file: rel.to_string(),
                line: tokens[i + 2].line,
                rule: RULE_EXEC_THREADS,
                message: format!(
                    "raw `std::thread::{}` outside `cm_core::exec` — route concurrency \
                     through the shared work-pool runtime (`WorkerPool`, `compute_pool`, `fan_out`)",
                    tokens[i + 2].text
                ),
                waived: None,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: ct-secrecy
// ---------------------------------------------------------------------

/// Identifiers that always denote secret material.
const SECRET_NAMES: &[&str] = &["channel_key", "auth_tag", "upload_tag", "content_digest"];
/// Field names that denote secret material when accessed as `.field`.
const SECRET_FIELDS: &[&str] = &["tag", "key", "digest", "content", "channel_key"];
/// How many tokens each side of a comparison operator the rule
/// inspects (bounded by expression delimiters first).
const SECRECY_WINDOW: usize = 10;

fn rule_ct_secrecy(rel: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if mask[i] || !(is_punct(&tokens[i], "==") || is_punct(&tokens[i], "!=")) {
            continue;
        }
        let boundary = |t: &Token| {
            is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}") || is_punct(t, ",")
        };
        let lo = (i.saturating_sub(SECRECY_WINDOW)..i)
            .rev()
            .find(|&j| boundary(&tokens[j]))
            .map_or(i.saturating_sub(SECRECY_WINDOW), |j| j + 1);
        let hi = (i + 1..tokens.len().min(i + 1 + SECRECY_WINDOW))
            .find(|&j| boundary(&tokens[j]))
            .unwrap_or(tokens.len().min(i + 1 + SECRECY_WINDOW));
        for j in lo..hi {
            let t = &tokens[j];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let named_secret = SECRET_NAMES.contains(&t.text.as_str());
            let field_secret =
                SECRET_FIELDS.contains(&t.text.as_str()) && j > 0 && is_punct(&tokens[j - 1], ".");
            if named_secret || field_secret {
                out.push(Violation {
                    file: rel.to_string(),
                    line: tokens[i].line,
                    rule: RULE_CT_SECRECY,
                    message: format!(
                        "`{}` on secret material (`{}`) leaks the matching prefix through \
                         timing — compare via `cm_server::secrecy::{{keys_match, tags_match}}`",
                        tokens[i].text, t.text
                    ),
                    waived: None,
                });
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-panic
// ---------------------------------------------------------------------

/// Panicking macros forbidden on serving paths.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn rule_no_panic(rel: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if mask[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let text = tokens[i].text.as_str();
        let method_call = (text == "unwrap" || text == "expect")
            && i > 0
            && is_punct(&tokens[i - 1], ".")
            && i + 1 < tokens.len()
            && is_punct(&tokens[i + 1], "(");
        let macro_call =
            PANIC_MACROS.contains(&text) && i + 1 < tokens.len() && is_punct(&tokens[i + 1], "!");
        if method_call || macro_call {
            let rendered = if method_call {
                format!(".{text}()")
            } else {
                format!("{text}!")
            };
            out.push(Violation {
                file: rel.to_string(),
                line: tokens[i].line,
                rule: RULE_NO_PANIC,
                message: format!(
                    "`{rendered}` on a serving path — surface a typed error \
                     (e.g. `MatchError::Internal`) instead of panicking a worker"
                ),
                waived: None,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: wire-tags
// ---------------------------------------------------------------------

/// The macros whose invocations declare wire tags.
const TAG_DECLARATIONS: &[&str] = &["wire_enum", "wire_errors"];

/// Parses every tag declared in `wire.rs` source: each `= NAME: value`
/// inside a `wire_enum! { .. }` or `wire_errors! { .. }` invocation, in
/// source order. Returns an empty table when there is none (which
/// [`RULE_WIRE_TAGS`] reports as its own violation).
pub fn wire_tag_table(source: &str) -> Vec<TagConst> {
    let (tokens, _) = lex(source);
    parse_tag_declarations(&tokens)
}

fn parse_tag_declarations(tokens: &[Token]) -> Vec<TagConst> {
    let mut consts = Vec::new();
    for (start, end) in declaration_regions(tokens) {
        for w in tokens[start..end].windows(4) {
            if !(is_punct(&w[0], "=")
                && w[1].kind == TokenKind::Ident
                && is_punct(&w[2], ":")
                && w[3].kind == TokenKind::Int)
            {
                continue;
            }
            if let Some(value) = parse_int(&w[3].text) {
                let name = w[1].text.clone();
                consts.push(TagConst {
                    family: name.split('_').next().unwrap_or(&name).to_string(),
                    name,
                    value,
                    line: w[1].line,
                });
            }
        }
    }
    consts
}

/// The token ranges strictly inside each tag-declaring invocation
/// (`wire_enum! { .. }`, not the `macro_rules!` that defines it).
fn declaration_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for i in 0..tokens.len().saturating_sub(2) {
        let declares = TAG_DECLARATIONS.iter().any(|m| is_ident(&tokens[i], m));
        if !(declares && is_punct(&tokens[i + 1], "!") && is_punct(&tokens[i + 2], "{")) {
            continue;
        }
        let mut depth = 0usize;
        for (j, t) in tokens.iter().enumerate().skip(i + 2) {
            if is_punct(t, "{") {
                depth += 1;
            } else if is_punct(t, "}") {
                depth -= 1;
                if depth == 0 {
                    regions.push((i + 3, j));
                    break;
                }
            }
        }
    }
    regions
}

/// Parses a Rust integer literal (decimal/hex/octal/binary, `_`
/// separators, optional type suffix).
fn parse_int(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    let (radix, digits) = if let Some(d) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (16, d)
    } else if let Some(d) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        (8, d)
    } else if let Some(d) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        (2, d)
    } else {
        (10, t.as_str())
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    u64::from_str_radix(&digits[..end], radix).ok()
}

fn rule_wire_tags(rel: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Violation>) {
    let consts = parse_tag_declarations(tokens);
    if consts.is_empty() {
        out.push(Violation {
            file: rel.to_string(),
            line: 1,
            rule: RULE_WIRE_TAGS,
            message: "wire.rs declares no wire tags — each message variant declares its tag \
                      as `= NAME: value` in a `wire_enum!` or `wire_errors!`"
                .to_string(),
            waived: None,
        });
        return;
    }
    // One declaration per name, one name per value within a family. The
    // macros write both codec directions from the declaration, so a
    // declared tag is used by construction.
    let mut names: HashMap<&str, usize> = HashMap::new();
    let mut values: HashMap<(&str, u64), &str> = HashMap::new();
    for c in &consts {
        let message = if let Some(first) = names.insert(&c.name, c.line) {
            format!(
                "wire tag `{}` is declared twice (first on line {first}) — a tag \
                 belongs to exactly one declaration",
                c.name
            )
        } else if let Some(prev) = values.insert((&c.family, c.value), &c.name) {
            format!(
                "duplicate wire tag: `{}` = {} collides with `{}` in the `{}` family",
                c.name, c.value, prev, c.family
            )
        } else {
            continue;
        };
        out.push(Violation {
            file: rel.to_string(),
            line: c.line,
            rule: RULE_WIRE_TAGS,
            message,
            waived: None,
        });
    }
    // No function body — a codec's `encode`/`decode`, an `impl Wire`
    // `put`/`read`, or any helper — may match on or push a raw integer
    // tag. Nested bodies lie inside their parent's and are scanned once.
    let mut scanned_to = 0;
    for (name, open, close) in fn_bodies(tokens, mask) {
        if open < scanned_to {
            continue;
        }
        scanned_to = close;
        let fn_name = &tokens[name].text;
        for j in open..close {
            if tokens[j].kind != TokenKind::Int {
                continue;
            }
            let arm = j + 1 < tokens.len() && is_punct(&tokens[j + 1], "=>");
            let pushed =
                j >= 2 && is_punct(&tokens[j - 1], "(") && is_ident(&tokens[j - 2], "push");
            if arm || pushed {
                out.push(Violation {
                    file: rel.to_string(),
                    line: tokens[j].line,
                    rule: RULE_WIRE_TAGS,
                    message: format!(
                        "raw integer `{}` used as a wire tag in `{fn_name}` — declare it \
                         with its variant in a `wire_enum!` or `wire_errors!`",
                        tokens[j].text
                    ),
                    waived: None,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: metric-names
// ---------------------------------------------------------------------

/// Registration entry points whose first argument must be a
/// `metric_names::` constant, never a raw string literal.
const REGISTER_CALLS: &[&str] = &["register_counter", "register_gauge", "register_histogram"];

/// Parses the `pub const NAME: &str = "value";` table out of
/// `crates/telemetry/src/metric_names.rs` source. This works on the raw
/// source (not the token stream) because the lexer deliberately drops
/// string contents — here the string *is* the datum.
pub fn metric_name_table(source: &str) -> Vec<MetricNameConst> {
    let mut out = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.trim();
        let Some(rest) = line
            .strip_prefix("pub const ")
            .or_else(|| line.strip_prefix("const "))
        else {
            continue;
        };
        let Some((name, rest)) = rest.split_once(':') else {
            continue;
        };
        let Some((ty, value)) = rest.split_once('=') else {
            continue;
        };
        if !ty.contains("str") {
            continue;
        }
        let value = value.trim().trim_end_matches(';').trim_end();
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            continue;
        };
        out.push(MetricNameConst {
            name: name.trim().to_string(),
            value: value.to_string(),
            line: idx + 1,
        });
    }
    out
}

/// Audits the metric-name table itself: two constants sharing one
/// exposition name would silently merge two series.
fn rule_metric_names_table(rel: &str, source: &str, out: &mut Vec<Violation>) {
    let mut seen: HashMap<String, String> = HashMap::new();
    for c in metric_name_table(source) {
        if let Some(prev) = seen.insert(c.value.clone(), c.name.clone()) {
            out.push(Violation {
                file: rel.to_string(),
                line: c.line,
                rule: RULE_METRIC_NAMES,
                message: format!(
                    "duplicate metric name: `{}` = \"{}\" collides with `{}` — two \
                     constants exposing one series name merge silently in the exposition",
                    c.name, c.value, prev
                ),
                waived: None,
            });
        }
    }
}

/// Flags `register_counter("raw literal", …)`-style calls outside the
/// table module: a metric name that is not a `metric_names::` constant
/// is invisible to the catalog and to this lint's duplicate check.
fn rule_metric_names_adhoc(rel: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..tokens.len().saturating_sub(2) {
        if tokens[i].kind == TokenKind::Ident
            && REGISTER_CALLS.contains(&tokens[i].text.as_str())
            && !mask[i]
            && is_punct(&tokens[i + 1], "(")
            && tokens[i + 2].kind == TokenKind::Str
        {
            out.push(Violation {
                file: rel.to_string(),
                line: tokens[i + 2].line,
                rule: RULE_METRIC_NAMES,
                message: format!(
                    "raw string literal passed to `{}` — register metric names through \
                     the `cm_telemetry::metric_names` table so the catalog stays \
                     collision-checked and greppable",
                    tokens[i].text
                ),
                waived: None,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: socket-stall
// ---------------------------------------------------------------------

/// The braced bodies of the non-test `fn` items in `tokens`, as token
/// indices `(name, open, close)` of the fn's name and the body's braces.
/// A bodiless declaration
/// (`fn f();` in a trait) yields nothing; a nested `fn` yields its own
/// range as well as lying inside its parent's. A `;` inside the
/// signature's brackets (`key: &[u8; 32]`) does not end it.
fn fn_bodies(tokens: &[Token], mask: &[bool]) -> Vec<(usize, usize, usize)> {
    let mut bodies = Vec::new();
    for i in 0..tokens.len().saturating_sub(1) {
        if !(is_ident(&tokens[i], "fn") && tokens[i + 1].kind == TokenKind::Ident && !mask[i]) {
            continue;
        }
        let mut brackets = 0usize;
        let Some(open) = (i + 2..tokens.len())
            .find(|&j| {
                let t = &tokens[j];
                if is_punct(t, "[") {
                    brackets += 1;
                } else if is_punct(t, "]") {
                    brackets = brackets.saturating_sub(1);
                }
                brackets == 0 && (is_punct(t, "{") || is_punct(t, ";"))
            })
            .filter(|&j| is_punct(&tokens[j], "{"))
        else {
            continue;
        };
        let mut depth = 0usize;
        for (j, t) in tokens.iter().enumerate().skip(open) {
            if is_punct(t, "{") {
                depth += 1;
            } else if is_punct(t, "}") {
                depth -= 1;
                if depth == 0 {
                    bodies.push((i + 1, open, j));
                    break;
                }
            }
        }
    }
    bodies
}

fn rule_socket_stall(rel: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Violation>) {
    for (_, open, close) in fn_bodies(tokens, mask) {
        let body = &tokens[open..close];
        // Where the function gets a stream from the network.
        let obtained = body.windows(3).find(|w| {
            (is_ident(&w[0], "TcpStream")
                && is_punct(&w[1], "::")
                && w[2].kind == TokenKind::Ident
                && w[2].text.starts_with("connect"))
                || (is_punct(&w[0], ".") && is_ident(&w[1], "accept") && is_punct(&w[2], "("))
        });
        if let Some(site) = obtained {
            if !body.iter().any(|t| is_ident(t, "set_nodelay")) {
                out.push(Violation {
                    file: rel.to_string(),
                    line: site[1].line,
                    rule: RULE_SOCKET_STALL,
                    message: "a `TcpStream` is obtained here but `set_nodelay` is never called \
                              in this function — a request/response socket under Nagle's \
                              algorithm waits out the peer's delayed ACK (≈ 40 ms per call)"
                        .to_string(),
                    waived: None,
                });
            }
        }
        // `sink.write_all(..)` twice on one sink: the second write of a
        // header-then-payload pair is what the delayed ACK holds back.
        let mut sinks: Vec<&str> = Vec::new();
        for w in body.windows(4) {
            if !(w[0].kind == TokenKind::Ident
                && is_punct(&w[1], ".")
                && is_ident(&w[2], "write_all")
                && is_punct(&w[3], "("))
            {
                continue;
            }
            if sinks.contains(&w[0].text.as_str()) {
                out.push(Violation {
                    file: rel.to_string(),
                    line: w[2].line,
                    rule: RULE_SOCKET_STALL,
                    message: format!(
                        "second `write_all` on `{}` in one function — encode header and \
                         payload into one buffer (`wire::begin_frame` / `finish_frame`) and \
                         write it once, or use one `write_vectored`",
                        w[0].text
                    ),
                    waived: None,
                });
            } else {
                sinks.push(&w[0].text);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: unsafe-sites
// ---------------------------------------------------------------------

fn rule_unsafe_sites(
    rel: &str,
    source: &str,
    tokens: &[Token],
    mask: &[bool],
    out: &mut Vec<Violation>,
) {
    let lines: Vec<&str> = source.lines().collect();
    for (t, &masked) in tokens.iter().zip(mask) {
        if masked || !is_ident(t, "unsafe") {
            continue;
        }
        let message = if !UNSAFE_FILES.contains(&rel) {
            format!(
                "`unsafe` outside {} — keep it in those audited files behind a safe API",
                UNSAFE_FILES.join(" and ")
            )
        } else if !has_safety_comment(&lines, t.line) {
            "`unsafe` without a `// SAFETY:` comment directly above it saying why it is sound"
                .to_string()
        } else {
            continue;
        };
        out.push(Violation {
            file: rel.to_string(),
            line: t.line,
            rule: RULE_UNSAFE_SITES,
            message,
            waived: None,
        });
    }
}

/// Whether the run of `//` comment lines directly above the 1-based
/// `line` holds one that begins `// SAFETY:`.
fn has_safety_comment(lines: &[&str], line: usize) -> bool {
    lines[..line - 1]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//"))
        .any(|l| l.starts_with("// SAFETY:"))
}

// ---------------------------------------------------------------------
// Rule: lock-across-submit
// ---------------------------------------------------------------------

/// Pool-submission entry points a lock guard must not be held across.
const SUBMIT_CALLS: &[&str] = &["submit"];

fn rule_lock_across_submit(rel: &str, tokens: &[Token], mask: &[bool], out: &mut Vec<Violation>) {
    struct Binding {
        name: String,
        depth: usize,
    }
    let mut live: Vec<Binding> = Vec::new();
    // Bindings activate at the `;` ending their `let` statement.
    let mut pending: Vec<(usize, Binding)> = Vec::new();
    let mut depth = 0usize;
    for i in 0..tokens.len() {
        while let Some(pos) = pending.iter().position(|(at, _)| *at <= i) {
            live.push(pending.remove(pos).1);
        }
        let t = &tokens[i];
        if is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, "}") {
            depth = depth.saturating_sub(1);
            live.retain(|b| b.depth <= depth);
            pending.retain(|(_, b)| b.depth <= depth);
        } else if is_ident(t, "drop") && i + 3 < tokens.len() && is_punct(&tokens[i + 1], "(") {
            if tokens[i + 2].kind == TokenKind::Ident && is_punct(&tokens[i + 3], ")") {
                let name = &tokens[i + 2].text;
                live.retain(|b| &b.name != name);
            }
        } else if is_ident(t, "let") && !mask[i] {
            let mut j = i + 1;
            if j < tokens.len() && is_ident(&tokens[j], "mut") {
                j += 1;
            }
            // Only simple `let name = ...` / `let name: T = ...`
            // bindings are tracked (patterns don't bind one clear
            // guard).
            if j + 1 >= tokens.len()
                || tokens[j].kind != TokenKind::Ident
                || tokens[j].text == "_"
                || !(is_punct(&tokens[j + 1], "=") || is_punct(&tokens[j + 1], ":"))
            {
                continue;
            }
            let name = tokens[j].text.clone();
            // Scan the initializer to the statement's `;` (at this
            // brace depth) looking for a lock acquisition.
            let mut k = j + 1;
            let mut local_depth = 0usize;
            let mut locks = false;
            let mut stmt_end = tokens.len();
            while k < tokens.len() {
                let u = &tokens[k];
                if is_punct(u, "{") || is_punct(u, "(") || is_punct(u, "[") {
                    local_depth += 1;
                } else if is_punct(u, "}") || is_punct(u, ")") || is_punct(u, "]") {
                    local_depth = local_depth.saturating_sub(1);
                } else if is_punct(u, ";") && local_depth == 0 {
                    stmt_end = k;
                    break;
                } else if (is_ident(u, "lock") && k > 0 && is_punct(&tokens[k - 1], "."))
                    || is_ident(u, "lock_unpoisoned")
                {
                    locks = true;
                }
                k += 1;
            }
            if locks {
                pending.push((stmt_end, Binding { name, depth }));
            }
        } else if t.kind == TokenKind::Ident
            && SUBMIT_CALLS.contains(&t.text.as_str())
            && !mask[i]
            && i > 0
            && is_punct(&tokens[i - 1], ".")
            && i + 1 < tokens.len()
            && is_punct(&tokens[i + 1], "(")
        {
            if let Some(b) = live.last() {
                out.push(Violation {
                    file: rel.to_string(),
                    line: t.line,
                    rule: RULE_LOCK_ACROSS_SUBMIT,
                    message: format!(
                        "`.{}()` called while lock guard `{}` is live — a pool job \
                         blocking on that mutex deadlocks the runtime; release the guard \
                         (scope or `drop`) before submitting",
                        t.text, b.name
                    ),
                    waived: None,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: shim-hygiene
// ---------------------------------------------------------------------

/// Runs the manifest rule over one `Cargo.toml`. `shimmed` lists the
/// crate names `shims/` shadows. Waivers are not supported in
/// manifests (TOML comments are not Rust comments); fix the manifest
/// instead.
pub fn analyze_manifest(rel_path: &str, source: &str, shimmed: &[String]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut section = String::new();
    // `[dependencies.<name>]`-style table currently open, if any:
    // (name, header line, saw a path/workspace key).
    let mut open_table: Option<(String, usize, bool)> = None;
    let flush = |table: &mut Option<(String, usize, bool)>, out: &mut Vec<Violation>| {
        if let Some((name, line, satisfied)) = table.take() {
            if !satisfied {
                out.push(shim_violation(rel_path, line, &name));
            }
        }
    };
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = manifest_line(raw);
        if let Some(header) = section_header(line) {
            flush(&mut open_table, &mut out);
            section = header.to_string();
            if let Some((kind, name)) = section.rsplit_once('.') {
                if is_dep_section(kind) && shimmed.iter().any(|s| s == name) {
                    open_table = Some((name.to_string(), line_no, false));
                }
            }
            continue;
        }
        if let Some(table) = &mut open_table {
            if line.starts_with("path") || line.starts_with("workspace") {
                table.2 = true;
            }
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        // Dotted keys: `rand.workspace = true` / `rand.path = "..."`.
        if let Some((base, sub)) = key.split_once('.') {
            if shimmed.iter().any(|s| s == base) && !(sub == "workspace" || sub == "path") {
                out.push(shim_violation(rel_path, line_no, base));
            }
            continue;
        }
        if shimmed.iter().any(|s| s == key)
            && !(value.contains("path") || value.contains("workspace"))
        {
            out.push(shim_violation(rel_path, line_no, key));
        }
    }
    flush(&mut open_table, &mut out);
    out
}

/// The crate names one manifest depends on: every key of its
/// `[dependencies]`-family sections and every
/// `[dependencies.<name>]`-style table. `[workspace.dependencies]` only
/// declares where a name resolves, so it is not a dependency.
pub fn manifest_dependencies(source: &str) -> Vec<String> {
    let uses = |section: &str| is_dep_section(section) && !section.starts_with("workspace.");
    let mut names = Vec::new();
    let mut section = String::new();
    for raw in source.lines() {
        let line = manifest_line(raw);
        if let Some(header) = section_header(line) {
            section = header.to_string();
            if let Some((kind, name)) = section.rsplit_once('.') {
                if uses(kind) {
                    names.push(name.to_string());
                }
            }
        } else if uses(&section) {
            if let Some((key, _)) = line.split_once('=') {
                let key = key.trim().trim_matches('"');
                names.push(key.split('.').next().unwrap_or(key).to_string());
            }
        }
    }
    names
}

/// One manifest line without its comment and surrounding whitespace.
fn manifest_line(raw: &str) -> &str {
    raw.split('#').next().unwrap_or("").trim()
}

/// The section a `[name]` / `[[name]]` header line opens.
fn section_header(line: &str) -> Option<&str> {
    line.starts_with('[')
        .then(|| line.trim_matches(|c| c == '[' || c == ']').trim())
}

fn is_dep_section(name: &str) -> bool {
    name == "dependencies"
        || name == "dev-dependencies"
        || name == "build-dependencies"
        || name.ends_with(".dependencies")
        || name.ends_with(".dev-dependencies")
        || name.ends_with(".build-dependencies")
}

fn shim_violation(rel: &str, line: usize, name: &str) -> Violation {
    Violation {
        file: rel.to_string(),
        line,
        rule: RULE_SHIM_HYGIENE,
        message: format!(
            "dependency `{name}` is shadowed by `shims/{name}` — declare it as a \
             path/workspace dependency so offline builds never reach for crates.io"
        ),
        waived: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn exec_threads_flags_raw_spawn_but_not_exec_or_tests() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/core/src/api.rs", src)),
            [RULE_EXEC_THREADS]
        );
        assert!(analyze_rust_source(super::EXEC_FILE, src).is_empty());
        // The reactor's event loop is the one other blessed thread; the
        // rest of its crate is NOT exempt.
        assert!(analyze_rust_source(super::REACTOR_FILE, src).is_empty());
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/reactor/src/sys.rs", src)),
            [RULE_EXEC_THREADS]
        );
        assert!(analyze_rust_source("crates/core/tests/e2e.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests { fn f() { std::thread::scope(|s| {}); } }";
        assert!(analyze_rust_source("crates/core/src/api.rs", gated).is_empty());
    }

    #[test]
    fn ct_secrecy_flags_equality_on_secrets() {
        let src = "fn f(a: &[u8; 32], channel_key: &[u8; 32]) -> bool { a == channel_key }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/server/src/x.rs", src)),
            [RULE_CT_SECRECY]
        );
        let field = "fn f() -> bool { expected != auth.tag }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/server/src/x.rs", field)),
            [RULE_CT_SECRECY]
        );
        // The blessed module itself is exempt.
        let blessed = "pub fn tags_match(a: u8, b: u8) -> bool { a ^ b == 0 }";
        assert!(analyze_rust_source(super::SECRECY_FILE, blessed).is_empty());
        // A `tag` ident that is not a field access is not secret.
        let benign = "fn f(tag: u8) -> bool { tag == 3 }";
        assert!(analyze_rust_source("crates/server/src/x.rs", benign).is_empty());
    }

    #[test]
    fn no_panic_is_scoped_to_server_sources() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/server/src/x.rs", src)),
            [RULE_NO_PANIC]
        );
        assert!(analyze_rust_source("crates/core/src/x.rs", src).is_empty());
        // The reactor owns every socket: its whole crate is a serving
        // path, event loop included.
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/reactor/src/reactor.rs", src)),
            [RULE_NO_PANIC]
        );
        let macros = "fn f() { panic!(\"boom\"); }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/server/src/x.rs", macros)),
            [RULE_NO_PANIC]
        );
        // `unwrap_or_else` is not `unwrap`.
        let benign = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }";
        assert!(analyze_rust_source("crates/server/src/x.rs", benign).is_empty());
    }

    #[test]
    fn waivers_suppress_with_justification_only() {
        let waived = "fn f(x: Option<u8>) -> u8 {\n    \
            // cm_analyze::allow(no-panic): checked non-None two lines up\n    \
            x.unwrap()\n}";
        let found = analyze_rust_source("crates/server/src/x.rs", waived);
        assert_eq!(found.len(), 1);
        assert!(found[0].waived.is_some());
        let unjustified = "fn f(x: Option<u8>) -> u8 {\n    \
            // cm_analyze::allow(no-panic):\n    \
            x.unwrap()\n}";
        let found = analyze_rust_source("crates/server/src/x.rs", unjustified);
        assert_eq!(found.len(), 1);
        assert!(found[0].waived.is_none());
        // A waiver for a different rule does not apply.
        let wrong = "fn f(x: Option<u8>) -> u8 {\n    \
            // cm_analyze::allow(exec-threads): wrong rule\n    \
            x.unwrap()\n}";
        let found = analyze_rust_source("crates/server/src/x.rs", wrong);
        assert!(found[0].waived.is_none());
    }

    #[test]
    fn lock_across_submit_tracks_guard_lifetimes() {
        let bad = "fn f() { let g = m.lock().unwrap(); pool.submit(|| {}); }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/core/src/x.rs", bad)),
            [RULE_LOCK_ACROSS_SUBMIT]
        );
        // Guard released by scope before the submit: clean.
        let scoped = "fn f() { { let g = m.lock().unwrap(); g.push(1); } pool.submit(|| {}); }";
        assert!(analyze_rust_source("crates/core/src/x.rs", scoped).is_empty());
        // Guard dropped explicitly before the submit: clean.
        let dropped = "fn f() { let g = m.lock().unwrap(); drop(g); pool.submit(|| {}); }";
        assert!(analyze_rust_source("crates/core/src/x.rs", dropped).is_empty());
        // The lock inside the submitted closure itself is fine.
        let inside = "fn f() { pool.submit(|| { let g = m.lock().unwrap(); }); }";
        assert!(analyze_rust_source("crates/core/src/x.rs", inside).is_empty());
    }

    #[test]
    fn socket_stall_wants_nodelay_where_a_stream_is_obtained() {
        let bare = "fn dial(a: &str) -> TcpStream { TcpStream::connect(a).unwrap() }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/server/src/x.rs", bare)),
            [RULE_NO_PANIC, RULE_SOCKET_STALL]
        );
        let accepted = "fn next(l: &TcpListener) { if let Ok((s, _)) = l.accept() { admit(s); } }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/core/src/x.rs", accepted)),
            [RULE_SOCKET_STALL]
        );
        let timeout = "fn dial(a: &SocketAddr) { let _ = TcpStream::connect_timeout(a, T); }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/core/src/x.rs", timeout)),
            [RULE_SOCKET_STALL]
        );
        // Set in the same function: clean. Set in another one: not.
        let set = "fn dial(a: &str) { let s = TcpStream::connect(a)?; s.set_nodelay(true)?; }";
        assert!(analyze_rust_source("crates/core/src/x.rs", set).is_empty());
        let elsewhere = "fn dial(a: &str) { tune(TcpStream::connect(a)?); }\n\
                         fn tune(s: TcpStream) { let _ = s.set_nodelay(true); }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/core/src/x.rs", elsewhere)),
            [RULE_SOCKET_STALL]
        );
        // Only `crates/*/src`, and never test code.
        assert!(analyze_rust_source("examples/x.rs", accepted).is_empty());
        assert!(analyze_rust_source("crates/core/tests/x.rs", accepted).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{ {accepted} }}");
        assert!(analyze_rust_source("crates/core/src/x.rs", &gated).is_empty());
        // A trait declaration has no body to hold against it.
        let declared =
            "trait Dial { fn dial(&self); }\nfn f(s: TcpStream) { s.set_nodelay(true); }";
        assert!(analyze_rust_source("crates/core/src/x.rs", declared).is_empty());
    }

    #[test]
    fn unsafe_sites_are_two_files_each_use_under_its_safety_comment() {
        let argued = "fn f() {\n    // SAFETY: the call has no preconditions.\n    \
                      unsafe { g() }\n}";
        let bare = "fn f() {\n    // Calls g.\n    unsafe { g() }\n}";
        let sys = "crates/reactor/src/sys.rs";
        let ntt = "crates/hemath/src/ntt.rs";
        assert!(analyze_rust_source(sys, argued).is_empty());
        assert!(analyze_rust_source(ntt, argued).is_empty());
        // A comment run counts when its `// SAFETY:` line opens it.
        let long = "// SAFETY: the call has no\n// preconditions.\nunsafe fn f() {}";
        assert!(analyze_rust_source(sys, long).is_empty());
        assert_eq!(
            rules_fired(&analyze_rust_source(sys, bare)),
            [RULE_UNSAFE_SITES]
        );
        // A blank line or code between the comment and the use breaks it.
        let detached = "// SAFETY: the call has no preconditions.\n\nunsafe fn f() {}";
        assert_eq!(
            rules_fired(&analyze_rust_source(ntt, detached)),
            [RULE_UNSAFE_SITES]
        );
        // Anywhere else, even argued, it fires — but never in test code.
        let found = analyze_rust_source("crates/core/src/x.rs", argued);
        assert_eq!(rules_fired(&found), [RULE_UNSAFE_SITES]);
        assert!(found[0]
            .message
            .contains("outside crates/reactor/src/sys.rs"));
        assert!(analyze_rust_source("crates/server/tests/x.rs", bare).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{ {bare} }}");
        assert!(analyze_rust_source("crates/core/src/x.rs", &gated).is_empty());
        // The word in a comment or a string is not a use.
        let words = "// unsafe\nfn f() -> &'static str { \"unsafe\" }";
        assert!(analyze_rust_source("crates/core/src/x.rs", words).is_empty());
    }

    #[test]
    fn socket_stall_flags_header_then_payload_writes() {
        let split = "fn send(w: &mut W, h: &[u8], p: &[u8]) { w.write_all(h)?; w.write_all(p)?; }";
        let found = analyze_rust_source("crates/core/src/x.rs", split);
        assert_eq!(rules_fired(&found), [RULE_SOCKET_STALL]);
        assert!(found[0].message.contains("second `write_all` on `w`"));
        // One write of one buffer, and writes to different sinks, are fine;
        // so are single writes in two functions.
        let joined = "fn send(w: &mut W, frame: &[u8]) { w.write_all(frame)?; w.flush()?; }";
        assert!(analyze_rust_source("crates/core/src/x.rs", joined).is_empty());
        let two_sinks =
            "fn tee(a: &mut W, b: &mut W, p: &[u8]) { a.write_all(p)?; b.write_all(p)?; }";
        assert!(analyze_rust_source("crates/core/src/x.rs", two_sinks).is_empty());
        let two_fns =
            "fn f(w: &mut W) { w.write_all(b\"a\")?; }\nfn g(w: &mut W) { w.write_all(b\"b\")?; }";
        assert!(analyze_rust_source("crates/core/src/x.rs", two_fns).is_empty());
    }

    #[test]
    fn wire_tags_catches_duplicates_and_raw_ints() {
        let src = "\
wire_enum! {
    pub enum Request {
        Ping = REQ_PING: 0,
        Match { tenant: String } = REQ_MATCH: 0,
    }
}
wire_enum! {
    pub enum Reply { Ping = REQ_PING: 2 }
}
impl Request {
    pub fn decode(d: &[u8]) {
        match d[0] {
            Self::REQ_PING => {}
            7 => {}
            _ => {}
        }
    }
}
";
        let found = analyze_rust_source(super::WIRE_FILE, src);
        let fired = rules_fired(&found);
        assert_eq!(fired.iter().filter(|r| **r == RULE_WIRE_TAGS).count(), 3);
        assert!(found
            .iter()
            .any(|v| v.line == 4 && v.message.contains("duplicate wire tag: `REQ_MATCH` = 0")));
        assert!(found
            .iter()
            .any(|v| v.line == 8 && v.message.contains("`REQ_PING` is declared twice")));
        assert!(found.iter().any(|v| v.message.contains("raw integer `7`")));
        // A declaration without any tag, or no declaration at all, is
        // reported once.
        let bare = analyze_rust_source(super::WIRE_FILE, "fn f() {}");
        assert_eq!(rules_fired(&bare), [RULE_WIRE_TAGS]);
        assert!(bare[0].message.contains("declares no wire tags"));
    }

    #[test]
    fn wire_tags_scans_every_fn_body_not_just_encode_and_decode() {
        // Codec bodies living in `impl Wire` methods and free helpers are
        // held to the registry like `encode`/`decode` — including behind a
        // signature with a `;` inside brackets — while test code is not.
        let src = "\
wire_enum! { pub enum Response { Pong = RESP_PONG: 0 } }
impl Wire for Pong {
    fn put(&self, out: &mut Vec<u8>) { out.push(Self::RESP_PONG); out.push(9); }
    fn read(r: &mut Reader<'_>) -> Result<Self, E> {
        match r.byte() { Self::RESP_PONG => Ok(Pong), 4 => Ok(Pong), _ => Err(E) }
    }
}
fn keyed(key: &[u8; 32]) -> u8 { match key[0] { 5 => 1, _ => 0 } }
#[cfg(test)]
mod tests { fn t(out: &mut Vec<u8>) { out.push(6); } }
";
        let found = analyze_rust_source(super::WIRE_FILE, src);
        let raw: Vec<&str> = found
            .iter()
            .filter(|v| v.message.starts_with("raw integer"))
            .map(|v| v.message.as_str())
            .collect();
        assert_eq!(raw.len(), 3, "{raw:?}");
        assert!(raw[0].contains("`9` used as a wire tag in `put`"));
        assert!(raw[1].contains("`4` used as a wire tag in `read`"));
        assert!(raw[2].contains("`5` used as a wire tag in `keyed`"));
    }

    #[test]
    fn wire_tag_table_parses_families() {
        let src = "\
macro_rules! wire_enum { ($($t:tt)*) => { x = NOT_A_TAG: 1 } }
wire_enum! { pub enum Request { Ping = REQ_PING: 0, Match { tenant: String } = REQ_MATCH: 2 } }
wire_errors! { MatchError { Decode(a) = ERR_DECODE: 0x7 } }
const OUTSIDE = STRAY: 3;
";
        let table = wire_tag_table(src);
        let names: Vec<&str> = table.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["REQ_PING", "REQ_MATCH", "ERR_DECODE"]);
        assert_eq!(table[0].family, "REQ");
        assert_eq!(table[1].value, 2);
        assert_eq!(table[2].family, "ERR");
        assert_eq!(table[2].value, 7);
        assert_eq!(table[2].line, 3);
    }

    #[test]
    fn metric_name_table_parses_consts_only() {
        let src = "\
//! Table docs.
pub const SERVER_REQUESTS: &str = \"cm_server_requests_total\";
/// Docs.
pub const HOT_BYTES: &str = \"cm_registry_hot_bytes\";
pub const NOT_A_NAME: u8 = 7;
";
        let table = metric_name_table(src);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].name, "SERVER_REQUESTS");
        assert_eq!(table[0].value, "cm_server_requests_total");
        assert_eq!(table[0].line, 2);
        assert_eq!(table[1].value, "cm_registry_hot_bytes");
    }

    #[test]
    fn metric_names_catches_duplicates_in_the_table() {
        let src = "\
pub const A: &str = \"cm_x_total\";
pub const B: &str = \"cm_y_total\";
pub const C: &str = \"cm_x_total\";
";
        let found = analyze_rust_source(super::METRIC_NAMES_FILE, src);
        assert_eq!(rules_fired(&found), [RULE_METRIC_NAMES]);
        assert!(found[0].message.contains("duplicate metric name"));
        assert_eq!(found[0].line, 3);
        // A duplicate-free table is clean.
        let clean = "pub const A: &str = \"cm_x_total\";\npub const B: &str = \"cm_y_total\";\n";
        assert!(analyze_rust_source(super::METRIC_NAMES_FILE, clean).is_empty());
    }

    #[test]
    fn metric_names_flags_adhoc_literals_outside_the_table() {
        let adhoc = "fn f(r: &MetricsRegistry) { r.register_counter(\"cm_adhoc_total\", &[]); }";
        assert_eq!(
            rules_fired(&analyze_rust_source("crates/core/src/x.rs", adhoc)),
            [RULE_METRIC_NAMES]
        );
        // Registration through the table is the blessed form.
        let blessed =
            "fn f(r: &MetricsRegistry) { r.register_gauge(metric_names::HOT_BYTES, &[]); }";
        assert!(analyze_rust_source("crates/core/src/x.rs", blessed).is_empty());
        // Label literals in the second argument are fine.
        let labels = "fn f(r: &MetricsRegistry) { \
             r.register_histogram(metric_names::LATENCY, &[(\"tag\", tag)]); }";
        assert!(analyze_rust_source("crates/core/src/x.rs", labels).is_empty());
        // Test code and test trees are exempt, like every lexical rule.
        let gated = "#[cfg(test)]\nmod tests { fn f() { r.register_counter(\"cm_t\", &[]); } }";
        assert!(analyze_rust_source("crates/core/src/x.rs", gated).is_empty());
        assert!(analyze_rust_source("crates/core/tests/x.rs", adhoc).is_empty());
    }

    #[test]
    fn manifest_rule_requires_shim_resolution() {
        let shimmed = vec!["rand".to_string(), "serde".to_string()];
        let bad = "[dependencies]\nrand = \"0.8\"\n";
        let found = analyze_manifest("crates/x/Cargo.toml", bad, &shimmed);
        assert_eq!(rules_fired(&found), [RULE_SHIM_HYGIENE]);
        let good = "[dependencies]\nrand.workspace = true\nserde = { path = \"../serde\" }\n";
        assert!(analyze_manifest("crates/x/Cargo.toml", good, &shimmed).is_empty());
        let table = "[dependencies.rand]\nversion = \"0.8\"\n";
        assert_eq!(
            rules_fired(&analyze_manifest("crates/x/Cargo.toml", table, &shimmed)),
            [RULE_SHIM_HYGIENE]
        );
        let table_ok = "[dependencies.rand]\npath = \"../../shims/rand\"\n";
        assert!(analyze_manifest("crates/x/Cargo.toml", table_ok, &shimmed).is_empty());
        // Non-shimmed crates are not the rule's business.
        let other = "[dependencies]\nlibc = \"0.2\"\n";
        assert!(analyze_manifest("crates/x/Cargo.toml", other, &shimmed).is_empty());
    }

    #[test]
    fn manifest_dependencies_are_uses_not_workspace_declarations() {
        let root = "[workspace.dependencies]\ncriterion = { path = \"shims/criterion\" }\n\
                    [dependencies]\nrand.workspace = true\n\
                    [dev-dependencies.proptest]\nworkspace = true\n";
        assert_eq!(manifest_dependencies(root), ["rand", "proptest"]);
    }

    #[test]
    fn int_literals_parse_across_radixes() {
        assert_eq!(parse_int("19"), Some(19));
        assert_eq!(parse_int("0x1F"), Some(31));
        assert_eq!(parse_int("0b101"), Some(5));
        assert_eq!(parse_int("1_000u64"), Some(1000));
        assert_eq!(parse_int("0u8"), Some(0));
    }
}
