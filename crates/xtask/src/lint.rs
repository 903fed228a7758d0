//! `cargo xtask lint` — a source-level audit of the repo-specific
//! concurrency and unsafe-code invariants the compiler cannot check:
//!
//! 1. **unsafe-comment** — every `unsafe` block / `unsafe impl` /
//!    `unsafe fn` carries a nearby `SAFETY:` comment (a `# Safety` doc
//!    section counts for declarations). Applies to the whole tree.
//! 2. **ordering-justified** — every `Ordering::SeqCst` /
//!    `Ordering::Relaxed` on the cross-thread handoff paths (the
//!    modules migrated onto the `pcnn-sync` facade) carries an
//!    `// ordering:` justification within a few lines. SeqCst is a
//!    red flag (usually a missing argument for something weaker);
//!    Relaxed is the scary one (no synchronization at all).
//! 3. **gated-intrinsics** — `std::arch`/`core::arch` intrinsics are
//!    only called inside `#[target_feature]`-annotated functions (the
//!    `tensor::simd` token pattern); `use` imports are exempt. A
//!    `// lint: allow(gated-intrinsics)` comment waives the braced
//!    item that follows it — for token-method impls whose receiver is
//!    itself the proof of CPU support (the token is only constructed
//!    behind a runtime check or inside a gated fn).
//! 4. **facade-only** — migrated modules never name `std::sync` /
//!    `std::thread` directly; `pcnn_sync` is the single seam. Escape
//!    hatch: a `// lint: allow(std-sync)` comment on the line.
//! 5. **json-writer-only** — JSON is emitted through
//!    `pcnn_runtime::json`, never hand-rolled: a string literal inside
//!    a `format!` / `write!` / `writeln!` / `push_str` call may not
//!    spell an escaped-brace object opener or a quoted key. The writer
//!    module itself and integration-test directories are exempt.
//!
//! The checks are intentionally textual (no `syn` on this offline
//! toolchain): line-oriented, comment/string aware, with `#[cfg(test)]`
//! (and `#[cfg(all(test, …))]`) regions skipped for rules 2, 4 and 5. `--fixtures` runs the audit
//! against `crates/xtask/fixtures/`, where every file carries
//! `//~ ERROR <rule>` markers, and fails unless the findings match the
//! markers exactly — the lint's own regression test.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files whose `Relaxed`/`SeqCst` orderings must be justified: the
/// concurrency-hot modules migrated onto the facade. The whole-dir
/// `crates/serve/src/` prefix covers every serving module, including
/// the forensics pair (`events.rs` — the wait-free journal ring — and
/// `incident.rs` — the black-box recorder's cooldown CAS).
const ORDERING_SCOPE: &[&str] = &[
    "crates/serve/src/",
    "crates/tensor/src/parallel.rs",
    "crates/runtime/src/profile.rs",
];

/// Files that must not name `std::sync`/`std::thread` directly.
/// `crates/sync` itself is exempt: wrapping std is its whole job.
const FACADE_SCOPE: &[&str] = &[
    "crates/serve/src/",
    "crates/tensor/src/parallel.rs",
    "crates/runtime/src/profile.rs",
];

/// The one module allowed to spell JSON syntax in string literals.
const JSON_MODULE: &str = "crates/runtime/src/json.rs";

/// Calls whose string literals the json-writer-only rule inspects.
const EMITTER_CALLS: &[&str] = &["format!(", "write!(", "writeln!(", "push_str("];

/// What a hand-rolled JSON emitter looks like in source text: an
/// escaped `{` followed by an escaped quote (an object opening inside a
/// format string), or an escaped quote followed by `:` (a quoted key).
const JSON_NEEDLES: &[&str] = &["{{\\\"", "\\\":"];

/// How many lines above a flagged line a justifying comment may sit.
const COMMENT_WINDOW: usize = 6;

const RULE_UNSAFE: &str = "unsafe-comment";
const RULE_ORDERING: &str = "ordering-justified";
const RULE_INTRINSICS: &str = "gated-intrinsics";
const RULE_FACADE: &str = "facade-only";
const RULE_JSON: &str = "json-writer-only";

pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

pub fn run(args: Vec<String>) -> ExitCode {
    let fixtures = args.iter().any(|a| a == "--fixtures");
    for a in &args {
        if a != "--fixtures" {
            eprintln!("unknown lint flag: {a}");
            return ExitCode::FAILURE;
        }
    }
    let root = repo_root();
    if fixtures {
        run_fixtures(&root)
    } else {
        run_tree(&root)
    }
}

fn repo_root() -> PathBuf {
    // xtask lives at <repo>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the repo root")
        .to_path_buf()
}

fn run_tree(root: &Path) -> ExitCode {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("src"), &mut files);
    collect_rs(&root.join("examples"), &mut files);
    files.sort();

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.starts_with("crates/xtask/fixtures/") {
            continue;
        }
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("lint: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        scanned += 1;
        violations.extend(lint_text(&rel, &text, false));
    }

    if violations.is_empty() {
        println!("xtask lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!(
            "xtask lint: {} violation(s) in {scanned} files",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

/// Self-test mode: every fixture file declares the violations the lint
/// must find via `//~ ERROR <rule>` markers on the offending lines.
fn run_fixtures(root: &Path) -> ExitCode {
    let dir = root.join("crates/xtask/fixtures");
    let mut files = Vec::new();
    collect_rs(&dir, &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!("lint --fixtures: no fixture files under {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    let mut rules_seen = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(path).expect("fixture readable");
        let found = lint_text(&rel, &text, true);
        let mut expected: Vec<(usize, String)> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if let Some(pos) = line.find("//~ ERROR ") {
                let rule = line[pos + "//~ ERROR ".len()..].trim().to_string();
                expected.push((i + 1, rule));
            }
        }
        for (line, rule) in &expected {
            if !rules_seen.contains(rule) {
                rules_seen.push(rule.clone());
            }
            if !found.iter().any(|v| v.line == *line && v.rule == rule) {
                eprintln!("fixture MISS: {rel}:{line}: expected [{rule}] not reported");
                failed = true;
            }
        }
        for v in &found {
            if !expected.iter().any(|(l, r)| *l == v.line && r == v.rule) {
                eprintln!("fixture EXTRA: {v}");
                failed = true;
            }
        }
    }
    for rule in [
        RULE_UNSAFE,
        RULE_ORDERING,
        RULE_INTRINSICS,
        RULE_FACADE,
        RULE_JSON,
    ] {
        if !rules_seen.iter().any(|r| r == rule) {
            eprintln!("fixture GAP: no fixture exercises rule [{rule}]");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "xtask lint --fixtures: all seeded violations caught across {} file(s)",
            files.len()
        );
        ExitCode::SUCCESS
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

// ---------------------------------------------------------------------
// Per-file scanning
// ---------------------------------------------------------------------

struct LineInfo {
    /// Source with comments and string/char contents blanked out.
    code: String,
    /// The `//` comment text, if any (block-comment text folded in).
    comment: String,
    /// The contents of the line's string literals, as typed.
    strings: String,
    in_test: bool,
    /// Inside the parentheses of a `format!`-family / `push_str` call.
    in_emitter: bool,
    in_tf_fn: bool,
}

fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel.starts_with(p))
}

/// Lints one file's text. `force_all_scopes` (fixtures mode) applies
/// every rule regardless of the configured path scopes.
fn lint_text(rel: &str, text: &str, force_all_scopes: bool) -> Vec<Violation> {
    let lines = scan(text);
    let mut out = Vec::new();

    let ordering_scope = force_all_scopes || in_scope(rel, ORDERING_SCOPE);
    let facade_scope = force_all_scopes || in_scope(rel, FACADE_SCOPE);
    let json_scope = force_all_scopes || !(rel == JSON_MODULE || rel.contains("/tests/"));

    for (i, info) in lines.iter().enumerate() {
        let lineno = i + 1;
        let code = info.code.as_str();

        // Rule 1: unsafe must carry a SAFETY justification.
        if mentions_unsafe(code) && !has_nearby_comment(&lines, i, &["SAFETY:", "# Safety"]) {
            out.push(Violation {
                file: PathBuf::from(rel),
                line: lineno,
                rule: RULE_UNSAFE,
                msg: "`unsafe` without a `SAFETY:` comment (or `# Safety` doc section) \
                      within the preceding lines"
                    .to_string(),
            });
        }

        // Rule 2: Relaxed/SeqCst on handoff paths must be justified.
        if ordering_scope
            && !info.in_test
            && (code.contains("Ordering::Relaxed") || code.contains("Ordering::SeqCst"))
            && !has_nearby_comment(&lines, i, &["ordering:"])
        {
            out.push(Violation {
                file: PathBuf::from(rel),
                line: lineno,
                rule: RULE_ORDERING,
                msg: "Relaxed/SeqCst on a cross-thread handoff path without an \
                      `// ordering:` justification"
                    .to_string(),
            });
        }

        // Rule 3: arch intrinsics only inside #[target_feature] fns.
        if !info.in_tf_fn && mentions_intrinsic(code) {
            out.push(Violation {
                file: PathBuf::from(rel),
                line: lineno,
                rule: RULE_INTRINSICS,
                msg: "arch intrinsic outside a `#[target_feature]`-gated fn \
                      (dispatch through the `tensor::simd` tokens)"
                    .to_string(),
            });
        }

        // Rule 5: JSON goes through the writer.
        if json_scope
            && !info.in_test
            && info.in_emitter
            && JSON_NEEDLES.iter().any(|n| info.strings.contains(n))
        {
            out.push(Violation {
                file: PathBuf::from(rel),
                line: lineno,
                rule: RULE_JSON,
                msg: "hand-rolled JSON in a format/write/push_str literal \
                      (build it with `pcnn_runtime::json`)"
                    .to_string(),
            });
        }

        // Rule 4: migrated modules go through the pcnn-sync facade.
        if facade_scope
            && !info.in_test
            && (code.contains("std::sync") || code.contains("std::thread"))
            && !info.comment.contains("lint: allow(std-sync)")
        {
            out.push(Violation {
                file: PathBuf::from(rel),
                line: lineno,
                rule: RULE_FACADE,
                msg: "direct `std::sync`/`std::thread` use in a facade-migrated module \
                      (import from `pcnn_sync`, or waive with `// lint: allow(std-sync)`)"
                    .to_string(),
            });
        }
    }
    out
}

/// `unsafe` keyword introducing a block, impl, fn, or trait — but not
/// inside identifiers or strings (code is already blanked).
fn mentions_unsafe(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + "unsafe".len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

/// An intrinsic mention: an `_mm`-prefixed identifier or an inline
/// `std::arch`/`core::arch` path. Import lines are exempt (naming an
/// intrinsic is fine; calling it outside a gated fn is not).
fn mentions_intrinsic(code: &str) -> bool {
    let trimmed = code.trim_start();
    if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
        return false;
    }
    if code.contains("std::arch") || code.contains("core::arch") {
        return true;
    }
    // `_mm…` identifiers (e.g. _mm256_fmadd_ps, _mm_loadu_ps) at a
    // token boundary.
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(pos) = code[search..].find("_mm") {
        let abs = search + pos;
        let before_ok = abs == 0 || {
            let c = bytes[abs - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok {
            return true;
        }
        search = abs + 3;
    }
    false
}

/// Looks for any of `needles` in the comments on line `i` or the
/// `COMMENT_WINDOW` lines above it.
fn has_nearby_comment(lines: &[LineInfo], i: usize, needles: &[&str]) -> bool {
    let lo = i.saturating_sub(COMMENT_WINDOW);
    lines[lo..=i]
        .iter()
        .any(|l| needles.iter().any(|n| l.comment.contains(n)))
}

/// Comment/string-aware per-line scan plus `#[cfg(test)]` and
/// `#[target_feature]` region tracking.
fn scan(text: &str) -> Vec<LineInfo> {
    let mut infos: Vec<LineInfo> = Vec::new();
    let mut in_block_comment = false;
    let mut in_string = false;
    for raw in text.lines() {
        let (code, comment, strings, still_in_block, still_in_string) =
            split_line(raw, in_block_comment, in_string);
        in_block_comment = still_in_block;
        in_string = still_in_string;
        infos.push(LineInfo {
            code,
            comment,
            strings,
            in_test: false,
            in_emitter: false,
            in_tf_fn: false,
        });
    }
    mark_emitter_calls(&mut infos);
    mark_regions(&mut infos, "#[cfg(test)]", false, |l, v| l.in_test = v);
    mark_regions(&mut infos, "#[cfg(all(test", false, |l, v| l.in_test = v);
    mark_regions(&mut infos, "#[target_feature", false, |l, v| l.in_tf_fn = v);
    // The token-impl escape hatch: a waived region counts as gated.
    mark_regions(&mut infos, "lint: allow(gated-intrinsics)", true, |l, v| {
        l.in_tf_fn = v
    });
    infos
}

/// Marks every line from an emitter call's opening parenthesis to its
/// matching close (parentheses are counted on blanked code, so the
/// ones inside string literals do not count).
fn mark_emitter_calls(infos: &mut [LineInfo]) {
    let mut depth = 0usize;
    for info in infos {
        let mut rest = info.code.as_str();
        if depth == 0 {
            let Some(at) = EMITTER_CALLS.iter().filter_map(|c| rest.find(c)).min() else {
                continue;
            };
            rest = &rest[at..];
        }
        info.in_emitter = true;
        for c in rest.chars() {
            match c {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
}

/// Marks the braced item following each `marker` line (attribute runs
/// and doc comments between the marker and the item are included).
/// `in_comment` selects whether the marker is looked for in code
/// (attributes) or in comment text (lint waivers).
fn mark_regions(
    infos: &mut [LineInfo],
    marker: &str,
    in_comment: bool,
    set: impl Fn(&mut LineInfo, bool),
) {
    let mut i = 0;
    while i < infos.len() {
        let hay = if in_comment {
            &infos[i].comment
        } else {
            &infos[i].code
        };
        if !hay.contains(marker) {
            i += 1;
            continue;
        }
        // Find the opening brace of the item this attribute decorates.
        let mut j = i;
        let mut depth = 0i32;
        let mut opened = false;
        while j < infos.len() {
            for c in infos[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    // An item ending before any brace (e.g. a gated
                    // `fn` *declaration* `…;`) has no body to mark.
                    _ => {}
                }
            }
            set(&mut infos[j], true);
            if opened && depth <= 0 {
                break;
            }
            // A semicolon at depth 0 before any brace ends a bodyless
            // item (extern fn decl, use, const).
            if !opened && infos[j].code.trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Splits one raw line into blanked code and extracted comment text,
/// tracking block comments *and string literals* across lines (a
/// multi-line string continues on the next line, with or without a
/// trailing `\`). String and char-literal contents are blanked in the
/// code part so their bytes never trigger rules.
fn split_line(
    raw: &str,
    mut in_block: bool,
    mut in_str: bool,
) -> (String, String, String, bool, bool) {
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let mut strings = String::new();
    let bytes: Vec<char> = raw.chars().collect();
    let mut i = 0;
    let n = bytes.len();
    while i < n {
        let c = bytes[i];
        if in_block {
            if c == '*' && i + 1 < n && bytes[i + 1] == '/' {
                in_block = false;
                i += 2;
            } else {
                comment.push(c);
                i += 1;
            }
            continue;
        }
        if in_str {
            if c == '\\' {
                code.push(' ');
                strings.extend(&bytes[i..(i + 2).min(n)]);
                i += 2;
                continue;
            }
            if c == '"' {
                in_str = false;
                code.push('"');
            } else {
                code.push(' ');
                strings.push(c);
            }
            i += 1;
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                code.push('"');
                i += 1;
            }
            '\'' => {
                // Char literal ('x', '\n', '"'); lifetimes ('a) fall
                // through untouched.
                if i + 2 < n && bytes[i + 1] == '\\' {
                    // escaped char literal: skip to closing quote
                    let mut j = i + 2;
                    while j < n && bytes[j] != '\'' {
                        j += 1;
                    }
                    code.push_str("' '");
                    i = (j + 1).min(n);
                } else if i + 2 < n && bytes[i + 2] == '\'' {
                    code.push_str("' '");
                    i += 3;
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                comment.extend(&bytes[i..]);
                break;
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                in_block = true;
                i += 2;
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }
    (code, comment, strings, in_block, in_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, text: &str) -> Vec<Violation> {
        lint_text(rel, text, false)
    }

    #[test]
    fn split_strips_comments_and_strings() {
        let (code, comment, strings, inb, ins) =
            split_line(r#"let x = "unsafe // no"; // SAFETY: yes"#, false, false);
        assert!(!inb);
        assert!(!ins);
        assert!(!code.contains("unsafe"));
        assert!(comment.contains("SAFETY: yes"));
        assert_eq!(strings, "unsafe // no");
    }

    #[test]
    fn multiline_string_contents_do_not_trigger_rules() {
        // `unsafe` on a continuation line of a multi-line string
        // literal (e.g. a usage/help message) is data, not code.
        let text = "fn f() {\n    eprintln!(\n        \"help:\\n\\\n         lint   audit unsafe invariants\\n\\\n         more   unsafe text\"\n    );\n}\n";
        let v = lint("crates/foo/src/lib.rs", text);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unsafe_without_comment_flagged() {
        let v = lint(
            "crates/foo/src/lib.rs",
            "fn f() {\n    let x = unsafe { g() };\n}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_UNSAFE);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_with_comment_ok() {
        let v = lint(
            "crates/foo/src/lib.rs",
            "fn f() {\n    // SAFETY: g has no preconditions here\n    let x = unsafe { g() };\n}\n",
        );
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unsafe_fn_with_safety_doc_ok() {
        let v = lint(
            "crates/foo/src/lib.rs",
            "/// # Safety\n/// caller checks CPUID\npub unsafe fn g() {}\n",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn unjustified_ordering_flagged_in_scope_only() {
        let text = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        assert_eq!(lint("crates/serve/src/queue.rs", text).len(), 1);
        assert!(lint("crates/nn/src/lib.rs", text).is_empty());
    }

    #[test]
    fn justified_ordering_ok() {
        let text = "fn f(a: &AtomicU64) {\n    // ordering: monotone counter, readers tolerate lag\n    a.load(Ordering::Relaxed);\n}\n";
        assert!(lint("crates/serve/src/queue.rs", text).is_empty());
    }

    #[test]
    fn ordering_in_tests_exempt() {
        let text = "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}\n";
        assert!(lint("crates/serve/src/queue.rs", text).is_empty());
    }

    #[test]
    fn intrinsic_outside_gated_fn_flagged() {
        let text = "fn f(a: __m256) -> __m256 {\n    _mm256_add_ps(a, a)\n}\n";
        let v = lint("crates/tensor/src/simd.rs", text);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_INTRINSICS);
    }

    #[test]
    fn intrinsic_inside_gated_fn_ok() {
        let text = "#[target_feature(enable = \"avx2\")]\nunsafe fn f(a: __m256) -> __m256 {\n    // SAFETY: caller proves avx2 via token\n    _mm256_add_ps(a, a)\n}\n";
        let v = lint("crates/foo/src/lib.rs", text);
        assert!(
            v.iter().all(|v| v.rule != RULE_INTRINSICS),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn intrinsic_waiver_region_exempts_token_impl() {
        let text = "// lint: allow(gated-intrinsics) — the token is the gate\nimpl SimdToken for Tok {\n    fn add(self, a: __m256) -> __m256 {\n        _mm256_add_ps(a, a)\n    }\n}\nfn outside(a: __m256) -> __m256 {\n    _mm256_add_ps(a, a)\n}\n";
        let v = lint("crates/foo/src/lib.rs", text);
        let hits: Vec<usize> = v
            .iter()
            .filter(|v| v.rule == RULE_INTRINSICS)
            .map(|v| v.line)
            .collect();
        assert_eq!(hits, vec![8], "only the un-waived fn is flagged");
    }

    #[test]
    fn cfg_all_test_region_is_a_test_region() {
        // `#[cfg(all(test, feature = "model-check"))]` modules are test
        // code: exempt from the ordering and facade rules like plain
        // `#[cfg(test)]`.
        let text = "#[cfg(all(test, feature = \"model-check\"))]\nmod model_tests {\n    use std::thread;\n    fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}\n";
        let v = lint("crates/serve/src/queue.rs", text);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn arch_import_exempt() {
        let text = "use std::arch::x86_64::*;\n";
        assert!(lint("crates/tensor/src/simd.rs", text).is_empty());
    }

    #[test]
    fn raw_std_sync_flagged_and_waivable() {
        let bad = "use std::sync::Mutex;\n";
        assert_eq!(lint("crates/serve/src/queue.rs", bad).len(), 1);
        let waived = "use std::sync::Mutex; // lint: allow(std-sync) — seed for model history\n";
        assert!(lint("crates/serve/src/queue.rs", waived).is_empty());
        assert!(lint("crates/runtime/src/quant_kernels.rs", bad).is_empty());
    }

    #[test]
    fn hand_rolled_json_flagged_in_emitter_calls_only() {
        let key = "fn f(v: u64) -> String {\n    format!(\n        \"\\\"calls\\\":{}\",\n        v\n    )\n}\n";
        let v = lint("crates/serve/src/trace.rs", key);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), (RULE_JSON, 3));
        let opener = "fn f(o: &mut String) { o.push_str(\"{{\\\"a\"); }\n";
        assert_eq!(lint("examples/demo.rs", opener).len(), 1);
        // The same literals outside an emitter call (a test-style
        // `contains` probe), in a Prometheus label set, in the writer
        // module, in test code, or in an integration test are fine.
        let probe = "fn f(j: &str) -> bool { j.contains(\"\\\"calls\\\":3\") }\n";
        assert!(lint("crates/serve/src/trace.rs", probe).is_empty());
        let prom = "fn f(o: &mut String, i: u8) { write!(o, \"x{{shard=\\\"{i}\\\"}} 1\"); }\n";
        assert!(lint("crates/serve/src/metrics.rs", prom).is_empty());
        assert!(lint("crates/runtime/src/json.rs", key).is_empty());
        assert!(lint("crates/serve/tests/golden_json.rs", key).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{key}}}\n");
        assert!(lint("crates/serve/src/trace.rs", &in_test).is_empty());
    }

    #[test]
    fn fixtures_force_all_scopes() {
        let text = "use std::sync::Mutex;\n";
        assert_eq!(lint_text("crates/xtask/fixtures/x.rs", text, true).len(), 1);
    }
}
