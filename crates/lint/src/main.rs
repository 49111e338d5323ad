//! `asrs-lint` — the workspace's dependency-free source lint.
//!
//! Three policies, chosen because each has silently regressed (or could)
//! without a structural gate:
//!
//! 1. **Panic freedom** in the serving stack: non-test code in
//!    `crates/core`, `crates/server` and `crates/persist` may not call
//!    `unwrap` / `expect` / `panic!` / `unreachable!` / `todo!` /
//!    `unimplemented!`.  A call that is genuinely unreachable or whose
//!    failure is unrecoverable-by-design carries a same-line or
//!    preceding-line `// lint:allow(reason)` escape; escapes are counted
//!    against a budget so the allowlist cannot quietly grow.
//! 2. **`#![forbid(unsafe_code)]`** in every first-party crate's entry
//!    point: the whole workspace is safe Rust and stays that way.
//! 3. **Exhaustive error mapping**: every `AsrsError` variant must appear
//!    in the server's `status_for` HTTP mapping, so a new engine error
//!    can never fall through to a default arm with the wrong status.
//! 4. **Lock-order discipline** (via `asrs-interlock`): every `Mutex` /
//!    `RwLock` acquisition in the serving stack must fit the committed
//!    acquisition-order manifest `crates/interlock/LOCK_ORDER.md` — no
//!    order cycles, no guards held across blocking I/O or `publish`
//!    without a budgeted `// interlock:allow(reason)`, no guard scopes
//!    outliving their last use.  `--update-lock-order` regenerates the
//!    manifest after a reviewed protocol change.
//!
//! No external dependencies (std plus the first-party `asrs-interlock`
//! analysis library), so `cargo run -p asrs-lint` works in the most
//! minimal CI image.  Exit code 0 when clean, 1 with findings.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose non-test code must be panic-free (rule 1).
const PANIC_FREE_CRATES: &[&str] = &["crates/core", "crates/server", "crates/persist"];

/// The forbidden call tokens of rule 1.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Ceiling on `lint:allow` escapes across the panic-free crates.  Raising
/// it is a reviewed change to this file, not a drive-by comment.
const ALLOW_BUDGET: usize = 32;

/// First-party crates whose entry point must carry
/// `#![forbid(unsafe_code)]` (rule 2).
const CRATES: &[&str] = &[
    "crates/geo",
    "crates/data",
    "crates/aggregator",
    "crates/core",
    "crates/baseline",
    "crates/persist",
    "crates/interlock",
    "crates/lint",
    "crates/bench",
    "crates/server",
    "crates/suite",
];

#[derive(Debug)]
struct Finding {
    file: PathBuf,
    line: usize,
    message: String,
}

/// One source line split into code (string literals blanked out) and the
/// text of its trailing `//` comment, with block comments removed by the
/// caller's carried state.
fn split_line(line: &str, in_block_comment: &mut bool) -> (String, String) {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if *in_block_comment {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                *in_block_comment = false;
            }
            continue;
        }
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                // Leave a placeholder so ".expect(" inside a string can
                // never line up across the blank.
                code.push('\u{0}');
            }
            '\'' => {
                // A char literal ('x' or '\x'); lifetimes ('a without a
                // closing quote) pass through untouched.
                let mut lookahead = chars.clone();
                let is_char_literal = match lookahead.next() {
                    Some('\\') => {
                        let _ = lookahead.next();
                        lookahead.next() == Some('\'')
                    }
                    Some(_) => lookahead.next() == Some('\''),
                    None => false,
                };
                if is_char_literal {
                    chars = lookahead;
                    code.push('\u{0}');
                } else {
                    code.push(c);
                }
            }
            '/' if chars.peek() == Some(&'/') => {
                comment = chars.collect::<String>();
                break;
            }
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                *in_block_comment = true;
            }
            _ => code.push(c),
        }
    }
    (code, comment)
}

fn net_braces(code: &str) -> i64 {
    let mut net = 0;
    for c in code.chars() {
        match c {
            '{' => net += 1,
            '}' => net -= 1,
            _ => {}
        }
    }
    net
}

/// Rule 1 over one file: forbidden calls outside `#[cfg(test)]` scopes,
/// honoring `lint:allow`.  Returns (findings, allows_used).
fn scan_panic_tokens(path: &Path, source: &str) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut allows = 0usize;
    let mut in_block_comment = false;
    let mut depth = 0i64;
    // Depth at which a #[cfg(test)] item opened; everything at or below
    // is test code.  Also set when the cfg attribute itself was seen but
    // its item has not opened a brace yet.
    let mut test_scope: Option<i64> = None;
    let mut cfg_test_pending = false;
    let mut previous_allow = false;

    for (number, raw) in source.lines().enumerate() {
        let (code, comment) = split_line(raw, &mut in_block_comment);
        let allow_here = comment.contains("lint:allow(");
        let trimmed = code.trim();

        if test_scope.is_none() && trimmed.contains("#[cfg(test)]") {
            cfg_test_pending = true;
        }
        let opens = code.contains('{');
        if cfg_test_pending && opens && test_scope.is_none() {
            test_scope = Some(depth);
            cfg_test_pending = false;
        }
        let in_test = test_scope.is_some() || cfg_test_pending || trimmed.contains("#[cfg(test)]");

        if !in_test {
            for token in PANIC_TOKENS {
                if !code.contains(token) {
                    continue;
                }
                if allow_here || previous_allow {
                    allows += 1;
                } else {
                    findings.push(Finding {
                        file: path.to_path_buf(),
                        line: number + 1,
                        message: format!(
                            "forbidden call `{}` without a `// lint:allow(reason)` escape",
                            token.trim_matches(|c| c == '.' || c == '(')
                        ),
                    });
                }
            }
        }

        depth += net_braces(&code);
        if let Some(at) = test_scope {
            if depth <= at {
                test_scope = None;
            }
        }
        // An allow on a line of its own covers the next line.
        previous_allow = allow_here && trimmed.is_empty();
    }
    (findings, allows)
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Rule 3: the variant names of `pub enum AsrsError`.
fn asrs_error_variants(source: &str) -> Vec<String> {
    let mut variants = Vec::new();
    let mut in_enum = false;
    let mut depth = 0i64;
    let mut in_block_comment = false;
    for raw in source.lines() {
        let (code, _) = split_line(raw, &mut in_block_comment);
        if !in_enum {
            if code.contains("pub enum AsrsError") {
                in_enum = true;
                depth = net_braces(&code);
            }
            continue;
        }
        if depth == 1 {
            let trimmed = code.trim();
            if let Some(first) = trimmed.chars().next() {
                if first.is_ascii_uppercase() {
                    let name: String = trimmed
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric())
                        .collect();
                    if !name.is_empty() {
                        variants.push(name);
                    }
                }
            }
        }
        depth += net_braces(&code);
        if depth <= 0 {
            break;
        }
    }
    variants
}

/// Rule 3: the `AsrsError::…` variants matched inside `fn status_for`.
fn status_for_arms(source: &str) -> Vec<String> {
    let mut arms = Vec::new();
    let mut in_fn = false;
    let mut depth = 0i64;
    let mut in_block_comment = false;
    for raw in source.lines() {
        let (code, _) = split_line(raw, &mut in_block_comment);
        if !in_fn {
            if code.contains("fn status_for") {
                in_fn = true;
                depth = net_braces(&code);
            }
            continue;
        }
        let mut rest = code.as_str();
        while let Some(at) = rest.find("AsrsError::") {
            rest = &rest[at + "AsrsError::".len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !name.is_empty() {
                arms.push(name);
            }
        }
        depth += net_braces(&code);
        if depth <= 0 {
            break;
        }
    }
    arms
}

fn run(root: &Path) -> Result<(Vec<Finding>, String), String> {
    let mut findings = Vec::new();
    let mut summary = String::new();

    // Rule 1: panic freedom.
    let mut total_allows = 0usize;
    let mut scanned = 0usize;
    for krate in PANIC_FREE_CRATES {
        let src = root.join(krate).join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files).map_err(|e| format!("walking {}: {e}", src.display()))?;
        for file in files {
            let source = std::fs::read_to_string(&file)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            // The deterministic-schedule checker only compiles under
            // `--features model` and asserts by design; panic freedom
            // is a serving-stack policy, not a test-harness one.
            if source
                .lines()
                .take(60)
                .any(|l| l.trim() == "#![cfg(feature = \"model\")]")
            {
                continue;
            }
            let (mut found, allows) = scan_panic_tokens(&file, &source);
            findings.append(&mut found);
            total_allows += allows;
            scanned += 1;
        }
    }
    let _ = writeln!(
        summary,
        "panic-freedom: {scanned} files scanned, {total_allows}/{ALLOW_BUDGET} allow escapes used"
    );
    if total_allows > ALLOW_BUDGET {
        findings.push(Finding {
            file: root.join("crates/lint/src/main.rs"),
            line: 0,
            message: format!(
                "lint:allow budget exceeded: {total_allows} escapes, budget {ALLOW_BUDGET}"
            ),
        });
    }

    // Rule 2: forbid(unsafe_code) in every crate entry point.
    let mut entries = 0usize;
    for krate in CRATES {
        let dir = root.join(krate).join("src");
        for entry in ["lib.rs", "main.rs"] {
            let path = dir.join(entry);
            if !path.exists() {
                continue;
            }
            entries += 1;
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            if !source.contains("#![forbid(unsafe_code)]") {
                findings.push(Finding {
                    file: path,
                    line: 1,
                    message: "crate entry point lacks #![forbid(unsafe_code)]".to_string(),
                });
            }
        }
    }
    let _ = writeln!(
        summary,
        "unsafe-freedom: {entries} crate entry points checked"
    );

    // Rule 3: exhaustive AsrsError -> HTTP status mapping.
    let error_rs = root.join("crates/core/src/error.rs");
    let server_rs = root.join("crates/server/src/server.rs");
    let variants = asrs_error_variants(
        &std::fs::read_to_string(&error_rs)
            .map_err(|e| format!("reading {}: {e}", error_rs.display()))?,
    );
    let arms = status_for_arms(
        &std::fs::read_to_string(&server_rs)
            .map_err(|e| format!("reading {}: {e}", server_rs.display()))?,
    );
    if variants.is_empty() {
        findings.push(Finding {
            file: error_rs.clone(),
            line: 0,
            message: "could not locate any AsrsError variants (lint parser drifted?)".to_string(),
        });
    }
    for variant in &variants {
        if !arms.iter().any(|a| a == variant) {
            findings.push(Finding {
                file: server_rs.clone(),
                line: 0,
                message: format!(
                    "AsrsError::{variant} is not mapped in status_for; every engine error needs an explicit HTTP status"
                ),
            });
        }
    }
    let _ = writeln!(
        summary,
        "error-mapping: {}/{} AsrsError variants mapped in status_for",
        variants
            .iter()
            .filter(|v| arms.iter().any(|a| &a == v))
            .count(),
        variants.len()
    );

    // Rule 4: lock-order discipline (asrs-interlock).
    let report = asrs_interlock::analyze(root)?;
    for finding in report.findings {
        findings.push(Finding {
            file: finding.file,
            line: finding.line,
            message: format!("[{}] {}", finding.category, finding.message),
        });
    }
    let _ = writeln!(
        summary,
        "lock-order: {} locks, {} sites, {} edges, {}/{} interlock:allow escapes used",
        report.lock_count,
        report.site_count,
        report.edge_count,
        report.allows_used,
        asrs_interlock::ALLOW_BUDGET
    );

    Ok((findings, summary))
}

fn main() -> ExitCode {
    // The binary runs from anywhere inside the workspace: walk up to the
    // directory holding the workspace Cargo.toml.
    let mut root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    while !root.join("crates/core/src/lib.rs").exists() {
        if !root.pop() {
            eprintln!("asrs-lint: not inside the ASRS workspace");
            return ExitCode::from(2);
        }
    }

    if std::env::args().any(|a| a == "--update-lock-order") {
        return match asrs_interlock::update_manifest(&root) {
            Ok(_) => {
                println!(
                    "asrs-lint: wrote {}",
                    root.join(asrs_interlock::MANIFEST_PATH).display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("asrs-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    match run(&root) {
        Ok((findings, summary)) => {
            print!("{summary}");
            if findings.is_empty() {
                println!("asrs-lint: clean");
                ExitCode::SUCCESS
            } else {
                for f in &findings {
                    println!("{}:{}: {}", f.file.display(), f.line, f.message);
                }
                println!("asrs-lint: {} finding(s)", findings.len());
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("asrs-lint: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_inside_strings_and_comments_do_not_count() {
        let source = r#"
fn f() {
    let s = "please .unwrap() me";
    // a comment mentioning .unwrap()
    let t = s.len();
}
"#;
        let (findings, allows) = scan_panic_tokens(Path::new("x.rs"), source);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(allows, 0);
    }

    #[test]
    fn real_unwraps_are_flagged_and_allows_are_counted() {
        let source = r#"
fn f(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    let b = v.expect("msg"); // lint:allow(justified)
    a + b
}
"#;
        let (findings, allows) = scan_panic_tokens(Path::new("x.rs"), source);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
        assert_eq!(allows, 1);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let source = r#"
fn real() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::real(), 1);
        let v: Option<u32> = Some(2);
        v.unwrap();
    }
}
"#;
        let (findings, _) = scan_panic_tokens(Path::new("x.rs"), source);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn enum_and_match_parsers_agree_on_a_miniature() {
        let error = r#"
pub enum AsrsError {
    /// doc
    EmptyDataset,
    DeadlineExceeded {
        budget: u64,
    },
    Query(String),
}
"#;
        let server = r#"
pub fn status_for(error: &AsrsError) -> (u16, &'static str) {
    match error {
        AsrsError::DeadlineExceeded { .. } => (408, "deadline-exceeded"),
        AsrsError::EmptyDataset => (400, "empty-dataset"),
        AsrsError::Query(_) => (400, "invalid-query"),
    }
}
"#;
        let variants = asrs_error_variants(error);
        assert_eq!(variants, vec!["EmptyDataset", "DeadlineExceeded", "Query"]);
        let arms = status_for_arms(server);
        for v in &variants {
            assert!(arms.contains(v), "{v} missing from {arms:?}");
        }
    }
}
