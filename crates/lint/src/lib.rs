//! # qf-lint
//!
//! A dependency-free static analyzer for the QuantileFilter workspace,
//! driven by `cargo xtask lint`. It enforces the conventions that keep the
//! reproduction honest but that `rustc`/clippy cannot see:
//!
//! * **`QF-L001` panic-free surface** — no `.unwrap()`/`.expect()`/
//!   `todo!`/`unimplemented!` in non-test library code; explicit `panic!`
//!   only inside functions documenting `# Panics`.
//! * **`QF-L002` hot-path hygiene** — no allocation or clock reads in the
//!   per-item modules (`filter.rs`, `count_sketch.rs`, `counter.rs`)
//!   outside cold constructors/codecs.
//! * **`QF-L004` saturating counters** — sketch/candidate counter fields
//!   only move through saturating/clamping arithmetic (§III-B's
//!   overflow-reversal guard).
//! * **`QF-L005` wire-format versioning** — a committed fingerprint of the
//!   snapshot encoder sources must match, and must be re-blessed together
//!   with a `SNAPSHOT_VERSION` bump whenever the encoding changes.
//! * **`QF-L006` trace pairing** — every item-level
//!   `#[cfg(feature = "trace")]` has a `#[cfg(not(feature = "trace"))]`
//!   twin in the same file, so the flight-recorder build and the default
//!   build expose the same surface and the default build never loses a
//!   symbol. (`QF-L003`, the same check for a retired feature, is gone.)
//! * **`QF-L007` atomics discipline** — every atomic field/static
//!   declares its protocol with a `// sync:` annotation (`counter`,
//!   `release-acquire`, `guarded-by <word>`, `seqcst-handshake`), and
//!   every load/store/RMW ordering is cross-checked against it; the
//!   reviewed escape hatch is a trailing `// sync: relaxed-ok — reason`.
//!
//! The analyzer is deliberately *syn-less*: a [`model`] lexer blanks
//! comments and string contents, tracks `#[cfg(test)]` regions, and
//! attributes lines to enclosing functions — enough for every rule to be a
//! few lines of direct pattern logic with `file:line` spans, with zero
//! build-time cost on a bare toolchain.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fingerprint;
pub mod model;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use model::SourceFile;

/// One finding, with a clickable `path:line` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`QF-L001` …).
    pub rule: &'static str,
    pub path: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Run every rule over the workspace rooted at `root`.
///
/// Library sources are every `.rs` file under `crates/*/src` and the
/// umbrella `src/`, excluding `src/bin` CLI entry points, `vendor/`
/// stand-ins, and build output.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut diagnostics = Vec::new();
    // Parse everything up front: QF-L007 resolves atomics declared in
    // one file but used in another, so it needs the whole workspace.
    let mut files = Vec::new();
    for path in lib_sources(root)? {
        files.push(SourceFile::read(&path)?);
    }
    for file in &files {
        rules::rule_panic_free(file, &mut diagnostics);
        rules::rule_hot_path(file, &mut diagnostics);
        rules::rule_trace_pairing(file, &mut diagnostics);
        rules::rule_counter_arithmetic(file, &mut diagnostics);
    }
    rules::rule_atomics_discipline(&files, &mut diagnostics);
    check_wire_format(root, &mut diagnostics)?;
    diagnostics.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(diagnostics)
}

/// Rule `QF-L005` against the committed record.
fn check_wire_format(root: &Path, out: &mut Vec<Diagnostic>) -> std::io::Result<()> {
    let record_path = fingerprint::record_path(root);
    let record_text = match std::fs::read_to_string(&record_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            out.push(Diagnostic {
                rule: "QF-L005",
                path: record_path,
                line: 1,
                message: "missing committed fingerprint record; run `cargo xtask lint --bless`"
                    .into(),
            });
            return Ok(());
        }
        Err(e) => return Err(e),
    };
    let record = match fingerprint::parse_record(&record_text) {
        Ok(r) => r,
        Err(msg) => {
            out.push(Diagnostic {
                rule: "QF-L005",
                path: record_path,
                line: 1,
                message: msg,
            });
            return Ok(());
        }
    };
    let computed = fingerprint::compute(root)?;
    let source_version = fingerprint::source_version(root)?;
    if let Some(message) =
        rules::check_fingerprint(computed, source_version, record.version, record.fingerprint)
    {
        out.push(Diagnostic {
            rule: "QF-L005",
            path: root.join(fingerprint::WIRE_FORMAT_SOURCES[0]),
            line: 1,
            message,
        });
    }
    Ok(())
}

/// Recompute and rewrite the committed wire-format record.
pub fn bless(root: &Path) -> std::io::Result<fingerprint::FpRecord> {
    let computed = fingerprint::compute(root)?;
    let version = fingerprint::source_version(root)?.unwrap_or(0);
    let record = fingerprint::FpRecord {
        version,
        fingerprint: computed,
    };
    std::fs::write(
        fingerprint::record_path(root),
        fingerprint::render_record(record),
    )?;
    Ok(record)
}

/// Enumerate the library sources to lint.
fn lib_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        collect_rs(&umbrella, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // `src/bin` holds CLI entry points: argument parsing there may
            // use expect-style ergonomics and is outside the lint surface.
            if path.file_name().and_then(|n| n.to_str()) == Some("bin") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Seeded-violation self-test: feed each rule a known-bad snippet and a
/// known-good twin, and fail loudly if any rule stays silent (or
/// misfires). This is the linter's own regression gate — `cargo xtask
/// lint --self-test` runs it in CI so a refactor of the lexer can never
/// silently blind a rule.
pub fn self_test() -> Result<(), Vec<String>> {
    let mut failures = Vec::new();
    let mut case = |name: &str,
                    rule: fn(&SourceFile, &mut Vec<Diagnostic>),
                    file_name: &str,
                    src: &str,
                    expect_hits: bool| {
        let file = SourceFile::parse(format!("crates/{file_name}"), src);
        let mut out = Vec::new();
        rule(&file, &mut out);
        if out.is_empty() == expect_hits {
            failures.push(format!(
                "{name}: expected {} diagnostics, got {}",
                if expect_hits { "some" } else { "no" },
                out.len()
            ));
        }
    };

    case(
        "L001 seeded unwrap",
        rules::rule_panic_free,
        "fake/src/lib.rs",
        "fn f() {\n    let v = x.unwrap();\n}\n",
        true,
    );
    case(
        "L001 test-only unwrap stays legal",
        rules::rule_panic_free,
        "fake/src/lib.rs",
        "#[cfg(test)]\nmod tests {\n    fn t() {\n        x.unwrap();\n    }\n}\n",
        false,
    );
    case(
        "L001 undocumented panic",
        rules::rule_panic_free,
        "fake/src/lib.rs",
        "fn f() {\n    panic!(\"boom\");\n}\n",
        true,
    );
    case(
        "L001 documented panic stays legal",
        rules::rule_panic_free,
        "fake/src/lib.rs",
        "/// # Panics\nfn f() {\n    panic!(\"boom\");\n}\n",
        false,
    );
    case(
        "L002 seeded hot-path allocation",
        rules::rule_hot_path,
        "core/src/filter.rs",
        "fn insert(&mut self) {\n    let s = format!(\"{x}\");\n}\n",
        true,
    );
    case(
        "L002 cold constructor stays legal",
        rules::rule_hot_path,
        "sketch/src/count_sketch.rs",
        "fn new() -> Self {\n    let cells = Vec::with_capacity(n);\n}\n",
        false,
    );
    case(
        "L002 seeded clock read",
        rules::rule_hot_path,
        "sketch/src/counter.rs",
        "fn tick(&mut self) {\n    let t = std::time::Instant::now();\n}\n",
        true,
    );
    case(
        "L006 seeded unpaired trace gate",
        rules::rule_trace_pairing,
        "pipeline/src/flight.rs",
        "#[cfg(feature = \"trace\")]\nmod imp {\n    fn go() {}\n}\n",
        true,
    );
    case(
        "L006 paired trace gate stays legal",
        rules::rule_trace_pairing,
        "pipeline/src/flight.rs",
        "#[cfg(feature = \"trace\")]\nmod imp {\n}\n#[cfg(not(feature = \"trace\"))]\nmod imp {\n}\n",
        false,
    );
    case(
        "L004 seeded raw counter arithmetic",
        rules::rule_counter_arithmetic,
        "sketch/src/count_min.rs",
        "fn add(&mut self) {\n    self.cells[i] += 1;\n}\n",
        true,
    );
    case(
        "L004 saturating update stays legal",
        rules::rule_counter_arithmetic,
        "sketch/src/count_min.rs",
        "fn add(&mut self) {\n    *cell = cell.saturating_add_i64(delta);\n}\n",
        false,
    );

    // L005 verdict table, exercised as pure logic.
    if rules::check_fingerprint(1, Some(2), 2, 1).is_some() {
        failures.push("L005 clean state misreported".into());
    }
    if rules::check_fingerprint(9, Some(2), 2, 1).is_none() {
        failures.push("L005 missed an unbumped wire-format change".into());
    }

    // L007 takes the whole workspace (cross-file declaration lookup), so
    // it gets its own slice-shaped harness.
    let mut case7 = |name: &str, src: &str, expect_hits: bool| {
        let file = SourceFile::parse("crates/fake/src/lib.rs", src);
        let mut out = Vec::new();
        rules::rule_atomics_discipline(std::slice::from_ref(&file), &mut out);
        if out.is_empty() == expect_hits {
            failures.push(format!(
                "{name}: expected {} diagnostics, got {} ({:?})",
                if expect_hits { "some" } else { "no" },
                out.len(),
                out.iter().map(|d| &d.message).collect::<Vec<_>>(),
            ));
        }
    };
    case7(
        "L007 seeded unannotated atomic field",
        "struct S {\n    head: AtomicU64,\n}\n",
        true,
    );
    case7(
        "L007 annotated counter stays legal",
        "struct S {\n    // sync: counter — test word\n    head: AtomicU64,\n}\nfn f(s: &S) {\n    s.head.fetch_add(1, Ordering::Relaxed);\n}\n",
        false,
    );
    case7(
        "L007 seeded acquire on a counter word",
        "struct S {\n    // sync: counter — test word\n    head: AtomicU64,\n}\nfn f(s: &S) {\n    let _ = s.head.load(Ordering::Acquire);\n}\n",
        true,
    );
    case7(
        "L007 seeded relaxed publish on a release-acquire word",
        "struct S {\n    // sync: release-acquire — publishes the payload\n    tail: AtomicUsize,\n}\nfn f(s: &S) {\n    s.tail.store(1, Ordering::Relaxed);\n}\n",
        true,
    );
    case7(
        "L007 justified relaxed load stays legal",
        "struct S {\n    // sync: release-acquire — publishes the payload\n    tail: AtomicUsize,\n}\nfn f(s: &S) {\n    let _ = s.tail.load(Ordering::Relaxed); // sync: relaxed-ok — producer-owned word\n}\n",
        false,
    );
    case7(
        "L007 seeded unknown protocol name",
        "struct S {\n    // sync: vibes — hope for the best\n    head: AtomicU64,\n}\n",
        true,
    );

    // Lexer regression gate: raw strings and char literals must blank
    // cleanly, or every pattern rule above silently goes blind.
    let raw_str = "fn f() {\n    let s = r#\"x.unwrap() and \"quoted\"\"#;\n    let b = br#\"panic!(\"no\")\"#;\n    let nl = '\\n';\n    work();\n}\nfn g() {\n    tail();\n}\n";
    let parsed = model::SourceFile::parse("crates/fake/src/lib.rs", raw_str);
    if parsed.lines[1].code.contains("unwrap") || parsed.lines[2].code.contains("panic") {
        failures.push("lexer: raw-string contents leaked into code text".into());
    }
    if parsed.lines.len() != raw_str.lines().count() {
        failures.push("lexer: line structure lost while blanking literals".into());
    }
    if !matches!(parsed.lines.get(7), Some(l) if l.fn_name.as_deref() == Some("g")) {
        failures.push("lexer: char-literal/raw-string blanking skewed fn attribution".into());
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        if let Err(failures) = self_test() {
            panic!("self-test failures: {failures:?}");
        }
    }

    #[test]
    fn diagnostics_render_with_spans() {
        let d = Diagnostic {
            rule: "QF-L001",
            path: PathBuf::from("crates/core/src/filter.rs"),
            line: 42,
            message: "example".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/core/src/filter.rs:42: [QF-L001] example"
        );
    }
}
