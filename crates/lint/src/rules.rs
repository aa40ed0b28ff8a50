//! The six workspace rules (`QF-L003`, a cfg-pairing rule for a feature
//! the workspace no longer has, is retired; its id is not reused).
//!
//! | id | rule |
//! |---|---|
//! | `QF-L001` | no `unwrap()`/`expect()`/`panic!` family in non-test lib code; explicit `panic!`/`unreachable!` allowed only in functions documenting `# Panics` |
//! | `QF-L002` | no allocation or `std::time` in hot-path modules outside the cold-function allowlist |
//! | `QF-L004` | sketch/candidate counter fields are only mutated through saturating/clamping arithmetic |
//! | `QF-L005` | the snapshot wire-format fingerprint matches the committed record, and `SNAPSHOT_VERSION` was bumped when it changed |
//! | `QF-L006` | every item-level `#[cfg(feature = "trace")]` has a `#[cfg(not(feature = "trace"))]` twin in the same file, so the trace-off build compiles to the identical surface |
//! | `QF-L007` | every atomic field/static declares its protocol with a `// sync:` annotation, and every load/store/RMW ordering is consistent with the declared protocol |
//!
//! Rules work over the [`SourceFile`] model: comments and string contents
//! are already blanked, test regions and enclosing functions are already
//! attributed, so each rule is a direct statement of the convention.

use crate::model::{Line, SourceFile};
use crate::Diagnostic;
use std::fmt;

/// Path suffixes of the paper's per-item hot path (rule `QF-L002`).
/// Crate-qualified so that an unrelated file of the same name in another
/// crate is not swept in by a bare file-name match. The one-pass insert rewrite
/// spread the hot path across the candidate walk, the vague-part fused
/// ops, the CMS ablation twin, and the lane precomputation; the live
/// pipeline added the multi-criteria insert path and the SPSC queue /
/// worker loop; the supervision layer added the per-burst journal commit
/// and the armed-chaos probe — all of which run per item (or per burst)
/// and are held to the same no-alloc/no-clock standard. Checkpoint
/// *sealing* allocates by necessity, which is why it lives in `snapshot`
/// -family cold functions and runs once per interval, never per item.
/// The flight recorder's emit path (`trace/src/ring.rs`, `tls.rs`) is
/// called from inside those same hot loops when the `trace` feature is
/// on, so it is policed identically; dump *rendering* (`dump.rs`)
/// allocates freely because it only runs at recovery time. The SIMD
/// hot path added the SWAR primitive module (`sketch/src/simd.rs`), and
/// the Count-Min twin (`sketch/src/count_min.rs`) serves the same fused
/// per-insert entry points as the Count sketch, so both are policed too.
pub const HOT_PATH_FILES: [&str; 15] = [
    "core/src/filter.rs",
    "core/src/candidate.rs",
    "core/src/vague.rs",
    "core/src/multi.rs",
    "sketch/src/count_sketch.rs",
    "sketch/src/count_min.rs",
    "sketch/src/counter.rs",
    "sketch/src/simd.rs",
    "hash/src/lanes.rs",
    "pipeline/src/ring.rs",
    "pipeline/src/worker.rs",
    "pipeline/src/supervisor.rs",
    "pipeline/src/chaos.rs",
    "trace/src/ring.rs",
    "trace/src/tls.rs",
];

/// Path suffixes holding saturating counter storage (rule `QF-L004`).
pub const COUNTER_FILES: [&str; 3] = [
    "sketch/src/count_sketch.rs",
    "sketch/src/count_min.rs",
    "core/src/candidate.rs",
];

/// Does the file's path end with one of the crate-qualified suffixes?
fn path_matches(file: &SourceFile, suffixes: &[&str]) -> bool {
    let p = file.path.to_string_lossy().replace('\\', "/");
    suffixes.iter().any(|s| p.ends_with(s))
}

/// Functions in hot-path modules that are allowed to allocate: one-time
/// construction, wire encode/decode, diagnostics, and invariant audits —
/// none of them run per stream item.
const COLD_FNS: [&str; 16] = [
    "new",
    "try_new",
    "with_capacity",
    "with_exact_capacity",
    "with_memory_budget",
    "try_build",
    "build",
    "from_state",
    "write_state",
    "shape",
    "check_invariants",
    "assert_candidate_invariants",
    "fmt",
    "clone",
    "snapshot",
    "restore",
];

/// Per-file exemptions to `QF-L002`: documented thin *allocating wrappers*
/// kept for API compatibility next to an allocation-free primary path.
/// Deliberately file-qualified — adding `insert` to [`COLD_FNS`] would
/// exempt every hot-path `insert`, which is exactly the function the rule
/// exists to police.
const ALLOC_WRAPPERS: [(&str, &str); 1] = [("core/src/multi.rs", "insert")];

fn diag(rule: &'static str, file: &SourceFile, line: &Line, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.path.clone(),
        line: line.number,
        message,
    }
}

/// `QF-L001`: the panic-free surface.
///
/// Non-test library code must not call `.unwrap()` / `.expect(…)` or use
/// `todo!` / `unimplemented!`. Explicit `panic!` / `unreachable!` is the
/// sanctioned escape hatch for documented panicking wrappers — allowed
/// only when the enclosing function's docs carry a `# Panics` section.
pub fn rule_panic_free(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const R: &str = "QF-L001";
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if code.contains(".unwrap()") {
            out.push(diag(
                R,
                file,
                line,
                "`.unwrap()` in non-test library code; return a typed error instead".into(),
            ));
        }
        if code.contains(".expect(") {
            out.push(diag(
                R,
                file,
                line,
                "`.expect(…)` in non-test library code; return a typed error instead".into(),
            ));
        }
        for m in ["todo!", "unimplemented!"] {
            if contains_macro(code, m) {
                out.push(diag(
                    R,
                    file,
                    line,
                    format!("`{m}` must not reach library code"),
                ));
            }
        }
        for m in ["panic!", "unreachable!"] {
            if contains_macro(code, m) && !line.fn_has_panics_doc {
                out.push(diag(
                    R,
                    file,
                    line,
                    format!(
                        "`{m}` outside a function documenting `# Panics`{}",
                        line.fn_name
                            .as_deref()
                            .map(|f| format!(" (in fn `{f}`)"))
                            .unwrap_or_default()
                    ),
                ));
            }
        }
    }
}

/// Does `code` invoke macro `name` (`name!(`, `name!{`, `name![`)?
fn contains_macro(code: &str, name: &str) -> bool {
    let mut search = 0;
    while let Some(rel) = code.get(search..).and_then(|s| s.find(name)) {
        let at = search + rel;
        search = at + name.len();
        let before_ok = at == 0
            || !code.as_bytes()[at - 1].is_ascii_alphanumeric() && code.as_bytes()[at - 1] != b'_';
        let after = code[at + name.len()..].trim_start();
        if before_ok && (after.starts_with('(') || after.starts_with('{') || after.starts_with('['))
        {
            return true;
        }
    }
    false
}

/// `QF-L002`: the hot path neither allocates nor reads clocks.
///
/// Within [`HOT_PATH_FILES`], any allocation marker or `std::time` use
/// outside the [`COLD_FNS`] allowlist is flagged: a per-item allocation or
/// `Instant::now()` costs more than the O(1) insert it decorates.
pub fn rule_hot_path(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const R: &str = "QF-L002";
    if !path_matches(file, &HOT_PATH_FILES) {
        return;
    }
    const ALLOC: [&str; 12] = [
        "vec!",
        "Vec::new",
        "Vec::with_capacity",
        "Box::new",
        "String::new",
        "String::from",
        "format!",
        ".to_string(",
        ".to_owned(",
        ".to_vec(",
        "HashMap::new",
        "BTreeMap::new",
    ];
    const TIME: [&str; 3] = ["std::time", "Instant::now", "SystemTime::now"];
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        let cold = line.fn_name.as_deref().is_some_and(|f| {
            COLD_FNS.contains(&f)
                || ALLOC_WRAPPERS
                    .iter()
                    .any(|&(path, wrapper)| f == wrapper && path_matches(file, &[path]))
        });
        if cold {
            continue;
        }
        let code = line.code.as_str();
        for m in ALLOC {
            if code.contains(m) {
                out.push(diag(
                    R,
                    file,
                    line,
                    format!(
                        "allocation (`{m}`) in hot-path module{}; move it to a cold constructor or codec function",
                        line.fn_name
                            .as_deref()
                            .map(|f| format!(" fn `{f}`"))
                            .unwrap_or_default()
                    ),
                ));
            }
        }
        for m in TIME {
            if code.contains(m) {
                out.push(diag(
                    R,
                    file,
                    line,
                    format!("`{m}` in hot-path module; latency is sampled by the eval runner, never inline"),
                ));
            }
        }
    }
}

/// `QF-L006`: trace hooks always have a compiled-out twin.
///
/// An item-level `#[cfg(feature = "trace")]` without a matching
/// `#[cfg(not(feature = "trace"))]` item in the same file means the
/// default build would lose the symbol (or silently change behavior):
/// the trace-off build must compile to the identical API surface, with
/// every emit point vanishing rather than dangling. Statement-level
/// gates inside function bodies (including `cfg(any(..))` unions, whose
/// attribute text differs) are self-contained and out of scope.
pub fn rule_trace_pairing(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    rule_feature_pairing(file, out, "QF-L006", "trace");
}

/// Shared engine for the cfg-pairing rules: every item-level
/// `#[cfg(feature = "<feature>")]` must have a matching
/// `#[cfg(not(feature = "<feature>"))]` item in the same file.
fn rule_feature_pairing(
    file: &SourceFile,
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    feature: &str,
) {
    let gate = format!("#[cfg(feature = \"{feature}\")]");
    let gated = collect_feature_gated_items(file, &gate);
    if gated.is_empty() {
        return;
    }
    let fallback_attr = format!("#[cfg(not(feature = \"{feature}\"))]");
    let fallbacks = collect_feature_gated_items(file, &fallback_attr);
    for (line_no, item) in gated {
        let paired = match &item {
            GatedItem::Named { kind, name } => fallbacks.iter().any(|(_, f)| match f {
                GatedItem::Named {
                    kind: fk,
                    name: fname,
                } => fk == kind && fname == name,
                GatedItem::Anonymous(_) => false,
            }),
            GatedItem::Anonymous(_) => !fallbacks.is_empty(),
        };
        if !paired {
            let what = match &item {
                GatedItem::Named { kind, name } => format!("{kind} `{name}`"),
                GatedItem::Anonymous(kind) => kind.clone(),
            };
            out.push(Diagnostic {
                rule,
                path: file.path.clone(),
                line: line_no,
                message: format!(
                    "{feature}-gated {what} has no `{fallback_attr}` fallback in this file"
                ),
            });
        }
    }
}

#[derive(Debug, PartialEq)]
enum GatedItem {
    /// `fn`/`mod`/`struct`… with a name we can pair exactly.
    Named { kind: String, name: String },
    /// `use`/`impl`/… — paired loosely (any fallback in the file).
    Anonymous(String),
}

/// Find items directly following attribute `attr` (skipping further
/// attributes and doc lines). Statement-level gates are ignored.
fn collect_feature_gated_items(file: &SourceFile, attr: &str) -> Vec<(usize, GatedItem)> {
    const ITEM_KINDS: [&str; 10] = [
        "fn", "mod", "struct", "enum", "trait", "impl", "use", "static", "const", "type",
    ];
    let mut found = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.raw.trim_start() != attr {
            continue;
        }
        // Walk to the first non-attribute, non-doc line after the gate.
        let mut j = idx + 1;
        let target = loop {
            match file.lines.get(j) {
                None => break None,
                Some(l) => {
                    let t = l.raw.trim_start();
                    if t.starts_with("#[") || t.starts_with("///") || t.is_empty() {
                        j += 1;
                        continue;
                    }
                    break Some(t.to_string());
                }
            }
        };
        let Some(target) = target else { continue };
        let mut words = target
            .split(|c: char| c.is_whitespace() || c == '<' || c == '(')
            .filter(|w| !w.is_empty());
        let mut kind = None;
        for w in words.by_ref() {
            // Skip visibility/safety qualifiers; `pub(crate)` splits into
            // `pub` + `crate)` because `(` is a separator above.
            if w == "pub" || w.ends_with(')') || w == "unsafe" || w == "extern" {
                continue;
            }
            if ITEM_KINDS.contains(&w) {
                kind = Some(w.to_string());
            }
            break;
        }
        let Some(kind) = kind else {
            // First word is not an item keyword: a statement-level gate.
            continue;
        };
        let item = if kind == "fn" || kind == "mod" || kind == "struct" || kind == "trait" {
            match words.next() {
                Some(name) => GatedItem::Named {
                    kind,
                    name: name
                        .trim_end_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                        .to_string(),
                },
                None => GatedItem::Anonymous(kind),
            }
        } else {
            GatedItem::Anonymous(kind)
        };
        found.push((line.number, item));
    }
    found
}

/// `QF-L004`: counter fields only move through saturating arithmetic.
///
/// Within [`COUNTER_FILES`], a raw `+=`/`-=`/`wrapping_*` on a counter
/// accessor (`cells[…]`, `cell_mut`, `*cell`, `.qw`) reintroduces exactly
/// the overflow reversal §III-B forbids. Lines that go through
/// `saturating_*` or an explicit `clamp` are the sanctioned forms. A
/// shared `.as_ptr()` derivation is also exempt: it yields a `*const`
/// no write can go through, and the batch path's prefetch hints compute
/// their target address with `wrapping_add` on exactly such a pointer —
/// `as_mut_ptr()` stays policed because it *can* feed a store.
pub fn rule_counter_arithmetic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const R: &str = "QF-L004";
    if !path_matches(file, &COUNTER_FILES) {
        return;
    }
    const FIELDS: [&str; 4] = ["cells[", "cell_mut", "*cell", ".qw"];
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if !FIELDS.iter().any(|f| code.contains(f)) {
            continue;
        }
        if code.contains("saturating_") || code.contains(".clamp(") {
            continue;
        }
        if code.contains(".as_ptr()") && !code.contains("as_mut_ptr") {
            continue;
        }
        let raw_op = code.contains("+=")
            || code.contains("-=")
            || code.contains("wrapping_add")
            || code.contains("wrapping_sub");
        if raw_op {
            out.push(diag(
                R,
                file,
                line,
                "raw arithmetic on a counter field; use `saturating_add_i64` (overflow-reversal guard, §III-B)".into(),
            ));
        }
    }
}

/// `QF-L005`: wire-format changes must bump `SNAPSHOT_VERSION`.
///
/// The committed record (`crates/lint/snapshot-format.fp`) stores the
/// version and a fingerprint of the normalized wire-format sources. This
/// pure function compares a freshly computed pair against it; the
/// filesystem plumbing lives in [`crate::fingerprint`].
pub fn check_fingerprint(
    computed: u64,
    source_version: Option<u32>,
    stored_version: u32,
    stored_fp: u64,
) -> Option<String> {
    let Some(source_version) = source_version else {
        return Some(
            "could not find `SNAPSHOT_VERSION: u32 = …` in crates/core/src/snapshot.rs".into(),
        );
    };
    if source_version < stored_version {
        return Some(format!(
            "SNAPSHOT_VERSION regressed: source has {source_version}, committed record has {stored_version}"
        ));
    }
    if computed != stored_fp {
        if source_version == stored_version {
            return Some(format!(
                "wire-format sources changed (fingerprint {computed:#018x} != recorded {stored_fp:#018x}) \
                 but SNAPSHOT_VERSION is still {stored_version}; bump it if the encoding changed \
                 (tests/snapshot_golden.rs fails when the bytes do), then run `cargo xtask lint --bless`"
            ));
        }
        return Some(format!(
            "SNAPSHOT_VERSION bumped to {source_version} but the fingerprint record is stale; \
             run `cargo xtask lint --bless`"
        ));
    }
    if source_version != stored_version {
        return Some(format!(
            "SNAPSHOT_VERSION is {source_version} but the committed record says {stored_version}; \
             run `cargo xtask lint --bless`"
        ));
    }
    None
}

/// `QF-L007`: atomics discipline.
///
/// Every atomic field or static must carry a `// sync:` annotation on a
/// comment/attribute line directly above the declaration, naming the
/// synchronization protocol the word participates in:
///
/// * `counter` — an independent relaxed word (metric, ticket, latch)
///   with no happens-before obligations: **all** orderings `Relaxed`.
/// * `release-acquire` — a publication word: stores `Release`/`SeqCst`,
///   loads `Acquire`/`SeqCst`, RMWs at least one non-relaxed ordering.
/// * `guarded-by <word>` — a payload word whose every access is ordered
///   by another field's protocol (seqlock stamp, mutex): all orderings
///   `Relaxed`, the guard provides the fences.
/// * `seqcst-handshake` — a Dekker-style flag sealed by `SeqCst` fences:
///   orderings `Relaxed` or `SeqCst`, never half-measures.
///
/// Use sites are cross-checked against the declared protocol. A
/// deliberate deviation is justified inline with a trailing
/// `// sync: relaxed-ok — reason` (any `<word>-ok` marker), which is the
/// reviewed escape hatch. Receivers the lexer cannot resolve to a
/// declaration (locals, iterator bindings) are skipped; declarations in
/// other files resolve through a workspace-wide map unless two files
/// declare the same name under different protocols.
///
/// `crates/model` is exempt: the qf-sync shim is mode-polymorphic by
/// design — it forwards caller-chosen orderings, so no single protocol
/// applies to its words.
pub fn rule_atomics_discipline(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    const R: &str = "QF-L007";
    // Pass 1: collect annotated declarations per file (and flag the
    // unannotated / unparseable ones).
    let mut per_file: Vec<std::collections::BTreeMap<String, SyncMode>> = Vec::new();
    for file in files {
        let mut decls = std::collections::BTreeMap::new();
        if !exempt_from_atomics_rule(file) {
            for (idx, line) in file.lines.iter().enumerate() {
                let Some(name) = atomic_declaration_name(line) else {
                    continue;
                };
                match find_sync_annotation(file, idx) {
                    Some(SyncAnnotation::Mode(mode)) => {
                        match decls.entry(name) {
                            std::collections::btree_map::Entry::Vacant(e) => {
                                e.insert(mode);
                            }
                            std::collections::btree_map::Entry::Occupied(mut e) => {
                                // Two same-named words in one file under
                                // different protocols: ambiguous receiver,
                                // refuse to guess at use sites.
                                if *e.get() != mode {
                                    e.insert(SyncMode::Ambiguous);
                                }
                            }
                        }
                    }
                    Some(SyncAnnotation::Unknown(word)) => out.push(diag(
                        R,
                        file,
                        line,
                        format!(
                            "atomic `{name}` declares unknown sync protocol `{word}`; \
                             use counter, release-acquire, guarded-by <word>, or seqcst-handshake"
                        ),
                    )),
                    None => out.push(diag(
                        R,
                        file,
                        line,
                        format!(
                            "atomic `{name}` has no `// sync:` protocol annotation above its declaration"
                        ),
                    )),
                }
            }
        }
        per_file.push(decls);
    }
    // Workspace fallback: a name declared in exactly one protocol
    // anywhere resolves across files; conflicting names do not.
    let mut global: std::collections::BTreeMap<String, SyncMode> =
        std::collections::BTreeMap::new();
    for decls in &per_file {
        for (name, mode) in decls {
            match global.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(*mode);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if *e.get() != *mode {
                        e.insert(SyncMode::Ambiguous);
                    }
                }
            }
        }
    }
    // Pass 2: check every resolvable use site against its protocol.
    for (file, decls) in files.iter().zip(&per_file) {
        if exempt_from_atomics_rule(file) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for site in atomic_op_sites(&line.code) {
                let receiver = match site.receiver {
                    Some(ref r) => r.clone(),
                    // Chained call starting a line: the receiver sits at
                    // the end of the previous code line.
                    None => match idx.checked_sub(1).and_then(|p| {
                        receiver_before(
                            file.lines[p].code.trim_end(),
                            file.lines[p].code.trim_end().len(),
                        )
                    }) {
                        Some(r) => r,
                        None => continue,
                    },
                };
                let mode = match decls.get(&receiver).or_else(|| global.get(&receiver)) {
                    Some(SyncMode::Ambiguous) | None => continue,
                    Some(m) => *m,
                };
                if has_site_justification(&line.raw) {
                    continue;
                }
                let orderings = collect_orderings(file, idx, site.args_start);
                if orderings.is_empty() {
                    continue;
                }
                if let Some(problem) = mode.check(site.kind, &orderings) {
                    out.push(diag(
                        R,
                        file,
                        line,
                        format!(
                            "`{receiver}.{}` uses {problem}, but `{receiver}` is declared `// sync: {}`; \
                             fix the ordering or justify with a trailing `// sync: relaxed-ok — reason`",
                            site.op, mode
                        ),
                    ));
                }
            }
        }
    }
}

/// The declared synchronization protocol of an atomic word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncMode {
    /// Independent relaxed word: all orderings `Relaxed`.
    Counter,
    /// Publication word: `Release`-class stores, `Acquire`-class loads.
    ReleaseAcquire,
    /// Payload word ordered entirely by another field's protocol.
    Guarded,
    /// Flag sealed by `SeqCst` fences: `Relaxed` or `SeqCst` only.
    SeqcstHandshake,
    /// Same name declared under two protocols: skip use-site checks.
    Ambiguous,
}

impl fmt::Display for SyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SyncMode::Counter => "counter",
            SyncMode::ReleaseAcquire => "release-acquire",
            SyncMode::Guarded => "guarded-by",
            SyncMode::SeqcstHandshake => "seqcst-handshake",
            SyncMode::Ambiguous => "<ambiguous>",
        })
    }
}

/// What kind of access an op site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Load,
    Store,
    Rmw,
}

impl SyncMode {
    /// `None` when `orderings` conform to the protocol for an access of
    /// `kind`; otherwise a short description of the violation.
    fn check(self, kind: OpKind, orderings: &[String]) -> Option<String> {
        let strong = |o: &String| o != "Relaxed";
        match self {
            SyncMode::Counter | SyncMode::Guarded => orderings
                .iter()
                .find(|o| strong(o))
                .map(|o| format!("`Ordering::{o}`")),
            SyncMode::SeqcstHandshake => orderings
                .iter()
                .find(|o| *o != "Relaxed" && *o != "SeqCst")
                .map(|o| format!("`Ordering::{o}`")),
            SyncMode::ReleaseAcquire => match kind {
                OpKind::Load => {
                    let o = orderings.first()?;
                    (o != "Acquire" && o != "SeqCst")
                        .then(|| format!("a `Ordering::{o}` load (needs Acquire or SeqCst)"))
                }
                OpKind::Store => {
                    let o = orderings.first()?;
                    (o != "Release" && o != "SeqCst")
                        .then(|| format!("a `Ordering::{o}` store (needs Release or SeqCst)"))
                }
                OpKind::Rmw => (!orderings.iter().any(strong))
                    .then(|| "an all-Relaxed RMW (needs an acquiring/releasing ordering)".into()),
            },
            SyncMode::Ambiguous => None,
        }
    }
}

/// The qf-sync shim (crates/model) forwards caller-chosen orderings and
/// is checked by the explorer itself, not by annotation.
fn exempt_from_atomics_rule(file: &SourceFile) -> bool {
    let p = file.path.to_string_lossy().replace('\\', "/");
    p.contains("crates/model/src") || p.contains("model/src/rt")
}

/// If `line` declares an atomic field or static, its lookup name:
/// the field/static identifier, or `"0"` for a tuple-struct payload.
fn atomic_declaration_name(line: &Line) -> Option<String> {
    let code = line.code.trim();
    let at = code.find("Atomic")?;
    let tail = &code[at..];
    const TYPES: [&str; 7] = [
        "AtomicBool",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicI64",
        "AtomicI32",
        "AtomicU16",
    ];
    let ty = TYPES.iter().find(|t| tail.starts_with(**t))?;
    // Constructors, imports, generics machinery, and borrows are not
    // declarations that own a protocol. (`Atomic…::` is a constructor
    // path; an initializer *after* the type annotation is fine.)
    if tail[ty.len()..].starts_with("::")
        || code.starts_with("use ")
        || code.starts_with("pub use ")
        || code.contains("impl ")
        || code.contains(" fn ")
        || code.starts_with("fn ")
        || code.contains("let ")
        || code.contains("const ")
        || code.contains('&')
    {
        return None;
    }
    if let Some(rest) = code
        .strip_prefix("pub ")
        .unwrap_or(code)
        .strip_prefix("static ")
        .or_else(|| {
            code.strip_prefix("pub(crate) ")
                .and_then(|c| c.strip_prefix("static "))
        })
    {
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        return (!name.is_empty()).then_some(name);
    }
    // Tuple struct: `pub struct Name(AtomicU64);` — register the
    // `self.0` receiver.
    if code.contains("struct ") && code.contains('(') {
        return Some("0".to_string());
    }
    // Named field: `name: [pub] <type with Atomic>,`.
    let colon = code.find(':')?;
    let before = code[..colon].trim();
    let name = before
        .rsplit(|c: char| c.is_whitespace() || c == ')')
        .next()?
        .trim();
    (!name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .then(|| name.to_string())
}

/// A parsed `// sync:` declaration annotation.
enum SyncAnnotation {
    Mode(SyncMode),
    Unknown(String),
}

/// Walk upward from the declaration at `lines[idx]` over contiguous
/// comment/attribute lines looking for a `// sync:` annotation.
fn find_sync_annotation(file: &SourceFile, idx: usize) -> Option<SyncAnnotation> {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = file.lines[i].raw.trim_start();
        if !(t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!")) {
            return None;
        }
        if let Some(rest) = t.strip_prefix("// sync: ") {
            let mode = rest.split([' ', '\u{2014}']).next().unwrap_or("");
            return Some(match mode {
                "counter" => SyncAnnotation::Mode(SyncMode::Counter),
                "release-acquire" => SyncAnnotation::Mode(SyncMode::ReleaseAcquire),
                "guarded-by" => SyncAnnotation::Mode(SyncMode::Guarded),
                "seqcst-handshake" => SyncAnnotation::Mode(SyncMode::SeqcstHandshake),
                other => SyncAnnotation::Unknown(other.to_string()),
            });
        }
    }
    None
}

/// One atomic method call found on a line.
struct OpSite {
    /// Method name (`load`, `store`, `fetch_add`, …).
    op: String,
    kind: OpKind,
    /// Receiver identifier, if it sits on the same line.
    receiver: Option<String>,
    /// Byte offset just past the op's opening `(` in the line's code.
    args_start: usize,
}

/// Scan a code line for atomic-looking method calls.
fn atomic_op_sites(code: &str) -> Vec<OpSite> {
    const OPS: [(&str, OpKind); 6] = [
        (".load(", OpKind::Load),
        (".store(", OpKind::Store),
        (".swap(", OpKind::Rmw),
        (".compare_exchange", OpKind::Rmw),
        (".fetch_", OpKind::Rmw),
        (".fetch_update(", OpKind::Rmw),
    ];
    let mut sites = Vec::new();
    for (pat, kind) in OPS {
        if pat == ".fetch_update(" {
            continue; // covered by the `.fetch_` prefix
        }
        let mut search = 0;
        while let Some(rel) = code.get(search..).and_then(|s| s.find(pat)) {
            let at = search + rel;
            search = at + pat.len();
            // Resolve the method name and its `(` for prefix patterns.
            let after_dot = at + 1;
            let name_end = code[after_dot..]
                .find('(')
                .map(|p| after_dot + p)
                .unwrap_or(code.len());
            let op: String = code[after_dot..name_end].to_string();
            if kind == OpKind::Rmw && pat == ".fetch_" && !op.starts_with("fetch_") {
                continue;
            }
            let args_start = (name_end + 1).min(code.len());
            sites.push(OpSite {
                op,
                kind,
                receiver: receiver_before(code, at),
                args_start,
            });
        }
    }
    sites
}

/// The identifier ending at byte offset `at` in `code`, skipping one
/// balanced `[…]` index if present (`buckets[i]` → `buckets`).
fn receiver_before(code: &str, at: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = at;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i > 0 && bytes[i - 1] == b']' {
        let mut depth = 1;
        i -= 1;
        while i > 0 && depth > 0 {
            i -= 1;
            match bytes[i] {
                b']' => depth += 1,
                b'[' => depth -= 1,
                _ => {}
            }
        }
    }
    let end = i;
    while i > 0 && is_ident_char(bytes[i - 1]) {
        i -= 1;
    }
    (i < end).then(|| code[i..end].to_string())
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `Ordering::X` tokens inside the call whose arguments start at
/// `args_start` on `lines[idx]`, following the call across up to three
/// continuation lines until its parens close.
fn collect_orderings(file: &SourceFile, idx: usize, args_start: usize) -> Vec<String> {
    let mut orderings = Vec::new();
    let mut depth = 1i32;
    for (n, line) in file.lines[idx..].iter().take(4).enumerate() {
        let code = &line.code;
        let start = if n == 0 {
            args_start.min(code.len())
        } else {
            0
        };
        // Only look at argument text: stop at the call's closing paren
        // so a second call on the same line cannot leak its orderings in.
        let mut end = code.len();
        for (off, c) in code[start..].char_indices() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                end = start + off;
                break;
            }
        }
        let window = &code[start..end];
        let mut search = 0;
        while let Some(rel) = window.get(search..).and_then(|s| s.find("Ordering::")) {
            let at = search + rel + "Ordering::".len();
            search = at;
            let name: String = window[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !name.is_empty() {
                orderings.push(name);
            }
        }
        if depth <= 0 {
            break;
        }
    }
    orderings
}

/// A trailing `// sync: <word>-ok — reason` on the raw line is the
/// reviewed justification for deviating from the declared protocol.
fn has_site_justification(raw: &str) -> bool {
    raw.find("// sync: ")
        .map(|at| &raw[at + "// sync: ".len()..])
        .and_then(|rest| rest.split_whitespace().next())
        .is_some_and(|word| word.ends_with("-ok"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn run(rule: fn(&SourceFile, &mut Vec<Diagnostic>), rel: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(format!("crates/{rel}"), src);
        let mut out = Vec::new();
        rule(&f, &mut out);
        out
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn f() {\n    x.unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        x.unwrap();\n    }\n}\n";
        let d = run(rule_panic_free, "fake/src/lib.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn documented_panic_is_allowed() {
        let ok = "/// # Panics\n/// When broken.\nfn f() {\n    panic!(\"broken\");\n}\n";
        assert!(run(rule_panic_free, "fake/src/lib.rs", ok).is_empty());
        let bad = "fn f() {\n    panic!(\"broken\");\n}\n";
        assert_eq!(run(rule_panic_free, "fake/src/lib.rs", bad).len(), 1);
    }

    #[test]
    fn unwrap_in_comment_or_string_is_ignored() {
        let src = "fn f() {\n    // x.unwrap()\n    let s = \".unwrap()\";\n    let _ = s;\n}\n";
        assert!(run(rule_panic_free, "fake/src/lib.rs", src).is_empty());
    }

    #[test]
    fn hot_path_alloc_flagged_outside_cold_fns() {
        let src = "fn insert(&mut self) {\n    let s = format!(\"x\");\n}\nfn new() -> Self {\n    let v = Vec::with_capacity(8);\n}\n";
        let d = run(rule_hot_path, "core/src/filter.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        // Same source in a non-hot file: no diagnostics at all.
        assert!(run(rule_hot_path, "core/src/builder.rs", src).is_empty());
    }

    #[test]
    fn alloc_wrapper_exemption_is_file_scoped() {
        let src = "fn insert(&mut self) {\n    let mut out = Vec::new();\n}\n";
        // The documented allocating wrapper in multi.rs is tolerated…
        assert!(run(rule_hot_path, "core/src/multi.rs", src).is_empty());
        // …but the same fn name allocating in filter.rs is still a finding.
        assert_eq!(run(rule_hot_path, "core/src/filter.rs", src).len(), 1);
        // And other multi.rs functions get no blanket pass.
        let other = "fn insert_into(&mut self) {\n    let v = Vec::new();\n}\n";
        assert_eq!(run(rule_hot_path, "core/src/multi.rs", other).len(), 1);
    }

    #[test]
    fn pipeline_queue_and_worker_files_are_hot_path() {
        let alloc = "fn pop_wait(&mut self) {\n    let s = format!(\"x\");\n}\n";
        assert_eq!(run(rule_hot_path, "pipeline/src/ring.rs", alloc).len(), 1);
        assert_eq!(run(rule_hot_path, "pipeline/src/worker.rs", alloc).len(), 1);
        let clock = "fn run_worker() {\n    let t = std::time::Instant::now();\n}\n";
        assert!(!run(rule_hot_path, "pipeline/src/worker.rs", clock).is_empty());
        // Ring construction may allocate its slot array.
        let ctor = "fn with_capacity(n: usize) -> Self {\n    let v = Vec::with_capacity(n);\n}\n";
        assert!(run(rule_hot_path, "pipeline/src/ring.rs", ctor).is_empty());
    }

    #[test]
    fn supervisor_and_chaos_files_are_hot_path() {
        // The per-burst commit (journal append) and the per-item chaos
        // probe must stay allocation- and clock-free…
        let alloc = "fn append(&mut self) {\n    let s = format!(\"x\");\n}\n";
        assert_eq!(
            run(rule_hot_path, "pipeline/src/supervisor.rs", alloc).len(),
            1
        );
        let clock = "fn before_apply(&self) {\n    let t = std::time::Instant::now();\n}\n";
        assert!(!run(rule_hot_path, "pipeline/src/chaos.rs", clock).is_empty());
        // …while checkpoint sealing allocates inside the cold
        // snapshot/restore family, off the per-item path.
        let seal = "fn snapshot(&self) -> Vec<u8> {\n    let v = Vec::with_capacity(64);\n}\n";
        assert!(run(rule_hot_path, "pipeline/src/supervisor.rs", seal).is_empty());
    }

    #[test]
    fn hot_path_clock_flagged() {
        let src = "fn add(&mut self) {\n    let t = std::time::Instant::now();\n}\n";
        let d = run(rule_hot_path, "sketch/src/count_sketch.rs", src);
        assert!(!d.is_empty());
    }

    #[test]
    fn trace_gate_requires_twin() {
        let bad = "#[cfg(feature = \"trace\")]\nmod imp {\n    pub fn emit() {}\n}\n";
        let d = run(rule_trace_pairing, "pipeline/src/flight.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "QF-L006");
        let ok = "#[cfg(feature = \"trace\")]\nmod imp {\n    pub fn emit() {}\n}\n#[cfg(not(feature = \"trace\"))]\nmod imp {\n    pub fn emit() {}\n}\n";
        assert!(run(rule_trace_pairing, "pipeline/src/flight.rs", ok).is_empty());
    }

    #[test]
    fn statement_level_trace_gate_is_skipped() {
        let src = "fn add(&mut self) {\n    #[cfg(feature = \"trace\")]\n    let before = cell.to_i64();\n    work();\n}\n";
        assert!(run(rule_trace_pairing, "fake/src/lib.rs", src).is_empty());
    }

    #[test]
    fn another_features_fallback_does_not_pair_a_trace_gate() {
        let src = "#[cfg(feature = \"trace\")]\nfn hook() {}\n#[cfg(not(feature = \"strict-invariants\"))]\nfn hook() {}\n";
        assert_eq!(run(rule_trace_pairing, "fake/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn trace_emit_modules_are_hot_path() {
        // The per-event emit path must stay allocation- and clock-free…
        let alloc = "fn emit(&self) {\n    let s = format!(\"x\");\n}\n";
        assert_eq!(run(rule_hot_path, "trace/src/ring.rs", alloc).len(), 1);
        assert_eq!(run(rule_hot_path, "trace/src/tls.rs", alloc).len(), 1);
        let clock = "fn emit(&self) {\n    let t = std::time::Instant::now();\n}\n";
        assert!(!run(rule_hot_path, "trace/src/ring.rs", clock).is_empty());
        // …while ring construction and snapshotting allocate in cold fns,
        // and dump rendering is not a hot-path file at all.
        let ctor = "fn with_capacity(n: usize) -> Self {\n    let v = Vec::with_capacity(n);\n}\n";
        assert!(run(rule_hot_path, "trace/src/ring.rs", ctor).is_empty());
        assert!(run(rule_hot_path, "trace/src/dump.rs", alloc).is_empty());
    }

    #[test]
    fn raw_counter_arithmetic_flagged() {
        let bad = "fn add(&mut self) {\n    self.cells[i] += 1;\n}\n";
        let d = run(rule_counter_arithmetic, "sketch/src/count_sketch.rs", bad);
        assert_eq!(d.len(), 1);
        let ok = "fn add(&mut self) {\n    *cell = cell.saturating_add_i64(w);\n}\n";
        assert!(run(rule_counter_arithmetic, "sketch/src/count_sketch.rs", ok).is_empty());
        // The same raw op outside counter files is not this rule's business.
        assert!(run(rule_counter_arithmetic, "core/src/strategy.rs", bad).is_empty());
        // Read-only pointer derivation for prefetch hints is legal: the
        // `*const` from `.as_ptr()` cannot carry a store, even though the
        // address math uses `wrapping_add`.
        let prefetch =
            "fn prefetch(&self) {\n    prefetch_read(self.qws.as_ptr().wrapping_add(start));\n}\n";
        assert!(run(rule_counter_arithmetic, "core/src/candidate.rs", prefetch).is_empty());
        // …but a mutable pointer into counter storage stays flagged.
        let mutptr =
            "fn bump(&mut self) {\n    let p = self.qws.as_mut_ptr().wrapping_add(i);\n}\n";
        assert_eq!(
            run(rule_counter_arithmetic, "core/src/candidate.rs", mutptr).len(),
            1
        );
    }

    #[test]
    fn fingerprint_verdicts() {
        // Clean: same version, same fingerprint.
        assert!(check_fingerprint(7, Some(2), 2, 7).is_none());
        // Sources changed, version not bumped.
        let msg = check_fingerprint(8, Some(2), 2, 7);
        assert!(msg.is_some_and(|m| m.contains("bump")));
        // Version bumped, record stale.
        let msg = check_fingerprint(8, Some(3), 2, 7);
        assert!(msg.is_some_and(|m| m.contains("--bless")));
        // Version regressed.
        let msg = check_fingerprint(7, Some(1), 2, 7);
        assert!(msg.is_some_and(|m| m.contains("regressed")));
        // Version constant missing entirely.
        assert!(check_fingerprint(7, None, 2, 7).is_some());
    }
}
