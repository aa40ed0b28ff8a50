//! Wire-format fingerprinting (rule `QF-L005`).
//!
//! The snapshot envelope promises that any byte-level change to the
//! serialization is accompanied by a `SNAPSHOT_VERSION` bump, so old
//! snapshots are rejected with a typed version error instead of being
//! misparsed. That promise is only as good as the discipline behind it —
//! this module makes it checkable.
//!
//! A committed record (`crates/lint/snapshot-format.fp`) stores the
//! current version together with an FNV-1a fingerprint of the normalized
//! wire-format sources (comments stripped, whitespace collapsed, string
//! and byte literals **kept** — the magic constant lives in one). The lint
//! run recomputes the fingerprint; a mismatch with an unchanged version is
//! the exact failure mode this rule exists to catch. `cargo xtask lint
//! --bless` re-records after a legitimate change.

use std::path::{Path, PathBuf};

use crate::model::normalize_for_fingerprint;

/// Workspace-relative paths whose contents define the snapshot wire
/// format.
pub const WIRE_FORMAT_SOURCES: [&str; 3] = [
    "crates/core/src/snapshot.rs",
    "crates/sketch/src/snapshot.rs",
    "crates/hash/src/wire.rs",
];

/// Workspace-relative path of the committed fingerprint record.
pub const FP_RECORD: &str = "crates/lint/snapshot-format.fp";

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Compute the combined fingerprint of the wire-format sources under
/// `root`. Missing files are an error (a moved encoder must update
/// [`WIRE_FORMAT_SOURCES`] *and* re-bless).
pub fn compute(root: &Path) -> std::io::Result<u64> {
    let mut acc = String::new();
    for rel in WIRE_FORMAT_SOURCES {
        let text = std::fs::read_to_string(root.join(rel))?;
        acc.push_str("== ");
        acc.push_str(rel);
        acc.push_str(" ==\n");
        acc.push_str(&normalize_for_fingerprint(&text));
    }
    Ok(fnv1a64(acc.as_bytes()))
}

/// Extract `SNAPSHOT_VERSION: u32 = N` from the core snapshot source.
pub fn source_version(root: &Path) -> std::io::Result<Option<u32>> {
    let text = std::fs::read_to_string(root.join(WIRE_FORMAT_SOURCES[0]))?;
    Ok(parse_version_constant(&text))
}

/// Find the `SNAPSHOT_VERSION: u32 = N;` declaration in `text`.
pub fn parse_version_constant(text: &str) -> Option<u32> {
    let at = text.find("SNAPSHOT_VERSION: u32 =")?;
    let rest = &text[at..];
    let eq = rest.find('=')?;
    let tail = rest[eq + 1..].trim_start();
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The committed (version, fingerprint) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpRecord {
    pub version: u32,
    pub fingerprint: u64,
}

/// Parse the record file's `key = value` lines.
pub fn parse_record(text: &str) -> Result<FpRecord, String> {
    let mut version = None;
    let mut fingerprint = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("malformed record line: `{line}`"));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "version" => {
                version = Some(
                    value
                        .parse::<u32>()
                        .map_err(|e| format!("bad version `{value}`: {e}"))?,
                );
            }
            "fingerprint" => {
                let hex = value.trim_start_matches("0x");
                fingerprint = Some(
                    u64::from_str_radix(hex, 16)
                        .map_err(|e| format!("bad fingerprint `{value}`: {e}"))?,
                );
            }
            other => return Err(format!("unknown record key `{other}`")),
        }
    }
    match (version, fingerprint) {
        (Some(version), Some(fingerprint)) => Ok(FpRecord {
            version,
            fingerprint,
        }),
        _ => Err("record must define both `version` and `fingerprint`".into()),
    }
}

/// Render a record file, preamble included.
pub fn render_record(record: FpRecord) -> String {
    format!(
        "# Snapshot wire-format fingerprint (rule QF-L005).\n\
         #\n\
         # `fingerprint` is FNV-1a over the normalized wire-format sources\n\
         # ({}).\n\
         # If it drifts while `version` matches SNAPSHOT_VERSION, the\n\
         # encoding may have changed without a version bump. The bytes\n\
         # themselves are pinned by tests/snapshot_golden.rs: if that\n\
         # corpus still passes, the change was a byte-identical rewrite.\n\
         # After a legitimate change: bump SNAPSHOT_VERSION if the bytes\n\
         # changed, then run `cargo xtask lint --bless` to re-record.\n\
         version = {}\n\
         fingerprint = {:#018x}\n",
        WIRE_FORMAT_SOURCES.join(", "),
        record.version,
        record.fingerprint,
    )
}

/// Where the record lives under `root`.
pub fn record_path(root: &Path) -> PathBuf {
    root.join(FP_RECORD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn record_roundtrip() {
        let rec = FpRecord {
            version: 2,
            fingerprint: 0xDEAD_BEEF_0123_4567,
        };
        let text = render_record(rec);
        assert_eq!(parse_record(&text), Ok(rec));
    }

    #[test]
    fn version_constant_parses() {
        let src = "/// docs\npub const SNAPSHOT_VERSION: u32 = 42;\n";
        assert_eq!(parse_version_constant(src), Some(42));
        assert_eq!(parse_version_constant("nothing here"), None);
    }

    #[test]
    fn malformed_records_are_errors() {
        assert!(parse_record("version = 2").is_err());
        assert!(parse_record("version = x\nfingerprint = 0x1").is_err());
        assert!(parse_record("mystery = 3").is_err());
    }
}
