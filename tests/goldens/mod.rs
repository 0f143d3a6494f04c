//! Shared golden-digest machinery for the snapshot tests: `golden_traces`
//! and `golden_tables` digest traces and rendered tables through
//! [`check`]; `golden_faults`, `golden_recover`, `golden_cio`,
//! `golden_blog` and `golden_chaos` digest suite rows through
//! [`check_rows`].
//!
//! A golden file is a sorted `name<TAB>%016x` table of 64-bit FNV-1a
//! digests ([`sio::core::sddf::fingerprint_bytes`]). The check fails with a
//! per-entry diff; regenerate after an *intentional* model change with:
//!
//! ```text
//! SIO_UPDATE_GOLDENS=1 cargo test --test golden_traces --test golden_tables \
//!     --test golden_faults --test golden_recover --test golden_cio \
//!     --test golden_blog --test golden_chaos
//! ```

// Each test binary includes this module and uses only part of it.
#![allow(dead_code)]

use sio::analysis::report::Row;
use sio::core::sddf::fingerprint_bytes;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Absolute path of a repo-relative golden file.
pub fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// True when the run should rewrite golden files instead of checking them.
pub fn update_mode() -> bool {
    std::env::var("SIO_UPDATE_GOLDENS").is_ok_and(|v| v == "1")
}

fn parse(contents: &str) -> BTreeMap<String, u64> {
    contents
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l
                .split_once('\t')
                .unwrap_or_else(|| panic!("malformed golden line {l:?} (want name<TAB>hex)"));
            let digest = u64::from_str_radix(hex.trim(), 16)
                .unwrap_or_else(|e| panic!("malformed digest in golden line {l:?}: {e}"));
            (name.to_string(), digest)
        })
        .collect()
}

fn render(header: &str, digests: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {header}");
    let _ = writeln!(
        out,
        "# Regenerate (after an intentional model change) with: SIO_UPDATE_GOLDENS=1 cargo test"
    );
    for (name, digest) in digests {
        let _ = writeln!(out, "{name}\t{digest:016x}");
    }
    out
}

/// Compare computed digests against the golden file at `rel` (repo-relative),
/// or rewrite the file when `SIO_UPDATE_GOLDENS=1`.
pub fn check(rel: &str, header: &str, computed: &[(String, u64)]) {
    let computed: BTreeMap<String, u64> = computed.iter().cloned().collect();
    let path = repo_path(rel);
    if update_mode() {
        std::fs::write(&path, render(header, &computed))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!(
            "[goldens] rewrote {} ({} entries)",
            path.display(),
            computed.len()
        );
        return;
    }
    let contents = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with SIO_UPDATE_GOLDENS=1 cargo test",
            path.display()
        )
    });
    let expected = parse(&contents);
    let mut diff = String::new();
    for (name, want) in &expected {
        match computed.get(name) {
            None => {
                let _ = writeln!(diff, "  missing entry: {name} (golden {want:016x})");
            }
            Some(got) if got != want => {
                let _ = writeln!(diff, "  {name}: golden {want:016x} != computed {got:016x}");
            }
            Some(_) => {}
        }
    }
    for name in computed.keys() {
        if !expected.contains_key(name) {
            let _ = writeln!(diff, "  new entry not in golden file: {name}");
        }
    }
    assert!(
        diff.is_empty(),
        "golden digests in {rel} diverged:\n{diff}\
         If the change is intentional, regenerate with SIO_UPDATE_GOLDENS=1 cargo test"
    );
}

/// [`check`] a suite's rows: one entry per row, [`Row::key`] → FNV-1a
/// digest of [`Row::canonical`].
pub fn check_rows<R: Row>(rel: &str, header: &str, rows: &[R]) {
    let computed: Vec<(String, u64)> = rows
        .iter()
        .map(|r| (r.key(), fingerprint_bytes(r.canonical().as_bytes())))
        .collect();
    check(rel, header, &computed);
}
