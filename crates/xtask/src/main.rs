//! Workspace automation (`cargo xtask <command>`).
//!
//! `lint` enforces the unsafe-code policy that rustc cannot express: raw
//! slice construction (`from_raw_parts*`), unchecked indexing
//! (`get_unchecked*`), `transmute`, and `static mut` are confined to the
//! audited modules that carry the workspace's `// SAFETY:` contracts —
//! the parallel executor's pointer plumbing and the resident engine's
//! completion plumbing. Everywhere else must go through safe slices or
//! the checked `BandLayout` accessors.
//!
//! `verify-kernels` runs the static kernel-schedule verifier end to end:
//! full-envelope race proofs for every registered kernel family, rejection
//! of the seeded historical-bug fixtures with concrete counterexamples, a
//! per-device shared-memory feasibility table cross-checked against the
//! kernels' own byte formulas, and the model-vs-trace conformance grid at
//! both precisions.

mod verify;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Modules audited for unsafe-access tokens. Everything else in the
/// workspace must not mention the forbidden tokens at all.
const WHITELIST: &[&str] = &[
    "crates/gpu-sim/src/executor.rs",
    "crates/gpu-sim/src/resident.rs",
];

/// Tokens forbidden outside the whitelist (matched on comment- and
/// string-stripped source, so prose and test fixtures don't trip it).
const FORBIDDEN: &[&str] = &["from_raw_parts", "get_unchecked", "transmute", "static mut"];

/// Source roots scanned by the lint. Vendored shims under `shims/` are
/// third-party API surface and are exempt.
const ROOTS: &[&str] = &["crates", "src", "tests", "benches", "examples"];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("verify-kernels") => verify::verify_kernels(args.next().as_deref()),
        Some(other) => {
            eprintln!("unknown xtask command `{other}` (expected: lint | verify-kernels)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <lint | verify-kernels [--quick]>");
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ROOTS {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if WHITELIST.contains(&rel.as_str()) {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(path) else {
            continue;
        };
        let code = strip_comments_and_strings(&source);
        for (lineno, line) in code.lines().enumerate() {
            for token in FORBIDDEN {
                if line.contains(token) {
                    violations.push(format!("{rel}:{}: `{token}`", lineno + 1));
                }
            }
        }
    }

    if violations.is_empty() {
        println!(
            "xtask lint: OK ({} files scanned, raw-pointer use confined to {:?})",
            files.len(),
            WHITELIST
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: forbidden unsafe-access tokens outside the audited modules:");
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!(
            "move the access into one of {WHITELIST:?} (with a `// SAFETY:` \
             contract) or use checked indexing"
        );
        ExitCode::FAILURE
    }
}

/// The lint runs from anywhere inside the workspace: walk up from the
/// manifest dir (or cwd) to the directory that has the workspace manifest.
fn workspace_root() -> PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir.to_path_buf();
                }
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return start,
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Replace comments and string/char literal contents with spaces, keeping
/// line structure so diagnostics stay line-accurate. Handles `//`, `/* */`
/// (nested), `"…"` with escapes, raw strings `r#"…"#`, and char literals
/// conservatively (lifetimes like `'a` are left alone).
fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string: r"…" or r#…#"…"#…#.
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    out.resize(out.len() + (j + 1 - i), b' ');
                    i = j + 1;
                    'raw: while i < b.len() {
                        if b[i] == b'"' {
                            let mut k = i + 1;
                            let mut seen = 0;
                            while k < b.len() && b[k] == b'#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                out.resize(out.len() + (k - i), b' ');
                                i = k;
                                break 'raw;
                            }
                        }
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: 'x' or '\n' is a literal;
                // 'static (no closing quote within a few bytes) is not.
                if i + 2 < b.len() && b[i + 1] == b'\\' {
                    let mut j = i + 2;
                    while j < b.len() && b[j] != b'\'' && j - i < 8 {
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'\'' {
                        out.resize(out.len() + (j + 1 - i), b' ');
                        i = j + 1;
                        continue;
                    }
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    out.extend_from_slice(b"   ");
                    i += 3;
                    continue;
                }
                out.push(b'\'');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = strip_comments_and_strings("a // from_raw_parts\nb /* get_unchecked */ c");
        assert!(!s.contains("from_raw_parts"));
        assert!(!s.contains("get_unchecked"));
        assert!(s.contains('a') && s.contains('b') && s.contains('c'));
    }

    #[test]
    fn strips_strings_but_keeps_code() {
        let s =
            strip_comments_and_strings("let x = \"from_raw_parts\"; slice.from_raw_parts(p, n);");
        assert_eq!(s.matches("from_raw_parts").count(), 1);
    }

    #[test]
    fn strips_raw_strings() {
        let s = strip_comments_and_strings("let x = r#\"get_unchecked \"# ; y");
        assert!(!s.contains("get_unchecked"));
        assert!(s.contains('y'));
    }

    #[test]
    fn preserves_line_numbers() {
        let s = strip_comments_and_strings("a\n/* x\n x */\nb");
        assert_eq!(s.lines().count(), 4);
        assert_eq!(s.lines().nth(3), Some("b"));
    }

    #[test]
    fn lifetimes_survive() {
        let s = strip_comments_and_strings("fn f<'a>(x: &'a str) {}");
        assert!(s.contains("'a"));
    }

    #[test]
    fn whitelist_names_the_audited_modules() {
        assert!(WHITELIST.contains(&"crates/gpu-sim/src/executor.rs"));
        assert!(WHITELIST.contains(&"crates/gpu-sim/src/resident.rs"));
    }

    #[test]
    fn forbidden_tokens_cover_reinterpretation_and_global_state() {
        assert!(FORBIDDEN.contains(&"transmute"));
        assert!(FORBIDDEN.contains(&"static mut"));
        assert!(ROOTS.contains(&"examples"));
    }
}
