//! The knob list cannot drift silently: README claims its tables are the
//! complete list of environment variables the workspace honours, and this
//! test holds it to that — every `"TD_*"` string literal in the sources
//! and bench targets has a table row, and every table row names a variable the sources
//! still read.

use std::collections::BTreeSet;
use std::path::Path;

/// Every `"TD_[A-Z_]+"` string literal in the `.rs` files under `dir`.
fn literals_under(dir: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            literals_under(&path, into);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file reads");
            for (at, _) in text.match_indices("\"TD_") {
                let rest = &text[at + 1..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                    .unwrap_or(rest.len());
                if rest[len..].starts_with('"') {
                    into.insert(rest[..len].to_owned());
                }
            }
        }
    }
}

#[test]
fn readme_env_tables_list_exactly_the_variables_the_sources_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    literals_under(&root.join("src"), &mut read);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let krate = krate.expect("directory entry").path();
        literals_under(&krate.join("src"), &mut read);
        // Bench targets read variables too (`TD_BENCH_JSON`).
        if krate.join("benches").is_dir() {
            literals_under(&krate.join("benches"), &mut read);
        }
    }

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README reads");
    let documented: BTreeSet<String> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `TD_"))
        .map(|rest| format!("TD_{}", rest.split('`').next().unwrap_or_default()))
        .collect();

    let undocumented: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README's env tables and the sources disagree\n  read but not in a table: {undocumented:?}\n  in a table but never read: {stale:?}"
    );
}
