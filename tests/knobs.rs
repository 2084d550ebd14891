//! The knob list cannot drift silently: README claims its tables are the
//! complete list of environment variables the workspace honours, and this
//! test holds it to that — every `"TD_*"` string literal in the sources
//! and bench targets has a table row, and every table row names a variable the sources
//! still read. The settable fields of the engine, job-policy, tenant and
//! service configurations are pinned the same way, by count, and every
//! `td_gate` gate must be a step of `scripts/ci.sh`.

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
        // A crate's bench targets would read variables too; none has one.
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
    let (found, want) = (read.len(), 17);
    assert_eq!(
        found, want,
        "the sources read {found} TD_* variables, pinned at {want}: a variable was added \
         or removed. Update README and ROADMAP aim 2 with the change, then this pin."
    );
}

/// The `pub` fields of `pub struct <name> { ... }` in `file`.
fn pub_fields(file: &str, name: &str) -> usize {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join(file)).expect("source file reads");
    let opening = format!("pub struct {name} {{");
    let start = text
        .find(&opening)
        .unwrap_or_else(|| panic!("no `{opening}` in {file}"));
    text[start + opening.len()..]
        .lines()
        .take_while(|line| *line != "}")
        .filter(|line| line.trim_start().starts_with("pub ") && line.contains(':'))
        .count()
}

#[test]
fn config_structs_keep_their_pinned_field_counts() {
    let pinned = [
        ("crates/sched/src/engine.rs", "EngineConfig", 4),
        ("crates/sched/src/job.rs", "JobPolicy", 4),
        ("crates/serve/src/tenant.rs", "TenantConfig", 5),
        ("crates/serve/src/service.rs", "ServiceConfig", 6),
    ];
    for (file, name, want) in pinned {
        let found = pub_fields(file, name);
        assert_eq!(
            found, want,
            "{name} ({file}) has {found} pub fields, pinned at {want}: a settable field \
             was added or removed. Update README and ROADMAP aim 2 with the change, then \
             this pin."
        );
    }
}

#[test]
fn every_gate_runs_in_ci() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = root.join("crates/bench/src/bin/td_gate");
    let modules: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .filter_map(|path| Some(path.file_stem()?.to_str()?.to_owned()))
        .filter(|stem| stem != "main")
        .collect();
    let ci = std::fs::read_to_string(root.join("scripts/ci.sh")).expect("ci.sh reads");
    let steps: BTreeSet<String> = ci
        .lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| line.split_once("--bin td_gate -- "))
        .map(|(_, rest)| {
            rest.split_whitespace()
                .next()
                .unwrap_or_default()
                .to_owned()
        })
        .collect();
    assert!(
        !modules.is_empty(),
        "no gate modules under {}",
        dir.display()
    );
    assert_eq!(
        modules, steps,
        "every td_gate module must run as a `--bin td_gate -- <name>` step of scripts/ci.sh, \
         and every such step must name a module"
    );
}
