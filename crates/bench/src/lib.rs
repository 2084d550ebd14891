//! `td-bench`: shared code for regenerating every table and figure of the
//! paper. The binaries in `src/bin/` print the rows/series; this library
//! holds the workload builders and measurement loops that they and the
//! tests reuse, and what the CI gates of `td_gate` share ([`gate`]).

pub mod cs3;
pub mod cs4;
pub mod gate;
pub mod table1;

use td_ir::{Context, OpId};

/// A context with every dialect (payload + transform) registered, and a
/// pass registry with every pass: the engine's own two constructors.
pub use td_sched::{standard_context as full_context, standard_passes as full_pass_registry};

/// `payload` and `script` parsed into one [`full_context`]:
/// the context, the script's `@entry` sequence and the payload module.
pub fn parse_schedule(payload: &str, script: &str, entry: &str) -> (Context, OpId, OpId) {
    let mut ctx = full_context();
    let module = td_ir::parse_module(&mut ctx, payload).expect("payload parses");
    let script = td_ir::parse_module(&mut ctx, script).expect("script parses");
    let entry = ctx.lookup_symbol(script, entry).expect("entry point");
    (ctx, entry, module)
}

/// Renders a simple aligned table to a string.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_owned()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&format!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["Model", "Ops"],
            &[
                vec!["Squeezenet".into(), "126".into()],
                vec!["GPT-2".into(), "2861".into()],
            ],
        );
        assert!(table.contains("| Model"));
        assert!(table.contains("| Squeezenet |"));
        assert!(table.lines().count() == 4);
    }
}
