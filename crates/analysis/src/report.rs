//! Plain-text report rendering and file output helpers.

use crate::compare::{Check, ShapeCheck};
use std::io::Write as _;
use std::path::Path;

/// A titled text section.
pub fn section(title: &str, body: &str) -> String {
    let bar = "=".repeat(title.len().max(8));
    format!("{title}\n{bar}\n{body}\n")
}

/// Render a list of paper-vs-measured checks.
pub fn render_checks(checks: &[Check]) -> String {
    let mut out = String::new();
    for c in checks {
        out.push_str(&c.render());
        out.push('\n');
    }
    let passed = checks.iter().filter(|c| c.pass()).count();
    out.push_str(&format!("-- {passed}/{} within tolerance\n", checks.len()));
    out
}

/// Render a list of shape checks.
pub fn render_shapes(shapes: &[ShapeCheck]) -> String {
    let mut out = String::new();
    for s in shapes {
        out.push_str(&s.render());
        out.push('\n');
    }
    let passed = shapes.iter().filter(|s| s.pass).count();
    out.push_str(&format!("-- {passed}/{} shape claims hold\n", shapes.len()));
    out
}

/// One row of a golden-digested suite, declared once: the `.csv` and
/// `.txt` table lines `repro` writes and the golden-digest entry the
/// snapshot tests pin.
pub trait Row {
    /// Comma-separated column names of the `.csv` table.
    const CSV_HEADER: &'static str;
    /// Header line (with its newline) of the `.txt` table.
    const TXT_HEADER: &'static str;
    /// The row as one `.csv` line, fields in [`Row::CSV_HEADER`] order.
    fn csv(&self) -> String;
    /// The row as one `.txt` line, newline included.
    fn txt(&self) -> String;
    /// Golden-file entry name, unique per row within its suite.
    fn key(&self) -> String;
    /// Canonical, formatting-stable rendering the golden digest hashes.
    fn canonical(&self) -> String;
}

/// Render rows as a `.txt` table: [`Row::TXT_HEADER`], then one line each.
pub fn render_rows<R: Row>(rows: &[R]) -> String {
    let mut out = R::TXT_HEADER.to_string();
    for r in rows {
        out.push_str(&r.txt());
    }
    out
}

/// Write a text report to `dir/<name>.txt` (creating `dir`).
pub fn write_text(dir: &Path, name: &str, body: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.txt")))?;
    f.write_all(body.as_bytes())
}

/// Write CSV rows (`header` then `rows`) to `dir/<name>.csv`.
pub fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Check;

    #[test]
    fn section_renders() {
        let s = section("Title", "body");
        assert!(s.contains("Title\n====="));
        assert!(s.ends_with("body\n"));
    }

    #[test]
    fn checks_summary_counts() {
        let checks = vec![
            Check::new("a", 1.0, 1.0, 0.0),
            Check::new("b", 1.0, 2.0, 0.0),
        ];
        let s = render_checks(&checks);
        assert!(s.contains("-- 1/2 within tolerance"));
    }

    #[test]
    fn files_written() {
        let dir = std::env::temp_dir().join("sio_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_text(&dir, "t", "hello").unwrap();
        write_csv(&dir, "c", "a,b", &["1,2".to_string()]).unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("t.txt")).unwrap(), "hello");
        let csv = std::fs::read_to_string(dir.join("c.csv")).unwrap();
        assert_eq!(csv, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
