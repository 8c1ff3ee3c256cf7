//! Table rendering (markdown + CSV) and experiment-output file handling.
//!
//! The experiment binaries print human-readable markdown tables to stdout
//! (the "same rows the paper reports") and drop machine-readable CSVs under
//! `target/experiments/` as stable artifacts for downstream scripts.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple rectangular table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) -> &mut Self {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders as a GitHub-flavored markdown table with aligned columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}\n", self.title);
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {cell:w$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", render_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<width$}|", "", width = w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }

    /// Renders as CSV (headers first; commas inside cells are replaced by
    /// semicolons to keep the format trivial).
    pub fn to_csv(&self) -> String {
        let clean = |s: &str| s.replace(',', ";");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| clean(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| clean(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// The directory experiment artifacts are written to
/// (`target/experiments`), created on demand.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn experiments_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes `contents` to `target/experiments/<name>` and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let path = experiments_dir()?.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Formats a float compactly for table cells: integers without decimals,
/// large values in scientific notation, small ones with 3 significant
/// digits.
pub fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a >= 1e6 {
        format!("{v:.2e}")
    } else if (v.round() - v).abs() < 1e-9 && a < 1e6 {
        format!("{}", v.round() as i64)
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_alignment() {
        let mut t = Table::new("Demo", &["graph", "rounds"]);
        t.push_row(vec!["ring".into(), "120".into()]);
        t.push_row(vec!["hypercube".into(), "7".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| graph     | rounds |"));
        assert!(md.contains("| ring      | 120    |"));
        assert!(md
            .lines()
            .any(|l| l.starts_with("|---") || l.starts_with("|--")));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "Demo");
    }

    #[test]
    fn csv_rendering_escapes_commas() {
        let mut t = Table::new("", &["a", "b,c"]);
        t.push_row(vec!["1,5".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b;c\n1;5,2\n");
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(0.5), "0.500");
        assert_eq!(fmt_value(123.456), "123.5");
        assert_eq!(fmt_value(2.5e7), "2.50e7");
        assert_eq!(fmt_value(f64::INFINITY), "inf");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn artifacts_roundtrip() {
        let path = write_artifact("test_artifact.csv", "a,b\n1,2\n").unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, "a,b\n1,2\n");
        std::fs::remove_file(path).ok();
    }
}
