//! Plain-text result tables (markdown and CSV).

use std::fmt;

/// A titled table of experiment results.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (figure/table id plus description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must match the header arity.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes rendered under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// A table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the headers.
    pub fn push_row<I: IntoIterator<Item = String>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(row);
    }

    /// Append a free-form note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render as GitHub-flavored markdown.
    pub fn markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.markdown())
    }
}

/// Format a float with 2 decimals.
pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 1 decimal.
pub(crate) fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a fraction as a percentage with 1 decimal.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("Fig X", &["a", "b"]);
        t.push_row(["1".into(), "2".into()]);
        t.note("hello");
        let md = t.markdown();
        assert!(md.contains("### Fig X"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("> hello"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", &["x", "y"]);
        t.push_row(["3".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(pct(0.035), "3.5%");
    }
}
