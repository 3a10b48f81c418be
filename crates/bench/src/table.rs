//! Minimal ASCII table rendering for gate output.

/// A simple left-padded column table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> =
                cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            format!("| {} |", parts.join(" | "))
        };
        let sep: String =
            format!("+{}+", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+"));
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["config", "time"]);
        t.row(&["cpu-4t".into(), "3.22 s".into()]);
        t.row(&["gpu".into(), "1.72 s".into()]);
        let r = t.render();
        assert!(r.contains("| config |"));
        assert!(r.contains("| cpu-4t | 3.22 s |"));
        assert_eq!(r.lines().filter(|l| l.starts_with('+')).count(), 3);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_length_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
