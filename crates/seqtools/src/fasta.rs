//! FASTA writing.

/// One FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header line without the `>`.
    pub id: String,
    /// Sequence (uppercase ACGTN).
    pub seq: String,
}

impl FastaRecord {
    /// Create a record.
    pub fn new(id: impl Into<String>, seq: impl Into<String>) -> Self {
        FastaRecord { id: id.into(), seq: seq.into() }
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// Write records as FASTA with `width`-column wrapping (0 = no wrapping).
pub fn write_fasta(records: &[FastaRecord], width: usize) -> String {
    let mut out = String::new();
    for rec in records {
        out.push('>');
        out.push_str(&rec.id);
        out.push('\n');
        if width == 0 {
            out.push_str(&rec.seq);
            out.push('\n');
        } else {
            for chunk in rec.seq.as_bytes().chunks(width) {
                out.push_str(std::str::from_utf8(chunk).expect("ASCII sequence"));
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reader the writer is checked against: FASTA text into records.
    /// Multi-line sequences are concatenated; blank lines are ignored;
    /// sequence characters are validated and uppercased.
    pub(crate) fn parse_fasta(text: &str) -> Result<Vec<FastaRecord>, String> {
        let mut records = Vec::new();
        let mut current: Option<FastaRecord> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('>') {
                if let Some(rec) = current.take() {
                    if rec.seq.is_empty() {
                        return Err(format!("record {:?} has no sequence", rec.id));
                    }
                    records.push(rec);
                }
                let id = header.trim();
                if id.is_empty() {
                    return Err(format!("empty header at line {}", lineno + 1));
                }
                current = Some(FastaRecord::new(id, String::new()));
            } else {
                let rec = current
                    .as_mut()
                    .ok_or_else(|| format!("sequence before header at line {}", lineno + 1))?;
                for ch in line.chars() {
                    let up = ch.to_ascii_uppercase();
                    if !matches!(up, 'A' | 'C' | 'G' | 'T' | 'N') {
                        return Err(format!("illegal character {ch:?} at line {}", lineno + 1));
                    }
                    rec.seq.push(up);
                }
            }
        }
        if let Some(rec) = current {
            if rec.seq.is_empty() {
                return Err(format!("record {:?} has no sequence", rec.id));
            }
            records.push(rec);
        }
        Ok(records)
    }

    #[test]
    fn parse_simple() {
        let recs = parse_fasta(">r1 desc\nACGT\nacgt\n>r2\nNNNN\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "r1 desc");
        assert_eq!(recs[0].seq, "ACGTACGT"); // multi-line + uppercased
        assert_eq!(recs[1].seq, "NNNN");
    }

    #[test]
    fn roundtrip_with_wrapping() {
        let recs = vec![FastaRecord::new("x", "ACGTACGTACGT")];
        for width in [0, 4, 5, 100] {
            let text = write_fasta(&recs, width);
            assert_eq!(parse_fasta(&text).unwrap(), recs, "width {width}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse_fasta("ACGT\n").is_err()); // sequence before header
        assert!(parse_fasta(">\nACGT\n").is_err()); // empty header
        assert!(parse_fasta(">x\nACXT\n").is_err()); // illegal char
        assert!(parse_fasta(">x\n>y\nACGT\n").is_err()); // empty record
        assert!(parse_fasta(">x\nACGT\n>y\n").is_err()); // trailing empty record
    }

    #[test]
    fn empty_input_is_empty_vec() {
        assert!(parse_fasta("").unwrap().is_empty());
        assert!(parse_fasta("\n\n").unwrap().is_empty());
    }

    proptest! {
        /// FASTA round-trips arbitrary valid records at any wrap width.
        #[test]
        fn fasta_roundtrip(
            seqs in prop::collection::vec("[ACGTN]{1,80}", 1..5),
            width in 0usize..50,
        ) {
            let records: Vec<FastaRecord> = seqs
                .iter()
                .enumerate()
                .map(|(i, s)| FastaRecord::new(format!("r{i}"), s.clone()))
                .collect();
            prop_assert_eq!(parse_fasta(&write_fasta(&records, width)).unwrap(), records);
        }
    }
}
