//! The FASTQ read record (Sanger/Phred+33 qualities) the read simulator
//! returns.

/// One FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Read id without the `@`.
    pub id: String,
    /// Sequence.
    pub seq: String,
    /// Phred+33 quality string, same length as `seq`.
    pub qual: String,
}

impl FastqRecord {
    /// Read length.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the read is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}
