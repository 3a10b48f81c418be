//! Named dataset descriptors with paper-scale work factors.
//!
//! The paper's experiments run on multi-GB downloads we cannot ship:
//! the 17 GB Alzheimer IsoSeq NFL dataset (Racon), and the 1.5 GB
//! Acinetobacter_pittii / 5.2 GB Klebsiella_pneumoniae_KSB2 raw fast5 sets
//! (Bonito). Each descriptor pairs a laptop-scale synthetic instance with
//! a `work_scale` factor: the tools compute real results on the synthetic
//! instance and multiply their work accounting by `work_scale` so
//! virtual-time runtimes land at paper scale.

use serde::{Deserialize, Serialize};

/// Which tool a dataset feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// PacBio reads + draft assembly (Racon input).
    PacbioIsoseq,
    /// Nanopore raw signal (Bonito input).
    NanoporeFast5,
}

/// A named dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name as the paper cites it.
    pub name: &'static str,
    /// What the data is.
    pub kind: DatasetKind,
    /// Size of the real dataset in bytes (as reported by the paper).
    pub paper_bytes: f64,
    /// Synthetic reference genome length for the laptop-scale instance.
    pub genome_len: usize,
    /// Number of synthetic reads.
    pub n_reads: usize,
    /// Mean synthetic read length.
    pub read_len: usize,
    /// RNG seed for generation.
    pub seed: u64,
}

impl DatasetSpec {
    /// The 17 GB Alzheimer IsoSeq NFL dataset used for all Racon
    /// experiments (paper §VI-A).
    pub const fn alzheimers_nfl() -> Self {
        DatasetSpec {
            name: "Alzheimers_NFL_IsoSeq",
            kind: DatasetKind::PacbioIsoseq,
            paper_bytes: 17e9,
            genome_len: 30_000,
            n_reads: 240,
            read_len: 2_000,
            seed: 0x5eed_a15e,
        }
    }

    /// The 1.5 GB Acinetobacter_pittii fast5 dataset (Bonito, Fig. 5).
    pub const fn acinetobacter_pittii() -> Self {
        DatasetSpec {
            name: "Acinetobacter_pittii",
            kind: DatasetKind::NanoporeFast5,
            paper_bytes: 1.5e9,
            genome_len: 12_000,
            n_reads: 24,
            read_len: 1_500,
            seed: 0xacbb_0001,
        }
    }

    /// The 5.2 GB Klebsiella_pneumoniae_KSB2 fast5 dataset (Bonito,
    /// Fig. 5).
    pub const fn klebsiella_ksb2() -> Self {
        DatasetSpec {
            name: "Klebsiella_pneumoniae_KSB2",
            kind: DatasetKind::NanoporeFast5,
            paper_bytes: 5.2e9,
            genome_len: 12_000,
            n_reads: 83, // ≈ 5.2/1.5 × the Acinetobacter read count
            read_len: 1_500,
            seed: 0x6b5b_0002,
        }
    }

    /// Approximate bytes of the laptop-scale synthetic instance.
    pub fn synthetic_bytes(&self) -> f64 {
        match self.kind {
            DatasetKind::PacbioIsoseq => (self.n_reads * self.read_len) as f64 * 2.0,
            // Raw signal: ~10 samples/base × 4 bytes (f32) plus overhead.
            DatasetKind::NanoporeFast5 => (self.n_reads * self.read_len) as f64 * 10.0 * 4.0 * 1.4,
        }
    }

    /// All paper datasets.
    pub fn all() -> Vec<DatasetSpec> {
        vec![Self::alzheimers_nfl(), Self::acinetobacter_pittii(), Self::klebsiella_ksb2()]
    }

    /// Look up a dataset by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<DatasetSpec> {
        Self::all().into_iter().find(|d| d.name.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DatasetSpec {
        /// Factor by which to scale work accounting to reach paper scale.
        fn work_scale(&self) -> f64 {
            self.paper_bytes / self.synthetic_bytes()
        }
    }

    #[test]
    fn work_scales_are_large_and_ordered() {
        let alz = DatasetSpec::alzheimers_nfl();
        let aci = DatasetSpec::acinetobacter_pittii();
        let kleb = DatasetSpec::klebsiella_ksb2();
        assert!(alz.work_scale() > 1_000.0);
        // Klebsiella is ~3.5× Acinetobacter in paper bytes and carries
        // proportionally more reads, so per-read scale is comparable.
        let ratio = kleb.paper_bytes / aci.paper_bytes;
        assert!((ratio - 3.466).abs() < 0.01);
        let per_read_aci = aci.work_scale();
        let per_read_kleb = kleb.work_scale();
        assert!(
            (per_read_kleb / per_read_aci - 1.0).abs() < 0.05,
            "{per_read_kleb} vs {per_read_aci}"
        );
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            DatasetSpec::by_name("alzheimers_nfl_isoseq").unwrap().name,
            "Alzheimers_NFL_IsoSeq"
        );
        assert!(DatasetSpec::by_name("nope").is_none());
    }

    #[test]
    fn all_have_distinct_seeds_and_names() {
        let all = DatasetSpec::all();
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
