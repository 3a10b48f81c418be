//! Long-read simulation with platform error models.

use crate::fastq::FastqRecord;
use crate::sim::genome::{random_base, random_other_base};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-base error rates of a sequencing platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Substitution probability per base.
    pub mismatch: f64,
    /// Insertion probability per base.
    pub insertion: f64,
    /// Deletion probability per base.
    pub deletion: f64,
}

impl ErrorModel {
    /// PacBio CLR-like error profile (~11% total, indel-heavy) — the
    /// Racon/IsoSeq data of the paper.
    pub const fn pacbio() -> Self {
        ErrorModel { mismatch: 0.015, insertion: 0.055, deletion: 0.04 }
    }

    /// An error-free model (for oracle tests).
    pub const fn perfect() -> Self {
        ErrorModel { mismatch: 0.0, insertion: 0.0, deletion: 0.0 }
    }

    /// Total per-base error probability.
    pub fn total(&self) -> f64 {
        self.mismatch + self.insertion + self.deletion
    }
}

/// Apply the error model to a template sequence.
pub fn mutate_sequence(template: &str, model: &ErrorModel, rng: &mut StdRng) -> String {
    let mut out = String::with_capacity(template.len() + template.len() / 8);
    for base in template.chars() {
        let roll: f64 = rng.gen();
        if roll < model.deletion {
            continue; // base dropped
        }
        if roll < model.deletion + model.insertion {
            out.push(random_base(rng)); // spurious insertion before base
        }
        if roll < model.deletion + model.insertion + model.mismatch {
            out.push(random_other_base(rng, base));
        } else {
            out.push(base);
        }
    }
    out
}

/// Sample `count` reads of roughly `mean_len` bases from `reference`,
/// applying `model` errors. Read positions are uniform; lengths vary ±25%.
pub fn sample_reads(
    reference: &str,
    count: usize,
    mean_len: usize,
    model: &ErrorModel,
    seed: u64,
) -> Vec<FastqRecord> {
    assert!(!reference.is_empty(), "empty reference");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reads = Vec::with_capacity(count);
    for i in 0..count {
        let len = (mean_len as f64 * rng.gen_range(0.75..1.25)) as usize;
        let len = len.clamp(1, reference.len());
        let start = rng.gen_range(0..=reference.len() - len);
        let template = &reference[start..start + len];
        let seq = mutate_sequence(template, model, &mut rng);
        // Quality proportional to the platform accuracy.
        let q = (-10.0 * model.total().max(1e-4).log10()) as u8;
        let qual: String = std::iter::repeat_n(char::from(33 + q.min(60)), seq.len()).collect();
        reads.push(FastqRecord { id: format!("read_{i}/{start}_{}", start + len), seq, qual });
    }
    reads
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ErrorModel {
        /// Uniformly scale all error rates.
        pub(crate) fn scaled(&self, factor: f64) -> Self {
            ErrorModel {
                mismatch: self.mismatch * factor,
                insertion: self.insertion * factor,
                deletion: self.deletion * factor,
            }
        }
    }
    use crate::sim::genome::random_genome;

    #[test]
    fn perfect_model_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = random_genome(2000, 5);
        assert_eq!(mutate_sequence(&t, &ErrorModel::perfect(), &mut rng), t);
    }

    #[test]
    fn error_rate_roughly_matches_model() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = random_genome(200_000, 9);
        let model = ErrorModel::pacbio();
        let mutated = mutate_sequence(&t, &model, &mut rng);
        // Length shifts by insertion − deletion rate.
        let expected_len = t.len() as f64 * (1.0 + model.insertion - model.deletion);
        let delta = (mutated.len() as f64 - expected_len).abs() / t.len() as f64;
        assert!(delta < 0.01, "length off by {delta}");
    }

    #[test]
    fn reads_are_deterministic_and_sized() {
        let reference = random_genome(10_000, 11);
        let a = sample_reads(&reference, 50, 1000, &ErrorModel::pacbio(), 42);
        let b = sample_reads(&reference, 50, 1000, &ErrorModel::pacbio(), 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for read in &a {
            assert!(read.len() > 500 && read.len() < 1500, "{}", read.len());
            assert_eq!(read.seq.len(), read.qual.len());
        }
    }

    #[test]
    fn read_ids_encode_position() {
        let reference = random_genome(5_000, 1);
        let reads = sample_reads(&reference, 3, 800, &ErrorModel::perfect(), 7);
        for read in &reads {
            let coords = read.id.split('/').nth(1).unwrap();
            let (s, e) = coords.split_once('_').unwrap();
            let (s, e): (usize, usize) = (s.parse().unwrap(), e.parse().unwrap());
            assert_eq!(&reference[s..e], read.seq); // perfect model
        }
    }

    #[test]
    fn scaled_model() {
        let m = ErrorModel::pacbio().scaled(0.5);
        assert!((m.total() - ErrorModel::pacbio().total() * 0.5).abs() < 1e-12);
    }

    #[test]
    fn short_reference_clamps_length() {
        let reads = sample_reads("ACGTACGT", 5, 100, &ErrorModel::perfect(), 3);
        for r in reads {
            assert!(r.len() <= 8);
        }
    }
}
