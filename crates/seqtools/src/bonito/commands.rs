//! `bonito convert`, the training-data subcommand of the ones the paper
//! lists (§V-A); the `paper` gate's AMP rows train on its chunks.
//!
//! "It has several functionalities, like training a bonito model (bonito
//! train), converting an hdf5 training file into a bonito format (bonito
//! convert), evaluating a model performance (bonito evaluate),
//! downloading pre-trained models and training datasets (bonito
//! download), and basecaller ..."

/// One chunk of training data in "bonito format": a signal window and
/// its target sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingChunk {
    /// Raw signal samples.
    pub signal: Vec<f32>,
    /// Target nucleotide sequence.
    pub target: String,
}

/// `bonito convert`: slice an (hdf5-like) set of reads — raw signal plus
/// ground-truth sequence — into fixed-length training chunks, dropping
/// chunks whose signal or target is degenerate.
pub fn convert_training_data(
    signals: &[Vec<f32>],
    targets: &[String],
    chunk_samples: usize,
    samples_per_base: usize,
) -> Vec<TrainingChunk> {
    assert_eq!(signals.len(), targets.len(), "one target per signal");
    assert!(chunk_samples > 0 && samples_per_base > 0);
    let mut chunks = Vec::new();
    for (signal, target) in signals.iter().zip(targets) {
        let bases_per_chunk = chunk_samples / samples_per_base;
        for (i, window) in signal.chunks(chunk_samples).enumerate() {
            if window.len() < chunk_samples {
                continue; // drop ragged tail
            }
            let t_lo = (i * bases_per_chunk).min(target.len());
            let t_hi = ((i + 1) * bases_per_chunk).min(target.len());
            if t_hi <= t_lo {
                continue;
            }
            chunks.push(TrainingChunk {
                signal: window.to_vec(),
                target: target[t_lo..t_hi].to_string(),
            });
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convert_chunks_align_signal_and_target() {
        let signals = vec![vec![0.0f32; 1000], vec![0.0f32; 250]];
        let targets = vec!["A".repeat(100), "C".repeat(25)];
        let chunks = convert_training_data(&signals, &targets, 250, 10);
        // Read 1: four full chunks; read 2: one.
        assert_eq!(chunks.len(), 5);
        for c in &chunks {
            assert_eq!(c.signal.len(), 250);
            assert_eq!(c.target.len(), 25);
        }
    }

    #[test]
    fn convert_drops_ragged_tails() {
        let signals = vec![vec![0.0f32; 990]];
        let targets = vec!["A".repeat(99)];
        let chunks = convert_training_data(&signals, &targets, 250, 10);
        assert_eq!(chunks.len(), 3); // 990 / 250 = 3 full windows
    }

    #[test]
    #[should_panic(expected = "one target per signal")]
    fn convert_validates_lengths() {
        convert_training_data(&[vec![0.0; 10]], &[], 10, 1);
    }
}
