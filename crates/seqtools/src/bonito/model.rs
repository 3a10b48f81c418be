//! The basecalling network definition.

use crate::nn::{Activation, Conv1d, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A stack of 1-D convolutions followed by a linear 5-class (blank + ACGT)
/// head. The head is kept separate so `bonito train` can fine-tune it
/// while the feature stack stays frozen.
#[derive(Debug, Clone)]
pub struct BonitoModel {
    convs: Vec<Conv1d>,
    /// Head weights, `(5) × (c_features)`.
    head_w: Matrix,
    /// Head bias, one per class.
    head_b: Vec<f32>,
}

fn head_init(c_in: usize, seed: u64) -> (Matrix, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = (2.0 / c_in as f32).sqrt();
    let w = Matrix::from_fn(5, c_in, |_, _| rng.gen_range(-scale..scale));
    let b = (0..5).map(|_| rng.gen_range(-0.05..0.05)).collect();
    (w, b)
}

impl BonitoModel {
    /// The default model: 1→16 (k5 s1), 16→32 (k5 s2), 32→64 (k5 s2)
    /// convolutions plus a 64→5 head. Weights are deterministic for a
    /// seed.
    ///
    /// The paper only measures runtime (the authors use a downloaded
    /// pre-trained model); weights here are random-but-fixed, which
    /// exercises the identical compute path.
    pub fn pretrained(seed: u64) -> Self {
        let convs = vec![
            Conv1d::new_seeded(1, 16, 5, 1, Activation::Swish, seed ^ 0x01),
            Conv1d::new_seeded(16, 32, 5, 2, Activation::Swish, seed ^ 0x02),
            Conv1d::new_seeded(32, 64, 5, 2, Activation::Swish, seed ^ 0x03),
        ];
        let (head_w, head_b) = head_init(64, seed ^ 0x04);
        BonitoModel { convs, head_w, head_b }
    }

    /// Total downsampling factor (signal samples per output timestep).
    pub fn downsample(&self) -> usize {
        self.convs.iter().map(|l| l.stride).product()
    }

    /// Channel count the head consumes.
    pub fn feature_channels(&self) -> usize {
        self.head_w.cols()
    }

    /// FLOPs for a forward pass over `t` input samples (convs + head).
    pub fn flops(&self, t: usize) -> f64 {
        let mut total = 0.0;
        let mut len = t;
        for layer in &self.convs {
            total += layer.flops(len);
            len = layer.out_len(len);
        }
        total + Matrix::matmul_flops(5, self.head_w.cols(), len)
    }

    /// Run the frozen feature stack: raw signal → `(c_features) × t_out`.
    pub fn features(&self, signal: &[f32]) -> Matrix {
        let mut x = Matrix::from_vec(1, signal.len(), signal.to_vec());
        for layer in &self.convs {
            x = layer.forward(&x);
        }
        x
    }

    /// Apply the head: features → `(5) × t_out` logits.
    pub fn head_forward(&self, features: &Matrix) -> Matrix {
        let mut logits = self.head_w.matmul(features);
        logits.add_row_bias(&self.head_b);
        logits
    }

    /// One SGD step on the head: `W -= lr · dW`, `b -= lr · db`.
    pub fn head_apply_gradient(&mut self, grad_w: &Matrix, grad_b: &[f32], lr: f32) {
        assert_eq!(grad_w.rows(), 5);
        assert_eq!(grad_w.cols(), self.head_w.cols(), "gradient shape mismatch");
        assert_eq!(grad_b.len(), 5);
        let cols = self.head_w.cols();
        for (r, &gb) in grad_b.iter().enumerate() {
            for c in 0..cols {
                let w = self.head_w.get(r, c) - lr * grad_w.get(r, c);
                self.head_w.set(r, c, w);
            }
            self.head_b[r] -= lr * gb;
        }
    }

    /// Forward pass: raw signal chunk → `(5) × t_out` logits.
    pub fn forward(&self, signal: &[f32]) -> Matrix {
        self.head_forward(&self.features(signal))
    }

    /// Per-layer GEMM shapes `(m, k, n)` for a chunk of `t` samples —
    /// what the GPU path launches as kernels (convs then head).
    pub fn gemm_shapes(&self, t: usize) -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::with_capacity(self.convs.len() + 1);
        let mut len = t;
        for layer in &self.convs {
            let out = layer.out_len(len);
            shapes.push((layer.c_out, layer.c_in * layer.kernel, out));
            len = out;
        }
        shapes.push((5, self.head_w.cols(), len));
        shapes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BonitoModel {
        /// The convolutional feature stack.
        fn layers(&self) -> &[Conv1d] {
            &self.convs
        }

        /// A tiny model for fast tests.
        pub(crate) fn tiny(seed: u64) -> Self {
            let convs = vec![
                Conv1d::new_seeded(1, 4, 5, 2, Activation::Swish, seed ^ 0x11),
                Conv1d::new_seeded(4, 6, 3, 2, Activation::Swish, seed ^ 0x12),
            ];
            let (head_w, head_b) = head_init(6, seed ^ 0x13);
            BonitoModel { convs, head_w, head_b }
        }
    }

    #[test]
    fn forward_shape() {
        let m = BonitoModel::pretrained(7);
        let signal = vec![0.1f32; 400];
        let logits = m.forward(&signal);
        assert_eq!(logits.rows(), 5);
        assert_eq!(logits.cols(), 100); // two stride-2 layers
        assert_eq!(m.downsample(), 4);
        assert_eq!(m.feature_channels(), 64);
    }

    #[test]
    fn deterministic_forward() {
        let a = BonitoModel::pretrained(9).forward(&[0.5; 64]);
        let b = BonitoModel::pretrained(9).forward(&[0.5; 64]);
        assert_eq!(a, b);
    }

    #[test]
    fn flops_positive_and_scaling() {
        let m = BonitoModel::pretrained(1);
        let f1 = m.flops(1_000);
        let f2 = m.flops(2_000);
        assert!(f1 > 0.0);
        let ratio = f2 / f1;
        assert!(ratio > 1.9 && ratio < 2.1, "{ratio}");
    }

    #[test]
    fn gemm_shapes_cover_convs_and_head() {
        let m = BonitoModel::pretrained(1);
        let shapes = m.gemm_shapes(1_000);
        assert_eq!(shapes.len(), m.layers().len() + 1);
        assert_eq!(shapes[0], (16, 5, 1_000));
        assert_eq!(shapes[1], (32, 80, 500));
        assert_eq!(*shapes.last().unwrap(), (5, 64, 250));
        let flops_from_shapes: f64 =
            shapes.iter().map(|&(a, b, c)| Matrix::matmul_flops(a, b, c)).sum();
        assert!((flops_from_shapes - m.flops(1_000)).abs() < 1.0);
    }

    #[test]
    fn tiny_model_is_small() {
        let tiny = BonitoModel::tiny(1);
        let full = BonitoModel::pretrained(1);
        assert!(tiny.flops(1_000) < full.flops(1_000) / 10.0);
    }

    #[test]
    fn head_gradient_step_changes_output() {
        let mut m = BonitoModel::tiny(5);
        let before = m.forward(&[0.2; 100]);
        let grad = Matrix::from_fn(5, m.feature_channels(), |_, _| 1.0);
        m.head_apply_gradient(&grad, &[1.0; 5], 0.1);
        let after = m.forward(&[0.2; 100]);
        assert_ne!(before, after);
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn gradient_shape_checked() {
        let mut m = BonitoModel::tiny(5);
        let grad = Matrix::zeros(5, 3);
        m.head_apply_gradient(&grad, &[0.0; 5], 0.1);
    }
}
