//! Row-major `f32` matrices with a blocked, rayon-parallel GEMM.

use rayon::prelude::*;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Cache-blocking tile edge for GEMM.
const TILE: usize = 64;

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Build with a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// FLOPs of `a.matmul(b)`: `2·m·n·k`.
    pub fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
        2.0 * m as f64 * k as f64 * n as f64
    }

    /// Blocked parallel GEMM: `self (m×k) × other (k×n)`.
    ///
    /// Parallelizes over row tiles with rayon and walks `other` row-wise
    /// inside the kernel so all accesses are sequential.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];

        out.par_chunks_mut(TILE * n).enumerate().for_each(|(tile_idx, out_tile)| {
            let r0 = tile_idx * TILE;
            let r1 = (r0 + TILE).min(m);
            for kk0 in (0..k).step_by(TILE) {
                let kk1 = (kk0 + TILE).min(k);
                for r in r0..r1 {
                    let a_row = &self.data[r * k..(r + 1) * k];
                    let o_row = &mut out_tile[(r - r0) * n..(r - r0 + 1) * n];
                    for (kk, &a) in a_row.iter().enumerate().take(kk1).skip(kk0) {
                        if a == 0.0 {
                            continue;
                        }
                        let b_row = &other.data[kk * n..(kk + 1) * n];
                        for (o, &b) in o_row.iter_mut().zip(b_row) {
                            *o += a * b;
                        }
                    }
                }
            }
        });
        Matrix { rows: m, cols: n, data: out }
    }

    /// Naive reference GEMM (what the blocked one is tested against).
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for r in 0..m {
            for c in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += self.get(r, kk) * other.get(kk, c);
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    /// Element-wise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        self.data.par_iter_mut().for_each(|v| *v = f(*v));
    }

    /// Add a per-row bias vector in place.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.rows, "one bias per row");
        for (r, &b) in bias.iter().enumerate() {
            for v in &mut self.data[r * self.cols..(r + 1) * self.cols] {
                *v += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn blocked_matches_naive() {
        for (m, k, n) in [(3, 4, 5), (64, 64, 64), (65, 130, 17), (1, 100, 1)] {
            let a = random_matrix(m, k, 1);
            let b = random_matrix(k, n, 2);
            let fast = a.matmul(&b);
            let slow = a.matmul_naive(&b);
            for i in 0..m * n {
                assert!(
                    (fast.as_slice()[i] - slow.as_slice()[i]).abs() < 1e-3,
                    "({m},{k},{n}) idx {i}"
                );
            }
        }
    }

    #[test]
    fn identity_multiplication() {
        let a = random_matrix(10, 10, 3);
        let eye = Matrix::from_fn(10, 10, |r, c| if r == c { 1.0 } else { 0.0 });
        let prod = a.matmul(&eye);
        for i in 0..100 {
            assert!((prod.as_slice()[i] - a.as_slice()[i]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn bias_and_map() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_bias(&[1.0, -1.0]);
        assert_eq!(m.row(0), &[1.0, 1.0, 1.0]);
        assert_eq!(m.row(1), &[-1.0, -1.0, -1.0]);
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m.row(1), &[-2.0, -2.0, -2.0]);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(Matrix::matmul_flops(2, 3, 4), 48.0);
    }

    #[test]
    fn accessors() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, 5.0);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }
}
