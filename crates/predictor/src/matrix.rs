//! Minimal dense-matrix support for the LSTM.
//!
//! The model is tiny (≤ 20 hidden units), so naive row-major loops are both
//! clear and fast enough; no external linear-algebra crate is needed.

// Explicit index loops mirror the BPTT equations; iterator rewrites would
// obscure the row/column structure the gradient checks are written against.
#![allow(clippy::needless_range_loop)]

/// A row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major storage, `rows * cols` entries.
    pub data: Vec<f64>,
}

impl Mat {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// `out += self · x` (matrix–vector product).
    pub fn matvec_add(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            out[r] += acc;
        }
    }

    /// `out += selfᵀ · y` (transposed matrix–vector product, for backprop).
    pub fn matvec_t_add(&self, y: &[f64], out: &mut [f64]) {
        debug_assert_eq!(y.len(), self.rows);
        debug_assert_eq!(out.len(), self.cols);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let yr = y[r];
            for (o, a) in out.iter_mut().zip(row) {
                *o += yr * a;
            }
        }
    }

    /// `self += a ⊗ b` (outer-product accumulation, for gradients).
    pub fn outer_add(&mut self, a: &[f64], b: &[f64]) {
        debug_assert_eq!(a.len(), self.rows);
        debug_assert_eq!(b.len(), self.cols);
        for r in 0..self.rows {
            let ar = a[r];
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (el, bv) in row.iter_mut().zip(b) {
                *el += ar * bv;
            }
        }
    }

    /// Sets every element to zero (gradient reset between samples).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_manual() {
        // [[1,2],[3,4],[5,6]] · [10, 100] = [210, 430, 650]
        let m = Mat::from_fn(3, 2, |r, c| (r * 2 + c + 1) as f64);
        let mut out = vec![0.0; 3];
        m.matvec_add(&[10.0, 100.0], &mut out);
        assert_eq!(out, vec![210.0, 430.0, 650.0]);
        // accumulation semantics
        m.matvec_add(&[10.0, 100.0], &mut out);
        assert_eq!(out, vec![420.0, 860.0, 1300.0]);
    }

    #[test]
    fn transpose_matvec_matches_manual() {
        let m = Mat::from_fn(3, 2, |r, c| (r * 2 + c + 1) as f64);
        let mut out = vec![0.0; 2];
        m.matvec_t_add(&[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![1.0 + 3.0 + 5.0, 2.0 + 4.0 + 6.0]);
    }

    #[test]
    fn outer_add_accumulates() {
        let mut m = Mat::zeros(2, 3);
        m.outer_add(&[1.0, 2.0], &[10.0, 20.0, 30.0]);
        assert_eq!(m.at(0, 0), 10.0);
        assert_eq!(m.at(1, 2), 60.0);
        m.outer_add(&[1.0, 2.0], &[10.0, 20.0, 30.0]);
        assert_eq!(m.at(1, 2), 120.0);
        m.clear();
        assert_eq!(m.data, vec![0.0; 6]);
    }
}
