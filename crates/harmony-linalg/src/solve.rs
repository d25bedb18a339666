//! Square linear systems via LU factorization with partial pivoting.

use crate::Matrix;

/// Error produced when a square system cannot be solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// The matrix is not square.
    NotSquare,
    /// A pivot smaller than the singularity threshold was encountered.
    Singular,
    /// Right-hand side length does not match the matrix dimension.
    DimensionMismatch,
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::NotSquare => write!(f, "matrix is not square"),
            LuError::Singular => write!(f, "matrix is singular to working precision"),
            LuError::DimensionMismatch => write!(f, "rhs length does not match matrix"),
        }
    }
}

impl std::error::Error for LuError {}

/// Pivot threshold below which a matrix is declared singular.
const PIVOT_EPS: f64 = 1e-12;

/// An LU factorization `P·A = L·U` stored compactly (L below the diagonal
/// with implicit unit diagonal, U on and above it).
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: Matrix,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Factor a square matrix. Fails on non-square or singular input.
    pub fn new(a: &Matrix) -> Result<Self, LuError> {
        if a.rows() != a.cols() {
            return Err(LuError::NotSquare);
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: bring the largest remaining |entry| in
            // column k to the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < PIVOT_EPS {
                return Err(LuError::Singular);
            }
            if pivot_row != k {
                lu.swap_rows(pivot_row, k);
                perm.swap(pivot_row, k);
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        let ukc = lu[(k, c)];
                        lu[(r, c)] -= factor * ukc;
                    }
                }
            }
        }
        Ok(LuFactors { lu, perm })
    }

    /// Solve `A·x = b` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LuError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LuError::DimensionMismatch);
        }
        // Apply the permutation, then forward- and back-substitute.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }
}

/// Solve the square system `A·x = b`.
///
/// This is the `x = A⁻¹·b` step of the paper's §4.3 triangulation when the
/// system is exactly determined (k = N+1 vertices for N parameters).
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LuError> {
    LuFactors::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn solves_identity() {
        let x = lu_solve(&Matrix::identity(3), &[1.0, 2.0, 3.0]).unwrap();
        assert_close(&x, &[1.0, 2.0, 3.0], 1e-12);
    }

    #[test]
    fn solves_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = lu_solve(&a, &[5.0, 10.0]).unwrap();
        assert_close(&x, &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = lu_solve(&a, &[2.0, 3.0]).unwrap();
        assert_close(&x, &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(lu_solve(&a, &[1.0, 2.0]), Err(LuError::Singular));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(lu_solve(&a, &[1.0, 2.0]), Err(LuError::NotSquare));
    }

    #[test]
    fn rhs_mismatch_rejected() {
        let a = Matrix::identity(2);
        assert_eq!(lu_solve(&a, &[1.0]), Err(LuError::DimensionMismatch));
    }

    #[test]
    fn residual_is_small_for_random_like_system() {
        // Deterministic pseudo-random fill; checks A·x ≈ b.
        let n = 8;
        let mut vals = Vec::with_capacity(n * n);
        let mut s = 1234567u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for _ in 0..n * n {
            vals.push(next() * 10.0);
        }
        let a = Matrix::from_vec(n, n, vals);
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = lu_solve(&a, &b).unwrap();
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-8);
        }
    }
}
