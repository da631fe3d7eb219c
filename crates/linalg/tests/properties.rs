//! Randomized tests for the linear-algebra kernels (seeded, in-tree PRNG).

use cm_linalg::rng::{Rng, StdRng};
use cm_linalg::{dot, softmax_in_place, Matrix};
use cm_par::ParConfig;

const CASES: u64 = 48;

fn matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

fn vector(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect()
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!((x - y).abs() <= tol, "{x} vs {y}");
    }
}

/// (A B) C == A (B C) within float tolerance.
#[test]
fn matmul_is_associative() {
    let par = ParConfig::serial();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA550C ^ case);
        let a = matrix(&mut rng, 3, 4);
        let b = matrix(&mut rng, 4, 5);
        let c = matrix(&mut rng, 5, 2);
        let left = a.matmul(&b, &par).matmul(&c, &par);
        let right = a.matmul(&b.matmul(&c, &par), &par);
        assert_close(&left, &right, 1e-2);
    }
}

/// A (B + C) == A B + A C.
#[test]
fn matmul_distributes() {
    let par = ParConfig::serial();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD157 ^ case);
        let a = matrix(&mut rng, 3, 4);
        let b = matrix(&mut rng, 4, 3);
        let c = matrix(&mut rng, 4, 3);
        let mut sum = b.clone();
        sum.add_assign(&c);
        let left = a.matmul(&sum, &par);
        let mut right = a.matmul(&b, &par);
        right.add_assign(&a.matmul(&c, &par));
        assert_close(&left, &right, 1e-3);
    }
}

/// (A B)^T == B^T A^T.
#[test]
fn transpose_reverses_products() {
    let par = ParConfig::serial();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7123 ^ case);
        let a = matrix(&mut rng, 3, 4);
        let b = matrix(&mut rng, 4, 2);
        let left = a.matmul(&b, &par).transpose();
        let right = b.transpose().matmul(&a.transpose(), &par);
        assert_close(&left, &right, 1e-4);
    }
}

/// matvec agrees with matmul against a column matrix.
#[test]
fn matvec_matches_matmul() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3A7 ^ case);
        let a = matrix(&mut rng, 4, 3);
        let x = vector(&mut rng, 3);
        let via_vec = a.matvec(&x);
        let col = Matrix::from_vec(3, 1, x);
        let via_mat = a.matmul(&col, &ParConfig::serial());
        for (i, v) in via_vec.iter().enumerate() {
            assert!((v - via_mat[(i, 0)]).abs() < 1e-4);
        }
    }
}

/// dot is symmetric and |dot| obeys Cauchy-Schwarz.
#[test]
fn dot_axioms() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD07 ^ case);
        let x = vector(&mut rng, 6);
        let y = vector(&mut rng, 6);
        let xy = dot(&x, &y);
        let yx = dot(&y, &x);
        assert!((xy - yx).abs() < 1e-4);
        let bound = cm_linalg::l2_norm(&x) * cm_linalg::l2_norm(&y);
        assert!(xy.abs() <= bound * (1.0 + 1e-4) + 1e-5);
    }
}

/// softmax outputs a probability vector and preserves argmax.
#[test]
fn softmax_is_a_distribution() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x50F ^ case);
        let mut x = vector(&mut rng, 5);
        let argmax_before = cm_linalg::argmax(&x);
        softmax_in_place(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(cm_linalg::argmax(&x), argmax_before);
    }
}

/// Frobenius norm is zero iff the matrix is zero; scaling scales it.
#[test]
fn frobenius_scaling() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF20 ^ case);
        let a = matrix(&mut rng, 3, 3);
        let s = rng.gen_range(-4.0f32..4.0);
        let n = a.frobenius_norm();
        let mut b = a.clone();
        b.scale(s);
        assert!((b.frobenius_norm() - s.abs() * n).abs() < 1e-2 * (1.0 + n));
    }
}
