// BLAS-like dense kernels for the BMF numerics.
//
// Level 1: dot, axpy, scal, norms. Level 2: gemv (A*x, A^T*x).
// Level 3: cache-blocked gemm and the two Gram products the MAP solvers
// need constantly: G^T*G (M x M) and G*D*G^T (K x K) with diagonal D.
#pragma once

#include "linalg/matrix.hpp"

namespace bmf::linalg {

// ----- Level 1 --------------------------------------------------------------

/// Inner product <a, b>; sizes must match.
double dot(const Vector& a, const Vector& b);

/// y += alpha * x; sizes must match.
void axpy(double alpha, const Vector& x, Vector& y);

/// x *= alpha.
void scal(double alpha, Vector& x);

/// Euclidean norm ||x||_2.
double norm2(const Vector& x);

/// Max-abs norm ||x||_inf.
double norm_inf(const Vector& x);

/// Elementwise a - b.
Vector sub(const Vector& a, const Vector& b);

/// Elementwise a + b.
Vector add(const Vector& a, const Vector& b);

// ----- Level 2 --------------------------------------------------------------

/// y = A * x. A is (m x n), x has n entries, result has m entries.
Vector gemv(const Matrix& a, const Vector& x);

/// y = A^T * x. A is (m x n), x has m entries, result has n entries.
Vector gemv_t(const Matrix& a, const Vector& x);

// ----- Level 3 --------------------------------------------------------------

/// C = A * B with cache blocking. A is (m x k), B is (k x n).
Matrix gemm(const Matrix& a, const Matrix& b);

/// C = A^T * B. A is (k x m), B is (k x n); result is (m x n).
Matrix gemm_tn(const Matrix& a, const Matrix& b);

/// C = A * B^T. A is (m x k), B is (n x k); result is (m x n).
Matrix gemm_nt(const Matrix& a, const Matrix& b);

/// Symmetric Gram product G^T * G for a (K x M) design matrix (M x M result).
/// Exploits symmetry (computes the upper triangle once and mirrors it).
Matrix gram(const Matrix& g);

/// Weighted outer Gram product G * diag(d) * G^T for a (K x M) matrix and an
/// M-entry diagonal; returns the (K x K) symmetric result. This is the
/// kernel of the paper's fast SMW solver (Eq. 53/56): it never materializes
/// any M x M object.
Matrix outer_gram_weighted(const Matrix& g, const Vector& d);

}  // namespace bmf::linalg
