#include "regress/omp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "linalg/blas.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace bmf::regress {
namespace {

struct SparseProblem {
  linalg::Matrix g;
  linalg::Vector f;
  std::vector<std::size_t> support;
  linalg::Vector truth;  // dense, zeros off support
};

// Random design with a sparse ground-truth coefficient vector.
SparseProblem make_sparse_problem(std::size_t k, std::size_t m,
                                  std::size_t s, double noise_sd,
                                  stats::Rng& rng) {
  SparseProblem p;
  p.g.assign(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) p.g(i, j) = rng.normal();
  p.truth.assign(m, 0.0);
  auto perm = rng.permutation(m);
  for (std::size_t t = 0; t < s; ++t) {
    p.support.push_back(perm[t]);
    p.truth[perm[t]] = (rng.uniform() < 0.5 ? -1.0 : 1.0) *
                       (1.0 + 2.0 * rng.uniform());
  }
  std::sort(p.support.begin(), p.support.end());
  p.f = linalg::gemv(p.g, p.truth);
  for (double& v : p.f) v += rng.normal(0.0, noise_sd);
  return p;
}

TEST(Omp, RecoversExactSupportNoiseless) {
  stats::Rng rng(1);
  SparseProblem p = make_sparse_problem(60, 40, 4, 0.0, rng);
  OmpOptions opt;
  opt.validation_fraction = 0.0;
  opt.max_terms = 4;
  OmpResult r = omp_solve(p.g, p.f, opt);
  std::set<std::size_t> sel(r.selected.begin(), r.selected.end());
  for (std::size_t j : p.support) EXPECT_TRUE(sel.count(j)) << "missed " << j;
  for (std::size_t j = 0; j < 40; ++j)
    EXPECT_NEAR(r.coefficients[j], p.truth[j], 1e-8);
}

TEST(Omp, UnderdeterminedSparseRecovery) {
  // K < M: the regime sparse regression exists for (paper Sec. II-C).
  stats::Rng rng(2);
  SparseProblem p = make_sparse_problem(40, 100, 5, 0.0, rng);
  OmpOptions opt;
  opt.validation_fraction = 0.0;
  opt.max_terms = 5;
  OmpResult r = omp_solve(p.g, p.f, opt);
  for (std::size_t j = 0; j < 100; ++j)
    EXPECT_NEAR(r.coefficients[j], p.truth[j], 1e-7);
}

TEST(Omp, ValidationStoppingAvoidsGrossOverfit) {
  stats::Rng rng(3);
  SparseProblem p = make_sparse_problem(50, 80, 4, 0.3, rng);
  OmpOptions opt;  // defaults: validation on
  OmpResult r = omp_solve(p.g, p.f, opt);
  // Must not select close to the full K terms under noise.
  EXPECT_LT(r.selected.size(), 30u);
  EXPECT_FALSE(r.validation_errors.empty());
  // Out-of-sample error on fresh data stays moderate.
  SparseProblem fresh = p;
  linalg::Matrix test(200, 80);
  for (std::size_t i = 0; i < 200; ++i)
    for (std::size_t j = 0; j < 80; ++j) test(i, j) = rng.normal();
  linalg::Vector pred = linalg::gemv(test, r.coefficients);
  linalg::Vector actual = linalg::gemv(test, p.truth);
  EXPECT_LT(stats::relative_error(pred, actual), 0.5);
}

TEST(Omp, ResidualToleranceStopsEarly) {
  stats::Rng rng(4);
  SparseProblem p = make_sparse_problem(50, 30, 3, 0.0, rng);
  OmpOptions opt;
  opt.validation_fraction = 0.0;
  opt.max_terms = 25;
  opt.residual_tolerance = 1e-8;
  OmpResult r = omp_solve(p.g, p.f, opt);
  EXPECT_LE(r.selected.size(), 4u);  // stops once residual ~ 0
}

TEST(Omp, SelectionOrderedByImportance) {
  // One dominant coefficient must be selected first.
  stats::Rng rng(5);
  const std::size_t k = 80, m = 20;
  linalg::Matrix g(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) g(i, j) = rng.normal();
  linalg::Vector truth(m, 0.0);
  truth[7] = 10.0;
  truth[3] = 0.5;
  linalg::Vector f = linalg::gemv(g, truth);
  OmpOptions opt;
  opt.validation_fraction = 0.0;
  opt.max_terms = 2;
  OmpResult r = omp_solve(g, f, opt);
  ASSERT_GE(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0], 7u);
}

TEST(Omp, HandlesDuplicateColumns) {
  // Two identical columns: one must be rejected, fit still exact.
  linalg::Matrix g(4, 3);
  stats::Rng rng(6);
  for (std::size_t i = 0; i < 4; ++i) {
    g(i, 0) = rng.normal();
    g(i, 1) = g(i, 0);
    g(i, 2) = rng.normal();
  }
  linalg::Vector truth{2.0, 0.0, -1.0};
  linalg::Vector f = linalg::gemv(g, truth);
  OmpOptions opt;
  opt.validation_fraction = 0.0;
  opt.max_terms = 3;
  OmpResult r = omp_solve(g, f, opt);
  linalg::Vector pred = linalg::gemv(g, r.coefficients);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(pred[i], f[i], 1e-9);
}

TEST(Omp, FitProducesModelOverBasis) {
  stats::Rng rng(7);
  const std::size_t k = 30, rdim = 5;
  linalg::Matrix pts(k, rdim);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < rdim; ++j) pts(i, j) = rng.normal();
  // f = 3 x2 (plus intercept 1).
  linalg::Vector f(k);
  for (std::size_t i = 0; i < k; ++i) f[i] = 1.0 + 3.0 * pts(i, 2);
  OmpOptions opt;
  opt.validation_fraction = 0.0;
  opt.max_terms = 2;
  auto model = omp_fit(basis::BasisSet::linear(rdim), pts, f, opt);
  EXPECT_NEAR(model.coefficients()[0], 1.0, 1e-8);
  EXPECT_NEAR(model.coefficients()[3], 3.0, 1e-8);
}

TEST(Omp, Validates) {
  linalg::Matrix g(3, 2);
  EXPECT_THROW(omp_solve(g, {1.0, 2.0}, {}), std::invalid_argument);
  EXPECT_THROW(omp_solve(linalg::Matrix(0, 2), {}, {}),
               std::invalid_argument);
}

// --- From-scratch reference -------------------------------------------------
// The OMP path as computed before it became incremental: every step
// recomputes the residual from all of Q, re-solves every coefficient from
// Q^T f through column-packed R, predicts the validation rows through
// strided reads of g, and the final support is refit by a second QR over
// the full columns. The library's path must match it bit for bit.

class FromScratchQR {
 public:
  bool append_column(const linalg::Vector& v, double tol = 1e-10) {
    const double vnorm = linalg::norm2(v);
    linalg::Vector w = v;
    linalg::Vector rcol(q_.size() + 1, 0.0);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t j = 0; j < q_.size(); ++j) {
        const double c = linalg::dot(q_[j], w);
        rcol[j] += c;
        linalg::axpy(-c, q_[j], w);
      }
    }
    const double wnorm = linalg::norm2(w);
    if (wnorm <= tol * std::max(vnorm, 1e-300)) return false;
    rcol[q_.size()] = wnorm;
    linalg::scal(1.0 / wnorm, w);
    q_.push_back(std::move(w));
    r_.push_back(std::move(rcol));
    return true;
  }

  linalg::Vector residual(const linalg::Vector& b) const {
    linalg::Vector r = b;
    for (const linalg::Vector& q : q_) linalg::axpy(-linalg::dot(q, b), q, r);
    return r;
  }

  linalg::Vector solve(const linalg::Vector& b) const {
    const std::size_t n = q_.size();
    linalg::Vector y(n);
    for (std::size_t j = 0; j < n; ++j) y[j] = linalg::dot(q_[j], b);
    linalg::Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
      double s = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) s -= r_[k][ii] * x[k];
      x[ii] = s / r_[ii][ii];
    }
    return x;
  }


 private:
  std::vector<linalg::Vector> q_;  // orthonormal columns
  std::vector<linalg::Vector> r_;  // r_[j] holds R(0..j, j)
};

std::vector<std::size_t> reference_path(
    const linalg::Matrix& g, const linalg::Vector& f,
    const std::vector<std::size_t>& rows,
    const std::vector<std::size_t>& val_rows, std::size_t max_terms,
    double residual_tolerance, std::vector<double>* val_errors) {
  const std::size_t m = g.cols();
  linalg::Vector ft(rows.size()), fv(val_rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) ft[i] = f[rows[i]];
  for (std::size_t i = 0; i < val_rows.size(); ++i) fv[i] = f[val_rows[i]];
  const double fnorm = linalg::norm2(ft);

  std::vector<char> used(m, 0);
  std::vector<std::size_t> selected;
  FromScratchQR qr;
  linalg::Vector residual = ft;
  linalg::Vector col_norm(m, 0.0);
  for (std::size_t idx : rows)
    for (std::size_t j = 0; j < m; ++j) col_norm[j] += g(idx, j) * g(idx, j);
  for (double& cn : col_norm) cn = std::sqrt(cn);

  while (selected.size() < max_terms) {
    if (fnorm > 0 && linalg::norm2(residual) <= residual_tolerance * fnorm)
      break;
    linalg::Vector corr(m, 0.0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double ri = residual[i];
      if (ri == 0.0) continue;
      for (std::size_t j = 0; j < m; ++j) corr[j] += ri * g(rows[i], j);
    }
    bool appended = false;
    while (!appended) {
      double best = -1.0;
      std::size_t best_j = m;
      for (std::size_t j = 0; j < m; ++j) {
        if (used[j] || col_norm[j] == 0.0) continue;
        const double score = std::abs(corr[j]) / col_norm[j];
        if (score > best) {
          best = score;
          best_j = j;
        }
      }
      if (best_j == m) return selected;
      used[best_j] = 1;
      linalg::Vector col(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) col[i] = g(rows[i], best_j);
      if (qr.append_column(col)) {
        selected.push_back(best_j);
        appended = true;
      }
    }
    residual = qr.residual(ft);
    if (!val_rows.empty()) {
      const linalg::Vector coef = qr.solve(ft);
      linalg::Vector pred(val_rows.size(), 0.0);
      for (std::size_t s = 0; s < selected.size(); ++s)
        for (std::size_t i = 0; i < val_rows.size(); ++i)
          pred[i] += coef[s] * g(val_rows[i], selected[s]);
      val_errors->push_back(stats::relative_error(pred, fv));
    }
  }
  return selected;
}

OmpResult reference_omp(const linalg::Matrix& g, const linalg::Vector& f,
                        const OmpOptions& options) {
  const std::size_t k = g.rows(), m = g.cols();
  OmpResult result;
  result.coefficients.assign(m, 0.0);
  std::vector<std::size_t> all_rows(k);
  for (std::size_t i = 0; i < k; ++i) all_rows[i] = i;

  std::size_t num_terms;
  if (options.validation_fraction > 0.0 && k >= 5) {
    stats::Rng rng(options.seed);
    const auto perm = rng.permutation(k);
    std::size_t nv = static_cast<std::size_t>(
        std::floor(options.validation_fraction * static_cast<double>(k)));
    nv = std::clamp<std::size_t>(nv, 1, k - 2);
    const std::vector<std::size_t> val_rows(perm.begin(), perm.begin() + nv);
    const std::vector<std::size_t> train_rows(perm.begin() + nv, perm.end());
    std::size_t cap = options.max_terms ? options.max_terms
                                        : std::min(train_rows.size(), m);
    cap = std::min(cap, train_rows.size());
    reference_path(g, f, train_rows, val_rows, cap,
                   options.residual_tolerance, &result.validation_errors);
    const auto& ve = result.validation_errors;
    num_terms = ve.empty() ? 1
                           : static_cast<std::size_t>(
                                 std::min_element(ve.begin(), ve.end()) -
                                 ve.begin()) +
                                 1;
  } else {
    num_terms = options.max_terms ? std::min(options.max_terms, std::min(k, m))
                                  : std::min(k, m);
  }
  const std::vector<std::size_t> path = reference_path(
      g, f, all_rows, {}, num_terms, options.residual_tolerance, nullptr);
  FromScratchQR qr;
  for (std::size_t j : path)
    if (qr.append_column(g.col(j))) result.selected.push_back(j);
  const linalg::Vector coef = qr.solve(f);
  for (std::size_t s = 0; s < result.selected.size(); ++s)
    result.coefficients[result.selected[s]] = coef[s];
  return result;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "entry " << i << ": " << got[i] << " vs " << want[i];
}

void expect_matches_reference(const linalg::Matrix& g, const linalg::Vector& f,
                              const OmpOptions& opt) {
  const OmpResult want = reference_omp(g, f, opt);
  const OmpResult got = omp_solve(g, f, opt);
  EXPECT_EQ(got.selected, want.selected);
  expect_bitwise_equal(got.coefficients, want.coefficients);
  expect_bitwise_equal(got.validation_errors, want.validation_errors);
}

TEST(Omp, PathMatchesFromScratchReferenceBitwise) {
  // More columns than samples (the paper's regime), with validation
  // stopping; several correlation-scan chunks.
  {
    SCOPED_TRACE("M > K");
    stats::Rng rng(21);
    const SparseProblem p = make_sparse_problem(90, 200, 6, 0.05, rng);
    expect_matches_reference(p.g, p.f, OmpOptions{});
    OmpOptions full;
    full.validation_fraction = 0.0;
    expect_matches_reference(p.g, p.f, full);
  }
  {
    SCOPED_TRACE("K > M");
    stats::Rng rng(22);
    const SparseProblem p = make_sparse_problem(160, 70, 8, 0.1, rng);
    OmpOptions opt;
    opt.seed = 5;
    expect_matches_reference(p.g, p.f, opt);
    opt.validation_fraction = 0.0;
    expect_matches_reference(p.g, p.f, opt);
  }
  {
    SCOPED_TRACE("duplicate columns");
    stats::Rng rng(23);
    SparseProblem p = make_sparse_problem(80, 100, 5, 0.05, rng);
    for (std::size_t i = 0; i < p.g.rows(); ++i) {
      p.g(i, 10) = p.g(i, p.support[0]);
      p.g(i, 77) = p.g(i, p.support[1]);
      p.g(i, 99) = -2.0 * p.g(i, p.support[2]);
    }
    expect_matches_reference(p.g, p.f, OmpOptions{});
    OmpOptions full;
    full.validation_fraction = 0.0;
    full.max_terms = 60;
    expect_matches_reference(p.g, p.f, full);
  }
  {
    SCOPED_TRACE("residual-tolerance stop");
    stats::Rng rng(24);
    const SparseProblem p = make_sparse_problem(100, 150, 4, 0.0, rng);
    OmpOptions opt;
    opt.residual_tolerance = 1e-8;
    expect_matches_reference(p.g, p.f, opt);
    opt.validation_fraction = 0.0;
    opt.max_terms = 40;
    const OmpResult r = omp_solve(p.g, p.f, opt);
    EXPECT_LT(r.selected.size(), 40u);  // the tolerance, not the cap, stops
    expect_matches_reference(p.g, p.f, opt);
  }
}

TEST(Omp, DeterministicGivenSeed) {
  stats::Rng rng(8);
  SparseProblem p = make_sparse_problem(40, 60, 4, 0.2, rng);
  OmpOptions opt;
  opt.seed = 9;
  OmpResult a = omp_solve(p.g, p.f, opt);
  OmpResult b = omp_solve(p.g, p.f, opt);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.coefficients, b.coefficients);
}

}  // namespace
}  // namespace bmf::regress
