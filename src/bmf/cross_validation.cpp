#include "bmf/cross_validation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contracts.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/descriptive.hpp"
#include "stats/kfold.hpp"
#include "stats/rng.hpp"

namespace bmf::core {

std::size_t CvCurve::best_index() const {
  if (errors.empty()) throw std::logic_error("CvCurve: empty curve");
  return static_cast<std::size_t>(
      std::min_element(errors.begin(), errors.end()) - errors.begin());
}

linalg::Vector log_grid(double lo, double hi, std::size_t n) {
  if (lo <= 0.0 || hi <= 0.0 || lo > hi || n == 0)
    throw std::invalid_argument("log_grid: need 0 < lo <= hi and n > 0");
  linalg::Vector g(n);
  if (n == 1) {
    g[0] = std::sqrt(lo * hi);
    return g;
  }
  const double step = std::log(hi / lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    g[i] = lo * std::exp(step * static_cast<double>(i));
  return g;
}

double tau_grid_center(const linalg::Vector& f) {
  const stats::Summary s =
      stats::summarize(std::vector<double>(f.begin(), f.end()));
  if (s.variance > 0.0) return s.variance;
  if (s.mean != 0.0) return s.mean * s.mean;
  return 1.0;
}

namespace {

// The submatrix B[rows, cols] of the full-data kernel.
linalg::Matrix slice(const linalg::Matrix& b,
                     const std::vector<std::size_t>& rows,
                     const std::vector<std::size_t>& cols) {
  linalg::Matrix out(rows.size(), cols.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double* bi = b.row_ptr(rows[i]);
    double* oi = out.row_ptr(i);
    for (std::size_t j = 0; j < cols.size(); ++j) oi[j] = bi[cols[j]];
  }
  return out;
}

linalg::Vector gather(const linalg::Vector& v,
                      const std::vector<std::size_t>& idx) {
  linalg::Vector out(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) out[i] = v[idx[i]];
  return out;
}

}  // namespace

CvEngine::CvEngine(const linalg::Matrix& g, const linalg::Vector& f,
                   const linalg::Matrix& kernel, const CvOptions& options)
    : g_(&g) {
  LINALG_REQUIRE(g.rows() == f.size(), "CvEngine: rhs size mismatch");
  const std::size_t k = g.rows();
  LINALG_REQUIRE(kernel.rows() == k && kernel.cols() == k,
                 "CvEngine: kernel must be K x K");
  if (options.folds < 2 || k < options.folds)
    throw std::invalid_argument("CvEngine: need folds >= 2 and K >= folds");
  BMF_EXPECTS_DIMS(check::all_finite(g) && check::all_finite(f),
                   "CvEngine: design matrix and responses must be finite",
                   {"g.rows", k}, {"g.cols", g.cols()});
  BMF_EXPECTS(check::is_finite(options.grid_lo_rel) &&
                  check::is_finite(options.grid_hi_rel) &&
                  options.grid_lo_rel > 0.0 && options.grid_hi_rel > 0.0,
              "CvEngine: tau grid bounds must be positive and finite");

  const double center = tau_grid_center(f);
  taus_ = log_grid(center * options.grid_lo_rel, center * options.grid_hi_rel,
                   options.grid_size);

  stats::Rng rng(options.seed);
  stats::KFold kfold(k, options.folds, rng);
  folds_.resize(options.folds);
  // Folds are independent: each slices its own kernel, eigendecomposition
  // and test-side projections into a preassigned folds_ slot.
  parallel::parallel_for(0, options.folds, 1, [&](std::size_t f0,
                                                  std::size_t f1) {
    for (std::size_t fi = f0; fi < f1; ++fi) build_fold(f, kernel, kfold, fi);
  });
}

void CvEngine::build_fold(const linalg::Vector& f,
                          const linalg::Matrix& kernel,
                          const stats::KFold& kfold, std::size_t fi) {
  Fold& fold = folds_[fi];
  auto split = kfold.split(fi);
  fold.train = std::move(split.train);
  fold.test = std::move(split.test);
  fold.f_test = gather(f, fold.test);
  const linalg::Vector f_tr = gather(f, fold.train);

  {
    // Fold kernel B_tr = B[train, train]; vb2 = V^T (B_tr f_tr).
    const linalg::Matrix b_tr = slice(kernel, fold.train, fold.train);
    const linalg::Vector b2 = linalg::gemv(b_tr, f_tr);
    fold.eig = psd_eigen(b_tr);
    fold.vb2 = linalg::gemv_t(fold.eig.vectors, b2);
  }

  // Cross term C = B[test, train]: a2 = C f_tr and c_hat = C V.
  const linalg::Matrix c = slice(kernel, fold.test, fold.train);
  fold.a2 = linalg::gemv(c, f_tr);
  fold.c_hat = linalg::gemm(c, fold.eig.vectors);
}

CvCurve CvEngine::evaluate(const linalg::Vector& mu) const {
  LINALG_REQUIRE(mu.size() == g_->cols(), "CvEngine::evaluate: mu size");
  BMF_EXPECTS_DIMS(check::all_finite(mu),
                   "CvEngine::evaluate: prior mean must be finite",
                   {"mu.size", mu.size()});
  CvCurve curve;
  curve.taus.assign(taus_.begin(), taus_.end());
  const std::size_t nf = folds_.size(), nt = taus_.size();
  curve.errors.assign(nt, 0.0);

  // Per-fold projections of the prior mean: with G mu computed once,
  // vb1 = V^T (G mu)[train] and a1 = (G mu)[test]. Independent across folds.
  // (The zero-mean prior needs no special case: both come out exactly 0.)
  const linalg::Vector g_mu = linalg::gemv(*g_, mu);
  std::vector<linalg::Vector> vb1(nf), a1(nf);
  parallel::parallel_for(0, nf, 1, [&](std::size_t f0, std::size_t f1) {
    for (std::size_t fi = f0; fi < f1; ++fi) {
      const Fold& fold = folds_[fi];
      a1[fi] = gather(g_mu, fold.test);
      vb1[fi] = linalg::gemv_t(fold.eig.vectors, gather(g_mu, fold.train));
    }
  });

  // Every (fold, tau) grid cell is independent given the cached fold data;
  // each writes its error into a preassigned slot, and the slots are
  // reduced in fold order afterwards — so the curve is bit-identical at any
  // thread count. The s/pred scratch vectors are hoisted out of the cell
  // loop into per-chunk buffers sized to the largest fold, so the grid loop
  // performs no per-cell allocations.
  std::size_t max_kt = 0, max_ke = 0;
  for (const Fold& fold : folds_) {
    max_kt = std::max(max_kt, fold.train.size());
    max_ke = std::max(max_ke, fold.test.size());
  }
  std::vector<double> cell(nf * nt, 0.0);
  parallel::parallel_for(0, nf * nt, 0, [&](std::size_t c0, std::size_t c1) {
    linalg::Vector s(max_kt), pred(max_ke);
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t fi = c / nt, ti = c % nt;
      const Fold& fold = folds_[fi];
      const std::size_t kt = fold.train.size(), ke = fold.test.size();
      const double inv_tau = 1.0 / taus_[ti];
      s.resize(kt);    // never exceeds the reserved max -> no reallocation
      pred.resize(ke);
      for (std::size_t i = 0; i < kt; ++i)
        s[i] = (vb1[fi][i] + inv_tau * fold.vb2[i]) /
               (1.0 + inv_tau * fold.eig.values[i]);
      for (std::size_t i = 0; i < ke; ++i) {
        const double* ci = fold.c_hat.row_ptr(i);
        double cs = 0.0;
        for (std::size_t j = 0; j < kt; ++j) cs += ci[j] * s[j];
        pred[i] = a1[fi][i] + inv_tau * (fold.a2[i] - cs);
      }
      cell[c] = stats::relative_error(pred, fold.f_test);
    }
  });
  for (std::size_t fi = 0; fi < nf; ++fi)
    for (std::size_t ti = 0; ti < nt; ++ti)
      curve.errors[ti] += cell[fi * nt + ti];
  const double inv_folds = 1.0 / static_cast<double>(nf);
  for (double& e : curve.errors) e *= inv_folds;
  // A NaN error would silently win (or lose) every min_element comparison
  // in best_index(); surface it here, at the point of production.
  BMF_ENSURES_DIMS(check::all_finite(curve.errors),
                   "CvEngine::evaluate produced a non-finite CV error",
                   {"folds", nf}, {"grid", nt});
  return curve;
}

}  // namespace bmf::core
