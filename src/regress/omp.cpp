#include "regress/omp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "check/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace bmf::regress {

namespace {

// Copy the rows of g listed in `rows`, restricted to column j.
linalg::Vector gather_column(const linalg::Matrix& g,
                             const std::vector<std::size_t>& rows,
                             std::size_t j) {
  linalg::Vector v(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) v[i] = g(rows[i], j);
  return v;
}

linalg::Vector gather(const linalg::Vector& f,
                      const std::vector<std::size_t>& rows) {
  linalg::Vector v(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) v[i] = f[rows[i]];
  return v;
}

// The training rows of g restricted to the columns still eligible for
// selection, packed for the correlation scan. Columns sit in blocks of
// kBlock: block b is a contiguous (rows x kBlock) row-major array whose
// first live_[b].size() slots hold its live columns. A column leaves by
// trading places with its block's last live column, so a scan streams only
// eligible columns, in row order.
class CandidatePanel {
 public:
  static constexpr std::size_t kBlock = 64;

  // Every column with a nonzero norm on the training rows starts live.
  CandidatePanel(const linalg::Matrix& g, const std::vector<std::size_t>& rows,
                 const linalg::Vector& col_norm)
      : nrows_(rows.size()), slot_(g.cols(), kNone) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      if (col_norm[j] == 0.0) continue;
      if (live_.empty() || live_.back().size() == kBlock) live_.emplace_back();
      slot_[j] = (live_.size() - 1) * kBlock + live_.back().size();
      live_.back().push_back(j);
    }
    data_.resize(live_.size() * nrows_ * kBlock);
    for (std::size_t i = 0; i < nrows_; ++i) {
      const double* src = g.row_ptr(rows[i]);
      for (std::size_t b = 0; b < live_.size(); ++b) {
        double* dst = block_ptr(b) + i * kBlock;
        for (std::size_t c = 0; c < live_[b].size(); ++c)
          dst[c] = src[live_[b][c]];
      }
    }
  }

  bool live(std::size_t j) const { return slot_[j] != kNone; }

  // corr[j] = sum_i r_i g(rows[i], j) for every live j, summed over i in
  // ascending order (rows with r_i == 0 skipped) — the same sum, term for
  // term, as a scan of g itself. Blocks run in parallel; other entries of
  // corr are left alone.
  void correlate(const linalg::Vector& r, linalg::Vector& corr) const {
    parallel::parallel_for(0, live_.size(), 1, [&](std::size_t b0,
                                                   std::size_t b1) {
      for (std::size_t b = b0; b < b1; ++b) {
        const std::vector<std::size_t>& cols = live_[b];
        const std::size_t n = cols.size();
        double acc[kBlock] = {};
        const double* row = block_ptr(b);
        for (std::size_t i = 0; i < nrows_; ++i, row += kBlock) {
          const double ri = r[i];
          if (ri == 0.0) continue;
          for (std::size_t c = 0; c < n; ++c) acc[c] += ri * row[c];
        }
        for (std::size_t c = 0; c < n; ++c) corr[cols[c]] = acc[c];
      }
    });
  }

  // Take live column j out of the candidate set.
  void remove(std::size_t j) {
    const std::size_t s = slot_[j], b = s / kBlock, c = s % kBlock;
    std::vector<std::size_t>& cols = live_[b];
    const std::size_t last = cols.size() - 1;
    if (c != last) {
      double* block = block_ptr(b);
      for (std::size_t i = 0; i < nrows_; ++i)
        block[i * kBlock + c] = block[i * kBlock + last];
      cols[c] = cols[last];
      slot_[cols[c]] = s;
    }
    cols.pop_back();
    slot_[j] = kNone;
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  double* block_ptr(std::size_t b) {
    return data_.data() + b * nrows_ * kBlock;
  }
  const double* block_ptr(std::size_t b) const {
    return data_.data() + b * nrows_ * kBlock;
  }

  std::size_t nrows_;
  std::vector<double> data_;                     // blocks back to back
  std::vector<std::vector<std::size_t>> live_;  // live columns per block
  std::vector<std::size_t> slot_;  // column -> block * kBlock + slot, or kNone
};

struct GreedyPath {
  std::vector<std::size_t> selected;  // basis-term indices, selection order
  linalg::Vector coefficients;        // LS refit over `selected`
};

// Greedy OMP path over the given sample rows. At each step the column with
// the largest |g_j^T r| / ||g_j|| is appended. Returns the selection order
// and the least-squares coefficients over it. If `val_rows` is non-empty,
// records the relative validation error of every prefix of the path into
// `val_errors`.
//
// Each step extends the previous one: the residual and Q^T f are updated by
// the appended column only. Every sum keeps the order of a from-scratch
// recomputation, so the path is bit-identical to one.
GreedyPath greedy_path(const linalg::Matrix& g, const linalg::Vector& f,
                       const std::vector<std::size_t>& rows,
                       const std::vector<std::size_t>& val_rows,
                       std::size_t max_terms, double residual_tolerance,
                       std::vector<double>* val_errors) {
  const std::size_t m = g.cols();
  linalg::IncrementalQR qr(gather(f, rows));
  const double fnorm = linalg::norm2(qr.residual());
  GreedyPath path;
  {  // Selection. The panel is freed before the validation pass below.
    // Column norms on the training rows, for scale-invariant correlation.
    linalg::Vector col_norm(m, 0.0);
    for (std::size_t idx : rows) {
      const double* row = g.row_ptr(idx);
      for (std::size_t j = 0; j < m; ++j) col_norm[j] += row[j] * row[j];
    }
    for (double& cn : col_norm) cn = std::sqrt(cn);
    CandidatePanel panel(g, rows, col_norm);
    linalg::Vector corr(m, 0.0);

    // Append the best live, linearly-independent column; returns its
    // index, or m when none is left.
    const auto append_best = [&]() {
      while (true) {
        double best = -1.0;
        std::size_t best_j = m;
        for (std::size_t j = 0; j < m; ++j) {
          if (!panel.live(j)) continue;
          const double score = std::abs(corr[j]) / col_norm[j];
          if (score > best) {
            best = score;
            best_j = j;
          }
        }
        if (best_j == m) return m;
        panel.remove(best_j);
        if (qr.append_column(gather_column(g, rows, best_j))) return best_j;
        // Dependent column: stays out of the panel; try the runner-up.
      }
    };

    while (path.selected.size() < max_terms) {
      if (fnorm > 0 &&
          linalg::norm2(qr.residual()) <= residual_tolerance * fnorm)
        break;
      panel.correlate(qr.residual(), corr);  // c = G_train^T r
      const std::size_t j = append_best();
      if (j == m) break;  // nothing left to add
      path.selected.push_back(j);
    }
  }
  const std::size_t n = path.selected.size();
  path.coefficients = qr.solve(n);

  if (!val_rows.empty()) {
    // Prefix t's fit reads only the first t columns of the factorization,
    // fixed since they were appended, so the prefixes are independent and
    // run in parallel, longest first.
    const linalg::Vector fv = gather(f, val_rows);
    std::vector<linalg::Vector> val_cols;  // selected columns on val rows
    val_cols.reserve(n);
    for (std::size_t j : path.selected)
      val_cols.push_back(gather_column(g, val_rows, j));
    val_errors->assign(n, 0.0);
    parallel::parallel_for(0, n, 1, [&](std::size_t t0, std::size_t t1) {
      for (std::size_t t = t0; t < t1; ++t) {
        const std::size_t terms = n - t;
        const linalg::Vector coef = qr.solve(terms);
        linalg::Vector pred(val_rows.size(), 0.0);
        for (std::size_t s = 0; s < terms; ++s) {
          const linalg::Vector& col = val_cols[s];
          for (std::size_t i = 0; i < val_rows.size(); ++i)
            pred[i] += coef[s] * col[i];
        }
        (*val_errors)[terms - 1] = stats::relative_error(pred, fv);
      }
    });
  }
  return path;
}

}  // namespace

OmpResult omp_solve(const linalg::Matrix& g, const linalg::Vector& f,
                    const OmpOptions& options) {
  LINALG_REQUIRE(g.rows() == f.size(), "omp_solve: rhs size mismatch");
  const std::size_t k = g.rows(), m = g.cols();
  if (k == 0) throw std::invalid_argument("omp_solve: no samples");
  BMF_EXPECTS_DIMS(check::all_finite(g) && check::all_finite(f),
                   "omp_solve: design matrix and responses must be finite",
                   {"g.rows", k}, {"g.cols", m});

  OmpResult result;
  result.coefficients.assign(m, 0.0);

  std::vector<std::size_t> all_rows(k);
  for (std::size_t i = 0; i < k; ++i) all_rows[i] = i;

  std::size_t num_terms;
  if (options.validation_fraction > 0.0 && k >= 5) {
    // Split rows into train / validation.
    stats::Rng rng(options.seed);
    const auto perm = rng.permutation(k);
    std::size_t nv = static_cast<std::size_t>(
        std::floor(options.validation_fraction * static_cast<double>(k)));
    nv = std::clamp<std::size_t>(nv, 1, k - 2);
    std::vector<std::size_t> val_rows(perm.begin(), perm.begin() + nv);
    std::vector<std::size_t> train_rows(perm.begin() + nv, perm.end());

    std::size_t cap = options.max_terms
                          ? options.max_terms
                          : std::min(train_rows.size(), m);
    cap = std::min(cap, train_rows.size());

    greedy_path(g, f, train_rows, val_rows, cap, options.residual_tolerance,
                &result.validation_errors);
    const std::vector<double>& val_errors = result.validation_errors;
    if (val_errors.empty()) {
      num_terms = 1;
    } else {
      const auto it = std::min_element(val_errors.begin(), val_errors.end());
      num_terms = static_cast<std::size_t>(it - val_errors.begin()) + 1;
    }
  } else {
    num_terms = options.max_terms ? std::min(options.max_terms, std::min(k, m))
                                  : std::min(k, m);
  }

  // Final fit: greedy path over all samples, truncated at num_terms. Its
  // factorization already holds the LS refit over the final support.
  GreedyPath path = greedy_path(g, f, all_rows, {}, num_terms,
                                options.residual_tolerance, nullptr);
  for (std::size_t s = 0; s < path.selected.size(); ++s)
    result.coefficients[path.selected[s]] = path.coefficients[s];
  result.selected = std::move(path.selected);
  return result;
}

basis::PerformanceModel omp_fit(const basis::BasisSet& basis,
                                const linalg::Matrix& points,
                                const linalg::Vector& f,
                                const OmpOptions& options) {
  const linalg::Matrix g = basis::design_matrix(basis, points);
  OmpResult r = omp_solve(g, f, options);
  return basis::PerformanceModel(basis, std::move(r.coefficients));
}

}  // namespace bmf::regress
