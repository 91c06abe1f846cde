#include "circuit/testcases.hpp"

#include <stdexcept>

#include "regress/omp.hpp"

namespace bmf::circuit {

const char* to_string(RoMetric metric) {
  switch (metric) {
    case RoMetric::kPower:
      return "power";
    case RoMetric::kPhaseNoise:
      return "phase-noise";
    case RoMetric::kFrequency:
      return "frequency";
  }
  return "?";
}

Testcase make_testcase(std::string circuit, std::string metric,
                       std::string unit, const TestcaseSpec& spec,
                       double seconds_per_sample, EarlyModelSource source,
                       std::size_t early_fit_samples) {
  VirtualSilicon silicon(spec);
  linalg::Vector early;
  switch (source) {
    case EarlyModelSource::kTruth:
      early = silicon.early_truth();
      break;
    case EarlyModelSource::kOmpFit: {
      // The paper's flow: schematic-level OMP model from 3000 MC samples.
      stats::Rng rng(spec.seed ^ 0xE517ull);
      Dataset d = silicon.sample_early(early_fit_samples, rng);
      const linalg::Matrix g =
          basis::design_matrix(silicon.late_basis(), d.points);
      // The sample points are dead once g exists; free them before OMP,
      // whose working set sets the peak of building a testcase.
      d.points = linalg::Matrix();
      regress::OmpOptions opt;
      opt.seed = spec.seed + 17;
      regress::OmpResult r = regress::omp_solve(g, d.f, opt);
      early = std::move(r.coefficients);
      break;
    }
  }
  // Schematic-level knowledge never covers parasitic terms. Copy the mask
  // before silicon is moved into the result.
  std::vector<char> informative = silicon.informative();
  for (std::size_t m = 0; m < early.size(); ++m)
    if (!informative[m]) early[m] = 0.0;

  return Testcase{std::move(circuit),
                  std::move(metric),
                  std::move(unit),
                  std::move(silicon),
                  std::move(early),
                  std::move(informative),
                  seconds_per_sample};
}

namespace {

// Paper cost calibration: RO 12.58 h for 900 samples, SRAM 38.77 h for 400.
constexpr double kRoSecondsPerSample = 12.58 * 3600.0 / 900.0;
constexpr double kSramSecondsPerSample = 38.77 * 3600.0 / 400.0;

}  // namespace

Testcase ring_oscillator_testcase(RoMetric metric, std::size_t num_vars,
                                  std::uint64_t seed,
                                  EarlyModelSource source) {
  TestcaseSpec spec;
  spec.num_vars = num_vars;
  // "A number of new random variables" from layout extraction (Sec. IV-B)
  // — a small add-on, not a large share: at K = 100 training samples every
  // flat-prior coefficient is a free parameter.
  spec.num_parasitic = num_vars / 50;
  // Layout parasitics perturb the RO metrics only mildly (their total
  // energy stays near the noise floor), as the paper's small BMF errors at
  // K = 100 imply.
  spec.parasitic_strength = 0.01;
  spec.seed = seed * 1013 + static_cast<std::uint64_t>(metric);

  std::string name, unit;
  switch (metric) {
    case RoMetric::kPower:
      // Accurate prior in sign and magnitude -> NZM edges out ZM (Table I).
      name = "power";
      unit = "W";
      spec.nominal = 1.2e-3;
      spec.variation_rel = 0.05;
      spec.strong_fraction = 0.20;
      spec.decay = 0.5;
      spec.magnitude_drift = 0.05;
      spec.sign_flip_rate = 0.002;
      spec.noise_rel = 0.08;
      break;
    case RoMetric::kPhaseNoise:
      // Small spread relative to nominal: all errors ~0.1% (Table II).
      name = "phase-noise";
      unit = "dBc/Hz";
      spec.nominal = -92.0;
      spec.variation_rel = 0.008;
      spec.strong_fraction = 0.20;
      spec.decay = 0.45;
      spec.magnitude_drift = 0.20;
      spec.sign_flip_rate = 0.01;
      spec.noise_rel = 0.10;
      break;
    case RoMetric::kFrequency:
      // Sign flips poison the nonzero-mean prior -> ZM wins (Table III).
      name = "frequency";
      unit = "Hz";
      spec.nominal = 2.5e9;
      spec.variation_rel = 0.04;
      spec.strong_fraction = 0.20;
      spec.decay = 0.5;
      spec.magnitude_drift = 0.10;
      spec.sign_flip_rate = 0.30;
      spec.noise_rel = 0.06;
      break;
  }
  return make_testcase("ring-oscillator", name, unit, spec,
                       kRoSecondsPerSample, source);
}

Testcase sram_read_path_testcase(std::size_t num_vars, std::uint64_t seed,
                                 EarlyModelSource source) {
  TestcaseSpec spec;
  spec.num_vars = num_vars;
  // Post-layout interconnect parasitics along the long bitline: a larger
  // share of the spread than for the RO, part of why SRAM errors sit near
  // 1% instead of 0.5%.
  spec.num_parasitic = num_vars / 40;
  spec.parasitic_strength = 0.02;
  spec.seed = seed * 2027 + 4;
  spec.nominal = 250e-12;  // 250 ps read delay
  spec.unit = "s";
  // 128-cell column: delay is dominated by the accessed cell, the sense
  // amplifier and the timing logic -> very sparse strong set.
  spec.strong_fraction = 0.05;
  spec.decay = 0.6;
  spec.variation_rel = 0.08;
  // Layout changes the critical path more than for the RO: larger drift and
  // some sign flips -> ZM better at K = 100, NZM catching up later
  // (Table V's crossover).
  spec.magnitude_drift = 0.25;
  spec.sign_flip_rate = 0.03;
  spec.noise_rel = 0.10;
  return make_testcase("sram-read-path", "read-delay", "s", spec,
                       kSramSecondsPerSample, source);
}

}  // namespace bmf::circuit
