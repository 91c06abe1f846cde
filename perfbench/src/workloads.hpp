// The benchmark's workloads. Each builds its inputs from cfg.seed, times
// set-up and then its headline operation for cfg.seconds, checks every
// output, and fills a RunResult (README.md lists what each one measures).
#pragma once

#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

RunResult run_fit_ro(const RunConfig& cfg);
RunResult run_serve_eval(const RunConfig& cfg);
RunResult run_serve_mixed(const RunConfig& cfg);

/// Prints the fit_ro reference table (fit_ro_reference.inc) for the
/// current code, one entry per sample set and K.
int emit_fit_ro_reference();

/// Traced-run epilogue shared by the workloads: counts the spans and
/// writes them to cfg.trace_path.
void finish_trace(const RunConfig& cfg,
                  const std::vector<const SpanLog*>& logs, RunResult& result);

}  // namespace perfbench
