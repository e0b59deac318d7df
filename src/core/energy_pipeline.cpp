#include "core/energy_pipeline.hpp"

#include "common/reduction.hpp"
#include "obs/trace.hpp"

namespace qtx::core {

EnergyPipeline::EnergyPipeline(int n_energies, const SimulationOptions& opt,
                               const StageRegistry& registry)
    : batches_(make_energy_batches(n_energies, opt.energy_batch)) {
  const std::string obc_key = opt.resolved_obc_backend();
  const std::string greens_key = opt.resolved_greens_backend();
  workspaces_.reserve(batches_.size());
  for (std::size_t b = 0; b < batches_.size(); ++b) {
    StageWorkspace ws;
    ws.obc = registry.make_obc(obc_key, opt);
    ws.greens = registry.make_greens(greens_key, opt);
    workspaces_.push_back(std::move(ws));
  }
  executor_ = registry.make_executor(opt.resolved_executor(), opt);
}

void EnergyPipeline::for_each_batch(
    const std::function<void(const EnergyBatch&)>& fn) {
  // The obs span wraps the batch *inside* the executor, so it lands on the
  // worker thread that actually ran the batch (stage spans nest under it).
  executor_->for_each_batch(batches_, [&fn](const EnergyBatch& b) {
    const obs::Span span("pipeline.batch", obs::SpanKind::kPipeline,
                         {.batch = b.index});
    fn(b);
  });
}

void EnergyPipeline::for_each_energy(
    const std::function<void(int, int)>& fn) {
  for_each_batch([&fn](const EnergyBatch& b) {
    for (int e = b.begin; e < b.end; ++e) fn(e, b.index);
  });
}

obc::MemoizerStats EnergyPipeline::obc_stats() const {
  obc::MemoizerStats total;
  for (const StageWorkspace& ws : workspaces_) {
    const obc::MemoizerStats& s = ws.obc->stats();
    total.direct_calls += s.direct_calls;
    total.memoized_calls += s.memoized_calls;
    total.fpi_iterations += s.fpi_iterations;
  }
  return total;
}

double ordered_sum(const std::vector<double>& partials) {
  return qtx::ordered_sum(partials);  // one definition: common/reduction.hpp
}

}  // namespace qtx::core
