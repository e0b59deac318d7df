#pragma once

/// \file energy_pipeline.hpp
/// Shared-memory parallel execution engine for the energy loop — the
/// reproduction of the paper's central scaling lever (§5.1): every SCBA
/// iteration solves independent Green's-function/OBC problems per energy
/// point before a global self-energy exchange.
///
/// The pipeline shards the energy grid into contiguous batches
/// (`make_energy_batches`, core/energy_grid.hpp), resolves an
/// `EnergyLoopExecutor` ("sequential" or the work-stealing "omp" policy)
/// from the `StageRegistry`, and keeps one stage workspace (ObcSolver +
/// GreensSolver) per *batch* — not per worker. Because the batch layout and
/// the OBC caches are keyed by energy index only, the numbers a run
/// produces are bit-identical for every `num_threads`, including 1: a
/// worker never reads another batch's solver state, and every per-energy
/// result lands in its own output slot.
///
/// Scalar convergence metrics are the one true reduction of the loop;
/// `ordered_sum` folds per-energy partials in ascending index order so the
/// floating-point association is schedule-independent too.
///
/// Both drivers run on this engine: `Simulation` (whole grid per process)
/// and `distributed_iteration` (each rank pipelines its grid slice). A
/// pipeline serves exactly one run: its owner builds it at construction
/// and drops it with the run, so no solver state ever crosses runs.

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/stage_registry.hpp"

namespace qtx::core {

/// Private solver state of one batch: OBC caches (memoizer warm-starts) and
/// the Green's-function solver, never shared between concurrent batches.
struct StageWorkspace {
  std::unique_ptr<ObcSolver> obc;
  std::unique_ptr<GreensSolver> greens;
};

class EnergyPipeline {
 public:
  /// Shards [0, n_energies) by \p opt.energy_batch and resolves the
  /// executor plus one per-batch workspace set from \p registry, using
  /// \p opt's backend keys (the same resolution the Simulation facade
  /// performs). \p opt must already be validated.
  EnergyPipeline(int n_energies, const SimulationOptions& opt,
                 const StageRegistry& registry);

  const std::vector<EnergyBatch>& batches() const { return batches_; }
  int num_batches() const { return static_cast<int>(batches_.size()); }

  /// Worker count of the resolved execution policy (1 for sequential).
  int concurrency() const { return executor_->concurrency(); }
  std::string_view executor_name() const { return executor_->name(); }

  /// Per-batch stage backends. Callers running inside for_each_batch /
  /// for_each_energy must only touch the workspace of their own batch.
  ObcSolver& obc(int batch) { return *workspaces_[batch].obc; }
  GreensSolver& greens(int batch) { return *workspaces_[batch].greens; }
  const ObcSolver& obc(int batch) const { return *workspaces_[batch].obc; }
  const GreensSolver& greens(int batch) const {
    return *workspaces_[batch].greens;
  }

  /// Run fn(batch) exactly once per batch, possibly concurrently; blocks
  /// until every batch finished (fork-join).
  void for_each_batch(const std::function<void(const EnergyBatch&)>& fn);

  /// Run fn(energy, batch_index) for every energy in [0, n_energies);
  /// energies within a batch run in ascending order on one worker.
  void for_each_energy(const std::function<void(int, int)>& fn);

  /// OBC dispatch counters summed over all batch workspaces (batch order,
  /// so the aggregate is deterministic as well).
  obc::MemoizerStats obc_stats() const;

 private:
  std::vector<EnergyBatch> batches_;
  std::vector<StageWorkspace> workspaces_;
  std::unique_ptr<EnergyLoopExecutor> executor_;
};

/// Deterministic ordered reduction: folds the partials in index order,
/// independent of the schedule that produced them, so the sum is bit-stable
/// across thread counts and batch layouts.
double ordered_sum(const std::vector<double>& partials);

}  // namespace qtx::core
