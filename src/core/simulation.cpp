#include "core/simulation.hpp"

#include <utility>

#include "common/flops.hpp"
#include "common/timer.hpp"
#include "core/distributed.hpp"
#include "obs/trace.hpp"

namespace qtx::core {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kConverged:
      return "converged";
    case StopReason::kBudgetExhausted:
      return "budget-exhausted";
    case StopReason::kNonInteracting:
      return "non-interacting";
    case StopReason::kDiverged:
      return "diverged";
  }
  return "unknown";
}

namespace {

/// Validates before any member construction so the actionable validate()
/// diagnostics fire ahead of deeper invariant checks (e.g. the FFT
/// convolver's grid preconditions).
const SimulationOptions& validated(const SimulationOptions& opt,
                                   int num_cells) {
  opt.validate(num_cells);
  return opt;
}

// --- shard-exchange wire helpers: bitwise flat (de)serialization ----------

void append_matrix(const la::Matrix& m, std::vector<cplx>& out) {
  out.insert(out.end(), m.data(),
             m.data() + static_cast<std::size_t>(m.rows()) * m.cols());
}

void read_matrix(la::Matrix& m, const std::vector<cplx>& in,
                 std::size_t& pos) {
  const std::size_t n = static_cast<std::size_t>(m.rows()) * m.cols();
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(pos),
            in.begin() + static_cast<std::ptrdiff_t>(pos + n), m.data());
  pos += n;
}

void append_bt(const BlockTridiag& b, std::vector<cplx>& out) {
  for (int i = 0; i < b.num_blocks(); ++i) append_matrix(b.diag(i), out);
  for (int i = 0; i + 1 < b.num_blocks(); ++i) append_matrix(b.upper(i), out);
  for (int i = 0; i + 1 < b.num_blocks(); ++i) append_matrix(b.lower(i), out);
}

void read_bt(BlockTridiag& b, const std::vector<cplx>& in, std::size_t& pos) {
  for (int i = 0; i < b.num_blocks(); ++i) read_matrix(b.diag(i), in, pos);
  for (int i = 0; i + 1 < b.num_blocks(); ++i) read_matrix(b.upper(i), in, pos);
  for (int i = 0; i + 1 < b.num_blocks(); ++i) read_matrix(b.lower(i), in, pos);
}

}  // namespace

void Simulation::distribute_over(par::Comm& comm) {
  QTX_CHECK_MSG(comm.size() <= opt_.grid.n,
                "distribute_over: " << comm.size() << " ranks for only "
                                    << opt_.grid.n << " energy points");
  comm_ = &comm;
}

Simulation::Simulation(const device::Structure& structure,
                       const SimulationOptions& opt,
                       const StageRegistry& registry)
    : structure_(structure),
      opt_(validated(opt, structure.num_cells())),
      h_eff_(structure.hamiltonian_bt()),
      v_(structure.coulomb_bt()),
      layout_{structure.num_cells(), structure.block_size()},
      engine_(opt.grid, layout_),
      pipeline_(
          std::make_unique<EnergyPipeline>(opt_.grid.n, opt_, registry)),
      mixer_(registry.make_mixer(opt_.resolved_mixer(), opt_)),
      monitor_(opt_.divergence_factor) {
  // Dense-kernel backend: installed process-globally because the la kernels
  // are invoked deep inside the RGF/OBC layers with no options context. The
  // most recently constructed Simulation's choice wins (see options.hpp).
  la::set_active_backend(std::shared_ptr<const la::Backend>(
      registry.make_la(opt_.resolved_la_backend(), opt_)));
  for (const std::string& key : opt_.resolved_channels())
    channels_.push_back(registry.make_channel(key, opt_, layout_));
  for (const auto& ch : channels_)
    needs_w_ = needs_w_ || ch->needs_screened_interaction();
  if (!opt_.cell_potential.empty())
    apply_cell_potential(h_eff_, opt_.cell_potential);
  v_ *= cplx(opt_.gw_scale, 0.0);
  const int ne = opt_.grid.n;
  const int nb = layout_.nb, bs = layout_.bs;
  gr_.assign(ne, BlockTridiag(nb, bs));
  glt_.assign(ne, BlockTridiag(nb, bs));
  ggt_.assign(ne, BlockTridiag(nb, bs));
  wlt_.assign(ne, BlockTridiag(nb, bs));
  wgt_.assign(ne, BlockTridiag(nb, bs));
  sig_lt_.assign(ne, std::vector<cplx>(layout_.num_elements(), cplx(0.0)));
  sig_gt_ = sig_lt_;
  sig_r_ = sig_lt_;
  sig_fock_.assign(layout_.num_elements(), cplx(0.0));
  obc_lt_l_.resize(ne);
  obc_gt_l_.resize(ne);
  obc_lt_r_.resize(ne);
  obc_gt_r_.resize(ne);
  obc_r_l_.resize(ne);
  obc_r_r_.resize(ne);
}

void Simulation::on_iteration(IterationCallback cb) {
  iteration_observers_.push_back(std::move(cb));
}

void Simulation::on_kernel_timing(KernelTimingCallback cb) {
  kernel_observers_.push_back(std::move(cb));
}

BlockTridiag Simulation::sigma_retarded(int e) const {
  std::vector<cplx> jump(layout_.num_elements());
  for (std::int64_t k = 0; k < layout_.num_elements(); ++k)
    jump[k] = sig_gt_[e][k] - sig_lt_[e][k];
  BlockTridiag s = deserialize_retarded(sig_r_[e], jump, layout_);
  const BlockTridiag fock = deserialize_hermitian(sig_fock_, layout_);
  s += fock;
  return s;
}

BlockTridiag Simulation::sigma_lesser(int e) const {
  return deserialize_lesser(sig_lt_[e], layout_);
}

BlockTridiag Simulation::effective_system_matrix(int e) const {
  BlockTridiag m = assemble_electron_lhs(opt_.grid.energy(e), opt_.eta,
                                         h_eff_, sigma_retarded(e));
  m.diag(0) -= obc_r_l_[e];
  m.diag(layout_.nb - 1) -= obc_r_r_[e];
  return m;
}

void Simulation::solve_g() {
  const int nb = layout_.nb;
  // Energy sharding (distribute_over): each rank solves only its owned
  // energies and posts the per-energy state to its peers as it completes,
  // overlapping the exchange with the remaining solves.
  const bool sharded = comm_ != nullptr && comm_->size() > 1;
  const par::BlockDistribution dist{opt_.grid.n,
                                    sharded ? comm_->size() : 1};
  std::unique_ptr<EnergyShardExchange> exchange;
  if (sharded) exchange = std::make_unique<EnergyShardExchange>(*comm_, dist);
  // Assemble -> OBC -> RGF per energy, batches possibly concurrent. Every
  // write lands in this energy's own slot and every solver call uses this
  // batch's private workspace, so the schedule cannot change the result.
  pipeline_->for_each_energy([&](int e, int batch) {
    if (sharded && dist.owner(e) != comm_->rank()) return;
    const double energy = opt_.grid.energy(e);
    BlockTridiag m;
    ElectronObc ob;
    {
      ScopedTimer t("G: OBC");
      FlopPhase f("G: OBC");
      const obs::Span span("G: OBC", obs::SpanKind::kStage,
                           {.iteration = iteration_ + 1, .energy = e,
                            .batch = batch});
      m = assemble_electron_lhs(energy, opt_.eta, h_eff_, sigma_retarded(e));
      ob = electron_obc(m, energy, opt_.contacts, pipeline_->obc(batch), e);
      m.diag(0) -= ob.sigma_r_left;
      m.diag(nb - 1) -= ob.sigma_r_right;
      obc_r_l_[e] = ob.sigma_r_left;
      obc_r_r_[e] = ob.sigma_r_right;
      obc_lt_l_[e] = ob.sigma_l_left;
      obc_gt_l_[e] = ob.sigma_g_left;
      obc_lt_r_[e] = ob.sigma_l_right;
      obc_gt_r_[e] = ob.sigma_g_right;
    }
    {
      ScopedTimer t("G: RGF");
      FlopPhase f("G: RGF");
      const obs::Span span("G: RGF", obs::SpanKind::kStage,
                           {.iteration = iteration_ + 1, .energy = e,
                            .batch = batch});
      BlockTridiag bl = deserialize_lesser(sig_lt_[e], layout_);
      BlockTridiag bg = deserialize_lesser(sig_gt_[e], layout_);
      bl.diag(0) += ob.sigma_l_left;
      bl.diag(nb - 1) += ob.sigma_l_right;
      bg.diag(0) += ob.sigma_g_left;
      bg.diag(nb - 1) += ob.sigma_g_right;
      rgf::SelectedSolution sel = pipeline_->greens(batch).solve(m, bl, bg);
      gr_[e] = std::move(sel.xr);
      glt_[e] = std::move(sel.xl);
      ggt_[e] = std::move(sel.xg);
    }
    if (sharded) {
      std::vector<cplx> payload;
      append_bt(gr_[e], payload);
      append_bt(glt_[e], payload);
      append_bt(ggt_[e], payload);
      append_matrix(obc_r_l_[e], payload);
      append_matrix(obc_r_r_[e], payload);
      append_matrix(obc_lt_l_[e], payload);
      append_matrix(obc_gt_l_[e], payload);
      append_matrix(obc_lt_r_[e], payload);
      append_matrix(obc_gt_r_[e], payload);
      exchange->post(e, payload);
    }
  });
  if (sharded) {
    const int bs = layout_.bs;
    exchange->complete([&](int e, std::vector<cplx> payload) {
      std::size_t pos = 0;
      read_bt(gr_[e], payload, pos);
      read_bt(glt_[e], payload, pos);
      read_bt(ggt_[e], payload, pos);
      obc_r_l_[e] = la::Matrix(bs, bs);
      obc_r_r_[e] = la::Matrix(bs, bs);
      obc_lt_l_[e] = la::Matrix(bs, bs);
      obc_gt_l_[e] = la::Matrix(bs, bs);
      obc_lt_r_[e] = la::Matrix(bs, bs);
      obc_gt_r_[e] = la::Matrix(bs, bs);
      read_matrix(obc_r_l_[e], payload, pos);
      read_matrix(obc_r_r_[e], payload, pos);
      read_matrix(obc_lt_l_[e], payload, pos);
      read_matrix(obc_gt_l_[e], payload, pos);
      read_matrix(obc_lt_r_[e], payload, pos);
      read_matrix(obc_gt_r_[e], payload, pos);
      QTX_CHECK(pos == payload.size());
    });
  }
}

void Simulation::compute_polarization() {
  ScopedTimer t("Other: P-FFT");
  FlopPhase f("Other: P-FFT");
  const obs::Span span("Other: P-FFT", obs::SpanKind::kStage,
                       {.iteration = iteration_ + 1});
  const int ne = opt_.grid.n;
  std::vector<std::vector<cplx>> g_lt(ne), g_gt(ne);
  pipeline_->for_each_energy([&](int e, int) {
    g_lt[e] = serialize_sym(glt_[e]);
    g_gt[e] = serialize_sym(ggt_[e]);
  });
  engine_.polarization(g_lt, g_gt, p_lt_, p_gt_, p_r_);
}

void Simulation::solve_w() {
  const int nb = layout_.nb;
  const bool sharded = comm_ != nullptr && comm_->size() > 1;
  const par::BlockDistribution dist{opt_.grid.n,
                                    sharded ? comm_->size() : 1};
  std::unique_ptr<EnergyShardExchange> exchange;
  if (sharded) exchange = std::make_unique<EnergyShardExchange>(*comm_, dist);
  pipeline_->for_each_energy([&](int w, int batch) {
    if (sharded && dist.owner(w) != comm_->rank()) return;
    BlockTridiag m, bl, bg;
    {
      ScopedTimer t("W: Assembly: LHS");
      FlopPhase f("W: Assembly: LHS");
      const obs::Span span("W: Assembly: LHS", obs::SpanKind::kStage,
                           {.iteration = iteration_ + 1, .energy = w,
                            .batch = batch});
      std::vector<cplx> jump(layout_.num_elements());
      for (std::int64_t k = 0; k < layout_.num_elements(); ++k)
        jump[k] = p_gt_[w][k] - p_lt_[w][k];
      const BlockTridiag p_r = deserialize_retarded(p_r_[w], jump, layout_);
      m = assemble_w_lhs(v_, p_r);
    }
    {
      ScopedTimer t("W: Assembly: RHS");
      FlopPhase f("W: Assembly: RHS");
      const obs::Span span("W: Assembly: RHS", obs::SpanKind::kStage,
                           {.iteration = iteration_ + 1, .energy = w,
                            .batch = batch});
      const BlockTridiag p_lt = deserialize_lesser(p_lt_[w], layout_);
      const BlockTridiag p_gt = deserialize_lesser(p_gt_[w], layout_);
      bl = assemble_w_rhs(v_, p_lt);
      bg = assemble_w_rhs(v_, p_gt);
    }
    const WObc ob = w_obc(m, bl, bg, pipeline_->obc(batch), w);
    m.diag(0) -= ob.br_left;
    m.diag(nb - 1) -= ob.br_right;
    bl.diag(0) += ob.bl_left;
    bl.diag(nb - 1) += ob.bl_right;
    bg.diag(0) += ob.bg_left;
    bg.diag(nb - 1) += ob.bg_right;
    {
      ScopedTimer t("W: RGF");
      FlopPhase f("W: RGF");
      const obs::Span span("W: RGF", obs::SpanKind::kStage,
                           {.iteration = iteration_ + 1, .energy = w,
                            .batch = batch});
      rgf::SelectedSolution sel = pipeline_->greens(batch).solve(m, bl, bg);
      wlt_[w] = std::move(sel.xl);
      wgt_[w] = std::move(sel.xg);
    }
    if (sharded) {
      std::vector<cplx> payload;
      append_bt(wlt_[w], payload);
      append_bt(wgt_[w], payload);
      exchange->post(w, payload);
    }
  });
  if (sharded) {
    exchange->complete([&](int w, std::vector<cplx> payload) {
      std::size_t pos = 0;
      read_bt(wlt_[w], payload, pos);
      read_bt(wgt_[w], payload, pos);
      QTX_CHECK(pos == payload.size());
    });
  }
}

accel::MixOutcome Simulation::compute_sigma_and_mix() {
  const int ne = opt_.grid.n;
  std::vector<std::vector<cplx>> g_lt(ne), g_gt(ne), w_lt, w_gt;
  std::vector<std::vector<cplx>> s_lt, s_gt, s_r;
  std::vector<cplx> s_fock;
  {
    ScopedTimer t("Other: Sigma-FFT");
    FlopPhase f("Other: Sigma-FFT");
    const obs::Span span("Other: Sigma-FFT", obs::SpanKind::kStage,
                         {.iteration = iteration_ + 1});
    pipeline_->for_each_energy([&](int e, int) {
      g_lt[e] = serialize_sym(glt_[e]);
      g_gt[e] = serialize_sym(ggt_[e]);
    });
    s_lt.assign(ne, std::vector<cplx>(layout_.num_elements(), cplx(0.0)));
    s_gt = s_lt;
    s_r = s_lt;
    s_fock.assign(layout_.num_elements(), cplx(0.0));
    const std::vector<cplx> v_flat = serialize_sym(v_);
    SelfEnergyInput in;
    in.grid = &opt_.grid;
    in.layout = &layout_;
    in.g_lesser = &g_lt;
    in.g_greater = &g_gt;
    in.v_elements = &v_flat;
    if (needs_w_) {
      w_lt.resize(ne);
      w_gt.resize(ne);
      pipeline_->for_each_energy([&](int e, int) {
        w_lt[e] = serialize_sym(wlt_[e]);
        w_gt[e] = serialize_sym(wgt_[e]);
      });
      in.w_lesser = &w_lt;
      in.w_greater = &w_gt;
    }
    SelfEnergyAccumulator acc;
    acc.s_lesser = &s_lt;
    acc.s_greater = &s_gt;
    acc.s_retarded = &s_r;
    acc.s_fock = &s_fock;
    for (const auto& ch : channels_) ch->accumulate(in, acc);
  }
  // Mixing and convergence metric on the Sigma< flats, dispatched through
  // the resolved accel::Mixer. The mixer touches per-energy slots only
  // inside the pipeline's energy loop and folds its scalar reductions in
  // ascending energy order, so the metric — and the mixed state — stay
  // bit-stable for every thread count and batch layout (the default
  // "linear" policy reproduces the historic damped update exactly).
  accel::SigmaState state;
  state.lesser = &sig_lt_;
  state.greater = &sig_gt_;
  state.retarded = &sig_r_;
  state.fock = &sig_fock_;
  accel::SigmaProposal proposal;
  proposal.lesser = &s_lt;
  proposal.greater = &s_gt;
  proposal.retarded = &s_r;
  proposal.fock = &s_fock;
  const accel::EnergyLoop loop = [this](const std::function<void(int)>& fn) {
    pipeline_->for_each_energy([&](int e, int) { fn(e); });
  };
  const obs::Span span("mix", obs::SpanKind::kStage,
                       {.iteration = iteration_ + 1});
  return mixer_->mix(state, proposal, loop);
}

IterationResult Simulation::iterate() {
  Stopwatch total;
  const obs::Span span("scba.iteration", obs::SpanKind::kIteration,
                       {.iteration = iteration_ + 1});
  const auto t0 = TimerRegistry::all();
  const auto f0 = FlopLedger::by_phase();
  solve_g();
  if (needs_w_) {
    compute_polarization();
    solve_w();
  }
  if (!channels_.empty()) {
    const accel::MixOutcome mixed = compute_sigma_and_mix();
    last_update_ = mixed.update;
    last_damping_ = mixed.damping;
    monitor_.push(mixed.update);
  } else {
    last_update_ = 0.0;  // ballistic: nothing to update
    last_damping_ = 0.0;
  }
  ++iteration_;
  IterationResult r;
  r.iteration = iteration_;
  r.sigma_update = last_update_;
  r.damping = last_damping_;
  r.residual_ratio = channels_.empty() ? 0.0 : monitor_.ratio();
  r.seconds = total.seconds();
  for (const auto& [name, sec] : TimerRegistry::all()) {
    const auto it = t0.find(name);
    const double before = (it == t0.end()) ? 0.0 : it->second;
    if (sec - before > 0.0) r.kernel_seconds[name] = sec - before;
  }
  for (const auto& [name, fl] : FlopLedger::by_phase()) {
    const auto it = f0.find(name);
    const std::int64_t before = (it == f0.end()) ? 0 : it->second;
    if (fl - before > 0) r.kernel_flops[name] = fl - before;
  }
  for (const auto& cb : kernel_observers_) {
    for (const auto& [name, sec] : r.kernel_seconds) {
      KernelTiming sample;
      sample.kernel = name;
      sample.iteration = r.iteration;
      sample.seconds = sec;
      const auto it = r.kernel_flops.find(name);
      sample.flops = (it == r.kernel_flops.end()) ? 0 : it->second;
      cb(sample);
    }
  }
  return r;
}

TransportResult Simulation::run() {
  TransportResult res;
  Stopwatch total;
  const obs::Span span("simulation.run", obs::SpanKind::kRun);
  const bool interacting = !channels_.empty();
  for (int it = 0; it < opt_.max_iterations; ++it) {
    IterationResult r = iterate();
    if (!interacting) {
      r.stop = StopReason::kNonInteracting;  // ballistic: one pass is exact
      r.converged = true;
    } else if (it > 0 && converged()) {
      r.stop = StopReason::kConverged;
      r.converged = true;
    } else if (monitor_.diverged()) {
      // Residual growth past divergence_factor x the best residual seen:
      // stop with a diagnostic instead of burning the iteration budget.
      r.stop = StopReason::kDiverged;
      r.converged = false;
    } else if (it + 1 == opt_.max_iterations) {
      r.stop = StopReason::kBudgetExhausted;
      r.converged = converged();
    }
    for (const auto& [name, sec] : r.kernel_seconds)
      res.kernel_seconds[name] += sec;
    for (const auto& [name, fl] : r.kernel_flops)
      res.kernel_flops[name] += fl;
    res.history.push_back(r);
    for (const auto& cb : iteration_observers_) cb(res.history.back());
    if (r.stop != StopReason::kNone) break;
  }
  const IterationResult& last = res.history.back();
  res.converged = last.converged;
  // Iterations performed by *this* run (manual iterate() warm-ups are
  // visible through iteration(), not here).
  res.iterations = static_cast<int>(res.history.size());
  res.stop_reason = last.stop;
  res.final_update = last.sigma_update;
  res.total_seconds = total.seconds();
  return res;
}

// ---------------------------------------------------------------------------
// SimulationBuilder
// ---------------------------------------------------------------------------

SimulationBuilder& SimulationBuilder::options(const SimulationOptions& opt) {
  opt_ = opt;
  return *this;
}

SimulationBuilder& SimulationBuilder::grid(double e_min, double e_max,
                                           int n) {
  opt_.grid = EnergyGrid{e_min, e_max, n};
  return *this;
}

SimulationBuilder& SimulationBuilder::grid(const EnergyGrid& g) {
  opt_.grid = g;
  return *this;
}

SimulationBuilder& SimulationBuilder::eta(double value) {
  opt_.eta = value;
  return *this;
}

SimulationBuilder& SimulationBuilder::contacts(double mu_left,
                                               double mu_right,
                                               double temperature_k) {
  opt_.contacts.mu_left = mu_left;
  opt_.contacts.mu_right = mu_right;
  opt_.contacts.temperature_k = temperature_k;
  return *this;
}

SimulationBuilder& SimulationBuilder::mixing(double value) {
  opt_.mixing = value;
  return *this;
}

SimulationBuilder& SimulationBuilder::mixer(std::string key) {
  opt_.mixer = std::move(key);
  return *this;
}

SimulationBuilder& SimulationBuilder::mixing_history(int value) {
  opt_.mixing_history = value;
  return *this;
}

SimulationBuilder& SimulationBuilder::mixing_regularization(double value) {
  opt_.mixing_regularization = value;
  return *this;
}

SimulationBuilder& SimulationBuilder::divergence_factor(double value) {
  opt_.divergence_factor = value;
  return *this;
}

SimulationBuilder& SimulationBuilder::max_iterations(int value) {
  opt_.max_iterations = value;
  return *this;
}

SimulationBuilder& SimulationBuilder::tolerance(double value) {
  opt_.tol = value;
  return *this;
}

SimulationBuilder& SimulationBuilder::gw(double scale, double fock_scale) {
  opt_.gw_scale = scale;
  opt_.fock_scale = fock_scale;
  return *this;
}

SimulationBuilder& SimulationBuilder::ballistic() {
  opt_.gw_scale = 0.0;
  return *this;
}

SimulationBuilder& SimulationBuilder::cell_potential(
    std::vector<double> phi) {
  opt_.cell_potential = std::move(phi);
  return *this;
}

SimulationBuilder& SimulationBuilder::ephonon(const EPhononParams& params) {
  opt_.ephonon = params;
  return *this;
}

SimulationBuilder& SimulationBuilder::num_threads(int value) {
  opt_.num_threads = value;
  return *this;
}

SimulationBuilder& SimulationBuilder::energy_batch(int value) {
  opt_.energy_batch = value;
  return *this;
}

SimulationBuilder& SimulationBuilder::executor(std::string key) {
  opt_.executor = std::move(key);
  return *this;
}

SimulationBuilder& SimulationBuilder::memoizer(bool enabled) {
  opt_.use_memoizer = enabled;
  return *this;
}

SimulationBuilder& SimulationBuilder::symmetrize(bool enabled) {
  opt_.symmetrize = enabled;
  return *this;
}

SimulationBuilder& SimulationBuilder::obc_backend(std::string key) {
  opt_.obc_backend = std::move(key);
  return *this;
}

SimulationBuilder& SimulationBuilder::greens_backend(std::string key) {
  opt_.greens_backend = std::move(key);
  return *this;
}

SimulationBuilder& SimulationBuilder::la_backend(std::string key) {
  opt_.la_backend = std::move(key);
  return *this;
}

SimulationBuilder& SimulationBuilder::nested_dissection(int partitions,
                                                        int threads) {
  opt_.greens_backend = "nested-dissection";
  opt_.nd_partitions = partitions;
  opt_.nd_threads = threads;
  return *this;
}

SimulationBuilder& SimulationBuilder::self_energy_channels(
    std::vector<std::string> keys) {
  opt_.self_energy_channels = std::move(keys);
  return *this;
}

SimulationBuilder& SimulationBuilder::add_channel(std::string key) {
  if (opt_.self_energy_channels.size() == 1 &&
      opt_.self_energy_channels[0] == kAutoBackend) {
    opt_.self_energy_channels.clear();
  }
  opt_.self_energy_channels.push_back(std::move(key));
  return *this;
}

SimulationBuilder& SimulationBuilder::registry(const StageRegistry& reg) {
  registry_ = &reg;
  return *this;
}

SimulationBuilder& SimulationBuilder::on_iteration(
    Simulation::IterationCallback cb) {
  iteration_observers_.push_back(std::move(cb));
  return *this;
}

SimulationBuilder& SimulationBuilder::on_kernel_timing(
    Simulation::KernelTimingCallback cb) {
  kernel_observers_.push_back(std::move(cb));
  return *this;
}

Simulation SimulationBuilder::build() const {
  Simulation sim(*structure_, opt_,
                 registry_ ? *registry_ : StageRegistry::global());
  for (const auto& cb : iteration_observers_) sim.on_iteration(cb);
  for (const auto& cb : kernel_observers_) sim.on_kernel_timing(cb);
  return sim;
}

}  // namespace qtx::core
