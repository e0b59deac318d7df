// Tests for the public solver facade (core/simulation.hpp): option
// validation messages, registry key dispatch (including unknown-key and
// custom-backend paths), runtime backend equivalence, streaming observers,
// and stop-reason accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/observables.hpp"
#include "core/simulation.hpp"

namespace qtx::core {
namespace {

SimulationBuilder small_builder(const device::Structure& st) {
  const auto gap = st.band_gap();
  return SimulationBuilder(st)
      .grid(-6.0, 6.0, 24)
      .eta(0.05)
      .contacts(gap.conduction_min + 0.3, gap.conduction_min + 0.1)
      .gw(0.25)
      .mixing(0.4)
      .max_iterations(3)
      .tolerance(1e-3);
}

/// Expect build() to throw a std::runtime_error whose message contains
/// \p fragment (the actionable part of the QTX_CHECK diagnostic).
void expect_invalid(const SimulationBuilder& builder,
                    const std::string& fragment) {
  try {
    (void)builder.build();
    FAIL() << "expected validation failure mentioning \"" << fragment << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message was: " << e.what();
  }
}

// --- option validation ----------------------------------------------------

TEST(OptionsValidation, RejectsEmptyEnergyGrid) {
  const device::Structure st = device::make_test_structure(3);
  expect_invalid(small_builder(st).grid(-6.0, 6.0, 0),
                 "energy grid must have at least 2 points");
  expect_invalid(small_builder(st).grid(-6.0, 6.0, 1),
                 "energy grid must have at least 2 points");
  expect_invalid(small_builder(st).grid(2.0, -2.0, 16), "e_max");
}

TEST(OptionsValidation, RejectsNonPositiveEta) {
  const device::Structure st = device::make_test_structure(3);
  expect_invalid(small_builder(st).eta(0.0), "eta");
  expect_invalid(small_builder(st).eta(-0.05), "eta");
}

TEST(OptionsValidation, RejectsBadIterationBudgetAndMixing) {
  const device::Structure st = device::make_test_structure(3);
  expect_invalid(small_builder(st).max_iterations(0), "max_iterations");
  expect_invalid(small_builder(st).max_iterations(-3), "max_iterations");
  expect_invalid(small_builder(st).mixing(0.0), "mixing");
  expect_invalid(small_builder(st).mixing(1.5), "mixing");
  expect_invalid(small_builder(st).tolerance(0.0), "tol");
}

TEST(OptionsValidation, RejectsWrongLengthCellPotential) {
  const device::Structure st = device::make_test_structure(4);
  expect_invalid(small_builder(st).cell_potential({0.0, 0.8}),
                 "cell_potential has 2 entries but the device has 4");
  // Empty (default) and exact-length potentials are both fine.
  EXPECT_NO_THROW(small_builder(st).build());
  EXPECT_NO_THROW(
      small_builder(st).cell_potential({0.0, 0.8, 0.8, 0.0}).build());
}

TEST(OptionsValidation, RejectsInconsistentNestedDissection) {
  const device::Structure st = device::make_test_structure(4);
  expect_invalid(small_builder(st).nested_dissection(3),
                 "must divide the cell count");
  expect_invalid(small_builder(st).nested_dissection(4),
                 "at least 2 cells per partition");
  expect_invalid(small_builder(st).greens_backend("nested-dissection"),
                 "nd_partitions");
  EXPECT_NO_THROW(small_builder(st).nested_dissection(2).build());
}

TEST(OptionsValidation, RejectsNdPartitionsTheBackendIgnores) {
  // nd_partitions used to be silently accepted (and ignored) whenever a
  // non-partitioning Green's backend was selected explicitly; the
  // cross-check makes the dead knob an actionable error instead.
  const device::Structure st = device::make_test_structure(4);
  SimulationOptions opt = small_builder(st).peek_options();
  opt.greens_backend = "rgf";
  opt.nd_partitions = 2;
  expect_invalid(SimulationBuilder(st).options(opt), "has no effect");
  expect_invalid(SimulationBuilder(st).options(opt),
                 "set greens_backend = \"nested-dissection\"");
  // The auto resolution still turns nd_partitions > 1 into the
  // nested-dissection backend, so the legacy flat spelling keeps working.
  opt.greens_backend = kAutoBackend;
  EXPECT_NO_THROW(SimulationBuilder(st).options(opt).build());
}

TEST(OptionsValidation, RejectsBadParallelKnobs) {
  const device::Structure st = device::make_test_structure(3);
  expect_invalid(small_builder(st).num_threads(0), "num_threads must be >= 1");
  expect_invalid(small_builder(st).num_threads(-4), "num_threads");
  expect_invalid(small_builder(st).energy_batch(-1),
                 "energy_batch must be >= 0");
  expect_invalid(small_builder(st).executor("simd"),
                 "unknown energy-loop executor");
  EXPECT_NO_THROW(small_builder(st).num_threads(2).energy_batch(8).build());
}

TEST(OptionsValidation, RejectsOversubscribedNestedThreading) {
  // Energy workers x spatial threads would oversubscribe every core; the
  // two parallel axes are mutually exclusive by validation.
  const device::Structure st = device::make_test_structure(4);
  expect_invalid(
      small_builder(st).nested_dissection(2, 2).num_threads(2),
      "oversubscribe");
  EXPECT_NO_THROW(small_builder(st).nested_dissection(2, 2).build());
  EXPECT_NO_THROW(
      small_builder(st).nested_dissection(2, 1).num_threads(2).build());
  // nd_threads is inert outside nested-dissection, so it must not block
  // energy-parallel rgf runs.
  SimulationOptions rgf_opt = small_builder(st).peek_options();
  rgf_opt.nd_threads = 2;
  rgf_opt.num_threads = 4;
  EXPECT_NO_THROW(SimulationBuilder(st).options(rgf_opt).build());
}

TEST(OptionsValidation, RejectsDuplicateChannels) {
  // Channels accumulate additively, so a duplicate key would silently
  // double that channel's Sigma contribution.
  const device::Structure st = device::make_test_structure(3);
  expect_invalid(small_builder(st).self_energy_channels({"gw", "gw"}),
                 "lists \"gw\" twice");
  expect_invalid(
      small_builder(st).add_channel("gw").add_channel("ephonon").add_channel(
          "gw"),
      "twice");
  EXPECT_NO_THROW(
      small_builder(st).self_energy_channels({"gw", "ephonon"}).build());
}

TEST(OptionsValidation, RejectsBadEPhononAndContacts) {
  const device::Structure st = device::make_test_structure(3);
  EPhononParams bad;
  bad.coupling_ev = 0.1;
  bad.phonon_energy_ev = 0.0;
  expect_invalid(small_builder(st).ephonon(bad), "phonon_energy_ev");
  expect_invalid(small_builder(st).contacts(0.0, 0.0, -10.0),
                 "temperature_k");
}

TEST(OptionsValidation, LegacyOptionsStructIsValidatedToo) {
  // The flat-options path (a field-filled SimulationOptions handed straight
  // to the Simulation constructor) runs the same validate() pass as the
  // builder — the silent-misconfiguration regression.
  const device::Structure st = device::make_test_structure(3);
  SimulationOptions opt;
  opt.grid = EnergyGrid{-6.0, 6.0, 16};
  opt.eta = -0.01;
  EXPECT_THROW(Simulation(st, opt), std::runtime_error);
  opt.eta = 0.05;
  opt.max_iterations = 0;
  EXPECT_THROW(Simulation(st, opt), std::runtime_error);
  opt.max_iterations = 2;
  opt.cell_potential = {1.0};  // wrong length for 3 cells
  EXPECT_THROW(Simulation(st, opt), std::runtime_error);
}

// --- registry dispatch ----------------------------------------------------

TEST(StageRegistry, UnknownKeysFailFastWithKnownKeyList) {
  const device::Structure st = device::make_test_structure(3);
  expect_invalid(small_builder(st).obc_backend("bogus"),
                 "unknown OBC backend \"bogus\"");
  expect_invalid(small_builder(st).obc_backend("bogus"), "\"beyn\"");
  expect_invalid(small_builder(st).greens_backend("bogus"),
                 "unknown Green's-function backend");
  expect_invalid(small_builder(st).self_energy_channels({"bogus"}),
                 "unknown self-energy channel");
}

TEST(StageRegistry, BuiltinsAreRegistered) {
  const StageRegistry& reg = StageRegistry::global();
  EXPECT_EQ(reg.obc_keys(),
            (std::vector<std::string>{"beyn", "lyapunov", "memoized"}));
  EXPECT_EQ(reg.greens_keys(),
            (std::vector<std::string>{"nested-dissection", "rgf"}));
  EXPECT_EQ(reg.channel_keys(),
            (std::vector<std::string>{"ephonon", "fock", "gw"}));
}

TEST(StageRegistry, CustomBackendPluggedInByKey) {
  // A downstream backend: counts solves, then delegates to the sequential
  // RGF — registered on a local registry, selected by key, never compiled
  // into the driver.
  struct CountingRgf final : GreensSolver {
    std::string_view name() const override { return "counting-rgf"; }
    rgf::SelectedSolution solve(const bt::BlockTridiag& m,
                                const bt::BlockTridiag& bl,
                                const bt::BlockTridiag& bg) override {
      ++(*calls);
      return rgf::rgf_solve(m, bl, bg);
    }
    std::shared_ptr<int> calls = std::make_shared<int>(0);
  };
  auto calls = std::make_shared<int>(0);
  StageRegistry reg = StageRegistry::with_builtins();
  reg.register_greens("counting-rgf",
                      [calls](const SimulationOptions&) {
                        auto solver = std::make_unique<CountingRgf>();
                        solver->calls = calls;
                        return solver;
                      });
  const device::Structure st = device::make_test_structure(3);
  Simulation sim = small_builder(st)
                       .ballistic()
                       .registry(reg)
                       .greens_backend("counting-rgf")
                       .build();
  sim.run();
  EXPECT_EQ(std::string(sim.greens_solver().name()), "counting-rgf");
  EXPECT_EQ(*calls, sim.options().grid.n);  // one G solve per energy
}

TEST(StageRegistry, RejectsReservedKeys) {
  StageRegistry reg;
  EXPECT_THROW(reg.register_obc("", nullptr), std::runtime_error);
  EXPECT_THROW(reg.register_greens("auto", nullptr), std::runtime_error);
}

// --- runtime backend selection equivalence --------------------------------

TEST(BackendSelection, ObcBackendsAgreeOnPhysics) {
  const device::Structure st = device::make_test_structure(3);
  double reference = 0.0;
  for (const char* key : {"memoized", "beyn", "lyapunov"}) {
    Simulation sim = small_builder(st).obc_backend(key).build();
    EXPECT_EQ(std::string(sim.obc_solver().name()), key);
    sim.run();
    const double i = terminal_current_left(sim);
    if (reference == 0.0) {
      reference = i;
      EXPECT_GT(i, 0.0);
    } else {
      EXPECT_NEAR(i, reference, 1e-4 * (1.0 + std::abs(reference)))
          << "backend " << key;
    }
  }
}

TEST(BackendSelection, GreensBackendsAgreeOnPhysics) {
  const device::Structure st = device::make_test_structure(6);
  Simulation seq = small_builder(st).greens_backend("rgf").build();
  seq.run();
  Simulation nd = small_builder(st).nested_dissection(3, 3).build();
  nd.run();
  EXPECT_EQ(std::string(nd.greens_solver().name()), "nested-dissection");
  for (int e = 0; e < seq.options().grid.n; e += 5)
    EXPECT_LT(bt::max_abs_diff(seq.g_lesser()[e], nd.g_lesser()[e]), 1e-7);
  EXPECT_NEAR(terminal_current_left(seq), terminal_current_left(nd), 1e-8);
}

TEST(BackendSelection, FockChannelMatchesStaticLimitOfGw) {
  // "fock" alone reproduces the Fock part of the "gw" channel: with the
  // dynamic part suppressed (W ~ 0 when P ~ 0 cannot be arranged cheaply),
  // we instead check the channel runs standalone and produces a Hermitian
  // static self-energy that shifts the spectrum.
  const device::Structure st = device::make_test_structure(3);
  Simulation sim = small_builder(st)
                       .self_energy_channels({"fock"})
                       .max_iterations(4)
                       .build();
  const TransportResult res = sim.run();
  EXPECT_GT(res.iterations, 1);
  const BlockTridiag sig = sim.sigma_retarded(sim.options().grid.n / 2);
  EXPECT_GT(sig.max_abs(), 0.0);
  // Static exchange only: Sigma^R must be Hermitian (no dissipation).
  const la::Matrix dense = sig.dense();
  EXPECT_LT(la::max_abs_diff(dense, dense.dagger()), 1e-10);
}

// --- streaming observers and stop reasons ---------------------------------

TEST(Observers, IterationResultsStreamInOrder) {
  const device::Structure st = device::make_test_structure(3);
  std::vector<IterationResult> seen;
  Simulation sim = small_builder(st)
                       .tolerance(1e-12)  // force budget exhaustion
                       .on_iteration([&seen](const IterationResult& r) {
                         seen.push_back(r);
                       })
                       .build();
  const TransportResult res = sim.run();
  ASSERT_EQ(seen.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(seen[i].iteration, i + 1);
  EXPECT_EQ(seen.back().stop, StopReason::kBudgetExhausted);
  EXPECT_FALSE(seen.back().converged);
  EXPECT_EQ(res.stop_reason, StopReason::kBudgetExhausted);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.history.size(), seen.size());
}

TEST(Observers, ConvergedRunRecordsReason) {
  const device::Structure st = device::make_test_structure(3);
  Simulation sim = small_builder(st)
                       .tolerance(10.0)  // converges at the 2nd iteration
                       .max_iterations(10)
                       .build();
  const TransportResult res = sim.run();
  EXPECT_EQ(res.stop_reason, StopReason::kConverged);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 2);
  EXPECT_EQ(res.history.back().stop, StopReason::kConverged);
  EXPECT_STREQ(to_string(res.stop_reason), "converged");
}

TEST(Observers, BallisticRunStopsAfterOneExactPass) {
  const device::Structure st = device::make_test_structure(3);
  Simulation sim = small_builder(st).ballistic().build();
  const TransportResult res = sim.run();
  EXPECT_EQ(res.iterations, 1);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.stop_reason, StopReason::kNonInteracting);
}

TEST(Observers, KernelTimingsStreamTable4Rows) {
  const device::Structure st = device::make_test_structure(3);
  std::map<std::string, double> rows;
  int samples = 0;
  Simulation sim = small_builder(st)
                       .max_iterations(1)
                       .on_kernel_timing([&](const KernelTiming& k) {
                         rows[k.kernel] += k.seconds;
                         EXPECT_EQ(k.iteration, 1);
                         EXPECT_GE(k.seconds, 0.0);
                         ++samples;
                       })
                       .build();
  sim.run();
  EXPECT_GT(samples, 0);
  for (const char* name : {"G: OBC", "G: RGF", "W: RGF", "Other: P-FFT",
                           "Other: Sigma-FFT"})
    EXPECT_TRUE(rows.count(name)) << "missing kernel row " << name;
}

TEST(Observers, TransportResultAggregatesKernelLedger) {
  const device::Structure st = device::make_test_structure(3);
  Simulation sim = small_builder(st).tolerance(1e-12).build();
  const TransportResult res = sim.run();
  for (const auto& [name, total] : res.kernel_seconds) {
    double sum = 0.0;
    for (const auto& it : res.history) {
      const auto f = it.kernel_seconds.find(name);
      if (f != it.kernel_seconds.end()) sum += f->second;
    }
    EXPECT_NEAR(total, sum, 1e-12) << name;
  }
  EXPECT_GT(res.total_seconds, 0.0);
  EXPECT_EQ(res.final_update, res.history.back().sigma_update);
}

}  // namespace
}  // namespace qtx::core
