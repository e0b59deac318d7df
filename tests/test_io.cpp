// Scenario/IO layer suite (ctest label "io"):
//
//  - string binding of SimulationOptions / StructureParams: parse ->
//    serialize -> parse identity, unknown-key and type-error diagnostics
//  - device preset catalog: every preset builds, quickstart matches
//    make_test_structure(4) exactly
//  - scenario parser: the checked-in scenarios/ decks round-trip through
//    serialize_scenario, and every diagnostic points at <file>:<line>
//  - result writers: golden-file comparison of the full CSV/JSON output of
//    a fixed synthetic result set (regenerate with QTX_UPDATE_GOLDEN=1)
//  - sweeps: every point runs, and each matches a standalone run
//  - the StageRegistry catalog: describe() covers the builtins and every
//    key appears in docs/userguide.md
//  - qtx CLI smoke: the real binary runs the quickstart scenario and its
//    transmission CSV matches tests/golden/quickstart_transmission.txt
//    bit-identically; sweep mode emits a multi-point CSV

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "io/scenario_runner.hpp"

#ifndef QTX_GOLDEN_DIR
#error "QTX_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif
#ifndef QTX_SCENARIO_DIR
#error "QTX_SCENARIO_DIR must point at scenarios/ (set by CMakeLists.txt)"
#endif
#ifndef QTX_DOCS_DIR
#error "QTX_DOCS_DIR must point at docs/ (set by CMakeLists.txt)"
#endif
#ifndef QTX_QTX_BIN
#error "QTX_QTX_BIN must point at the qtx binary (set by CMakeLists.txt)"
#endif

namespace qtx {
namespace {

namespace fs = std::filesystem;

bool update_golden() {
  const char* env = std::getenv("QTX_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Compare \p got against the checked-in golden text verbatim; with
/// QTX_UPDATE_GOLDEN=1 rewrite the golden file instead (commit the diff).
void compare_text_golden(const std::string& name, const std::string& got) {
  const std::string path = std::string(QTX_GOLDEN_DIR) + "/" + name;
  if (update_golden()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  ASSERT_TRUE(fs::exists(path))
      << "missing golden file " << path
      << "; regenerate with QTX_UPDATE_GOLDEN=1 ./test_io";
  EXPECT_EQ(got, read_file(path)) << "golden " << name << " drifted";
}

/// Golden .txt reader (same format as test_golden: '#' comments, one
/// double per line at %.17g).
std::vector<double> read_golden_values(const std::string& name) {
  std::ifstream in(std::string(QTX_GOLDEN_DIR) + "/" + name + ".txt");
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::vector<double> values;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    values.push_back(std::strtod(line.c_str(), nullptr));
  }
  return values;
}

std::string scenario_path(const std::string& name) {
  return std::string(QTX_SCENARIO_DIR) + "/" + name;
}

// ---------------------------------------------------------------------------
// SimulationOptions string binding
// ---------------------------------------------------------------------------

TEST(OptionsBinding, SerializeApplyRoundTripsDefaults) {
  const core::SimulationOptions defaults;
  core::SimulationOptions rebuilt;
  rebuilt.eta = -1.0;  // scribble so the round trip must restore it
  for (const core::OptionKV& kv : core::serialize_options(defaults))
    core::set_option(rebuilt, kv.first, kv.second);
  EXPECT_EQ(core::serialize_options(rebuilt),
            core::serialize_options(defaults));
}

TEST(OptionsBinding, RoundTripsAwkwardValues) {
  core::SimulationOptions opt;
  opt.grid = {-5.123456789012345, 7.0 / 3.0, 97};
  opt.eta = 1.0 / 3.0;
  opt.contacts = {0.1 + 0.2, -1e-300, 123.456};
  opt.mixing = 0.7;
  opt.tol = 1e-12;
  opt.cell_potential = {0.0, -0.1, 1.0 / 7.0, 3e17};
  opt.self_energy_channels = {"gw", "ephonon"};
  opt.obc_backend = "beyn";
  opt.num_threads = 8;
  opt.use_memoizer = false;
  core::SimulationOptions rebuilt;
  for (const core::OptionKV& kv : core::serialize_options(opt))
    core::set_option(rebuilt, kv.first, kv.second);
  EXPECT_EQ(core::serialize_options(rebuilt), core::serialize_options(opt));
  EXPECT_EQ(rebuilt.grid.e_min, opt.grid.e_min);  // bit-identical doubles
  EXPECT_EQ(rebuilt.cell_potential, opt.cell_potential);
  EXPECT_EQ(rebuilt.self_energy_channels, opt.self_energy_channels);
}

TEST(OptionsBinding, UnknownKeyListsKnownKeys) {
  core::SimulationOptions opt;
  try {
    core::set_option(opt, "ga_scale", "0.3");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown option key \"ga_scale\""), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("gw_scale"), std::string::npos)
        << "should list known keys: " << msg;
  }
}

TEST(OptionsBinding, TypeErrorNamesKeyAndValue) {
  core::SimulationOptions opt;
  try {
    core::set_option(opt, "eta", "abc");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("\"eta\""), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected a number"), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"abc\""), std::string::npos) << msg;
  }
  EXPECT_THROW(core::set_option(opt, "grid.n", "64.5"), std::runtime_error);
  EXPECT_THROW(core::set_option(opt, "use_memoizer", "maybe"),
               std::runtime_error);
}

TEST(OptionsBinding, RejectsNumericOverflowInsteadOfClamping) {
  core::SimulationOptions opt;
  // "1e999" would clamp to +inf and sail through validate()'s eta > 0.
  EXPECT_THROW(core::set_option(opt, "eta", "1e999"), std::runtime_error);
  // Would wrap through static_cast<int> without the 32-bit range check.
  EXPECT_THROW(core::set_option(opt, "grid.n", "4294967300"),
               std::runtime_error);
  EXPECT_THROW(core::set_option(opt, "max_iterations",
                                "99999999999999999999999"),
               std::runtime_error);
  // Literal inf/nan spellings are typos in a physics deck, not values.
  EXPECT_THROW(core::set_option(opt, "eta", "inf"), std::runtime_error);
  EXPECT_THROW(core::set_option(opt, "eta", "nan"), std::runtime_error);
  // Gradual underflow must stay accepted: tiny serialized values
  // round-trip through provenance headers.
  core::set_option(opt, "eta", "1e-310");
  EXPECT_GT(opt.eta, 0.0);
}

TEST(OptionsBinding, KeysAreStableAndComplete) {
  const std::vector<std::string> keys = core::option_keys();
  // Sticky-default keys (the mixer family) are omitted from a default
  // serialization — the append-only provenance policy — so the serialized
  // set is a subset of the key list, never the other way around.
  const std::vector<core::OptionKV> defaults = core::serialize_options({});
  EXPECT_LT(defaults.size(), keys.size());
  for (const core::OptionKV& kv : defaults)
    EXPECT_NE(std::find(keys.begin(), keys.end(), kv.first), keys.end())
        << kv.first;
  // Spot-check the documented schema anchors (docs/userguide.md table).
  for (const char* k :
       {"grid.n", "eta", "contacts.mu_left", "gw_scale", "obc_backend",
        "greens_backend", "executor", "num_threads", "self_energy_channels",
        "mixer", "mixing_history", "mixing_regularization",
        "divergence_factor"})
    EXPECT_NE(std::find(keys.begin(), keys.end(), k), keys.end()) << k;
}

TEST(OptionsBinding, StickyDefaultMixerKeysSerializeOnlyWhenSet) {
  // Default configuration: byte-stable provenance — no mixer keys at all.
  for (const core::OptionKV& kv : core::serialize_options({}))
    for (const char* sticky : {"mixer", "mixing_history",
                               "mixing_regularization", "divergence_factor"})
      EXPECT_NE(kv.first, sticky);
  // Non-default values must serialize and round-trip exactly.
  core::SimulationOptions opt;
  opt.mixer = "anderson";
  opt.mixing_history = 7;
  opt.mixing_regularization = 1e-3;
  opt.divergence_factor = 25.0;
  const std::vector<core::OptionKV> kvs = core::serialize_options(opt);
  const auto has = [&](const char* key) {
    for (const core::OptionKV& kv : kvs)
      if (kv.first == key) return true;
    return false;
  };
  EXPECT_TRUE(has("mixer"));
  EXPECT_TRUE(has("mixing_history"));
  EXPECT_TRUE(has("mixing_regularization"));
  EXPECT_TRUE(has("divergence_factor"));
  core::SimulationOptions rebuilt;
  for (const core::OptionKV& kv : kvs)
    core::set_option(rebuilt, kv.first, kv.second);
  EXPECT_EQ(rebuilt.mixer, "anderson");
  EXPECT_EQ(rebuilt.mixing_history, 7);
  EXPECT_EQ(rebuilt.mixing_regularization, 1e-3);
  EXPECT_EQ(rebuilt.divergence_factor, 25.0);
}

// ---------------------------------------------------------------------------
// Device presets and StructureParams binding
// ---------------------------------------------------------------------------

TEST(DevicePresets, QuickstartMatchesTestStructure) {
  const device::StructureParams preset = device::device_preset("quickstart");
  const device::StructureParams reference =
      device::make_test_structure(4).params();
  EXPECT_EQ(device::serialize_structure_params(preset),
            device::serialize_structure_params(reference));
}

TEST(DevicePresets, EveryPresetBuildsAStructure) {
  for (const device::DevicePreset& p : device::device_presets()) {
    SCOPED_TRACE(p.name);
    EXPECT_FALSE(p.description.empty());
    const device::Structure st(p.params);  // ctor validates the params
    EXPECT_GE(st.num_cells(), 2);
    EXPECT_GT(st.band_gap().gap(), 0.0) << "presets are semiconducting";
  }
}

TEST(DevicePresets, UnknownPresetListsCatalog) {
  try {
    device::device_preset("nanotube");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown device preset \"nanotube\""),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("nanowire-vacancy"), std::string::npos) << msg;
  }
}

TEST(DevicePresets, ParamBindingRoundTrips) {
  device::StructureParams p = device::device_preset("cnt");
  p.seed = 987654321012345ull;
  p.dimerization = 1.0 / 3.0;
  device::StructureParams rebuilt;
  for (const auto& kv : device::serialize_structure_params(p))
    device::set_structure_param(rebuilt, kv.first, kv.second);
  EXPECT_EQ(device::serialize_structure_params(rebuilt),
            device::serialize_structure_params(p));
}

TEST(DevicePresets, VacancyOrbitalChangesTheDevice) {
  device::StructureParams pristine = device::device_preset("quickstart");
  device::StructureParams defective = pristine;
  defective.vacancy_orbital = 3;
  const auto h0 = device::Structure(pristine).hamiltonian_bt();
  const auto h1 = device::Structure(defective).hamiltonian_bt();
  EXPECT_NE(h0.diag(0)(3, 3), h1.diag(0)(3, 3))
      << "the vacancy orbital's onsite energy must shift";
  EXPECT_THROW(device::Structure([&] {
                 device::StructureParams bad = pristine;
                 bad.vacancy_orbital = 99;  // outside the PUC
                 return bad;
               }()),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Scenario parser
// ---------------------------------------------------------------------------

TEST(ScenarioParser, ParsesTheQuickstartDeck) {
  const io::Scenario s =
      io::parse_scenario_file(scenario_path("quickstart.ini"));
  EXPECT_EQ(s.name, "quickstart");
  EXPECT_EQ(s.device_preset, "quickstart");
  EXPECT_EQ(s.device.num_cells, 4);
  EXPECT_EQ(s.solver.grid.n, 64);
  EXPECT_EQ(s.solver.max_iterations, 4);
  EXPECT_EQ(s.solver.gw_scale, 0.3);
  EXPECT_EQ(s.mu_reference, "conduction-min");
  EXPECT_TRUE(s.has_mu_spec);
  EXPECT_EQ(s.mu_left, 0.3);
  EXPECT_EQ(s.mu_right, 0.1);
  EXPECT_TRUE(s.output.csv);
  EXPECT_TRUE(s.output.json);
  EXPECT_FALSE(s.has_sweep());
}

TEST(ScenarioParser, EveryCheckedInDeckRoundTrips) {
  for (const char* deck : {"quickstart.ini", "nanoribbon_iv.ini",
                           "nanowire_vacancy.ini", "cnt_temperature.ini"}) {
    SCOPED_TRACE(deck);
    const io::Scenario s1 = io::parse_scenario_file(scenario_path(deck));
    const std::string canonical = io::serialize_scenario(s1);
    const io::Scenario s2 = io::parse_scenario_text(canonical, deck);
    EXPECT_EQ(io::serialize_scenario(s2), canonical)
        << "parse(serialize(parse(x))) must be an identity";
  }
}

void expect_parse_error(const std::string& text, const std::string& at,
                        const std::string& fragment) {
  try {
    io::parse_scenario_text(text, "deck.ini");
    FAIL() << "expected ScenarioError for: " << fragment;
  } catch (const io::ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("deck.ini:" + at, 0), 0)
        << "diagnostic must start with file:line, got: " << msg;
    EXPECT_NE(msg.find(fragment), std::string::npos) << msg;
  }
}

TEST(ScenarioParser, DiagnosticsPointAtFileAndLine) {
  expect_parse_error("[solver]\neta = 0.02\netaa = 3\n", "3:",
                     "unknown option key \"etaa\"");
  expect_parse_error("[solver]\neta = abc\n", "2:", "expected a number");
  expect_parse_error("[device]\npreset = warp-core\n", "2:",
                     "unknown device preset");
  expect_parse_error("[device]\nnum_cellz = 4\n", "2:",
                     "unknown device parameter");
  expect_parse_error("eta = 0.02\n", "1:", "before any [section]");
  expect_parse_error("[warp]\n", "1:", "unknown section");
  expect_parse_error("[solver\n", "1:", "malformed section header");
  expect_parse_error("[solver]\njust some words\n", "2:",
                     "expected \"key = value\"");
  expect_parse_error("[solver]\ngrid = -6 6\n", "2:", "3 values");
  // The grid shorthand must range-check n like the grid.n key does.
  expect_parse_error("[solver]\ngrid = -6 6 4294967298\n", "2:",
                     "32-bit range");
  expect_parse_error("[solver]\nmu_reference = fermi\n", "2:",
                     "mu_reference must be one of");
  expect_parse_error("[output]\nformats = csv yaml\n", "2:",
                     "unknown output format \"yaml\"");
  expect_parse_error("[sweep]\nvalues = 1 2 3\n", "2:",
                     "no parameter");  // reported at the last line read
  expect_parse_error("[device]\nnum_cells = 12\npreset = cnt\n", "3:",
                     "\"preset\" must come before");
}

TEST(ScenarioParser, DuplicateKeysAreRejectedWithFileLine) {
  expect_parse_error("[solver]\neta = 0.02\nmixing = 0.5\neta = 0.03\n",
                     "4:", "duplicate key \"eta\" in [solver]");
  expect_parse_error("[device]\npreset = cnt\nnum_cells = 6\nnum_cells = 8\n",
                     "4:", "duplicate key \"num_cells\" in [device]");
  // A reopened section does not reset the bookkeeping.
  expect_parse_error(
      "[solver]\neta = 0.02\n[device]\npreset = cnt\n[solver]\neta = 0.05\n",
      "6:", "duplicate key \"eta\"");
}

TEST(ScenarioParser, SweepOverUnknownOptionKeyFailsAtItsLine) {
  expect_parse_error("[sweep]\nparameter = etaa\nvalues = 1 2\n", "2:",
                     "[sweep] parameter \"etaa\"");
  expect_parse_error("[sweep]\nparameter = etaa\nvalues = 1 2\n", "2:",
                     "known parameters: bias, temperature");
  // String-typed option keys cannot take numeric sweep values: reject at
  // the parameter line instead of failing after the first solved point.
  expect_parse_error("[sweep]\nparameter = mixer\nvalues = 1 2\n", "2:",
                     "string-typed option");
  expect_parse_error("[sweep]\nparameter = obc_backend\nvalues = 1\n", "2:",
                     "string-typed option");
  // bias/temperature and numeric option keys (including the mixer family)
  // all pass the eager validation.
  for (const char* good :
       {"bias", "temperature", "grid.n", "mixing_history",
        "divergence_factor"}) {
    const io::Scenario s = io::parse_scenario_text(
        std::string("[sweep]\nparameter = ") + good + "\nvalues = 1\n",
        "deck.ini");
    EXPECT_EQ(s.sweep.parameter, good);
  }
}

TEST(ScenarioParser, CommentsAndWhitespaceAreTolerated) {
  const io::Scenario s = io::parse_scenario_text(
      "  # full-line comment\n"
      "\n"
      "[solver]   ; trailing comment\n"
      "  eta   =   0.05   # trailing\n"
      "; another full-line comment\n"
      "max_iterations=3\n",
      "deck.ini");
  EXPECT_EQ(s.solver.eta, 0.05);
  EXPECT_EQ(s.solver.max_iterations, 3);
}

TEST(ScenarioParser, DeckWithoutDeviceSectionRunsTheDefaultPreset) {
  // The provenance claims "preset = quickstart"; the device params must
  // actually be the quickstart preset, not StructureParams{} defaults.
  const io::Scenario s =
      io::parse_scenario_text("[solver]\neta = 0.05\n", "deck.ini");
  EXPECT_EQ(s.device_preset, "quickstart");
  EXPECT_EQ(device::serialize_structure_params(s.device),
            device::serialize_structure_params(
                device::device_preset("quickstart")));
}

TEST(ScenarioParser, ExplicitNameSurvivesFileParsing) {
  const std::string deck = "qtx_parser_named.ini";
  {
    std::ofstream out(deck);
    out << "[scenario]\nname = custom-name\n[solver]\neta = 0.05\n";
  }
  EXPECT_EQ(io::parse_scenario_file(deck).name, "custom-name");
}

TEST(ScenarioParser, DeviceOverridesComposeWithPreset) {
  const io::Scenario s = io::parse_scenario_text(
      "[device]\npreset = nanoribbon\nnum_cells = 12\nhopping_ev = 1.5\n",
      "deck.ini");
  EXPECT_EQ(s.device_preset, "nanoribbon");
  EXPECT_EQ(s.device.num_cells, 12);        // override
  EXPECT_EQ(s.device.hopping_ev, 1.5);      // override
  EXPECT_EQ(s.device.dimerization, 0.10);   // preset value kept
}

TEST(ScenarioParser, MuReferenceResolvesAgainstBandEdges) {
  const io::Scenario s = io::parse_scenario_text(
      "[device]\npreset = quickstart\n"
      "[solver]\nmu_reference = conduction-min\nmu_left = 0.3\n"
      "mu_right = 0.1\n",
      "deck.ini");
  const device::Structure st = io::make_structure(s);
  const core::SimulationOptions opt = io::resolved_solver_options(s, st);
  const auto gap = st.band_gap();
  EXPECT_EQ(opt.contacts.mu_left, gap.conduction_min + 0.3);
  EXPECT_EQ(opt.contacts.mu_right, gap.conduction_min + 0.1);
}

// ---------------------------------------------------------------------------
// Line endings and the canonical deck hash
// ---------------------------------------------------------------------------

TEST(ScenarioParser, CrlfDecksParseIdenticallyToLf) {
  const std::string lf =
      "[device]\npreset = quickstart\nnum_cells = 3\n"
      "[solver]\neta = 0.05\nmax_iterations = 2\n";
  std::string crlf;
  for (const char c : lf) crlf += (c == '\n') ? std::string("\r\n") : std::string(1, c);
  const io::Scenario a = io::parse_scenario_text(lf, "lf.ini");
  const io::Scenario b = io::parse_scenario_text(crlf, "crlf.ini");
  EXPECT_EQ(io::serialize_scenario(a), io::serialize_scenario(b));
  EXPECT_EQ(io::canonical_deck_hash(a), io::canonical_deck_hash(b));
}

TEST(ScenarioParser, BareCrLineEndingsAreRejectedWithALocatedError) {
  // A CR-only (classic Mac) deck arrives as one getline "line" full of
  // embedded CRs — reject it with a conversion hint instead of silently
  // mis-parsing everything past the first CR.
  expect_parse_error("[solver]\reta = 0.05\rmax_iterations = 2\r", "1:",
                     "CR-only");
}

TEST(DeckHash, CanonicalTextRoundTripsToTheSameHash) {
  const io::Scenario s = io::parse_scenario_text(
      "[device]\npreset = quickstart\n[solver]\neta = 0.04\n", "a.ini");
  const io::Scenario back =
      io::parse_scenario_text(io::serialize_scenario(s), "b.ini");
  EXPECT_EQ(io::canonical_deck_hash(back), io::canonical_deck_hash(s));
  EXPECT_EQ(io::canonical_deck_hash_hex(s).size(), 16u);
}

TEST(DeckHash, FormattingAndCommentDifferencesCollapse) {
  const io::Scenario plain = io::parse_scenario_text(
      "[solver]\neta = 0.05\nmax_iterations = 3\n", "plain.ini");
  const io::Scenario noisy = io::parse_scenario_text(
      "# a comment\n\n[solver]   ; section\n"
      "max_iterations=3\n  eta   =   0.05   # trailing\n",
      "noisy.ini");
  EXPECT_EQ(io::canonical_deck_hash(noisy), io::canonical_deck_hash(plain));
}

TEST(DeckHash, SingleKeyValueMutationsChangeTheHash) {
  // Property fuzz: for random decks, mutating any one value of the
  // canonical text that survives reparsing must land on a different hash
  // — the guarantee the serve ResultCache keys on.
  Rng rng(20250808);
  auto randint = [&rng](int lo, int hi) {
    return lo + static_cast<int>((rng.uniform() + 1.0) / 2.0 * (hi - lo));
  };
  int mutations_checked = 0;
  for (int trial = 0; trial < 8; ++trial) {
    std::ostringstream deck;
    deck << "[device]\npreset = quickstart\nnum_cells = " << randint(2, 4)
         << "\n[solver]\ngrid = -2.0 2.0 " << randint(4, 16)
         << "\neta = 0.0" << randint(1, 9)
         << "\nmax_iterations = " << randint(1, 4)
         << "\nmixing = 0." << randint(1, 9) << "\n";
    const io::Scenario s = io::parse_scenario_text(deck.str(), "fuzz.ini");
    const std::string canon = io::serialize_scenario(s);
    const std::uint64_t hash = io::canonical_deck_hash(s);

    std::istringstream lines(canon);
    std::string line;
    std::size_t offset = 0;
    while (std::getline(lines, line)) {
      const std::size_t line_start = offset;
      offset += line.size() + 1;
      if (line.find(" = ") == std::string::npos) continue;
      // Append a digit to the value: numeric values change magnitude,
      // string values usually stop parsing (those mutants are skipped).
      std::string mutated = canon;
      mutated.insert(line_start + line.size(), "1");
      io::Scenario m;
      try {
        m = io::parse_scenario_text(mutated, "mutant.ini");
      } catch (const io::ScenarioError&) {
        continue;
      }
      if (io::serialize_scenario(m) == canon) continue;  // no-op mutant
      EXPECT_NE(io::canonical_deck_hash(m), hash)
          << "mutated line collided: " << line;
      ++mutations_checked;
    }
  }
  // The fuzz must actually have exercised a healthy number of mutants.
  EXPECT_GT(mutations_checked, 20);
}

// ---------------------------------------------------------------------------
// Result writers (golden files; regenerate with QTX_UPDATE_GOLDEN=1)
// ---------------------------------------------------------------------------

/// A fixed synthetic result set: deterministic by construction (no wall
/// times from a real run), so the writer output is byte-stable.
io::ScenarioResults synthetic_results() {
  io::ScenarioResults r;
  r.energies = {-1.0, 0.0, 1.0, 2.0};
  r.transmission = {0.0, 1.0 / 3.0, 1.9999999999999998, 4.0};
  r.dos = {0.25, 1e-17, 3.5, 0.125};
  r.density = {1.5, 2.5, 3.5};
  r.current_left = {0.0, 1e-6, 2e-6, 0.0};
  r.current_right = {0.0, -1e-6, -2e-6, 0.0};
  r.terminal_left = 3.0000000000000004e-06;
  r.terminal_right = -3e-06;
  r.result.converged = true;
  r.result.iterations = 2;
  r.result.stop_reason = core::StopReason::kConverged;
  r.result.final_update = 5e-4;
  r.result.total_seconds = 1.5;
  core::IterationResult it1;
  it1.iteration = 1;
  it1.sigma_update = 0.5;
  it1.seconds = 1.0;
  core::IterationResult it2;
  it2.iteration = 2;
  it2.sigma_update = 5e-4;
  it2.seconds = 0.5;
  it2.converged = true;
  it2.stop = core::StopReason::kConverged;
  r.result.history = {it1, it2};
  r.result.kernel_seconds = {{"G: RGF", 0.75}, {"W: RGF", 0.5}};
  r.result.kernel_flops = {{"G: RGF", 123456789}};
  return r;
}

io::Scenario synthetic_scenario() {
  io::Scenario s;
  s.name = "writer-golden";
  s.device_preset = "quickstart";
  s.device = device::device_preset("quickstart");
  s.solver.grid = {-1.0, 2.0, 4};
  s.solver.max_iterations = 2;
  s.sweep.parameter = "bias";
  s.sweep.values = {0.0, 0.1};
  return s;
}

TEST(ResultWriter, CsvFilesMatchGolden) {
  const io::Scenario s = synthetic_scenario();
  const io::ScenarioResults r = synthetic_results();
  const std::string dir = "test_io_writer_out";
  fs::create_directories(dir);
  io::write_result_csvs(dir, s, s.solver, r);
  for (const char* name : {"transmission", "dos", "density", "currents",
                           "trace", "timings"}) {
    SCOPED_TRACE(name);
    compare_text_golden("io_" + std::string(name) + "_csv.txt",
                        read_file(dir + "/" + name + ".csv"));
  }
}

TEST(ResultWriter, JsonMatchesGolden) {
  const io::Scenario s = synthetic_scenario();
  const std::string dir = "test_io_writer_out";
  fs::create_directories(dir);
  const std::string path =
      io::write_result_json(dir, s, s.solver, synthetic_results());
  compare_text_golden("io_results_json.txt", read_file(path));
}

TEST(ResultWriter, SweepCsvMatchesGolden) {
  const io::Scenario s = synthetic_scenario();
  const std::string dir = "test_io_writer_out";
  fs::create_directories(dir);
  io::SweepRow a{0.0, 1e-6, -1e-6, 2, true, 4e-4};
  io::SweepRow b{0.1, 2e-6, -2e-6, 3, false, 2e-2};
  const std::string path = io::write_sweep_csv(dir, s, s.solver, {a, b});
  compare_text_golden("io_sweep_csv.txt", read_file(path));
}

TEST(ResultWriter, CsvColumnsReadBackBitIdentically) {
  const std::vector<double> xs = {-1.0, 1.0 / 3.0, 1e-300, 3.14159};
  const std::vector<double> ys = {0.1 + 0.2, -7.0, 2e17, 0.0};
  std::ostringstream os;
  io::write_csv(os, {"provenance line"}, {{"x", &xs}, {"y", &ys}});
  std::istringstream in(os.str());
  EXPECT_EQ(io::read_csv_column(in, 1), ys);  // exact double equality
  std::istringstream in2(os.str());
  EXPECT_EQ(io::read_csv_column(in2, 0), xs);
}

TEST(ResultWriter, CsvReaderHandlesCrlfAndRejectsBareCr) {
  // CRLF files (Windows editors, git autocrlf) read back exactly like LF
  // ones — the trailing CR must not corrupt the last column.
  std::istringstream crlf("# note\r\nx,y\r\n1,2\r\n3,4\r\n");
  EXPECT_EQ(io::read_csv_column(crlf, 1), (std::vector<double>{2.0, 4.0}));
  // CR-only files used to yield a silently empty column (getline never
  // fires); now they are rejected with a conversion hint.
  std::istringstream cr_only("x,y\r1,2\r3,4\r");
  EXPECT_THROW(io::read_csv_column(cr_only, 1), std::runtime_error);
}

TEST(ResultWriter, RenderMatchesTheWrittenFileBytes) {
  // render_result_json is documented as "the exact bytes write_result_json
  // puts on disk" — the serve daemon depends on that equivalence.
  const io::Scenario s = synthetic_scenario();
  const io::ScenarioResults r = synthetic_results();
  const std::string dir = "test_io_writer_out";
  fs::create_directories(dir);
  const std::string path = io::write_result_json(dir, s, s.solver, r);
  EXPECT_EQ(io::render_result_json(s, s.solver, r), read_file(path));
}

TEST(ResultWriter, ProvenanceRoundTripsThroughTheBindings) {
  const io::Scenario s = synthetic_scenario();
  // Every "solver.key = value" provenance line must re-apply cleanly —
  // the guarantee that a result file fully records its configuration.
  core::SimulationOptions rebuilt;
  for (const std::string& line : io::provenance_lines(s, s.solver)) {
    const std::size_t eq = line.find(" = ");
    if (line.rfind("solver.", 0) != 0 || eq == std::string::npos) continue;
    core::set_option(rebuilt, line.substr(7, eq - 7), line.substr(eq + 3));
  }
  EXPECT_EQ(core::serialize_options(rebuilt),
            core::serialize_options(s.solver));
}

// ---------------------------------------------------------------------------
// Scenario running and sweeps
// ---------------------------------------------------------------------------

/// A deliberately tiny interacting scenario so the runner tests stay fast.
io::Scenario mini_scenario() {
  io::Scenario s;
  s.name = "mini";
  s.device_preset = "quickstart";
  s.device = device::device_preset("quickstart");
  s.solver.grid = {-5.0, 5.0, 12};
  s.solver.eta = 0.05;
  s.solver.gw_scale = 0.2;
  s.solver.mixing = 0.5;
  s.solver.max_iterations = 2;
  s.solver.tol = 1e-6;
  s.mu_reference = "conduction-min";
  s.mu_left = 0.3;
  s.mu_right = 0.1;
  s.has_mu_spec = true;
  return s;
}

TEST(ScenarioRunner, BiasSweepCurrentGrowsWithTheWindow) {
  io::Scenario s = mini_scenario();
  s.sweep.parameter = "bias";
  s.sweep.values = {0.0, 0.2};
  const io::SweepOutcome out = io::run_sweep(s);
  ASSERT_EQ(out.rows.size(), 2u);
  // Zero bias collapses the window onto the midpoint: both terminal
  // currents should be (near-)equal and far below the biased point's.
  EXPECT_LT(std::abs(out.rows[0].terminal_left),
            std::abs(out.rows[1].terminal_left));
}

TEST(ScenarioRunner, SweepPointsMatchStandaloneRuns) {
  io::Scenario s = mini_scenario();
  s.sweep.parameter = "temperature";
  s.sweep.values = {200.0, 400.0};
  const io::SweepOutcome sweep = io::run_sweep(s);
  ASSERT_EQ(sweep.rows.size(), 2u);
  for (std::size_t i = 0; i < sweep.rows.size(); ++i) {
    SCOPED_TRACE(i);
    io::Scenario point = s;
    point.sweep = {};  // standalone run of the same physics
    point.solver.contacts.temperature_k = sweep.rows[i].value;
    const device::Structure st = io::make_structure(point);
    core::SimulationOptions opt = io::resolved_solver_options(point, st);
    opt.contacts.temperature_k = sweep.rows[i].value;
    core::Simulation sim(st, opt);
    sim.run();
    EXPECT_EQ(core::terminal_current_left(sim),
              sweep.rows[i].terminal_left)
        << "a sweep point must match its standalone run";
  }
}

/// Every sweep point produced a row carrying its own value, in order.
void expect_every_point_ran(const io::Scenario& s,
                            const io::SweepOutcome& out) {
  ASSERT_EQ(out.rows.size(), s.sweep.values.size());
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    EXPECT_EQ(out.rows[i].value, s.sweep.values[i]) << "point " << i;
    EXPECT_GE(out.rows[i].iterations, 1) << "point " << i;
  }
}

TEST(ScenarioRunner, SolverConfigSweepRunsEveryPoint) {
  // Keys other than bias/temperature go through apply_sweep_value's
  // set_option route.
  io::Scenario s = mini_scenario();
  s.sweep.parameter = "symmetrize";
  s.sweep.values = {1, 0};
  expect_every_point_ran(s, io::run_sweep(s));
}

TEST(ScenarioRunner, GridSweepRunsEveryPoint) {
  io::Scenario s = mini_scenario();
  s.sweep.parameter = "grid.n";
  s.sweep.values = {8, 12};
  expect_every_point_ran(s, io::run_sweep(s));
}

// ---------------------------------------------------------------------------
// Registry catalog and documentation coverage
// ---------------------------------------------------------------------------

TEST(RegistryDescribe, CoversEveryBuiltinWithADescription) {
  const auto backends = core::StageRegistry::global().describe();
  const auto find = [&](const std::string& kind, const std::string& key) {
    for (const core::BackendDescription& b : backends)
      if (b.kind == kind && b.key == key) return b.description;
    return std::string("<missing>");
  };
  for (const char* key : {"memoized", "beyn", "lyapunov"})
    EXPECT_FALSE(find("obc", key).empty() || find("obc", key) == "<missing>")
        << key;
  for (const char* key : {"rgf", "nested-dissection"})
    EXPECT_NE(find("greens", key), "<missing>") << key;
  for (const char* key : {"gw", "fock", "ephonon"})
    EXPECT_NE(find("channel", key), "<missing>") << key;
  for (const char* key : {"sequential", "omp"})
    EXPECT_NE(find("executor", key), "<missing>") << key;
  for (const core::BackendDescription& b : backends)
    EXPECT_FALSE(b.description.empty())
        << "builtin \"" << b.key << "\" needs a one-line description";
}

TEST(RegistryDescribe, UserguideDocumentsEveryRegisteredKey) {
  const std::string guide =
      read_file(std::string(QTX_DOCS_DIR) + "/userguide.md");
  for (const core::BackendDescription& b :
       core::StageRegistry::global().describe()) {
    EXPECT_NE(guide.find("`" + b.key + "`"), std::string::npos)
        << "backend key \"" << b.key << "\" (kind " << b.kind
        << ") is missing from docs/userguide.md — update the backend table";
  }
  for (const std::string& name : device::device_preset_names())
    EXPECT_NE(guide.find("`" + name + "`"), std::string::npos)
        << "device preset \"" << name
        << "\" is missing from docs/userguide.md";
}

// ---------------------------------------------------------------------------
// qtx CLI smoke tests (run the real binary)
// ---------------------------------------------------------------------------

int run_cli(const std::string& args, const std::string& log) {
  const std::string cmd =
      std::string("\"") + QTX_QTX_BIN + "\" " + args + " > " + log + " 2>&1";
  return std::system(cmd.c_str());
}

TEST(QtxCli, RunReproducesTheGoldenTransmissionBitIdentically) {
  const std::string out_dir = "qtx_smoke_out";
  fs::remove_all(out_dir);
  ASSERT_EQ(run_cli("run \"" + scenario_path("quickstart.ini") +
                        "\" --out " + out_dir + " --quiet",
                    "qtx_smoke_run.log"),
            0)
      << read_file("qtx_smoke_run.log");

  std::ifstream csv(out_dir + "/transmission.csv");
  ASSERT_TRUE(csv.good()) << "qtx run must write transmission.csv";
  const std::vector<double> got = io::read_csv_column(csv, 1);
  const std::vector<double> want =
      read_golden_values("quickstart_transmission");
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i])
        << "CLI transmission drifted from the golden file at entry " << i;
  EXPECT_TRUE(fs::exists(out_dir + "/results.json"));
  EXPECT_TRUE(fs::exists(out_dir + "/dos.csv"));
  EXPECT_TRUE(fs::exists(out_dir + "/trace.csv"));
}

TEST(QtxCli, NativeLaBackendMatchesTheGoldenTransmissionNumerically) {
  // The native split-complex kernels reassociate complex arithmetic, so
  // this path is *numerically* equivalent (kernel-equivalence tolerance),
  // not bit-identical — only the "reference" path pins the goldens.
  const std::string out_dir = "qtx_native_out";
  fs::remove_all(out_dir);
  ASSERT_EQ(run_cli("run \"" + scenario_path("quickstart.ini") +
                        "\" --out " + out_dir +
                        " --set la_backend=native --quiet",
                    "qtx_native_run.log"),
            0)
      << read_file("qtx_native_run.log");
  const std::string json = read_file(out_dir + "/results.json");
  EXPECT_NE(json.find("\"la_backend\": \"native\""), std::string::npos)
      << "provenance must record the non-default la backend key";
  EXPECT_NE(json.find("\"performance\""), std::string::npos)
      << "results.json must carry the achieved-GFLOP/s section";
  EXPECT_NE(json.find("\"host_peak_gflops\""), std::string::npos);
  std::ifstream csv(out_dir + "/transmission.csv");
  ASSERT_TRUE(csv.good());
  const std::vector<double> got = io::read_csv_column(csv, 1);
  const std::vector<double> want =
      read_golden_values("quickstart_transmission");
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-8)
        << "native transmission drifted from the reference at entry " << i;
}

TEST(QtxCli, SweepWritesAMultiPointCsv) {
  // A tiny bias sweep written to a temp deck so the smoke test stays fast.
  const std::string deck = "qtx_smoke_sweep.ini";
  {
    std::ofstream out(deck);
    out << "[device]\npreset = quickstart\n\n"
           "[solver]\ngrid = -5 5 8\neta = 0.05\ngw_scale = 0.2\n"
           "max_iterations = 2\nmu_reference = conduction-min\n"
           "mu_left = 0.3\nmu_right = 0.1\n\n"
           "[sweep]\nparameter = bias\nvalues = 0.0 0.2 0.4\n";
  }
  const std::string out_dir = "qtx_smoke_sweep_out";
  fs::remove_all(out_dir);
  ASSERT_EQ(run_cli("sweep " + deck + " --out " + out_dir + " --quiet",
                    "qtx_smoke_sweep.log"),
            0)
      << read_file("qtx_smoke_sweep.log");
  std::ifstream csv(out_dir + "/sweep.csv");
  ASSERT_TRUE(csv.good());
  const std::vector<double> biases = io::read_csv_column(csv, 0);
  EXPECT_EQ(biases, (std::vector<double>{0.0, 0.2, 0.4}));
}

TEST(QtxCli, ListBackendsPrintsTheRegistryCatalog) {
  ASSERT_EQ(run_cli("list-backends", "qtx_smoke_backends.log"), 0);
  const std::string out = read_file("qtx_smoke_backends.log");
  for (const core::BackendDescription& b :
       core::StageRegistry::global().describe()) {
    EXPECT_NE(out.find(b.key), std::string::npos)
        << "list-backends must print \"" << b.key << "\"";
    EXPECT_NE(out.find(b.description), std::string::npos)
        << "list-backends must print the description of \"" << b.key
        << "\"";
  }
}

TEST(QtxCli, PrintValidatesAndEchoesTheCanonicalForm) {
  ASSERT_EQ(run_cli("print \"" + scenario_path("quickstart.ini") + "\"",
                    "qtx_smoke_print.log"),
            0);
  const std::string out = read_file("qtx_smoke_print.log");
  EXPECT_NE(out.find("[solver]"), std::string::npos);
  EXPECT_NE(out.find("preset = quickstart"), std::string::npos);
  // The echoed canonical form must itself parse (print | run round trip).
  EXPECT_NO_THROW(io::parse_scenario_text(out, "printed.ini"));
}

TEST(ScenarioOverride, RoutesSolverAndDeviceKeys) {
  io::Scenario s = mini_scenario();
  io::apply_scenario_override(s, "eta", "0.125");
  EXPECT_EQ(s.solver.eta, 0.125);
  io::apply_scenario_override(s, "mixer", "anderson");
  EXPECT_EQ(s.solver.mixer, "anderson");
  io::apply_scenario_override(s, "grid", "-2 2 16");  // shorthand works
  EXPECT_EQ(s.solver.grid.n, 16);
  io::apply_scenario_override(s, "mu_left", "0.5");  // contact spec works
  EXPECT_EQ(s.mu_left, 0.5);
  io::apply_scenario_override(s, "device.num_cells", "6");
  EXPECT_EQ(s.device.num_cells, 6);
  io::apply_scenario_override(s, "device.preset", "cnt");
  EXPECT_EQ(s.device_preset, "cnt");
  EXPECT_EQ(s.device.num_cells, device::device_preset("cnt").num_cells)
      << "re-selecting a preset resets the device parameters";
}

TEST(ScenarioOverride, DiagnosticsCarryTheSetPrefix) {
  io::Scenario s = mini_scenario();
  try {
    io::apply_scenario_override(s, "etaa", "3");
    FAIL() << "expected ScenarioError";
  } catch (const io::ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("--set etaa=3:", 0), 0) << msg;
    EXPECT_NE(msg.find("unknown option key"), std::string::npos) << msg;
  }
  EXPECT_THROW(io::apply_scenario_override(s, "eta", "banana"),
               io::ScenarioError);
  EXPECT_THROW(io::apply_scenario_override(s, "device.num_cellz", "4"),
               io::ScenarioError);
}

TEST(QtxCli, SetOverridesDeckKeysWithoutEditingTheFile) {
  const std::string out_dir = "qtx_set_out";
  fs::remove_all(out_dir);
  ASSERT_EQ(run_cli("run \"" + scenario_path("quickstart.ini") +
                        "\" --out " + out_dir +
                        " --set max_iterations=1 --set mixer=adaptive "
                        "--set device.num_cells=6 --quiet",
                    "qtx_set_run.log"),
            0)
      << read_file("qtx_set_run.log");
  const std::string json = read_file(out_dir + "/results.json");
  EXPECT_NE(json.find("\"iterations\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"mixer\": \"adaptive\""), std::string::npos);
  EXPECT_NE(json.find("\"num_cells\": \"6\""), std::string::npos);
}

TEST(QtxCli, BadSetValuesFailWithUsefulDiagnostics) {
  // Unknown key: scenario error (exit 1) carrying the --set prefix.
  EXPECT_NE(run_cli("run \"" + scenario_path("quickstart.ini") +
                        "\" --set etaa=3",
                    "qtx_set_err.log"),
            0);
  const std::string err = read_file("qtx_set_err.log");
  EXPECT_NE(err.find("--set etaa=3"), std::string::npos) << err;
  // Malformed KEY=VALUE: usage error.
  EXPECT_NE(run_cli("run \"" + scenario_path("quickstart.ini") +
                        "\" --set eta",
                    "qtx_set_err2.log"),
            0);
  EXPECT_NE(read_file("qtx_set_err2.log").find("KEY=VALUE"),
            std::string::npos);
}

TEST(QtxCli, ErrorsExitNonZeroWithFileLineDiagnostics) {
  EXPECT_NE(run_cli("run no_such_scenario.ini", "qtx_smoke_err.log"), 0);
  EXPECT_NE(read_file("qtx_smoke_err.log").find("qtx: error:"),
            std::string::npos);
  const std::string deck = "qtx_smoke_bad.ini";
  {
    std::ofstream out(deck);
    out << "[solver]\neta = banana\n";
  }
  EXPECT_NE(run_cli("run " + deck, "qtx_smoke_err2.log"), 0);
  const std::string err = read_file("qtx_smoke_err2.log");
  EXPECT_NE(err.find(deck + ":2:"), std::string::npos)
      << "diagnostic must carry file:line — got: " << err;
  EXPECT_NE(run_cli("frobnicate", "qtx_smoke_err3.log"), 0);
}

}  // namespace
}  // namespace qtx
