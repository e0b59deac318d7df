#pragma once

/// \file scenario_parser.hpp
/// Plain-text scenario files for the `qtx` CLI driver — the input-deck
/// layer that turns the C++-only `SimulationBuilder` workflow into
/// configuration-driven runs (the role QuaTrEx/OMEN input files play for
/// the paper's production driver).
///
/// The format is an INI subset with no external dependencies:
///
///     # comment ('#' or ';', full-line or trailing)
///     [device]
///     preset = quickstart          # device catalog name (device/presets.hpp)
///     num_cells = 4                # per-key StructureParams overrides
///
///     [solver]
///     grid = -6.0 6.0 64           # shorthand for grid.e_min/e_max/n
///     eta = 0.02
///     mu_reference = conduction-min  # band-edge-relative contacts
///     mu_left = 0.3                # offsets from the reference (eV)
///     mu_right = 0.1
///     gw_scale = 0.3               # any core::set_option key works here
///     max_iterations = 4
///
///     [output]
///     directory = out              # "" = write nothing; CLI --out overrides
///     formats = csv json
///
///     [sweep]
///     parameter = bias             # bias | temperature | any option key
///     values = 0.0 0.1 0.2 0.3
///
/// Parse errors throw `ScenarioError` whose message always starts with
/// "<file>:<line>:" and names the offending key plus the known keys, so a
/// typo in a 40-line deck is a one-glance fix. `serialize_scenario` emits
/// the canonical form (every key, resolved values) — the same text the
/// result writers stamp into provenance headers — and
/// parse(serialize(parse(x))) == parse(x) holds exactly (doubles are
/// "%.17g"-formatted).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "device/presets.hpp"

namespace qtx::io {

/// Scenario-file diagnostic; `what()` is "<file>:<line>: <message>".
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The [output] section: where and in which formats `run_scenario` writes.
struct OutputSpec {
  /// Target directory (created if missing). Empty = write nothing.
  std::string directory;
  bool csv = true;   ///< write transmission/dos/density/currents/trace/timings CSVs
  bool json = true;  ///< write the all-in-one results.json
};

/// The [sweep] section: one parameter iterated over explicit values.
struct SweepSpec {
  /// "bias" (splits mu_left/mu_right symmetrically around their midpoint),
  /// "temperature" (contacts.temperature_k), or any `core::set_option` key
  /// (e.g. "grid.n" for an energy-resolution sweep). Empty = no sweep.
  std::string parameter;
  std::vector<double> values;  ///< explicit sweep points, in run order
  /// Sweep summary CSV filename within the output directory.
  std::string output = "sweep.csv";
};

/// A fully parsed scenario: device catalog selection + overrides, solver
/// options, contact reference spec, output spec, and optional sweep.
struct Scenario {
  /// [scenario] name; empty until set (parse_scenario_file falls back to
  /// the file stem when the deck carries no name key).
  std::string name;
  std::string device_preset = "quickstart";  ///< catalog name ([device] preset)
  /// Preset params + per-key overrides. The default matches the default
  /// preset, so a deck without a [device] section runs exactly the device
  /// its provenance claims.
  device::StructureParams device = device::device_preset("quickstart");
  core::SimulationOptions solver;  ///< [solver] keys via core::set_option

  /// Contact chemical potentials, resolved at run time against the device:
  /// mu_reference in {"absolute", "midgap", "valence-max",
  /// "conduction-min"}; mu_left/mu_right are offsets from that reference
  /// (plain eV values for "absolute"). When no mu_* key appears in the
  /// file, solver.contacts stands as configured (contacts.mu_left etc.).
  std::string mu_reference = "absolute";
  double mu_left = 0.0;   ///< left offset from the reference (eV)
  double mu_right = 0.0;  ///< right offset from the reference (eV)
  bool has_mu_spec = false;  ///< any mu_reference/mu_left/mu_right key seen

  OutputSpec output;  ///< [output] section
  SweepSpec sweep;    ///< [sweep] section (parameter empty = none)

  /// True when the deck carries a [sweep] section with a parameter.
  bool has_sweep() const { return !sweep.parameter.empty(); }
};

/// Parse scenario text. \p source_name labels diagnostics ("<file>:<line>:
/// ..."); pass the path when parsing a file, any tag when parsing strings.
/// Line endings: LF and CRLF parse identically (the trailing CR is
/// stripped before any key/value splitting), so decks written on Windows
/// or arriving over a socket behave exactly like on-disk LF decks. A bare
/// CR appearing *inside* a line — the signature of classic-Mac CR-only
/// files, which std::getline cannot split — is rejected with a located
/// "convert to LF or CRLF" diagnostic instead of mis-parsing the whole
/// file as one line.
Scenario parse_scenario_text(const std::string& text,
                             const std::string& source_name);

/// Read and parse a scenario file; the scenario name defaults to the file
/// stem (overridable by a [scenario] name key).
Scenario parse_scenario_file(const std::string& path);

/// Canonical INI form of \p s: every section with every key in binding
/// order. Reparsing reproduces \p s exactly.
std::string serialize_scenario(const Scenario& s);

/// Content address of a deck: the FNV-1a 64-bit hash of
/// `serialize_scenario(s)`. Because the canonical form resolves every key,
/// two decks hash equal exactly when they parse to the same scenario —
/// round-tripping (parse → serialize → parse) preserves the hash, and any
/// single key/value change alters it. This is the cache-correctness
/// invariant the serve layer's `ResultCache` rests on (test_io pins it
/// with a property test). Collisions are possible in principle (64-bit
/// hash); the result cache tolerates them as a stale-result risk bounded
/// by 2^-64 per pair, the usual content-address trade-off.
std::uint64_t canonical_deck_hash(const Scenario& s);

/// `canonical_deck_hash` as 16 lowercase hex digits (stable textual form
/// for logs and provenance).
std::string canonical_deck_hash_hex(const Scenario& s);

/// Stem of a path ("scenarios/quickstart.ini" → "quickstart") — the rule
/// `parse_scenario_file` uses to default a deck's scenario name. Exposed
/// so other entry points handing decks to the parser (serve requests,
/// tests) can apply the identical fallback.
std::string scenario_path_stem(const std::string& path);

/// Apply one command-line override (`qtx run --set key=value`) to a parsed
/// scenario: keys prefixed "device." route to the [device] binding
/// ("device.preset" re-selects the preset and therefore resets every device
/// parameter), everything else takes the [solver] key path — including the
/// `grid`, `tolerance`, and `mu_*` shorthands. Throws ScenarioError with a
/// "--set <key>:" prefix on unknown keys or malformed values.
void apply_scenario_override(Scenario& s, const std::string& key,
                             const std::string& value);

}  // namespace qtx::io
