// Search-telemetry record for the configuration searches (LAMPS,
// LAMPS+PS, S&S, S&S+PS): every probed processor count, why it was
// decided the way it was (Graham-bound short-circuit, gap-only profile
// probe, full schedule, cache reuse, energy-bound prune), the verdict,
// and the chosen configuration with its final energy breakdown.
//
// Recording is opt-in and observation-only: a strategy records iff the
// caller hangs a SearchTelemetry off core::Problem::telemetry, and the
// record never feeds back into any decision.
//
// This header is dependency-free on purpose (obs sits below util in the
// module stack): processor counts and makespans are plain integers here,
// not the core/graph domain types.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lamps::obs {

/// One probed processor count.
struct SearchProbe {
  std::uint64_t num_procs{0};
  /// Search stage: "phase1" (LAMPS minimal-count binary search),
  /// "speedup" (S&S / phase-2-bound binary search), "phase2" (LAMPS
  /// energy scan).
  const char* phase{""};
  /// How the verdict was reached:
  ///   "graham-upper"        short-circuit, Graham upper bound decided it
  ///   "graham-lower"        short-circuit, Graham/work lower bound decided it
  ///   "profile-probe"       gap-only scheduler run (no placements kept)
  ///   "schedule-probe"      full schedule computed (explicit deadlines)
  ///   "cached-schedule-eval" phase-2 energy eval of a memoized schedule
  ///   "cached-profile-eval"  phase-2 energy eval of a memoized gap profile
  ///   "profile-eval"        phase-2 energy eval of a fresh gap-only run
  ///   "schedule-eval"       phase-2 energy eval of a fresh full schedule
  ///   "bound-pruned"        phase-2 count skipped unscheduled: its energy
  ///                         lower bound exceeds the N_max incumbent's energy
  ///   "materialize"         winner's schedule re-run for placements
  const char* action{""};
  /// Makespan in cycles; -1 when the probe was short-circuited without one.
  std::int64_t makespan{-1};
  /// Probe verdict (1/0): deadline feasibility in phase1/phase2, "reaches
  /// the minimal makespan" in the speedup search; -1 when not judged.
  int feasible{-1};
  /// Chosen DVS level index for evaluated probes; -1 otherwise.
  std::int64_t level_index{-1};
  /// Total energy for evaluated feasible probes, the lower bound that
  /// exceeded the incumbent for "bound-pruned" probes; < 0 otherwise.
  double energy_j{-1.0};
  /// True on the probe the search finally selected.
  bool chosen{false};
};

/// One strategy's full search record.
struct SearchTelemetry {
  std::string strategy;
  std::vector<SearchProbe> probes;

  bool feasible{false};
  std::uint64_t chosen_procs{0};
  std::uint64_t chosen_level{0};
  double energy_total_j{0.0};
  double energy_dynamic_j{0.0};
  double energy_leakage_j{0.0};
  double energy_intrinsic_j{0.0};
  double energy_sleep_j{0.0};
  double energy_wakeup_j{0.0};
  std::uint64_t shutdowns{0};
  /// List-scheduler invocations actually performed (cache-discounted).
  std::uint64_t schedules_computed{0};

  void write_json(std::ostream& os) const;
};

/// JSON array of records (the `lamps schedule --telemetry-out` format).
void write_telemetry_json(std::ostream& os, const std::vector<SearchTelemetry>& records);

/// write_telemetry_json to `path`; false if the file cannot be written.
[[nodiscard]] bool write_telemetry_file(const std::string& path,
                                        const std::vector<SearchTelemetry>& records);

}  // namespace lamps::obs
