// Configuration text — the one front end of every input surface.
//
// The scenario DSL (scenario.hpp), `.matrix` files (matrix.hpp), fault
// plans (faults.hpp) and the numeric flags of bgpsdn_run, bgpsdn_matrix and
// the benches read their input through this file: one line lexer, one typed
// parser per value kind, and one setter for the configuration keys the DSL
// and `.matrix` share. A value is always the whole token, exact: integers
// take digits only (no sign, fraction, exponent or hex) and never wrap;
// reals are finite and range-checked before any conversion. Every malformed
// value is rejected with std::invalid_argument and the one template
//
//     bad <key> '<token>' (want <domain>)
//
// which the line loop frames as "line N: ..." (flags as "<flag>: ...").
//
// Only text validation lives here. The C++ API keeps its own guards:
// ExperimentSpecBuilder's eager setters, ExperimentSpec::validate()'s
// cross-field checks and FaultInjector's arm-time checks.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/ids.hpp"
#include "core/time.hpp"
#include "framework/experiment_spec.hpp"
#include "framework/faults.hpp"
#include "net/ip.hpp"

namespace bgpsdn::framework {

using Tokens = std::vector<std::string>;

// --- lexer -------------------------------------------------------------------

/// The line loop of all three grammars. Lines are numbered from 1 and split
/// on whitespace; a token that begins with '#' comments out the rest of its
/// line; blank lines are skipped. `fn` sees each line's (non-empty) tokens.
/// Any std::exception escaping `fn` is rethrown as std::invalid_argument
/// "line N: <what>".
void for_each_line(std::istream& in,
                   const std::function<void(const Tokens&)>& fn);

/// Throws "<command> expects N argument(s)" unless `t` is a command plus
/// exactly n arguments.
void expect_args(const Tokens& t, std::size_t n);

// --- typed values ------------------------------------------------------------

/// The one diagnostic for a malformed value.
[[noreturn]] void bad_value(std::string_view key, std::string_view token,
                            std::string_view domain);

/// An integer in [lo, hi] (domain "lo..hi").
std::uint64_t parse_integer(std::string_view key, std::string_view token,
                            std::uint64_t lo, std::uint64_t hi);
/// Key "AS number", 1..4294967295.
core::AsNumber parse_as(std::string_view token);
/// Key "seed", the full uint64 range.
std::uint64_t parse_seed(std::string_view token);
/// Key "replica id", 0..15.
int parse_replica_id(std::string_view token);
/// Seconds in [0, 1e9], as Duration::seconds_f(value). The cap keeps any
/// time in range when added to the int64-nanosecond clock.
core::Duration parse_seconds(std::string_view key, std::string_view token);
/// Milliseconds in [0, 1e9], or (0, 1e9] when `positive`.
double parse_millis(std::string_view key, std::string_view token,
                    bool positive);
/// A probability or fraction in [0, 1].
double parse_fraction(std::string_view key, std::string_view token);
/// Key "prefix", a.b.c.d/len.
net::Prefix parse_prefix(std::string_view token);

// --- lines the scenario DSL and .matrix share --------------------------------

/// The configuration keys both grammars accept as `<key> <value>`: mrai,
/// recompute-delay, link-delay-ms, controller, damping, replicas and
/// election-timeout-ms.
bool is_setting_key(std::string_view key);
/// Apply one of those keys to `config`.
void apply_setting(ExperimentConfig& config, std::string_view key,
                   std::string_view value);

/// The model and size of `topology <model> <n>` (a `.matrix` topology axis
/// value is `<model>:<n>`).
void apply_topology(ExperimentSpec& spec, std::string_view model,
                    std::string_view size);
/// `seed`, `fault-seed` and `base-seed` lines (and a plan's `seed`).
std::uint64_t parse_seed_line(const Tokens& t);
/// `fault <seconds> <event...>`, and a plan's `at <seconds> <event...>`.
/// The event grammar is documented in faults.hpp.
FaultEvent parse_fault_line(const Tokens& t);

// --- command-line flags ------------------------------------------------------

/// The value of the numeric flag argv[i], advancing i past it: `--seed` and
/// `--base-seed` take a seed, `--trials` and `--jobs` an integer >= 1.
/// Throws "<flag> needs a value" or "<flag>: bad <key> ...".
std::uint64_t next_flag_value(int argc, char** argv, int& i);

}  // namespace bgpsdn::framework
