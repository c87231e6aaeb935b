// bgpsdn_lint — project-invariant static analyzer.
//
// A three-pass analyzer (no libclang, stdlib only) that mechanically
// enforces the source-level rules behind the repo's determinism contract:
// seeded runs must be byte-identical at any BGPSDN_JOBS, and the hot paths
// must stay allocation-free per event. The end-to-end JSON diff in check.sh
// catches a leak after the fact; these rules ban the constructs that cause
// leaks in the first place.
//
// Pass 1 — token rules, per translation unit (DESIGN.md §10 has the full
// table and rationale):
//   D1  no wall clocks (system_clock/steady_clock/high_resolution_clock/
//       time()/clock_gettime/gettimeofday) — virtual time only. The two
//       sanctioned wall-clock sites, the sweep runner (framework/trial.cpp)
//       and bench_micro, are annotated with `// lint: wall-clock-ok(reason)`.
//   D2  no ambient randomness (rand/srand/std::random_device/
//       default_random_engine) and no default-seeded std engines — all
//       randomness must flow from trial seeds through core::Rng.
//   D3  no range-for over std::unordered_map/unordered_set in emitter
//       code paths (see is-emitter definition below) unless the line is
//       annotated `// lint: unordered-ok(reason)` — e.g. because the sink
//       sorts keys before rendering.
//   D4  no ordering or hashing by pointer value in emitter code paths:
//       std::less<T*>, std::hash<T*>, std::set/map keyed on a pointer
//       type, comparator lambdas that compare two raw-pointer parameters.
//       Pointer values differ run-to-run under ASLR and allocator churn;
//       order derived from them must never reach serialized output.
//       Suppress with `// lint: ptr-order-ok(reason)`.
//   D5  no order-sensitive float accumulation in emitter code paths:
//       std::accumulate over floating data, and `+=` onto a float/double
//       in a range-for body. Float addition is not associative; sums that
//       reach serialized output must come from a sorted or index-ordered
//       source, documented via `// lint: float-order-ok(reason)`.
//   T1  no std::thread/jthread/async/atomic/mutex/detach() and no
//       thread_local outside src/framework/trial.* — all parallelism goes
//       through the trial pool (parallel_for_index / run_sweep), and
//       simulation state belongs to its simulation, not to a thread.
//   H1  header hygiene: `#pragma once` in every header, no
//       `using namespace` in headers, no <iostream> in library headers
//       (under src/).
//   P1  a suppression pragma with an empty/missing reason — reasons are
//       mandatory so every exemption documents itself.
//   L1  one way to build log text: inside the arguments of a `log(...)`
//       call, no std::to_string / to_string() temporaries, no
//       snprintf/sprintf/format and no string concatenation against a
//       literal — the pieces go to core::Logger::log, which formats them
//       in place and only above the minimum level. Suppress with
//       `// lint: log-text-ok(reason)`.
//
// Pass 2 — hot-path allocation (A2). Functions carrying the `hotpath`
// lint pragma with a reason (on the signature line or a comment line
// directly above it) are scanned to the end of their brace scope for
// allocation and control-flow constructs that must not appear per-event:
//   - `new`, std::make_shared / std::make_unique
//   - std::function construction (use core::SmallFunc — 64-byte SBO)
//   - declaring a local std::priority_queue (its backing vector grows per
//     call; hoist it to a member scratch buffer)
//   - sized construction of a local container (vector<T> v(n), string
//     s("..."), ...)
//   - push_back / emplace_back on a local container with no reserve() in
//     the same scope (members — trailing-underscore names — own amortized
//     storage and are gated by the bench memory model instead)
//   - string concatenation against a literal, and std::to_string
//   - `throw`
// Individual lines are waived with `// lint: alloc-ok(reason)`.
//
// Pass 3 — include graph (A1), whole-corpus. Quoted project includes are
// checked against the committed layer table (tools/lint/layers.txt): an
// include may only point strictly *down* the rank order (or stay inside
// its own directory), and the file-level include graph under src/ must be
// acyclic. Violating includes are waived with `// lint: layer-ok(reason)`.
// The directory-level graph is exportable as Graphviz dot
// (--dump-include-graph) and a committed copy in docs/ makes layering
// drift visible in diffs.
//
// Emitter paths (D3/D4/D5): files under src/telemetry/, or files that
// include — directly or via the companion .hpp of a .cpp —
// telemetry/json.hpp, framework/report.hpp, or controller/switch_graph.hpp.
//
// Comments, string literals, and char literals are stripped before token
// matching, so talking *about* steady_clock (or matching it, as this tool
// does) never trips a rule.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace bgpsdn::lint {

struct Finding {
  std::string file;   // path as given (normalized to forward slashes)
  int line = 0;       // 1-based
  std::string rule;   // "D1".."D5", "T1", "H1", "P1", "L1", "A1", "A2"
  std::string token;  // offending token or construct
  std::string message;
  std::string reason;  // waiver rationale (baseline entries only)

  bool operator==(const Finding&) const = default;
};

/// Lint one in-memory translation unit (token rules + A2 hot-path pass).
/// `path` is used for path-scoped rules (T1 allowlist, D3/D4/D5 emitter
/// detection, H1 library-header check) and for finding locations.
/// `companion_header` is the text of the paired .hpp when linting a .cpp
/// (may be empty) — its type declarations and aliases feed the D3
/// unordered-container and D5 float-member tracking, so `for (auto& kv :
/// counters_)` in metrics.cpp resolves against the member declared in
/// metrics.hpp.
std::vector<Finding> lint_text(std::string_view path, std::string_view text,
                               std::string_view companion_header = {});

/// Lint one file on disk (loads the companion header automatically).
/// Unreadable files yield a single "IO" finding.
std::vector<Finding> lint_file(const std::string& path);

/// Recursively collect .cpp/.hpp files under each root (or the root itself
/// when it is a file), sorted for deterministic output, and lint them.
/// Subdirectories named "fixtures" are skipped during recursion — the lint
/// test corpus is deliberately full of violations — but a root that *is* a
/// fixtures directory is scanned (that is how the corpus tests drive it).
std::vector<Finding> lint_paths(const std::vector<std::string>& roots);

// --- include-graph pass (A1) ------------------------------------------------

/// Layer table parsed from tools/lint/layers.txt: directory name -> rank.
/// An include from dir A into dir B is legal iff rank(B) < rank(A) or
/// A == B; same-rank cross-directory includes are violations.
struct LayerTable {
  std::vector<std::pair<std::string, int>> ranks;  // sorted by directory

  /// Rank of a directory, or nullptr when the directory is not governed.
  const int* rank_of(std::string_view dir) const;
};

/// Parse a layers.txt document ("<dir> <rank>" lines, '#' comments).
/// On failure returns false and, when `error` is non-null, stores a
/// diagnostic naming the offending line.
bool parse_layers(std::string_view text, LayerTable& out,
                  std::string* error = nullptr);

/// One file of the scanned corpus, loaded into memory.
struct CorpusFile {
  std::string path;  // normalized to forward slashes
  std::string text;
};

/// Collect and load the corpus under the given roots (same file set and
/// ordering as lint_paths). Unreadable files are silently skipped — the
/// per-file pass already reports them as IO findings.
std::vector<CorpusFile> load_corpus(const std::vector<std::string>& roots);

/// The include-graph pass: layer monotonicity for every quoted include
/// whose source and target directories are both governed by `layers`, plus
/// cycle detection over the file-level include graph of src/. Waivable
/// per include line with `// lint: layer-ok(reason)`.
std::vector<Finding> analyze_include_graph(const std::vector<CorpusFile>& files,
                                           const LayerTable& layers);

/// Directory-level include graph as deterministic Graphviz dot: one edge
/// per (including dir -> included dir) pair with an include-count label,
/// sorted; self-edges omitted. Committed as docs/include-graph.dot so
/// layering drift shows up in diffs.
std::string include_graph_dot(const std::vector<CorpusFile>& files,
                              const LayerTable& layers);

// --- baseline (bgpsdn.lint/2) -----------------------------------------------

/// Baseline: a committed set of waived findings. Matching is exact on
/// (file, line, rule, token); every entry must carry a non-empty reason.
struct Baseline {
  std::vector<Finding> entries;
};

/// Parse a lint_baseline.json document ({"schema":"bgpsdn.lint/2",
/// "findings":[...]}). Returns false on malformed input and, when `error`
/// is non-null, stores an exact diagnostic. A v1 document
/// ("bgpsdn.lint/1") is rejected with a migration message — v1 entries
/// carried no waiver reasons.
bool parse_baseline(std::string_view text, Baseline& out,
                    std::string* error = nullptr);

/// Render findings as a bgpsdn.lint/2 JSON document (deterministic:
/// findings are sorted by file/line/rule/token; each entry carries its
/// reason field, empty unless populated by the caller).
std::string findings_to_json(const std::vector<Finding>& findings);

/// Split findings against a baseline: `fresh` are unmatched findings,
/// `baselined` counts matched ones, and `stale` returns baseline entries
/// that matched no current finding — waivers for code that no longer
/// trips the rule, which must be deleted (check.sh fails on them).
struct FilterResult {
  std::vector<Finding> fresh;
  std::size_t baselined = 0;
  std::vector<Finding> stale;
};
FilterResult apply_baseline(const std::vector<Finding>& findings,
                            const Baseline& baseline);

/// Exit code the CLI maps a finding set to: 0 clean, 1 findings.
int exit_code_for(const std::vector<Finding>& fresh);

}  // namespace bgpsdn::lint
