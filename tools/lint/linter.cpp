#include "lint/linter.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "telemetry/json.hpp"

namespace bgpsdn::lint {
namespace {

// ---------------------------------------------------------------------------
// Source stripping: blank out comments and literal contents so token
// matching never fires inside a string or a comment, while collecting the
// comment text per line for pragma parsing.
// ---------------------------------------------------------------------------

struct Stripped {
  std::string code;                   // same length/lines, literals blanked
  std::vector<std::string> comments;  // per-line comment text
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

Stripped strip(std::string_view text) {
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  Stripped out;
  out.code.reserve(text.size());
  out.comments.emplace_back();
  State state = State::kCode;
  std::string raw_delim;  // for raw strings: ")delim" terminator

  const auto comment_char = [&](char c) {
    out.comments.back().push_back(c);
    out.code.push_back(c == '\n' ? '\n' : ' ');
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      // Newline always ends the physical line regardless of state (an
      // unterminated string would otherwise eat the rest of the file).
      if (state == State::kLine) state = State::kCode;
      out.code.push_back('\n');
      out.comments.emplace_back();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          comment_char(' ');  // the two slashes themselves are not pragma text
          ++i;
          out.code.back() = ' ';
          break;
        }
        if (c == '/' && next == '*') {
          state = State::kBlock;
          out.code.append("  ");
          ++i;
          break;
        }
        if (c == '"') {
          const char prev = i > 0 ? text[i - 1] : '\0';
          if (prev == 'R') {
            // Raw string literal: R"delim( ... )delim"
            std::size_t p = i + 1;
            std::string delim;
            while (p < text.size() && text[p] != '(') delim.push_back(text[p++]);
            raw_delim = ")" + delim + "\"";
            state = State::kRaw;
            out.code.push_back('"');
            for (std::size_t k = i + 1; k <= p && k < text.size(); ++k) {
              out.code.push_back(' ');
            }
            i = p;
            break;
          }
          state = State::kString;
          out.code.push_back('"');
          break;
        }
        if (c == '\'') {
          const char prev = i > 0 ? text[i - 1] : '\0';
          if (is_ident_char(prev)) {
            out.code.push_back(' ');  // digit separator: 1'000'000
            break;
          }
          state = State::kChar;
          out.code.push_back('\'');
          break;
        }
        out.code.push_back(c);
        break;
      case State::kLine:
        comment_char(c);
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out.comments.back().push_back(' ');
          out.code.append("  ");
          ++i;
          break;
        }
        comment_char(c);
        break;
      case State::kString:
        if (c == '\\') {
          out.code.append("  ");
          ++i;
          break;
        }
        if (c == '"') {
          state = State::kCode;
          out.code.push_back('"');
          break;
        }
        out.code.push_back(' ');
        break;
      case State::kChar:
        if (c == '\\') {
          out.code.append("  ");
          ++i;
          break;
        }
        if (c == '\'') {
          state = State::kCode;
          out.code.push_back('\'');
          break;
        }
        out.code.push_back(' ');
        break;
      case State::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (char d : raw_delim) {
            out.code.push_back(d == '"' ? '"' : ' ');
          }
          i += raw_delim.size() - 1;
          state = State::kCode;
          break;
        }
        out.code.push_back(' ');
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer over the blanked code. Identifiers and numbers are whole
// tokens; `::` and `->` are merged so "std :: thread" and member access
// read as single punctuators.
// ---------------------------------------------------------------------------

struct Tok {
  std::string text;
  int line = 0;        // 1-based
  bool ident = false;  // identifier (or number — never matches a rule name)
};

std::vector<Tok> tokenize(std::string_view code) {
  std::vector<Tok> toks;
  int line = 1;
  for (std::size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (is_ident_char(c)) {
      std::size_t j = i;
      while (j < code.size() && is_ident_char(code[j])) ++j;
      toks.push_back({std::string{code.substr(i, j - i)}, line, true});
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
      toks.push_back({"::", line, false});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
      toks.push_back({"->", line, false});
      i += 2;
      continue;
    }
    toks.push_back({std::string(1, c), line, false});
    ++i;
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Suppression pragmas: `// lint: <tag>(reason)`. The tag names the rule
// being waived; the reason is mandatory — an exemption must document why
// the construct is outside the determinism contract. The `hotpath` tag is
// special: it is not a suppression but an *annotation* that arms the A2
// allocation pass over the following function body.
// ---------------------------------------------------------------------------

struct Pragma {
  int line = 0;  // 1-based
  std::string tag;
  std::string reason;
  bool known = false;
};

const std::unordered_map<std::string, std::string>& pragma_tags() {
  static const std::unordered_map<std::string, std::string> kTags = {
      {"wall-clock-ok", "D1"}, {"random-ok", "D2"},
      {"unordered-ok", "D3"},  {"ptr-order-ok", "D4"},
      {"float-order-ok", "D5"}, {"thread-ok", "T1"},
      {"header-ok", "H1"},     {"alloc-ok", "A2"},
      {"layer-ok", "A1"},      {"log-text-ok", "L1"},
  };
  return kTags;
}

bool known_tag(const std::string& tag) {
  return tag == "hotpath" || pragma_tags().contains(tag);
}

std::vector<Pragma> parse_pragmas(const std::vector<std::string>& comments) {
  std::vector<Pragma> pragmas;
  for (std::size_t ln = 0; ln < comments.size(); ++ln) {
    const std::string& com = comments[ln];
    std::size_t pos = 0;
    while ((pos = com.find("lint:", pos)) != std::string::npos) {
      std::size_t p = pos + 5;
      while (p < com.size() && com[p] == ' ') ++p;
      std::size_t tag_start = p;
      while (p < com.size() &&
             (std::islower(static_cast<unsigned char>(com[p])) != 0 ||
              com[p] == '-')) {
        ++p;
      }
      const std::string tag = com.substr(tag_start, p - tag_start);
      pos = p;
      if (tag.empty()) continue;  // prose like "lint: <tag>(...)", not a pragma
      Pragma pr;
      pr.line = static_cast<int>(ln) + 1;
      pr.tag = tag;
      pr.known = known_tag(tag);
      if (p < com.size() && com[p] == '(') {
        // The reason runs to the closing paren, or to the end of the
        // comment line when the sentence wraps onto the next line.
        const std::size_t close = com.find(')', p);
        const std::size_t end = close == std::string::npos ? com.size() : close;
        pr.reason = com.substr(p + 1, end - p - 1);
        pos = end;
      }
      // Trim the reason; "( )" counts as missing.
      while (!pr.reason.empty() && pr.reason.front() == ' ') {
        pr.reason.erase(pr.reason.begin());
      }
      while (!pr.reason.empty() && pr.reason.back() == ' ') pr.reason.pop_back();
      pragmas.push_back(std::move(pr));
    }
  }
  return pragmas;
}

// ---------------------------------------------------------------------------
// Rule context shared by the matchers.
// ---------------------------------------------------------------------------

struct FileContext {
  std::string path;         // normalized, forward slashes
  bool is_header = false;
  bool is_emitter = false;  // D3/D4/D5 apply
  bool t1_allowlisted = false;
  std::vector<std::string> raw_lines;
  std::vector<Tok> toks;
  std::vector<Pragma> pragmas;
  std::vector<bool> line_has_code;            // index 0 = line 1
  std::unordered_set<std::string> unordered;  // vars/aliases of unordered type
  std::unordered_set<std::string> floats;     // vars declared float/double
  std::vector<Finding> findings;

  bool line_holds_code(int line) const {
    const std::size_t idx = static_cast<std::size_t>(line) - 1;
    return idx < line_has_code.size() && line_has_code[idx];
  }

  // The code line a comment-line pragma covers: its own line when it holds
  // code, else the next line that does.
  int pragma_target(const Pragma& pr) const {
    if (line_holds_code(pr.line)) return pr.line;
    int target = pr.line + 1;
    while (target <= static_cast<int>(line_has_code.size()) &&
           !line_holds_code(target)) {
      ++target;
    }
    return target;
  }

  bool suppressed(const std::string& rule, int line) const {
    for (const Pragma& pr : pragmas) {
      if (!pr.known || pr.reason.empty()) continue;
      const auto it = pragma_tags().find(pr.tag);
      if (it == pragma_tags().end() || it->second != rule) continue;
      if (pr.line == line || pragma_target(pr) == line) return true;
    }
    return false;
  }

  void add(const std::string& rule, int line, std::string token,
           std::string message) {
    if (suppressed(rule, line)) return;
    findings.push_back(
        {path, line, rule, std::move(token), std::move(message), {}});
  }
};

std::vector<std::string> split_raw_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      lines.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

bool path_ends_with(const std::string& path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool path_has_dir(const std::string& path, std::string_view dir) {
  std::string needle = "/";
  needle += dir;
  needle += "/";
  if (path.find(needle) != std::string::npos) return true;
  std::string head{dir};
  head += "/";
  return path.rfind(head, 0) == 0;
}

// Previous token, skipping nothing; nullptr at the start.
const Tok* prev_tok(const std::vector<Tok>& toks, std::size_t i) {
  return i == 0 ? nullptr : &toks[i - 1];
}
const Tok* next_tok(const std::vector<Tok>& toks, std::size_t i) {
  return i + 1 < toks.size() ? &toks[i + 1] : nullptr;
}

// True when toks[i] is reached through `.` or `->` (a member, not the
// global/std function of the same name).
bool is_member_access(const std::vector<Tok>& toks, std::size_t i) {
  const Tok* p = prev_tok(toks, i);
  return p != nullptr && (p->text == "." || p->text == "->");
}

// True when toks[i] is qualified as `std::X` or `::X` (global scope).
bool is_std_or_global(const std::vector<Tok>& toks, std::size_t i) {
  const Tok* p = prev_tok(toks, i);
  if (p == nullptr || p->text != "::") return true;  // unqualified
  const Tok* pp = i >= 2 ? &toks[i - 2] : nullptr;
  if (pp == nullptr || !pp->ident) return true;  // leading :: = global
  return pp->text == "std" || pp->text == "chrono";
}

// ---------------------------------------------------------------------------
// Declaration harvesting for D3 (unordered containers) and D5 (float
// accumulators): collect names declared with a given type family, including
// `using` aliases for D3 (e.g. metrics.hpp's `template <typename T>
// using Map = std::unordered_map<...>` and members declared `Map<Counter>
// counters_;`).
// ---------------------------------------------------------------------------

bool is_unordered_type_name(const std::unordered_set<std::string>& aliases,
                            const std::string& name) {
  return name == "unordered_map" || name == "unordered_set" ||
         name == "unordered_multimap" || name == "unordered_multiset" ||
         aliases.contains(name);
}

// Skip a balanced `<...>` starting at toks[i] == "<"; returns the index
// one past the matching ">", or i when unbalanced.
std::size_t skip_template_args(const std::vector<Tok>& toks, std::size_t i) {
  if (i >= toks.size() || toks[i].text != "<") return i;
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].text == "<") ++depth;
    if (toks[j].text == ">") {
      --depth;
      if (depth == 0) return j + 1;
    }
    if (toks[j].text == ";") break;  // statement ended: unbalanced
  }
  return i;
}

void harvest_unordered_names(const std::vector<Tok>& toks,
                             std::unordered_set<std::string>& names) {
  // Aliases first: `using X = ...unordered_map...;` (covers template
  // aliases too — the `using` token pattern is identical).
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!(toks[i].ident && toks[i].text == "using")) continue;
    if (!toks[i + 1].ident || toks[i + 2].text != "=") continue;
    for (std::size_t j = i + 3; j < toks.size() && toks[j].text != ";"; ++j) {
      if (toks[j].ident && is_unordered_type_name(names, toks[j].text)) {
        names.insert(toks[i + 1].text);
        break;
      }
    }
  }
  // Declarations: `<unordered-type>[<...>] [const|&|*]* name [;=,){]`.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident || !is_unordered_type_name(names, toks[i].text)) {
      continue;
    }
    std::size_t j = i + 1;
    j = skip_template_args(toks, j);
    while (j < toks.size() &&
           (toks[j].text == "const" || toks[j].text == "&" ||
            toks[j].text == "*")) {
      ++j;
    }
    if (j >= toks.size() || !toks[j].ident) continue;
    const Tok* after = next_tok(toks, j);
    if (after == nullptr) continue;
    if (after->text == ";" || after->text == "=" || after->text == "{" ||
        after->text == ")" || after->text == ",") {
      names.insert(toks[j].text);
    }
  }
}

void harvest_float_names(const std::vector<Tok>& toks,
                         std::unordered_set<std::string>& names) {
  // Declarations: `double|float [const|&]* name [;=,){]`. Pointers to
  // floats are deliberately excluded — `*p += x` is not the accumulator
  // pattern D5 is after.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident ||
        (toks[i].text != "double" && toks[i].text != "float")) {
      continue;
    }
    std::size_t j = i + 1;
    while (j < toks.size() &&
           (toks[j].text == "const" || toks[j].text == "&")) {
      ++j;
    }
    if (j >= toks.size() || !toks[j].ident) continue;
    const Tok* after = next_tok(toks, j);
    if (after == nullptr) continue;
    if (after->text == ";" || after->text == "=" || after->text == "{" ||
        after->text == ")" || after->text == ",") {
      names.insert(toks[j].text);
    }
  }
}

// ---------------------------------------------------------------------------
// The token rules.
// ---------------------------------------------------------------------------

void rule_d1_wall_clock(FileContext& ctx) {
  static const std::unordered_set<std::string> kClockIdents = {
      "system_clock",     "steady_clock", "high_resolution_clock",
      "clock_gettime",    "gettimeofday", "timespec_get",
  };
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident) continue;
    if (kClockIdents.contains(toks[i].text)) {
      if (is_member_access(toks, i)) continue;
      ctx.add("D1", toks[i].line, toks[i].text,
              "wall clock outside the allowlisted wall-footer paths; "
              "simulations must use virtual time (core::TimePoint)");
      continue;
    }
    if (toks[i].text == "time") {
      const Tok* nx = next_tok(toks, i);
      if (nx == nullptr || nx->text != "(") continue;
      if (is_member_access(toks, i)) continue;
      if (!is_std_or_global(toks, i)) continue;
      ctx.add("D1", toks[i].line, "time()",
              "libc wall clock; simulations must use virtual time");
    }
  }
}

void rule_d2_randomness(FileContext& ctx) {
  static const std::unordered_set<std::string> kEngines = {
      "mt19937",       "mt19937_64", "minstd_rand", "minstd_rand0",
      "ranlux24_base", "ranlux48_base", "ranlux24", "ranlux48", "knuth_b",
  };
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident) continue;
    const std::string& t = toks[i].text;
    if (t == "random_device" || t == "default_random_engine" ||
        t == "random_shuffle") {
      if (is_member_access(toks, i)) continue;
      ctx.add("D2", toks[i].line, t,
              "ambient randomness; all draws must flow from the trial seed "
              "through core::Rng");
      continue;
    }
    if (t == "rand" || t == "srand") {
      const Tok* nx = next_tok(toks, i);
      if (nx == nullptr || nx->text != "(") continue;
      if (is_member_access(toks, i)) continue;
      if (!is_std_or_global(toks, i)) continue;
      ctx.add("D2", toks[i].line, t + "()",
              "libc randomness; all draws must flow from the trial seed "
              "through core::Rng");
      continue;
    }
    if (kEngines.contains(t)) {
      // Default-seeded engine: `mt19937 g;` or `mt19937{}` — fixed default
      // seed silently decouples the stream from the trial seed.
      std::size_t j = i + 1;
      if (j < toks.size() && (toks[j].text == "&" || toks[j].text == "*")) {
        continue;  // reference/pointer type position, no construction
      }
      if (j < toks.size() && toks[j].text == "{" && j + 1 < toks.size() &&
          toks[j + 1].text == "}") {
        ctx.add("D2", toks[i].line, t + "{}",
                "default-seeded engine; seed it from the trial seed");
        continue;
      }
      if (j < toks.size() && toks[j].ident && j + 1 < toks.size()) {
        const std::string& after = toks[j + 1].text;
        if (after == ";") {
          ctx.add("D2", toks[i].line, t + " " + toks[j].text,
                  "default-seeded engine declaration; seed it from the "
                  "trial seed");
        } else if (after == "{" && j + 2 < toks.size() &&
                   toks[j + 2].text == "}") {
          ctx.add("D2", toks[i].line, t + " " + toks[j].text + "{}",
                  "default-seeded engine declaration; seed it from the "
                  "trial seed");
        }
      }
    }
  }
}

// Range-for loop header starting at toks[i] == "for": returns the indices
// of the depth-1 `:` and the closing `)`, or {0, 0} when this is not a
// range-for.
std::pair<std::size_t, std::size_t> range_for_bounds(
    const std::vector<Tok>& toks, std::size_t i) {
  if (i + 1 >= toks.size() || toks[i + 1].text != "(") return {0, 0};
  int depth = 0;
  std::size_t colon = 0, close = 0;
  for (std::size_t j = i + 1; j < toks.size(); ++j) {
    if (toks[j].text == "(") ++depth;
    if (toks[j].text == ")") {
      --depth;
      if (depth == 0) {
        close = j;
        break;
      }
    }
    if (depth == 1 && toks[j].text == ":" && colon == 0) colon = j;
    if (toks[j].text == ";") break;  // classic for loop
  }
  if (colon == 0 || close == 0) return {0, 0};
  return {colon, close};
}

// Body token range of a statement starting right after toks[close] == ")":
// a braced block spans to its matching `}`, a single statement to its `;`.
std::pair<std::size_t, std::size_t> statement_body(
    const std::vector<Tok>& toks, std::size_t close) {
  std::size_t begin = close + 1;
  if (begin >= toks.size()) return {begin, begin};
  if (toks[begin].text == "{") {
    int depth = 0;
    for (std::size_t j = begin; j < toks.size(); ++j) {
      if (toks[j].text == "{") ++depth;
      if (toks[j].text == "}") {
        --depth;
        if (depth == 0) return {begin + 1, j};
      }
    }
    return {begin + 1, toks.size()};
  }
  for (std::size_t j = begin; j < toks.size(); ++j) {
    if (toks[j].text == ";") return {begin, j};
  }
  return {begin, toks.size()};
}

void rule_d3_unordered_iteration(FileContext& ctx) {
  if (!ctx.is_emitter) return;
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(toks[i].ident && toks[i].text == "for")) continue;
    const auto [colon, close] = range_for_bounds(toks, i);
    if (colon == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (!toks[j].ident) continue;
      const bool unordered_type = toks[j].text == "unordered_map" ||
                                  toks[j].text == "unordered_set" ||
                                  toks[j].text == "unordered_multimap" ||
                                  toks[j].text == "unordered_multiset";
      if (unordered_type || ctx.unordered.contains(toks[j].text)) {
        ctx.add("D3", toks[i].line, toks[j].text,
                "range-for over an unordered container in an emitter code "
                "path; sort before output or annotate with "
                "unordered-ok(reason)");
        break;
      }
    }
  }
}

// D4: ordering or hashing by pointer value in emitter paths. Pointer
// values vary run-to-run (ASLR, allocator history); any order derived from
// them that reaches serialized output breaks byte-identity.
void rule_d4_pointer_order(FileContext& ctx) {
  if (!ctx.is_emitter) return;
  const auto& toks = ctx.toks;
  static const std::unordered_set<std::string> kComparators = {"less", "hash"};
  static const std::unordered_set<std::string> kOrderedContainers = {
      "set", "map", "multiset", "multimap"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].ident) continue;
    const std::string& t = toks[i].text;
    if (kComparators.contains(t) && toks[i + 1].text == "<") {
      // `*` anywhere in the template argument list makes the comparator /
      // hasher operate on a raw pointer.
      int depth = 0;
      bool ptr = false;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">") {
          --depth;
          if (depth == 0) break;
        }
        if (toks[j].text == ";") break;
        if (toks[j].text == "*") ptr = true;
      }
      if (ptr) {
        ctx.add("D4", toks[i].line, t + "<T*>",
                "ordering/hashing by raw pointer value in an emitter code "
                "path; key on a stable id instead or annotate with "
                "ptr-order-ok(reason)");
      }
      continue;
    }
    if (kOrderedContainers.contains(t) && toks[i + 1].text == "<") {
      // Pointer *key*: `*` in the first template argument. Pointer mapped
      // values (map<Id, T*>) are fine — iteration order comes from the key.
      int depth = 0;
      bool ptr = false;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">") {
          --depth;
          if (depth == 0) break;
        }
        if (toks[j].text == ";") break;
        if (depth == 1 && toks[j].text == ",") break;  // end of key arg
        if (toks[j].text == "*") ptr = true;
      }
      if (ptr) {
        ctx.add("D4", toks[i].line, t + "<T*>",
                "ordered container keyed on a raw pointer in an emitter "
                "code path; iteration order is the pointer order — key on "
                "a stable id instead or annotate with ptr-order-ok(reason)");
      }
      continue;
    }
  }
  // Comparator lambdas over raw pointers: `[..](const T* a, const T* b)`
  // whose body compares the two pointer parameters directly.
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "[") continue;
    // Match the capture list (no nesting of `[` occurs in practice).
    std::size_t cap_end = i + 1;
    while (cap_end < toks.size() && toks[cap_end].text != "]" &&
           toks[cap_end].text != ";") {
      ++cap_end;
    }
    if (cap_end >= toks.size() || toks[cap_end].text != "]") continue;
    if (cap_end + 1 >= toks.size() || toks[cap_end + 1].text != "(") continue;
    // Parameter list: collect names of raw-pointer parameters.
    std::unordered_set<std::string> ptr_params;
    int depth = 0;
    std::size_t params_end = 0;
    bool cur_ptr = false;
    std::string cur_name;
    for (std::size_t j = cap_end + 1; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")") {
        --depth;
        if (depth == 0) {
          if (cur_ptr && !cur_name.empty()) ptr_params.insert(cur_name);
          params_end = j;
          break;
        }
      }
      if (depth == 1 && toks[j].text == ",") {
        if (cur_ptr && !cur_name.empty()) ptr_params.insert(cur_name);
        cur_ptr = false;
        cur_name.clear();
        continue;
      }
      if (toks[j].text == "*") cur_ptr = true;
      if (toks[j].ident) cur_name = toks[j].text;
    }
    if (params_end == 0 || ptr_params.size() < 2) continue;
    // Find the lambda body (skip specifiers / trailing return type).
    std::size_t body = params_end + 1;
    while (body < toks.size() && toks[body].text != "{" &&
           toks[body].text != ";" && toks[body].text != ")") {
      ++body;
    }
    if (body >= toks.size() || toks[body].text != "{") continue;
    const auto [bbegin, bend] = statement_body(toks, body - 1);
    for (std::size_t j = bbegin; j < bend && j + 1 < toks.size(); ++j) {
      if (toks[j].text != "<" && toks[j].text != ">") continue;
      const Tok* a = prev_tok(toks, j);
      const Tok* b = next_tok(toks, j);
      if (a == nullptr || b == nullptr) continue;
      if (a->ident && b->ident && ptr_params.contains(a->text) &&
          ptr_params.contains(b->text)) {
        ctx.add("D4", toks[j].line, a->text + toks[j].text + b->text,
                "comparator lambda orders by raw pointer value in an "
                "emitter code path; compare stable ids instead or annotate "
                "with ptr-order-ok(reason)");
      }
    }
  }
}

// D5: order-sensitive float accumulation in emitter paths. Float addition
// is not associative, so a sum's value depends on visitation order; sums
// that reach serialized output must come from a sorted or index-ordered
// source (and say so in a float-order-ok reason).
void rule_d5_float_accumulation(FileContext& ctx) {
  if (!ctx.is_emitter) return;
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident || toks[i].text != "accumulate") continue;
    if (is_member_access(toks, i)) continue;
    const Tok* nx = next_tok(toks, i);
    if (nx == nullptr || nx->text != "(") continue;
    ctx.add("D5", toks[i].line, "accumulate",
            "std::accumulate in an emitter code path; accumulation order "
            "must be pinned to a sorted or indexed source — annotate with "
            "float-order-ok(reason) once it is");
  }
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(toks[i].ident && toks[i].text == "for")) continue;
    const auto [colon, close] = range_for_bounds(toks, i);
    if (colon == 0) continue;
    const auto [bbegin, bend] = statement_body(toks, close);
    for (std::size_t j = bbegin; j < bend && j + 1 < toks.size(); ++j) {
      if (toks[j].text != "+" || toks[j + 1].text != "=") continue;
      const Tok* lhs = prev_tok(toks, j);
      if (lhs == nullptr || !lhs->ident || !ctx.floats.contains(lhs->text)) {
        continue;
      }
      ctx.add("D5", toks[j].line, lhs->text + " +=",
              "float accumulation inside a range-for in an emitter code "
              "path; the sum depends on iteration order — accumulate from "
              "a sorted or indexed source and annotate with "
              "float-order-ok(reason)");
    }
  }
}

void rule_t1_threads(FileContext& ctx) {
  if (ctx.t1_allowlisted) return;
  static const std::unordered_set<std::string> kStdQualified = {
      "thread", "atomic", "mutex",   "shared_mutex", "recursive_mutex",
      "async",  "future", "promise", "condition_variable",
      "atomic_flag",
  };
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident) continue;
    const std::string& t = toks[i].text;
    if (t == "jthread") {
      ctx.add("T1", toks[i].line, t,
              "raw threading outside src/framework/trial.*; all "
              "parallelism goes through the trial pool");
      continue;
    }
    if (t == "thread_local") {
      ctx.add("T1", toks[i].line, t,
              "per-thread state outside src/framework/trial.*; simulation "
              "state belongs to its simulation, not to the thread it runs on");
      continue;
    }
    if (kStdQualified.contains(t)) {
      const Tok* p = prev_tok(toks, i);
      const Tok* pp = i >= 2 ? &toks[i - 2] : nullptr;
      const bool std_qualified = p != nullptr && p->text == "::" &&
                                 pp != nullptr && pp->text == "std";
      if (!std_qualified) continue;
      ctx.add("T1", toks[i].line, "std::" + t,
              "raw threading/synchronization outside src/framework/trial.*; "
              "all parallelism goes through the trial pool");
      continue;
    }
    if (t == "detach") {
      const Tok* nx = next_tok(toks, i);
      if (nx == nullptr || nx->text != "(") continue;
      if (!is_member_access(toks, i)) continue;
      ctx.add("T1", toks[i].line, "detach()",
              "detached threads can outlive the trial; all parallelism "
              "goes through the trial pool");
    }
  }
}

void rule_h1_header_hygiene(FileContext& ctx) {
  if (!ctx.is_header) return;
  bool has_pragma_once = false;
  for (std::size_t ln = 0; ln < ctx.raw_lines.size(); ++ln) {
    const std::string& raw = ctx.raw_lines[ln];
    const std::size_t first = raw.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const std::string_view trimmed = std::string_view{raw}.substr(first);
    if (trimmed.rfind("#pragma", 0) == 0 &&
        trimmed.find("once") != std::string_view::npos) {
      has_pragma_once = true;
    }
    if (trimmed.rfind("#include", 0) == 0 &&
        trimmed.find("<iostream>") != std::string_view::npos &&
        (path_has_dir(ctx.path, "src"))) {
      ctx.add("H1", static_cast<int>(ln) + 1, "<iostream>",
              "iostream in a library header drags static init and bloats "
              "every consumer; use <cstdio> in a .cpp instead");
    }
  }
  if (!has_pragma_once && !ctx.toks.empty()) {
    ctx.add("H1", 1, "#pragma once", "header is missing #pragma once");
  }
  for (std::size_t i = 0; i + 1 < ctx.toks.size(); ++i) {
    if (ctx.toks[i].ident && ctx.toks[i].text == "using" &&
        ctx.toks[i + 1].ident && ctx.toks[i + 1].text == "namespace") {
      ctx.add("H1", ctx.toks[i].line, "using namespace",
              "using-directive in a header leaks into every consumer");
    }
  }
}

void rule_p1_pragmas(FileContext& ctx) {
  for (const Pragma& pr : ctx.pragmas) {
    if (!pr.known) {
      ctx.findings.push_back({ctx.path, pr.line, "P1", pr.tag,
                              "unknown lint pragma tag '" + pr.tag + "'",
                              {}});
      continue;
    }
    if (pr.reason.empty()) {
      ctx.findings.push_back(
          {ctx.path, pr.line, "P1", pr.tag,
           "suppression pragma requires a reason: lint: " + pr.tag +
               "(<why this is outside the contract>)",
           {}});
    }
  }
}

// ---------------------------------------------------------------------------
// A2: the hot-path allocation pass. Each reasoned `hotpath` pragma arms a
// scan over the following function's brace scope.
// ---------------------------------------------------------------------------

// First token index whose line is >= `line`.
std::size_t first_token_at_line(const std::vector<Tok>& toks, int line) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].line >= line) return i;
  }
  return toks.size();
}

// The opening brace of the function body that starts at token `from`: the
// first `{` preceded by a token that can legally end a signature (closing
// paren, cv/ref/exception qualifiers, trailing-return type, or the `}` of
// a constructor's member-initializer braces).
std::size_t find_body_open(const std::vector<Tok>& toks, std::size_t from) {
  static const std::unordered_set<std::string> kSignatureEnd = {
      ")", "const", "noexcept", "override", "final", "try", "}", ">"};
  for (std::size_t i = from; i < toks.size(); ++i) {
    if (toks[i].text != "{") continue;
    const Tok* p = prev_tok(toks, i);
    if (p != nullptr && kSignatureEnd.contains(p->text)) return i;
  }
  return toks.size();
}

void rule_a2_hotpath_allocations(FileContext& ctx) {
  static const std::unordered_set<std::string> kSizedContainers = {
      "vector", "string", "basic_string", "deque", "list",
      "set",    "map",    "multiset",     "multimap"};
  const auto& toks = ctx.toks;
  for (const Pragma& pr : ctx.pragmas) {
    if (pr.tag != "hotpath" || pr.reason.empty()) continue;
    const int target = ctx.pragma_target(pr);
    const std::size_t sig = first_token_at_line(toks, target);
    const std::size_t open = find_body_open(toks, sig);
    if (open >= toks.size()) {
      ctx.add("A2", pr.line, "hotpath",
              "hotpath pragma is not followed by a function body");
      continue;
    }
    int depth = 0;
    std::size_t close = toks.size();
    for (std::size_t i = open; i < toks.size(); ++i) {
      if (toks[i].text == "{") ++depth;
      if (toks[i].text == "}") {
        --depth;
        if (depth == 0) {
          close = i;
          break;
        }
      }
    }
    if (close == toks.size()) {
      ctx.add("A2", pr.line, "hotpath",
              "hotpath pragma's function body has unbalanced braces");
      continue;
    }

    // Locals that called reserve() anywhere in the scope count as
    // pre-sized; pushes into them are amortized-free steady-state.
    std::unordered_set<std::string> reserved;
    for (std::size_t i = open; i < close; ++i) {
      if (!(toks[i].ident && toks[i].text == "reserve")) continue;
      if (!is_member_access(toks, i)) continue;
      const Tok* nx = next_tok(toks, i);
      if (nx == nullptr || nx->text != "(") continue;
      if (i >= 2 && toks[i - 2].ident) reserved.insert(toks[i - 2].text);
    }

    // One concat finding per statement, anchored at the statement's first
    // line: a multi-line concatenation chain is one expression, and the
    // anchor line is where a comment-above alloc-ok pragma lands.
    std::size_t concat_skip_until = 0;
    int stmt_line = toks[open + 1].line;
    bool at_stmt_start = true;
    for (std::size_t i = open + 1; i < close; ++i) {
      if (at_stmt_start) {
        stmt_line = toks[i].line;
        at_stmt_start = false;
      }
      if (toks[i].text == ";" || toks[i].text == "{" || toks[i].text == "}") {
        at_stmt_start = true;
      }
      if (!toks[i].ident) {
        if (toks[i].text == "+" && i >= concat_skip_until) {
          const bool compound =
              i + 1 < close && toks[i + 1].text == "=";
          const Tok* lhs = prev_tok(toks, i);
          const Tok* rhs = compound ? (i + 2 < close ? &toks[i + 2] : nullptr)
                                    : next_tok(toks, i);
          const bool literal = (lhs != nullptr && lhs->text == "\"") ||
                               (rhs != nullptr && rhs->text == "\"");
          if (literal) {
            ctx.add("A2", stmt_line, compound ? "+= \"...\"" : "+ \"...\"",
                    "string concatenation in a hot path allocates; build "
                    "the message outside the hot path or annotate with "
                    "alloc-ok(reason)");
            concat_skip_until = i;
            while (concat_skip_until < close &&
                   toks[concat_skip_until].text != ";") {
              ++concat_skip_until;
            }
          }
        }
        continue;
      }
      const std::string& t = toks[i].text;
      if (t == "new") {
        const Tok* p = prev_tok(toks, i);
        if (p != nullptr && p->ident && p->text == "operator") continue;
        ctx.add("A2", toks[i].line, "new",
                "raw allocation in a hot path; use a slab/pool or annotate "
                "with alloc-ok(reason)");
        continue;
      }
      if (t == "make_shared" || t == "make_unique") {
        ctx.add("A2", toks[i].line, t,
                "heap allocation in a hot path; use a slab/pool or annotate "
                "with alloc-ok(reason)");
        continue;
      }
      if (t == "function") {
        const Tok* p = prev_tok(toks, i);
        const Tok* pp = i >= 2 ? &toks[i - 2] : nullptr;
        if (p != nullptr && p->text == "::" && pp != nullptr &&
            pp->text == "std") {
          ctx.add("A2", toks[i].line, "std::function",
                  "std::function may heap-allocate its target; use "
                  "core::SmallFunc (64-byte SBO) in hot paths");
        }
        continue;
      }
      if (t == "priority_queue") {
        ctx.add("A2", toks[i].line, "priority_queue",
                "a local priority_queue grows its backing vector per call; "
                "hoist it to a member scratch buffer");
        continue;
      }
      if (t == "to_string") {
        if (is_member_access(toks, i)) continue;
        if (!is_std_or_global(toks, i)) continue;
        const Tok* nx = next_tok(toks, i);
        if (nx == nullptr || nx->text != "(") continue;
        ctx.add("A2", toks[i].line, "to_string",
                "std::to_string allocates; format outside the hot path or "
                "annotate with alloc-ok(reason)");
        continue;
      }
      if (t == "throw") {
        ctx.add("A2", toks[i].line, "throw",
                "throwing in a hot path allocates the exception and "
                "unwinds; signal errors by return value");
        continue;
      }
      if (t == "push_back" || t == "emplace_back") {
        if (!is_member_access(toks, i)) continue;
        const Tok* nx = next_tok(toks, i);
        if (nx == nullptr || nx->text != "(") continue;
        const Tok* recv = i >= 2 ? &toks[i - 2] : nullptr;
        if (recv != nullptr && recv->ident) {
          if (!recv->text.empty() && recv->text.back() == '_') {
            continue;  // member scratch: amortized, gated by the mem model
          }
          if (reserved.contains(recv->text)) continue;
          ctx.add("A2", toks[i].line, recv->text + "." + t,
                  "growing an unreserved local container in a hot path; "
                  "reserve() it in this scope or annotate with "
                  "alloc-ok(reason)");
        } else {
          ctx.add("A2", toks[i].line, t,
                  "growing a container through an opaque expression in a "
                  "hot path; restructure or annotate with alloc-ok(reason)");
        }
        continue;
      }
      if (kSizedContainers.contains(t) && !is_member_access(toks, i)) {
        std::size_t j = i + 1;
        j = skip_template_args(toks, j);
        if (j >= close || !toks[j].ident) continue;
        const std::string& name = toks[j].text;
        const Tok* after = j + 1 < close ? &toks[j + 1] : nullptr;
        if (after == nullptr) continue;
        const bool paren_sized =
            after->text == "(" && j + 2 < close && toks[j + 2].text != ")";
        const bool brace_sized =
            after->text == "{" && j + 2 < close && toks[j + 2].text != "}";
        const bool literal_init = after->text == "=" && j + 2 < close &&
                                  toks[j + 2].text == "\"" && t == "string";
        if (paren_sized || brace_sized || literal_init) {
          ctx.add("A2", toks[i].line, t + " " + name,
                  "sized construction of a local container in a hot path "
                  "allocates per call; hoist to a member scratch buffer or "
                  "annotate with alloc-ok(reason)");
        }
        continue;
      }
    }
  }
}

// L1: one way to build log text. A log call hands its detail pieces to
// core::Logger::log, which formats them in place (and not at all below the
// minimum level); text built before the call with std::to_string, a
// to_string() temporary, snprintf/format or string concatenation costs
// allocations on every record and defeats the level check. Flags those
// constructs inside the argument list of any `log(...)` call.
void rule_l1_log_text(FileContext& ctx) {
  const auto& toks = ctx.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(toks[i].ident && toks[i].text == "log") || toks[i + 1].text != "(") {
      continue;
    }
    const Tok* p = prev_tok(toks, i);
    if (p != nullptr && p->text == "::") continue;  // std::log, Logger::log
    int depth = 0;
    std::size_t close = toks.size();
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
    }
    for (std::size_t j = i + 2; j < close; ++j) {
      const std::string& t = toks[j].text;
      const Tok* nx = next_tok(toks, j);
      const bool called = nx != nullptr && nx->text == "(";
      if (toks[j].ident && called &&
          (t == "to_string" || t == "snprintf" || t == "sprintf" ||
           t == "format")) {
        ctx.add("L1", toks[j].line, t,
                "log detail built with " + t +
                    "; pass the value itself (values append their own text) "
                    "and let Logger::log format it in place");
        continue;
      }
      if (t == "+") {
        const Tok* lhs = prev_tok(toks, j);
        const bool literal = (lhs != nullptr && lhs->text == "\"") ||
                             (nx != nullptr && nx->text == "\"");
        if (literal) {
          ctx.add("L1", toks[j].line, "+ \"...\"",
                  "log detail built by string concatenation; pass the "
                  "pieces as separate arguments to Logger::log");
        }
      }
    }
    i = close == toks.size() ? i : close;
  }
}

std::string normalize_path(std::string_view path) {
  std::string p{path};
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

// controller/switch_graph.hpp counts as an emitter header: its edge-delta
// changelog is emitter-ordered state (consumers replay it in append order
// into deterministic output), so changelog code paths must not iterate
// unordered containers either.
bool includes_emitter_header(const std::vector<std::string>& raw_lines) {
  for (const std::string& raw : raw_lines) {
    const std::size_t first = raw.find_first_not_of(" \t");
    if (first == std::string::npos || raw[first] != '#') continue;
    if (raw.find("#include") == std::string::npos) continue;
    if (raw.find("telemetry/json.hpp") != std::string::npos ||
        raw.find("framework/report.hpp") != std::string::npos ||
        raw.find("controller/switch_graph.hpp") != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Finding> lint_text(std::string_view path, std::string_view text,
                               std::string_view companion_header) {
  FileContext ctx;
  ctx.path = normalize_path(path);
  ctx.is_header = path_ends_with(ctx.path, ".hpp") ||
                  path_ends_with(ctx.path, ".h");
  ctx.t1_allowlisted = path_ends_with(ctx.path, "framework/trial.cpp") ||
                       path_ends_with(ctx.path, "framework/trial.hpp");
  ctx.raw_lines = split_raw_lines(text);

  const Stripped stripped = strip(text);
  ctx.toks = tokenize(stripped.code);
  ctx.pragmas = parse_pragmas(stripped.comments);

  // A .cpp inherits emitter status from its companion header: the usual
  // shape is foo.hpp pulling in the emitter header and foo.cpp doing the
  // actual iteration (as_topology.cpp replaying the switch-graph changelog).
  ctx.is_emitter = path_has_dir(ctx.path, "telemetry") ||
                   includes_emitter_header(ctx.raw_lines) ||
                   (!companion_header.empty() &&
                    includes_emitter_header(split_raw_lines(companion_header)));

  ctx.line_has_code.assign(ctx.raw_lines.size(), false);
  for (const Tok& t : ctx.toks) {
    const std::size_t idx = static_cast<std::size_t>(t.line) - 1;
    if (idx < ctx.line_has_code.size()) ctx.line_has_code[idx] = true;
  }

  if (!companion_header.empty()) {
    const Stripped companion = strip(companion_header);
    const std::vector<Tok> companion_toks = tokenize(companion.code);
    harvest_unordered_names(companion_toks, ctx.unordered);
    harvest_float_names(companion_toks, ctx.floats);
  }
  harvest_unordered_names(ctx.toks, ctx.unordered);
  harvest_float_names(ctx.toks, ctx.floats);

  rule_d1_wall_clock(ctx);
  rule_d2_randomness(ctx);
  rule_d3_unordered_iteration(ctx);
  rule_d4_pointer_order(ctx);
  rule_d5_float_accumulation(ctx);
  rule_t1_threads(ctx);
  rule_h1_header_hygiene(ctx);
  rule_p1_pragmas(ctx);
  rule_a2_hotpath_allocations(ctx);
  rule_l1_log_text(ctx);

  std::sort(ctx.findings.begin(), ctx.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.token) <
                     std::tie(b.file, b.line, b.rule, b.token);
            });
  return ctx.findings;
}

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::vector<std::string> collect_files(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      continue;  // missing roots reported by the CLI, not as findings
    }
    for (fs::recursive_directory_iterator it{root, ec}, end; it != end;
         it.increment(ec)) {
      if (ec) break;
      // The lint test corpus is full of deliberate violations; skip any
      // descendant directory named "fixtures" (a root that *is* the
      // fixtures directory still scans — that is how its tests drive it).
      if (it->is_directory(ec) && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file(ec)) continue;
      const std::string p = it->path().generic_string();
      if (path_ends_with(p, ".cpp") || path_ends_with(p, ".hpp") ||
          path_ends_with(p, ".h")) {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace

std::vector<Finding> lint_file(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) {
    return {{normalize_path(path), 0, "IO", path, "cannot read file", {}}};
  }
  std::string companion;
  if (path_ends_with(path, ".cpp")) {
    std::string header = path.substr(0, path.size() - 4) + ".hpp";
    std::string header_text;
    if (read_file(header, header_text)) companion = std::move(header_text);
  }
  return lint_text(path, text, companion);
}

std::vector<Finding> lint_paths(const std::vector<std::string>& roots) {
  std::vector<Finding> findings;
  for (const std::string& f : collect_files(roots)) {
    std::vector<Finding> fs_one = lint_file(f);
    findings.insert(findings.end(), fs_one.begin(), fs_one.end());
  }
  return findings;
}

// ---------------------------------------------------------------------------
// A1: the include-graph pass.
// ---------------------------------------------------------------------------

const int* LayerTable::rank_of(std::string_view dir) const {
  const auto it = std::lower_bound(
      ranks.begin(), ranks.end(), dir,
      [](const auto& entry, std::string_view d) { return entry.first < d; });
  if (it == ranks.end() || it->first != dir) return nullptr;
  return &it->second;
}

bool parse_layers(std::string_view text, LayerTable& out, std::string* error) {
  out.ranks.clear();
  int lineno = 0;
  for (const std::string& raw : split_raw_lines(text)) {
    ++lineno;
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ss{line};
    std::string dir;
    if (!(ss >> dir)) continue;  // blank / comment-only line
    int rank = 0;
    if (!(ss >> rank) || rank < 0) {
      if (error != nullptr) {
        *error = "layers.txt line " + std::to_string(lineno) +
                 ": expected \"<dir> <rank>\", got '" + raw + "'";
      }
      return false;
    }
    std::string extra;
    if (ss >> extra) {
      if (error != nullptr) {
        *error = "layers.txt line " + std::to_string(lineno) +
                 ": trailing tokens after \"<dir> <rank>\"";
      }
      return false;
    }
    out.ranks.emplace_back(std::move(dir), rank);
  }
  std::sort(out.ranks.begin(), out.ranks.end());
  for (std::size_t i = 1; i < out.ranks.size(); ++i) {
    if (out.ranks[i].first == out.ranks[i - 1].first) {
      if (error != nullptr) {
        *error = "layers.txt: duplicate directory '" + out.ranks[i].first + "'";
      }
      return false;
    }
  }
  return true;
}

std::vector<CorpusFile> load_corpus(const std::vector<std::string>& roots) {
  std::vector<CorpusFile> corpus;
  for (const std::string& f : collect_files(roots)) {
    std::string text;
    if (!read_file(f, text)) continue;
    corpus.push_back({normalize_path(f), std::move(text)});
  }
  return corpus;
}

namespace {

struct IncludeRef {
  int line = 0;          // 1-based
  std::string target;    // the quoted include string
};

std::vector<IncludeRef> quoted_includes(const std::string& text) {
  std::vector<IncludeRef> refs;
  int lineno = 0;
  for (const std::string& raw : split_raw_lines(text)) {
    ++lineno;
    const std::size_t first = raw.find_first_not_of(" \t");
    if (first == std::string::npos || raw[first] != '#') continue;
    const std::size_t inc = raw.find("include", first);
    if (inc == std::string::npos) continue;
    const std::size_t q1 = raw.find('"', inc);
    if (q1 == std::string::npos) continue;
    const std::size_t q2 = raw.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    refs.push_back({lineno, raw.substr(q1 + 1, q2 - q1 - 1)});
  }
  return refs;
}

// The governed directory a file belongs to: the component after a "src"
// component, or the first component that is itself ranked (tools, bench,
// examples, tests, lint). Empty when the path is outside the contract.
std::string layer_dir_of(const std::string& path, const LayerTable& layers) {
  std::vector<std::string> comps;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (i > start) comps.emplace_back(path.substr(start, i - start));
      start = i + 1;
    }
  }
  for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
    if (comps[i] == "src" && layers.rank_of(comps[i + 1]) != nullptr) {
      return comps[i + 1];
    }
    if (layers.rank_of(comps[i]) != nullptr) return comps[i];
  }
  return {};
}

// First path component of an include string ("bgp/rib.hpp" -> "bgp");
// empty for flat includes ("bench_common.hpp").
std::string include_dir_of(const std::string& include) {
  const std::size_t slash = include.find('/');
  if (slash == std::string::npos) return {};
  return include.substr(0, slash);
}

// Path of `file` relative to its src/ root ("src/bgp/rib.hpp" ->
// "bgp/rib.hpp"); empty when the file is not under src/.
std::string src_relative(const std::string& path) {
  const std::size_t mid = path.rfind("/src/");
  if (mid != std::string::npos) return path.substr(mid + 5);
  if (path.rfind("src/", 0) == 0) return path.substr(4);
  return {};
}

// Per-file pragma index for layer-ok waivers, built lazily per file.
struct PragmaIndex {
  std::vector<Pragma> pragmas;
  std::vector<bool> line_has_code;

  bool line_holds_code(int line) const {
    const std::size_t idx = static_cast<std::size_t>(line) - 1;
    return idx < line_has_code.size() && line_has_code[idx];
  }

  bool waived(int line) const {
    for (const Pragma& pr : pragmas) {
      if (pr.tag != "layer-ok" || pr.reason.empty()) continue;
      if (pr.line == line) return true;
      if (line_holds_code(pr.line)) continue;
      int target = pr.line + 1;
      while (target <= static_cast<int>(line_has_code.size()) &&
             !line_holds_code(target)) {
        ++target;
      }
      if (target == line) return true;
    }
    return false;
  }
};

PragmaIndex index_pragmas(const std::string& text) {
  PragmaIndex idx;
  const Stripped stripped = strip(text);
  idx.pragmas = parse_pragmas(stripped.comments);
  const std::vector<Tok> toks = tokenize(stripped.code);
  idx.line_has_code.assign(split_raw_lines(text).size(), false);
  for (const Tok& t : toks) {
    const std::size_t i = static_cast<std::size_t>(t.line) - 1;
    if (i < idx.line_has_code.size()) idx.line_has_code[i] = true;
  }
  return idx;
}

}  // namespace

std::vector<Finding> analyze_include_graph(const std::vector<CorpusFile>& files,
                                           const LayerTable& layers) {
  std::vector<Finding> findings;

  // Layer monotonicity over every governed include edge.
  for (const CorpusFile& f : files) {
    const std::string from_dir = layer_dir_of(f.path, layers);
    if (from_dir.empty()) continue;
    const int* from_rank = layers.rank_of(from_dir);
    PragmaIndex pragmas;  // built lazily on the first violation
    bool have_pragmas = false;
    for (const IncludeRef& ref : quoted_includes(f.text)) {
      const std::string to_dir = include_dir_of(ref.target);
      if (to_dir.empty() || to_dir == from_dir) continue;
      const int* to_rank = layers.rank_of(to_dir);
      if (to_rank == nullptr) continue;
      if (*to_rank < *from_rank) continue;
      if (!have_pragmas) {
        pragmas = index_pragmas(f.text);
        have_pragmas = true;
      }
      if (pragmas.waived(ref.line)) continue;
      const bool upward = *to_rank > *from_rank;
      findings.push_back(
          {f.path, ref.line, "A1", ref.target,
           (upward ? std::string{"upward include: layer '"}
                   : std::string{"same-rank include: layer '"}) +
               from_dir + "' (rank " + std::to_string(*from_rank) +
               ") may not include '" + to_dir + "' (rank " +
               std::to_string(*to_rank) +
               "); see tools/lint/layers.txt or annotate with "
               "layer-ok(reason)",
           {}});
    }
  }

  // Cycle detection over the file-level include graph of src/.
  std::vector<std::size_t> src_files;
  std::unordered_map<std::string, std::size_t> by_rel;  // rel path -> index
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string rel = src_relative(files[i].path);
    if (rel.empty()) continue;
    src_files.push_back(i);
    by_rel.emplace(rel, i);
  }
  struct Edge {
    std::size_t to;
    int line;
    std::string target;
  };
  std::unordered_map<std::size_t, std::vector<Edge>> edges;
  for (const std::size_t i : src_files) {
    for (const IncludeRef& ref : quoted_includes(files[i].text)) {
      const auto it = by_rel.find(ref.target);
      if (it == by_rel.end() || it->second == i) continue;
      edges[i].push_back({it->second, ref.line, ref.target});
    }
  }
  // Iterative DFS with tri-color marking; a back edge closes a cycle.
  enum class Color { kWhite, kGrey, kBlack };
  std::unordered_map<std::size_t, Color> color;
  for (const std::size_t i : src_files) color[i] = Color::kWhite;
  std::vector<std::size_t> stack;  // grey path for cycle reconstruction
  struct Frame {
    std::size_t node;
    std::size_t next_edge;
  };
  for (const std::size_t root : src_files) {
    if (color[root] != Color::kWhite) continue;
    std::vector<Frame> frames{{root, 0}};
    color[root] = Color::kGrey;
    stack.push_back(root);
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const auto eit = edges.find(fr.node);
      const std::vector<Edge>* out =
          eit == edges.end() ? nullptr : &eit->second;
      if (out == nullptr || fr.next_edge >= out->size()) {
        color[fr.node] = Color::kBlack;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const Edge& e = (*out)[fr.next_edge++];
      if (color[e.to] == Color::kGrey) {
        // Reconstruct the cycle from the grey path.
        std::string desc = "include cycle: ";
        auto start = std::find(stack.begin(), stack.end(), e.to);
        for (auto it = start; it != stack.end(); ++it) {
          desc += src_relative(files[*it].path) + " -> ";
        }
        desc += src_relative(files[e.to].path);
        findings.push_back({files[fr.node].path, e.line, "A1", e.target,
                            desc + "; break the cycle (forward-declare or "
                                   "split the header)",
                            {}});
        continue;
      }
      if (color[e.to] == Color::kWhite) {
        color[e.to] = Color::kGrey;
        stack.push_back(e.to);
        frames.push_back({e.to, 0});
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.token) <
                     std::tie(b.file, b.line, b.rule, b.token);
            });
  return findings;
}

std::string include_graph_dot(const std::vector<CorpusFile>& files,
                              const LayerTable& layers) {
  std::map<std::pair<std::string, std::string>, int> edge_counts;
  for (const CorpusFile& f : files) {
    const std::string from_dir = layer_dir_of(f.path, layers);
    if (from_dir.empty()) continue;
    for (const IncludeRef& ref : quoted_includes(f.text)) {
      const std::string to_dir = include_dir_of(ref.target);
      if (to_dir.empty() || to_dir == from_dir) continue;
      if (layers.rank_of(to_dir) == nullptr) continue;
      ++edge_counts[{from_dir, to_dir}];
    }
  }
  std::ostringstream out;
  out << "// Directory-level include graph, generated by\n"
         "//   bgpsdn_lint --dump-include-graph docs/include-graph.dot\n"
         "// Edges point from including directory to included directory;\n"
         "// labels count the quoted #include lines. Layer ranks come from\n"
         "// tools/lint/layers.txt; check.sh regenerates this file and\n"
         "// fails on drift so layering changes are always visible in\n"
         "// review diffs.\n"
         "digraph bgpsdn_includes {\n"
         "  rankdir=BT;\n";
  for (const auto& [dir, rank] : layers.ranks) {
    out << "  \"" << dir << "\" [label=\"" << dir << "\\nrank " << rank
        << "\"];\n";
  }
  for (const auto& [edge, count] : edge_counts) {
    out << "  \"" << edge.first << "\" -> \"" << edge.second << "\" [label=\""
        << count << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Baseline (bgpsdn.lint/2).
// ---------------------------------------------------------------------------

std::string findings_to_json(const std::vector<Finding>& findings) {
  using telemetry::Json;
  std::vector<Finding> sorted = findings;
  std::sort(sorted.begin(), sorted.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.token) <
                     std::tie(b.file, b.line, b.rule, b.token);
            });
  Json doc = Json::object();
  doc["schema"] = std::string{"bgpsdn.lint/2"};
  Json arr = Json::array();
  for (const Finding& f : sorted) {
    Json entry = Json::object();
    entry["file"] = f.file;
    entry["line"] = static_cast<std::int64_t>(f.line);
    entry["rule"] = f.rule;
    entry["token"] = f.token;
    entry["message"] = f.message;
    entry["reason"] = f.reason;
    arr.push_back(std::move(entry));
  }
  doc["findings"] = std::move(arr);
  return doc.dump();
}

bool parse_baseline(std::string_view text, Baseline& out, std::string* error) {
  using telemetry::Json;
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  const std::optional<Json> doc = Json::parse(text);
  if (!doc || !doc->is_object()) {
    return fail("malformed baseline: not a JSON object");
  }
  const Json* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return fail("malformed baseline: missing schema");
  }
  if (schema->as_string() == "bgpsdn.lint/1") {
    return fail(
        "baseline schema bgpsdn.lint/1 is no longer supported: every waiver "
        "now requires a reason; migrate to bgpsdn.lint/2 by adding a "
        "\"reason\" to each entry, or regenerate with --write-baseline");
  }
  if (schema->as_string() != "bgpsdn.lint/2") {
    return fail("malformed baseline: unknown schema '" +
                schema->as_string() + "'");
  }
  const Json* findings = doc->find("findings");
  if (findings == nullptr || !findings->is_array()) {
    return fail("malformed baseline: missing findings array");
  }
  out.entries.clear();
  for (std::size_t i = 0; i < findings->size(); ++i) {
    const Json& e = findings->at(i);
    if (!e.is_object()) return fail("malformed baseline: non-object entry");
    const Json* file = e.find("file");
    const Json* line = e.find("line");
    const Json* rule = e.find("rule");
    const Json* token = e.find("token");
    if (file == nullptr || line == nullptr || rule == nullptr ||
        token == nullptr) {
      return fail("malformed baseline: entry missing file/line/rule/token");
    }
    Finding f;
    f.file = file->as_string();
    f.line = static_cast<int>(line->as_int());
    f.rule = rule->as_string();
    f.token = token->as_string();
    const Json* reason = e.find("reason");
    if (reason == nullptr || !reason->is_string() ||
        reason->as_string().empty()) {
      return fail("baseline waiver " + f.file + ":" + std::to_string(f.line) +
                  " [" + f.rule +
                  "] has no reason; every waiver must document why it is "
                  "tolerated");
    }
    f.reason = reason->as_string();
    out.entries.push_back(std::move(f));
  }
  return true;
}

FilterResult apply_baseline(const std::vector<Finding>& findings,
                            const Baseline& baseline) {
  FilterResult result;
  std::vector<bool> used(baseline.entries.size(), false);
  for (const Finding& f : findings) {
    bool matched = false;
    for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
      if (used[i]) continue;
      const Finding& b = baseline.entries[i];
      if (b.file == f.file && b.line == f.line && b.rule == f.rule &&
          b.token == f.token) {
        used[i] = true;
        matched = true;
        break;
      }
    }
    if (matched) {
      ++result.baselined;
    } else {
      result.fresh.push_back(f);
    }
  }
  for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
    if (!used[i]) result.stale.push_back(baseline.entries[i]);
  }
  return result;
}

int exit_code_for(const std::vector<Finding>& fresh) {
  return fresh.empty() ? 0 : 1;
}

}  // namespace bgpsdn::lint
