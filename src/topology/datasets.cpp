#include "topology/datasets.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/text.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::topology {

namespace {

/// Largest accepted iPlane RTT, in milliseconds.
constexpr double kMaxRttMs = 1e9;

core::AsNumber parse_as(const std::string& s, const std::string& context) {
  const auto as = core::parse_as_number(s);
  if (!as) {
    throw std::invalid_argument{"bad AS number '" + s + "' in " + context};
  }
  return *as;
}

}  // namespace

TopologySpec parse_caida(std::istream& in) {
  TopologySpec spec;
  spec.policy_mode = bgp::PolicyMode::kGaoRexford;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto context = "caida line " + std::to_string(line_no);
    std::istringstream ls{line};
    std::string f1, f2, f3;
    if (!std::getline(ls, f1, '|') || !std::getline(ls, f2, '|') ||
        !std::getline(ls, f3, '|')) {
      throw std::invalid_argument{"malformed " + context + ": '" + line + "'"};
    }
    const core::AsNumber a = parse_as(f1, context);
    const core::AsNumber b = parse_as(f2, context);
    // Some serial-1 files carry a trailing source field after the
    // relationship; trim it at whitespace.
    if (const auto ws = f3.find_first_of(" \t\r"); ws != std::string::npos) {
      f3.resize(ws);
    }
    bgp::Relationship rel;
    if (f3 == "-1") {
      rel = bgp::Relationship::kCustomer;  // a is provider: a sees b as customer
    } else if (f3 == "0") {
      rel = bgp::Relationship::kPeer;
    } else {
      throw std::invalid_argument{"bad relationship '" + f3 + "' in " + context};
    }
    spec.add_as(a);
    spec.add_as(b);
    if (!spec.has_link(a, b)) spec.add_link(a, b, rel);
  }
  spec.validate();
  return spec;
}

TopologySpec parse_caida_text(const std::string& text) {
  std::istringstream in{text};
  return parse_caida(in);
}

std::string to_caida_text(const TopologySpec& spec) {
  std::string out = "# bgpsdn serial-1 export\n";
  for (const auto& l : spec.links) {
    out += std::to_string(l.a.value());
    out += '|';
    out += std::to_string(l.b.value());
    out += '|';
    switch (l.a_sees_b) {
      case bgp::Relationship::kCustomer:
        out += "-1";  // a provider of b
        break;
      case bgp::Relationship::kPeer:
        out += "0";
        break;
      case bgp::Relationship::kProvider:
        // Normalize: emit as provider|customer.
        out.resize(out.size() - (std::to_string(l.a.value()).size() +
                                 std::to_string(l.b.value()).size() + 2));
        out += std::to_string(l.b.value());
        out += '|';
        out += std::to_string(l.a.value());
        out += "|-1";
        break;
    }
    out += '\n';
  }
  return out;
}

TopologySpec parse_iplane(std::istream& in) {
  TopologySpec spec;
  // Collapse PoP pairs to AS pairs keeping the minimum RTT.
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> min_rtt;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto context = "iplane line " + std::to_string(line_no);
    std::istringstream ls{line};
    std::string pop_a, pop_b, rtt_token;
    if (!(ls >> pop_a >> pop_b >> rtt_token)) {
      throw std::invalid_argument{"malformed " + context + ": '" + line + "'"};
    }
    // One whole finite token: a negative or out-of-range RTT would become a
    // negative or overflowing link delay.
    const auto parsed_rtt = core::parse_real(rtt_token, 0.0, kMaxRttMs);
    if (!parsed_rtt) {
      throw std::invalid_argument{"bad rtt '" + rtt_token + "' in " + context +
                                  " (want ms in [0, 1e9])"};
    }
    const double rtt = *parsed_rtt;
    const auto parse_pop = [&](const std::string& pop) {
      const auto comma = pop.find(',');
      if (comma == std::string::npos) {
        throw std::invalid_argument{"bad pop '" + pop + "' in " + context};
      }
      return parse_as(pop.substr(0, comma), context).value();
    };
    const std::uint32_t as_a = parse_pop(pop_a);
    const std::uint32_t as_b = parse_pop(pop_b);
    if (as_a == as_b) continue;  // intra-AS PoP link: invisible at AS level
    const auto key = std::minmax(as_a, as_b);
    const auto it = min_rtt.find({key.first, key.second});
    if (it == min_rtt.end() || rtt < it->second) {
      min_rtt[{key.first, key.second}] = rtt;
    }
  }
  for (const auto& [pair, rtt] : min_rtt) {
    const core::AsNumber a{pair.first};
    const core::AsNumber b{pair.second};
    spec.add_as(a);
    spec.add_as(b);
    // One-way delay ~ RTT/2.
    spec.add_link(a, b, bgp::Relationship::kPeer,
                  core::Duration::seconds_f(rtt / 2.0 / 1000.0));
  }
  spec.validate();
  return spec;
}

TopologySpec parse_iplane_text(const std::string& text) {
  std::istringstream in{text};
  return parse_iplane(in);
}

std::string synthesize_caida_text(std::size_t ases, core::Rng& rng) {
  // Carve the AS count into the three tiers of the internet_like generator.
  InternetLikeParams params;
  params.tier1 = std::max<std::size_t>(2, ases / 12);
  params.transit = std::max<std::size_t>(2, ases / 4);
  params.stubs = ases > params.tier1 + params.transit
                     ? ases - params.tier1 - params.transit
                     : 1;
  const TopologySpec spec = internet_like(params, rng);
  return "# synthesized CAIDA-like as-rel (serial-1)\n" + to_caida_text(spec);
}

std::string synthesize_iplane_text(const TopologySpec& spec, core::Rng& rng) {
  std::string out = "# synthesized iPlane-like inter-PoP links\n";
  for (const auto& l : spec.links) {
    const int pairs = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < pairs; ++i) {
      const auto pop_a = rng.uniform_int(0, 2);
      const auto pop_b = rng.uniform_int(0, 2);
      const double rtt = rng.uniform(2.0, 80.0);
      char buf[96];
      std::snprintf(buf, sizeof buf, "%u,%lld %u,%lld %.2f\n", l.a.value(),
                    static_cast<long long>(pop_a), l.b.value(),
                    static_cast<long long>(pop_b), rtt);
      out += buf;
    }
  }
  return out;
}

TopologySpec merge_relationships(const TopologySpec& base,
                                 const TopologySpec& rel) {
  TopologySpec out;
  out.policy_mode = bgp::PolicyMode::kGaoRexford;
  for (const auto as : base.ases) out.add_as(as);
  for (const auto& l : base.links) {
    bgp::Relationship r = bgp::Relationship::kPeer;
    for (const auto& rl : rel.links) {
      if (rl.a == l.a && rl.b == l.b) {
        r = rl.a_sees_b;
        break;
      }
      if (rl.a == l.b && rl.b == l.a) {
        r = bgp::reverse(rl.a_sees_b);
        break;
      }
    }
    out.add_link(l.a, l.b, r, l.delay);
  }
  return out;
}

}  // namespace bgpsdn::topology
