// TopologySpec validation, generators, and dataset parse/synthesize paths.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "topology/datasets.hpp"
#include "topology/generators.hpp"

namespace bgpsdn::topology {
namespace {

core::AsNumber as(std::uint32_t v) { return core::AsNumber{v}; }

TEST(TopologySpec, AddAndQuery) {
  TopologySpec spec;
  spec.add_as(as(1));
  spec.add_as(as(2));
  spec.add_as(as(1));  // idempotent
  EXPECT_EQ(spec.ases.size(), 2u);
  spec.add_link(as(1), as(2), bgp::Relationship::kCustomer);
  EXPECT_TRUE(spec.has_link(as(1), as(2)));
  EXPECT_TRUE(spec.has_link(as(2), as(1)));
  EXPECT_EQ(spec.degree(as(1)), 1u);
  spec.validate();
}

TEST(TopologySpec, RejectsBadLinks) {
  TopologySpec spec;
  spec.add_as(as(1));
  spec.add_as(as(2));
  EXPECT_THROW(spec.add_link(as(1), as(1)), std::invalid_argument);
  EXPECT_THROW(spec.add_link(as(1), as(9)), std::invalid_argument);
  spec.add_link(as(1), as(2));
  EXPECT_THROW(spec.add_link(as(2), as(1)), std::invalid_argument);
}

TEST(TopologySpec, ValidateCatchesManualCorruption) {
  TopologySpec spec;
  spec.add_as(as(1));
  spec.add_as(as(2));
  spec.links.push_back({as(1), as(2), bgp::Relationship::kPeer, {}});
  spec.links.push_back({as(2), as(1), bgp::Relationship::kPeer, {}});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(TopologySpec, SummaryMentionsModeAndCounts) {
  auto spec = clique(4);
  EXPECT_NE(spec.summary().find("4 ASes"), std::string::npos);
  EXPECT_NE(spec.summary().find("6 links"), std::string::npos);
  EXPECT_NE(spec.summary().find("full-transit"), std::string::npos);
}

TEST(Generators, CliqueEdgeCount) {
  for (const std::size_t n : {2u, 5u, 16u}) {
    const auto spec = clique(n);
    EXPECT_EQ(spec.ases.size(), n);
    EXPECT_EQ(spec.links.size(), n * (n - 1) / 2);
    spec.validate();
  }
}

TEST(Generators, LineRingStar) {
  EXPECT_EQ(line(5).links.size(), 4u);
  EXPECT_EQ(ring(5).links.size(), 5u);
  const auto s = star(5);
  EXPECT_EQ(s.links.size(), 4u);
  EXPECT_EQ(s.degree(as(1)), 4u);
  // Star hub is the provider.
  for (const auto& l : s.links) {
    EXPECT_EQ(l.a, as(1));
    EXPECT_EQ(l.a_sees_b, bgp::Relationship::kCustomer);
  }
}

TEST(Generators, BaseAsOffset) {
  const auto spec = clique(3, 100);
  EXPECT_TRUE(spec.has_as(as(100)));
  EXPECT_TRUE(spec.has_as(as(102)));
  EXPECT_FALSE(spec.has_as(as(1)));
}

TEST(Generators, BinaryTreeStructure) {
  const auto spec = binary_tree(3);  // 7 nodes
  EXPECT_EQ(spec.ases.size(), 7u);
  EXPECT_EQ(spec.links.size(), 6u);
  EXPECT_EQ(spec.degree(as(1)), 2u);   // root
  EXPECT_EQ(spec.degree(as(2)), 3u);   // internal
  EXPECT_EQ(spec.degree(as(7)), 1u);   // leaf
  spec.validate();
}

TEST(Generators, ErdosRenyiConnectedAndSeeded) {
  core::Rng rng1{5}, rng2{5};
  const auto a = erdos_renyi(20, 0.2, rng1);
  const auto b = erdos_renyi(20, 0.2, rng2);
  EXPECT_EQ(a.links.size(), b.links.size());  // deterministic per seed
  EXPECT_GE(a.links.size(), 20u);             // ring backbone present
  a.validate();
}

TEST(Generators, BarabasiAlbertDegreeSkew) {
  core::Rng rng{5};
  const auto spec = barabasi_albert(60, 2, rng);
  spec.validate();
  std::size_t dmax = 0;
  for (const auto asn : spec.ases) dmax = std::max(dmax, spec.degree(asn));
  // Preferential attachment produces hubs well above the minimum degree.
  EXPECT_GE(dmax, 8u);
}

TEST(Generators, InternetLikeIsValleyFreeShaped) {
  core::Rng rng{5};
  InternetLikeParams params;
  const auto spec = internet_like(params, rng);
  spec.validate();
  EXPECT_EQ(spec.policy_mode, bgp::PolicyMode::kGaoRexford);
  EXPECT_EQ(spec.ases.size(), params.tier1 + params.transit + params.stubs);
  // Tier-1s peer among themselves.
  EXPECT_TRUE(spec.has_link(as(1), as(2)));
  // Every stub has at least one provider.
  for (std::size_t i = 0; i < params.stubs; ++i) {
    const auto stub = as(static_cast<std::uint32_t>(
        1 + params.tier1 + params.transit + i));
    EXPECT_GE(spec.degree(stub), 1u) << stub.to_string();
  }
}

TEST(Datasets, CaidaParseBasics) {
  const std::string text =
      "# comment line\n"
      "1|2|-1\n"   // 1 provider of 2
      "2|3|0\n";   // peers
  const auto spec = parse_caida_text(text);
  EXPECT_EQ(spec.ases.size(), 3u);
  EXPECT_EQ(spec.links.size(), 2u);
  EXPECT_EQ(spec.policy_mode, bgp::PolicyMode::kGaoRexford);
  EXPECT_EQ(spec.links[0].a_sees_b, bgp::Relationship::kCustomer);
  EXPECT_EQ(spec.links[1].a_sees_b, bgp::Relationship::kPeer);
}

TEST(Datasets, CaidaRejectsMalformed) {
  EXPECT_THROW(parse_caida_text("1|2\n"), std::invalid_argument);
  EXPECT_THROW(parse_caida_text("1|2|5\n"), std::invalid_argument);
  EXPECT_THROW(parse_caida_text("x|2|0\n"), std::invalid_argument);
  // AS fields are exact AS numbers: no AS 0, sign, padding or overflow.
  EXPECT_THROW(parse_caida_text("0|5|-1\n"), std::invalid_argument);
  EXPECT_THROW(parse_caida_text("+7| 8|-1\n"), std::invalid_argument);
  EXPECT_THROW(parse_caida_text("7| 8|-1\n"), std::invalid_argument);
  EXPECT_THROW(parse_caida_text("4294967296|8|-1\n"), std::invalid_argument);
}

TEST(Datasets, CaidaRoundTrip) {
  const std::string text = "10|20|-1\n20|30|0\n";
  const auto spec = parse_caida_text(text);
  const auto out = to_caida_text(spec);
  const auto spec2 = parse_caida_text(out);
  EXPECT_EQ(spec2.links.size(), spec.links.size());
  EXPECT_EQ(spec2.links[0].a_sees_b, spec.links[0].a_sees_b);
}

TEST(Datasets, CaidaDuplicateLinesCollapse) {
  const auto spec = parse_caida_text("1|2|-1\n1|2|-1\n2|1|0\n");
  EXPECT_EQ(spec.links.size(), 1u);
}

TEST(Datasets, IplaneParseCollapsesPopsToAsLinks) {
  const std::string text =
      "# links\n"
      "100,0 200,1 20.0\n"
      "100,1 200,0 10.0\n"   // same AS pair, lower RTT wins
      "100,2 100,0 1.0\n"    // intra-AS: ignored
      "200,0 300,0 50.0\n";
  const auto spec = parse_iplane_text(text);
  EXPECT_EQ(spec.ases.size(), 3u);
  EXPECT_EQ(spec.links.size(), 2u);
  // Min RTT 10 ms -> one-way 5 ms.
  for (const auto& l : spec.links) {
    if ((l.a == as(100) && l.b == as(200)) || (l.a == as(200) && l.b == as(100))) {
      ASSERT_TRUE(l.delay.has_value());
      EXPECT_EQ(l.delay->count_nanos(), core::Duration::millis(5).count_nanos());
    }
  }
}

TEST(Datasets, IplaneRejectsMalformed) {
  EXPECT_THROW(parse_iplane_text("100 200 5\n"), std::invalid_argument);
  EXPECT_THROW(parse_iplane_text("100,0 200,0\n"), std::invalid_argument);
  EXPECT_THROW(parse_iplane_text("0,0 200,0 5\n"), std::invalid_argument);
  EXPECT_THROW(parse_iplane_text("+100,0 200,0 5\n"), std::invalid_argument);
  EXPECT_THROW(parse_iplane_text("1e2,0 200,0 5\n"), std::invalid_argument);
  // RTTs: the whole token, finite, within [0, 1e9] ms.
  EXPECT_THROW(parse_iplane_text("100,0 200,0 -5\n"), std::invalid_argument);
  EXPECT_THROW(parse_iplane_text("100,0 200,0 1e30\n"), std::invalid_argument);
  EXPECT_THROW(parse_iplane_text("100,0 200,0 5abc\n"), std::invalid_argument);
  try {
    parse_iplane_text("# header\n100,0 200,0 5abc\n");
    ADD_FAILURE() << "5abc accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "bad rtt '5abc' in iplane line 2 (want ms in [0, 1e9])");
  }
}

TEST(Datasets, MutatedAsFieldsParseExactlyOrThrow) {
  // Seeded mutation fuzz of the AS fields of both dataset formats, and of
  // the iPlane RTT field: a mutant either loads with every AS in
  // 1..4294967295 and every link delay in [0, 5e8] ms (half of the largest
  // RTT), or is rejected with std::invalid_argument; nothing else escapes.
  const std::vector<std::string> hostile{
      "-1", "+1", "0", "1.5", "1e3", "nan", "0x10", " 7", "7 ",
      "4294967295", "4294967296", "18446744073709551616", ""};
  const std::vector<std::string> hostile_rtt{
      "-5", "-0", "+5", "1e30", "1e9", "1e9.5", "5abc", "nan", "inf", "-inf",
      "0x10", "0", "7.25", ".5", "5.", "1e-400", ""};
  core::Rng rng{17};
  const auto caida_lines = [&] {
    std::vector<std::string> lines;
    std::istringstream in{synthesize_caida_text(30, rng)};
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] != '#') lines.push_back(line);
    }
    return lines;
  }();
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  for (int m = 0; m < 300; ++m) {
    auto lines = caida_lines;
    auto& line = lines[pick(lines.size())];
    const auto bar = line.find('|');
    const std::string& value = hostile[pick(hostile.size())];
    line = pick(2) == 0 ? value + line.substr(bar)
                        : line.substr(0, bar + 1) + value +
                              line.substr(line.find('|', bar + 1));
    std::string text;
    for (const auto& l : lines) text += l + "\n";
    const bool iplane = pick(2) == 0;
    if (iplane) {
      // Reuse the CAIDA AS pairs as iPlane PoP links.
      // One line in two also gets a hostile RTT.
      const std::size_t rtt_line = pick(2 * lines.size());
      std::string pops;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto& l = lines[i];
        const auto b1 = l.find('|');
        const auto b2 = l.find('|', b1 + 1);
        const std::string rtt =
            i == rtt_line ? hostile_rtt[pick(hostile_rtt.size())] : "12.5";
        pops += l.substr(0, b1) + ",0 " + l.substr(b1 + 1, b2 - b1 - 1) +
                ",1 " + rtt + "\n";
      }
      text = pops;
    }
    try {
      const auto spec =
          iplane ? parse_iplane_text(text) : parse_caida_text(text);
      for (const auto as : spec.ases) EXPECT_GE(as.value(), 1u) << text;
      for (const auto& l : spec.links) {
        if (!l.delay) continue;
        EXPECT_GE(l.delay->count_nanos(), 0) << text;
        EXPECT_LE(l.delay->count_nanos(),
                  core::Duration::millis(500'000'000).count_nanos())
            << text;
      }
    } catch (const std::invalid_argument&) {
    } catch (...) {
      ADD_FAILURE() << "non-diagnostic exception\n" << text;
    }
  }
}

TEST(Datasets, SynthesizedCaidaParsesBack) {
  core::Rng rng{11};
  const auto text = synthesize_caida_text(40, rng);
  const auto spec = parse_caida_text(text);
  EXPECT_GE(spec.ases.size(), 30u);
  spec.validate();
  // The hierarchy has both relationship kinds.
  bool has_c2p = false, has_p2p = false;
  for (const auto& l : spec.links) {
    has_c2p = has_c2p || l.a_sees_b == bgp::Relationship::kCustomer;
    has_p2p = has_p2p || l.a_sees_b == bgp::Relationship::kPeer;
  }
  EXPECT_TRUE(has_c2p);
  EXPECT_TRUE(has_p2p);
}

TEST(Datasets, SynthesizedIplaneParsesBack) {
  core::Rng rng{11};
  const auto base = clique(6);
  const auto text = synthesize_iplane_text(base, rng);
  const auto spec = parse_iplane_text(text);
  EXPECT_EQ(spec.ases.size(), 6u);
  EXPECT_EQ(spec.links.size(), base.links.size());
}

TEST(Datasets, MergeRelationshipsOntoIplane) {
  core::Rng rng{11};
  const auto base = clique(4);                 // from "iPlane" adjacency
  const auto rel = parse_caida_text("1|2|-1\n3|4|0\n");
  const auto merged = merge_relationships(base, rel);
  EXPECT_EQ(merged.links.size(), base.links.size());
  EXPECT_EQ(merged.policy_mode, bgp::PolicyMode::kGaoRexford);
  for (const auto& l : merged.links) {
    if (l.a == as(1) && l.b == as(2)) {
      EXPECT_EQ(l.a_sees_b, bgp::Relationship::kCustomer);
    }
    if (l.a == as(1) && l.b == as(3)) {
      EXPECT_EQ(l.a_sees_b, bgp::Relationship::kPeer);  // default
    }
  }
}

// Parameterized sweep: every generator output must validate and be
// connected enough to emulate (degree >= 1 everywhere).
class GeneratorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeneratorSweep, CliquesValidateAtAllSizes) {
  const auto n = GetParam();
  const auto spec = clique(n);
  spec.validate();
  for (const auto asn : spec.ases) {
    EXPECT_EQ(spec.degree(asn), n - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 24, 32));

}  // namespace
}  // namespace bgpsdn::topology
