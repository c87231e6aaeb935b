#include "bgp/path_attributes.hpp"

namespace bgpsdn::bgp {

const char* to_string(Origin o) {
  switch (o) {
    case Origin::kIgp: return "IGP";
    case Origin::kEgp: return "EGP";
    case Origin::kIncomplete: return "INCOMPLETE";
  }
  return "?";
}

const char* to_string(Relationship r) {
  switch (r) {
    case Relationship::kCustomer: return "customer";
    case Relationship::kPeer: return "peer";
    case Relationship::kProvider: return "provider";
  }
  return "?";
}

AsPath AsPath::prepend(core::AsNumber as) const {
  std::vector<core::AsNumber> hops;
  hops.reserve(hops_.size() + 1);
  hops.push_back(as);
  hops.insert(hops.end(), hops_.begin(), hops_.end());
  return AsPath{std::move(hops)};
}

bool AsPath::contains(core::AsNumber as) const {
  for (const auto h : hops_) {
    if (h == as) return true;
  }
  return false;
}

std::optional<core::AsNumber> AsPath::first() const {
  if (hops_.empty()) return std::nullopt;
  return hops_.front();
}

std::optional<core::AsNumber> AsPath::origin_as() const {
  if (hops_.empty()) return std::nullopt;
  return hops_.back();
}

void AsPath::append_to(std::string& out) const {
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    if (i > 0) out += ' ';
    core::append_decimal(out, hops_[i].value());
  }
}

std::string AsPath::to_string() const { return core::text_of(*this); }

void PathAttributes::append_to(std::string& out) const {
  out += "path=[";
  as_path.append_to(out);
  out += "] nh=";
  next_hop.append_to(out);
  out += " origin=";
  out += bgpsdn::bgp::to_string(origin);
  if (local_pref) {
    out += " lp=";
    core::append_decimal(out, *local_pref);
  }
  if (med) {
    out += " med=";
    core::append_decimal(out, *med);
  }
}

std::string PathAttributes::to_string() const { return core::text_of(*this); }

}  // namespace bgpsdn::bgp
