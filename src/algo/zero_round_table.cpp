#include "algo/zero_round_table.hpp"

#include <bit>
#include <stdexcept>

namespace dmm::algo {

namespace {

std::vector<Colour> mask_colours(int k, unsigned mask) {
  std::vector<Colour> out;
  for (int c = 1; c <= k; ++c) {
    if (mask & (1u << (c - 1))) out.push_back(c);
  }
  return out;
}

}  // namespace

ZeroRoundTable::ZeroRoundTable(int k, std::vector<Colour> table)
    : k_(k), table_(std::move(table)) {
  if (k < 1 || k > 16) throw std::invalid_argument("ZeroRoundTable: k out of range");
  if (table_.size() != (1u << k)) throw std::invalid_argument("ZeroRoundTable: table size");
  for (unsigned mask = 0; mask < table_.size(); ++mask) {
    const Colour out = table_[mask];
    if (out == local::kUnmatched) continue;
    if (out > k_ || !(mask & (1u << (out - 1)))) {
      throw std::invalid_argument("ZeroRoundTable: entry violates (M1)");
    }
  }
}

Colour ZeroRoundTable::evaluate(const colsys::ColourSystem& view) const {
  unsigned mask = 0;
  for (Colour c : view.colours_at(colsys::ColourSystem::root())) {
    mask |= 1u << (c - 1);
  }
  return table_[mask];
}

std::string ZeroRoundTable::name() const {
  std::string out = "table0(k=" + std::to_string(k_) + ";";
  for (unsigned mask = 0; mask < table_.size(); ++mask) {
    out += std::to_string(static_cast<int>(table_[mask]));
    if (mask + 1 < table_.size()) out += ",";
  }
  return out + ")";
}

std::uint64_t zero_round_algorithm_count(int k) {
  if (k < 1 || k > 5) {
    throw std::invalid_argument("zero_round_algorithm_count: enumeration sensible for k <= 5");
  }
  std::uint64_t count = 1;
  for (unsigned mask = 0; mask < (1u << k); ++mask) {
    count *= static_cast<std::uint64_t>(std::popcount(mask)) + 1;
  }
  return count;
}

ZeroRoundTable make_zero_round_algorithm(int k, std::uint64_t index) {
  std::vector<Colour> table(1u << k, local::kUnmatched);
  for (unsigned mask = 0; mask < (1u << k); ++mask) {
    const std::uint64_t radix = static_cast<std::uint64_t>(std::popcount(mask)) + 1;
    const std::uint64_t digit = index % radix;
    index /= radix;
    if (digit > 0) {
      table[mask] = mask_colours(k, mask)[digit - 1];
    }
  }
  return ZeroRoundTable(k, std::move(table));
}

}  // namespace dmm::algo
