#include "mem/address_space.hpp"

#include "sim/contracts.hpp"

namespace mkos::mem {

namespace {
// Virtual layout constants; only relative arithmetic matters to the models.
constexpr sim::Bytes kMmapBase = 0x7f0000000000ULL;
}  // namespace

void Placement::add(hw::DomainId domain, PageSize page, sim::Bytes bytes) {
  MKOS_EXPECTS(domain >= 0 && domain < hw::kMaxDomains);
  if (bytes == 0) return;
  const std::size_t s =
      static_cast<std::size_t>(domain) * kPageSizes + static_cast<std::size_t>(page);
  if (bytes_[s] == 0) order_[chunk_count_++] = static_cast<std::uint8_t>(s);
  bytes_[s] += bytes;
  by_page_[static_cast<std::size_t>(page)] += bytes;
  total_ += bytes;
}

void Placement::clear() { *this = Placement{}; }

AddressSpace::AddressSpace() : mmap_cursor_(kMmapBase) {}

Vma& AddressSpace::map(sim::Bytes length, VmaKind kind, MemPolicy policy) {
  MKOS_EXPECTS(length > 0);
  const sim::Bytes len = sim::align_up(length, 4 * sim::KiB);
  Vma vma;
  vma.start = mmap_cursor_;
  vma.length = len;
  vma.kind = kind;
  vma.policy = std::move(policy);
  // Leave a guard gap so adjacent mappings never merge accidentally.
  mmap_cursor_ += len + 64 * sim::KiB;
  // The cursor is strictly increasing, so insertion is always at the end.
  const std::size_t before = vmas_.size();
  auto it = vmas_.emplace_hint(vmas_.end(), vma.start, std::move(vma));
  MKOS_ENSURES(vmas_.size() == before + 1);
  return it->second;
}

std::optional<Vma> AddressSpace::unmap(sim::Bytes start) {
  auto it = vmas_.find(start);
  if (it == vmas_.end()) return std::nullopt;
  Vma out = std::move(it->second);
  vmas_.erase(it);
  return out;
}

Vma* AddressSpace::find(sim::Bytes addr) {
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) return nullptr;
  --it;
  Vma& v = it->second;
  return addr >= v.start && addr < v.end() ? &v : nullptr;
}

const Vma* AddressSpace::find(sim::Bytes addr) const {
  return const_cast<AddressSpace*>(this)->find(addr);
}

sim::Bytes AddressSpace::resident_bytes() const {
  sim::Bytes b = 0;
  for (const auto& [s, v] : vmas_) b += v.backed();
  return b;
}

sim::Bytes AddressSpace::mapped_bytes() const {
  sim::Bytes b = 0;
  for (const auto& [s, v] : vmas_) b += v.length;
  return b;
}

sim::Bytes AddressSpace::resident_in_kind(const hw::NodeTopology& topo,
                                          hw::MemKind kind) const {
  sim::Bytes b = 0;
  for (const auto& [s, v] : vmas_) b += v.placement.bytes_in_kind(topo, kind);
  return b;
}

double AddressSpace::resident_fraction_in_kind(const hw::NodeTopology& topo,
                                               hw::MemKind kind) const {
  const sim::Bytes res = resident_bytes();
  if (res == 0) return 0.0;
  return static_cast<double>(resident_in_kind(topo, kind)) / static_cast<double>(res);
}

std::uint64_t AddressSpace::total_faults() const {
  std::uint64_t n = 0;
  for (const auto& [s, v] : vmas_) n += v.fault_count;
  return n;
}

}  // namespace mkos::mem
