#include "serve/stats.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace sugar::serve {

namespace {

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  return a > max - b ? max : a + b;
}

}  // namespace

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) {
  return std::min<std::size_t>(kBuckets - 1,
                               static_cast<std::size_t>(std::bit_width(ns)));
}

void LatencyHistogram::record(std::uint64_t ns) {
  counts_[bucket_of(ns)] = saturating_add(counts_[bucket_of(ns)], 1);
  total_ = saturating_add(total_, 1);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b)
    counts_[b] = saturating_add(counts_[b], other.counts_[b]);
  total_ = saturating_add(total_, other.total_);
}

void LatencyHistogram::restore(
    const std::array<std::uint64_t, kBuckets>& counts) {
  counts_ = counts;
  total_ = 0;
  for (std::uint64_t c : counts_) total_ = saturating_add(total_, c);
}

namespace {

/// Every counter field, in declaration order. One table drives merge,
/// snapshot serialization and the monotonicity check so a newly added
/// counter cannot be forgotten in any of them.
using CounterField = std::uint64_t ServeCounters::*;

constexpr CounterField kCounterFields[] = {
    &ServeCounters::packets_offered,
    &ServeCounters::packets_rejected,
    &ServeCounters::packets_processed,
    &ServeCounters::packets_malformed,
    &ServeCounters::packets_keyless,
    &ServeCounters::packets_shed_new_flow,
    &ServeCounters::flows_created,
    &ServeCounters::flows_rejected_full,
    &ServeCounters::evicted_idle,
    &ServeCounters::evicted_early,
    &ServeCounters::evicted_sampled,
    &ServeCounters::evicted_flush,
    &ServeCounters::classified_at_n,
    &ServeCounters::classified_on_evict,
    &ServeCounters::evicted_unclassified,
    &ServeCounters::verdicts_dropped,
    &ServeCounters::shed_stage_enters,
    &ServeCounters::shed_stage_exits,
    &ServeCounters::rounds,
    &ServeCounters::watchdog_stalls,
    &ServeCounters::watchdog_quarantines,
    &ServeCounters::watchdog_recoveries,
    &ServeCounters::watchdog_round_aborts,
    &ServeCounters::packets_requeued,
    &ServeCounters::fallback_classified,
};

}  // namespace

void ServeCounters::merge(const ServeCounters& other) {
  for (const auto& f : kCounterFields) this->*f += other.*f;
}

bool ServeCounters::monotone_le(const ServeCounters& later) const {
  for (const auto& f : kCounterFields)
    if (later.*f < this->*f) return false;
  return true;
}

std::vector<std::uint64_t> ServeCounters::to_values() const {
  std::vector<std::uint64_t> out;
  out.reserve(std::size(kCounterFields));
  for (const auto& f : kCounterFields) out.push_back(this->*f);
  return out;
}

bool ServeCounters::from_values(const std::vector<std::uint64_t>& values) {
  if (values.size() != std::size(kCounterFields)) return false;
  std::size_t i = 0;
  for (const auto& f : kCounterFields) this->*f = values[i++];
  return true;
}

}  // namespace sugar::serve
