#include "dataset/split.h"

#include "core/trace.h"

#include <algorithm>
#include <random>
#include <unordered_map>

namespace sugar::dataset {

std::string to_string(SplitPolicy p) {
  return p == SplitPolicy::PerPacket ? "per-packet" : "per-flow";
}

std::vector<bool> split_flows(const std::vector<std::size_t>& flow_sizes,
                              const std::vector<int>& flow_labels,
                              const SplitOptions& opts) {
  // Flows are shuffled within their class, then dealt largest-first by a
  // greedy that puts each flow on the side whose packet mass is furthest
  // below its target, so long flows spread evenly over both partitions.
  std::mt19937_64 rng(opts.seed);
  std::unordered_map<int, std::vector<std::size_t>> flows_by_class;
  for (std::size_t f = 0; f < flow_sizes.size(); ++f)
    if (flow_sizes[f] > 0) flows_by_class[flow_labels[f]].push_back(f);

  std::vector<bool> train(flow_sizes.size(), false);
  for (auto& [cls, fidx] : flows_by_class) {
    std::shuffle(fidx.begin(), fidx.end(), rng);
    std::stable_sort(fidx.begin(), fidx.end(), [&](std::size_t a, std::size_t b) {
      return flow_sizes[a] > flow_sizes[b];
    });
    std::size_t total = 0;
    for (std::size_t f : fidx) total += flow_sizes[f];
    const double target_train = opts.train_fraction * static_cast<double>(total);
    std::size_t in_train = 0, assigned = 0;
    for (std::size_t f : fidx) {
      const double want_train = target_train - static_cast<double>(in_train);
      const double want_test = (static_cast<double>(total) - target_train) -
                               static_cast<double>(assigned - in_train);
      train[f] = want_train >= want_test;
      if (train[f]) in_train += flow_sizes[f];
      assigned += flow_sizes[f];
    }
  }
  return train;
}

SplitIndices split_dataset(const PacketDataset& ds, const SplitOptions& opts) {
  SUGAR_TRACE_SPAN("dataset.split");
  SplitIndices out;

  if (opts.policy == SplitPolicy::PerPacket) {
    // Random split of each class's packets — flows straddle the boundary.
    std::mt19937_64 rng(opts.seed);
    std::unordered_map<int, std::vector<std::size_t>> by_class;
    for (std::size_t i = 0; i < ds.size(); ++i) by_class[ds.label[i]].push_back(i);
    for (auto& [cls, idx] : by_class) {
      std::shuffle(idx.begin(), idx.end(), rng);
      std::size_t n_train =
          static_cast<std::size_t>(opts.train_fraction * static_cast<double>(idx.size()));
      for (std::size_t i = 0; i < idx.size(); ++i)
        (i < n_train ? out.train : out.test).push_back(idx[i]);
    }
  } else {
    const auto flows = ds.flows();
    std::vector<std::size_t> sizes(flows.size());
    for (std::size_t f = 0; f < flows.size(); ++f) sizes[f] = flows[f].size();
    const std::vector<bool> train = split_flows(sizes, ds.flow_labels(), opts);
    for (std::size_t f = 0; f < flows.size(); ++f)
      for (std::size_t p : flows[f]) (train[f] ? out.train : out.test).push_back(p);
  }
  std::sort(out.train.begin(), out.train.end());
  std::sort(out.test.begin(), out.test.end());
  return out;
}

std::vector<std::size_t> balance_train(const PacketDataset& ds,
                                       const std::vector<std::size_t>& train,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::unordered_map<int, std::vector<std::size_t>> by_class;
  for (std::size_t i : train) by_class[ds.label[i]].push_back(i);
  if (by_class.empty()) return {};
  std::size_t minority = SIZE_MAX;
  for (const auto& [cls, idx] : by_class) minority = std::min(minority, idx.size());

  std::vector<std::size_t> out;
  out.reserve(minority * by_class.size());
  for (auto& [cls, idx] : by_class) {
    std::shuffle(idx.begin(), idx.end(), rng);
    out.insert(out.end(), idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(minority));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> stratified_sample(const PacketDataset& ds,
                                           const std::vector<std::size_t>& indices,
                                           double fraction, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::unordered_map<int, std::vector<std::size_t>> by_class;
  for (std::size_t i : indices) by_class[ds.label[i]].push_back(i);
  std::vector<std::size_t> out;
  for (auto& [cls, idx] : by_class) {
    std::shuffle(idx.begin(), idx.end(), rng);
    std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(fraction * static_cast<double>(idx.size())));
    out.insert(out.end(), idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(std::min(n, idx.size())));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> cap_flow_length(const PacketDataset& ds,
                                         const std::vector<std::size_t>& indices,
                                         std::size_t max_per_flow, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::unordered_map<int, std::vector<std::size_t>> by_flow;
  for (std::size_t i : indices) by_flow[ds.flow_id[i]].push_back(i);
  std::vector<std::size_t> out;
  for (auto& [f, idx] : by_flow) {
    if (idx.size() > max_per_flow) {
      std::shuffle(idx.begin(), idx.end(), rng);
      idx.resize(max_per_flow);
    }
    out.insert(out.end(), idx.begin(), idx.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sugar::dataset
