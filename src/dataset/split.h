// Train/test splitting — the heart of the paper's critique. Per-packet
// splitting scatters packets of one flow across train and test (leaking
// implicit flow ids); per-flow splitting keeps each flow whole on one side.
// Both are implemented here, along with balanced/stratified sampling.
#pragma once

#include <cstdint>
#include <vector>

#include "dataset/task.h"

namespace sugar::dataset {

enum class SplitPolicy {
  PerPacket,  // random over packets — the flawed policy most prior work used
  PerFlow,    // random over flows — the paper's recommended policy
};

std::string to_string(SplitPolicy p);

struct SplitIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

struct SplitOptions {
  SplitPolicy policy = SplitPolicy::PerFlow;
  /// Fraction of each class's packets put in train (per-flow: as near as
  /// whole flows allow).
  double train_fraction = 0.875;  // the paper's 7:1
  std::uint64_t seed = 7;
};

/// Splits a dataset into train/test packet-index sets.
SplitIndices split_dataset(const PacketDataset& ds, const SplitOptions& opts);

/// The per-flow assignment behind split_dataset's PerFlow policy, over flow
/// sizes (packets per dense flow id) and labels alone, so a caller that
/// streams its packets can split them by the same rule. Returns true for
/// the flows that go to train. Long flows are spread evenly across the
/// partitions (paper §5: "we make sure that long flows are evenly
/// distributed"): the packet mass of each class's train side tracks
/// `train_fraction`. Empty flows go to test.
std::vector<bool> split_flows(const std::vector<std::size_t>& flow_sizes,
                              const std::vector<int>& flow_labels,
                              const SplitOptions& opts);

/// Balanced undersampling of the training set: each class is reduced to the
/// size of its minority class (the paper's few-shot-stressing train policy).
std::vector<std::size_t> balance_train(const PacketDataset& ds,
                                       const std::vector<std::size_t>& train,
                                       std::uint64_t seed);

/// Stratified subsample of a packet-index set that preserves class
/// proportions (the paper's recommended way to shrink a test set).
std::vector<std::size_t> stratified_sample(const PacketDataset& ds,
                                           const std::vector<std::size_t>& indices,
                                           double fraction, std::uint64_t seed);

/// Caps the number of packets retained per flow (paper: flows longer than
/// 1000 packets are subsampled to 1000).
std::vector<std::size_t> cap_flow_length(const PacketDataset& ds,
                                         const std::vector<std::size_t>& indices,
                                         std::size_t max_per_flow, std::uint64_t seed);

}  // namespace sugar::dataset
