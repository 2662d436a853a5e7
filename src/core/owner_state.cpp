#include "core/owner_state.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace weipipe {

namespace {

// Calls f(block, offset, count) for each block of `shard`, in buffer order.
template <typename F>
void for_each_block(const MasterShard& shard,
                    const std::vector<std::int64_t>& block_sizes, F&& f) {
  std::size_t off = 0;
  for (const std::int64_t b : shard.blocks) {
    const auto n = static_cast<std::size_t>(
        block_sizes[static_cast<std::size_t>(b)]);
    f(static_cast<std::size_t>(b), off, n);
    off += n;
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_floats(std::vector<std::uint8_t>& out, std::span<const float> v) {
  const std::size_t off = out.size();
  out.resize(off + v.size() * sizeof(float));
  if (!v.empty()) {
    std::memcpy(out.data() + off, v.data(), v.size() * sizeof(float));
  }
}

}  // namespace

std::vector<ShardSpec> chunk_layout(const std::vector<ChunkSpec>& chunks) {
  std::vector<ShardSpec> layout;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    ShardSpec& s = layout.emplace_back();
    for (std::int64_t b = chunks[c].begin; b < chunks[c].end; ++b) {
      s.blocks.push_back(b);
    }
    s.owner = static_cast<int>(c);
  }
  return layout;
}

OwnerState::OwnerState(const Model& model, const std::vector<ShardSpec>& layout,
                       std::uint64_t seed, std::int64_t replicas,
                       std::int64_t ranks_per_replica)
    : per_replica_(layout.size()), world_(replicas * ranks_per_replica) {
  WEIPIPE_CHECK(!layout.empty() && replicas >= 1);
  for (std::int64_t b = 0; b < model.num_blocks(); ++b) {
    block_sizes_.push_back(model.block_param_count(b));
  }
  std::vector<int> covered(block_sizes_.size(), 0);
  for (const ShardSpec& spec : layout) {
    for (const std::int64_t b : spec.blocks) {
      WEIPIPE_CHECK(b >= 0 && b < model.num_blocks());
      ++covered[static_cast<std::size_t>(b)];
    }
  }
  WEIPIPE_CHECK_MSG(
      std::all_of(covered.begin(), covered.end(),
                  [](int n) { return n == 1; }),
      "owner-state layout must cover every block exactly once");

  std::int64_t floats = 0;
  shards_.reserve(per_replica_ * static_cast<std::size_t>(replicas));
  for (std::int64_t d = 0; d < replicas; ++d) {
    for (const ShardSpec& spec : layout) {
      MasterShard& s = shards_.emplace_back();
      s.blocks = spec.blocks;
      s.rank = spec.owner == kEveryRank
                   ? kEveryRank
                   : static_cast<int>(d * ranks_per_replica + spec.owner);
      std::int64_t n = 0;
      for (const std::int64_t b : s.blocks) {
        n += block_sizes_[static_cast<std::size_t>(b)];
      }
      s.master.resize(static_cast<std::size_t>(n));
      model.init_params(s.blocks, seed, s.master);
      s.adam = AdamShard(n);
      floats += n;
    }
  }
  weights_charge_.set(obs::MemKind::kWeights, 4 * floats);
  adam_charge_.set(obs::MemKind::kOptimizer, 4 * 2 * floats);
}

MasterShard& OwnerState::shard(std::int64_t replica, std::int64_t index) {
  const std::size_t i =
      static_cast<std::size_t>(replica) * per_replica_ +
      static_cast<std::size_t>(index);
  WEIPIPE_CHECK(index >= 0 && static_cast<std::size_t>(index) < per_replica_ &&
                i < shards_.size());
  return shards_[i];
}

std::vector<std::vector<float>> OwnerState::gather_block_params() const {
  // Replicas are identical by construction; replica 0 speaks for all.
  std::vector<std::vector<float>> out(block_sizes_.size());
  for (std::size_t i = 0; i < per_replica_; ++i) {
    const MasterShard& s = shards_[i];
    for_each_block(s, block_sizes_, [&](std::size_t b, std::size_t off,
                                        std::size_t n) {
      out[b].assign(s.master.begin() + off, s.master.begin() + off + n);
    });
  }
  return out;
}

TrainerState OwnerState::export_state() const {
  TrainerState state;
  state.step_count = shards_.empty() ? 0 : shards_.front().adam.step_count();
  state.block_params = gather_block_params();
  state.adam_m.resize(block_sizes_.size());
  state.adam_v.resize(block_sizes_.size());
  for (std::size_t i = 0; i < per_replica_; ++i) {
    const MasterShard& s = shards_[i];
    const auto m = s.adam.first_moment();
    const auto v = s.adam.second_moment();
    for_each_block(s, block_sizes_, [&](std::size_t b, std::size_t off,
                                        std::size_t n) {
      state.adam_m[b].assign(m.begin() + off, m.begin() + off + n);
      state.adam_v[b].assign(v.begin() + off, v.begin() + off + n);
    });
  }
  return state;
}

void OwnerState::import_state(const TrainerState& state) {
  WEIPIPE_CHECK_MSG(state.block_params.size() == block_sizes_.size() &&
                        state.adam_m.size() == block_sizes_.size() &&
                        state.adam_v.size() == block_sizes_.size(),
                    "checkpoint has " << state.block_params.size()
                                      << " blocks, model has "
                                      << block_sizes_.size());
  for (std::size_t b = 0; b < block_sizes_.size(); ++b) {
    const auto n = static_cast<std::size_t>(block_sizes_[b]);
    WEIPIPE_CHECK_MSG(state.block_params[b].size() == n &&
                          state.adam_m[b].size() == n &&
                          state.adam_v[b].size() == n,
                      "checkpoint block "
                          << b << " size mismatch (different ModelConfig?)");
  }
  for (MasterShard& s : shards_) {
    std::vector<float> m(s.master.size());
    std::vector<float> v(s.master.size());
    for_each_block(s, block_sizes_, [&](std::size_t b, std::size_t off,
                                        std::size_t) {
      std::copy(state.block_params[b].begin(), state.block_params[b].end(),
                s.master.begin() + off);
      std::copy(state.adam_m[b].begin(), state.adam_m[b].end(),
                m.begin() + off);
      std::copy(state.adam_v[b].begin(), state.adam_v[b].end(),
                v.begin() + off);
    });
    s.adam.restore(std::move(m), std::move(v), state.step_count);
  }
}

std::vector<std::uint8_t> OwnerState::export_rank_state(int rank) const {
  const bool every_rank = shards_.front().rank == kEveryRank;
  WEIPIPE_CHECK_MSG(rank >= 0 && (every_rank || rank < world_),
                    "export_rank_state: rank " << rank << " of " << world_);
  std::vector<std::size_t> owned;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (every_rank || shards_[i].rank == rank) {
      owned.push_back(i);
    }
  }
  std::vector<std::uint8_t> blob;
  put_u64(blob, kRankStateMagic);
  put_u64(blob, owned.size());
  for (const std::size_t i : owned) {
    const MasterShard& s = shards_[i];
    put_u64(blob, i % per_replica_);
    put_u64(blob, s.master.size());
    put_u64(blob, static_cast<std::uint64_t>(s.adam.step_count()));
    put_floats(blob, s.master);
    put_floats(blob, s.adam.first_moment());
    put_floats(blob, s.adam.second_moment());
  }
  return blob;
}

}  // namespace weipipe
