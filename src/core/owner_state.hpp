// OwnerState: every fp32 master shard a trainer keeps, with its Adam state
// and its owning rank — the one place trainer state lives.
//
// In WeiPipe the owner of a chunk keeps its fp32 masters and optimizer state,
// and that state never travels (paper §4.2.1). Every strategy shares the
// shape: a trainer describes one replica's shards as a layout (the blocks of
// each flat buffer, in buffer order, and the rank within the replica that
// owns it), OwnerState builds `replicas` identical copies, and the trainer
// steps them in place. Everything derived from the state is written here once:
//  * gather_block_params — fp32 masters per model block;
//  * export_state / import_state — the block-major TrainerState behind the
//    WPCKPT01 checkpoint file and the rollback snapshot
//    (core/resilience.hpp); independent of sharding, so a state restores
//    into any strategy and world size;
//  * export_rank_state — the RankStateBlob bytes of the shards one rank owns,
//    which the forked differs memcmp across processes;
//  * the ledger charge for all masters (weights) and moments (optimizer).
#pragma once

#include <cstdint>
#include <vector>

#include "core/checkpoint.hpp"
#include "nn/adam.hpp"
#include "nn/model.hpp"
#include "obs/ledger.hpp"

namespace weipipe {

// Owner of a shard that every rank holds and updates (sequential training:
// each forked process runs the full model).
inline constexpr int kEveryRank = -1;

// One shard of a replica layout.
struct ShardSpec {
  std::vector<std::int64_t> blocks;  // model block indices, buffer order
  int owner = kEveryRank;            // rank within the replica
};

// Layout of one shard per chunk, chunk c owned by rank c.
std::vector<ShardSpec> chunk_layout(const std::vector<ChunkSpec>& chunks);

struct MasterShard {
  std::vector<std::int64_t> blocks;  // model block indices, buffer order
  int rank = kEveryRank;             // owning global rank
  std::vector<float> master;         // fp32 masters, blocks concatenated
  AdamShard adam;
};

// RankStateBlob layout (export_rank_state): [magic u64][record count u64]
// then per shard the rank owns, in layout order,
// [shard index u64][element count u64][step count u64]
// [params f32*n][adam_m f32*n][adam_v f32*n]. The shard index is the shard's
// position within its replica's layout. u64s little-endian, floats raw host
// bytes (the differ never crosses machines, only processes). The blob for
// rank r is byte-identical whether the trainer hosts the full world in one
// process or just rank r in a forked child.
inline constexpr std::uint64_t kRankStateMagic = 0x3153525057ull;  // "WPRS1"

class OwnerState {
 public:
  OwnerState() = default;
  // Builds `replicas` copies of `layout`; replica d's shard owned by rank o
  // lives on global rank d * ranks_per_replica + o. The layout must cover
  // every model block exactly once. Masters are initialized in place (block
  // b draws from Rng(seed).fork(b), as Model::init_block_params), moments
  // start at zero, and the whole state is charged to the ledger.
  OwnerState(const Model& model, const std::vector<ShardSpec>& layout,
             std::uint64_t seed, std::int64_t replicas = 1,
             std::int64_t ranks_per_replica = 1);

  // Shard `index` of replica `replica`'s layout. Only the owning rank's
  // thread touches a shard during an iteration.
  MasterShard& shard(std::int64_t replica, std::int64_t index);

  std::vector<std::vector<float>> gather_block_params() const;
  TrainerState export_state() const;
  // Overwrites every replica's shards in place; throws weipipe::Error if the
  // state does not fit the model.
  void import_state(const TrainerState& state);
  std::vector<std::uint8_t> export_rank_state(int rank) const;

 private:
  std::vector<std::int64_t> block_sizes_;  // parameter count per block
  std::vector<MasterShard> shards_;        // replica-major
  std::size_t per_replica_ = 0;
  std::int64_t world_ = 0;  // owning ranks across all replicas
  obs::MemCharge weights_charge_;
  obs::MemCharge adam_charge_;
};

}  // namespace weipipe
