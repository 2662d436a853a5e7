// Checkpointing: full trainer state (fp32 master weights + Adam moments +
// step counter) in a self-describing binary format.
//
// State is expressed block-major (one entry per model block), the common
// currency of every trainer; OwnerState (core/owner_state.hpp) maps it
// to/from each trainer's shards, so a checkpoint written by WeiPipe on 4
// workers restores into a sequential trainer — or an 8-worker ring — exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace weipipe {

struct TrainerState {
  std::int64_t step_count = 0;                   // optimizer steps taken
  std::vector<std::vector<float>> block_params;  // fp32 masters per block
  std::vector<std::vector<float>> adam_m;        // first moments per block
  std::vector<std::vector<float>> adam_v;        // second moments per block
};

// Binary serialization ("WPCKPT01" magic, little-endian int64 sizes).
// Throws weipipe::Error on I/O failure, bad magic, or truncation.
void save_checkpoint(const std::string& path, const TrainerState& state);
TrainerState load_checkpoint(const std::string& path);

}  // namespace weipipe
