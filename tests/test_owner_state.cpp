// Owner state: every trainer's per-rank state blobs tile its exported
// block-major state, and both byte formats (the WPCKPT01 checkpoint file and
// the per-rank state blob) are pinned by golden checksums.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baselines/factory.hpp"
#include "core/checkpoint.hpp"
#include "core/weipipe_trainer.hpp"
#include "nn/microbatch.hpp"
#include "nn/model.hpp"

namespace weipipe {
namespace {

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.model.vocab_size = 32;
  cfg.model.dim = 16;
  cfg.model.n_layers = 4;
  cfg.model.n_heads = 2;
  cfg.model.seq_len = 8;
  cfg.num_microbatches = 8;
  cfg.microbatch_size = 1;
  cfg.seq_len = 8;
  cfg.seed = 77;
  return cfg;
}

// One trainer configuration: how to build it, how many ranks it has, and
// which blocks each shard index of one replica holds.
struct Variant {
  std::string label;
  std::int64_t world = 4;
  std::int64_t replicas = 1;
  std::unique_ptr<Trainer> (*make)(const std::string& label,
                                   const TrainConfig& cfg) = nullptr;
};

std::unique_ptr<Trainer> make_named(const std::string& label,
                                    const TrainConfig& cfg) {
  return make_trainer(label, cfg, 4);
}

std::unique_ptr<Trainer> make_weipipe_dp2(const std::string&,
                                          const TrainConfig& cfg) {
  return std::make_unique<WeiPipeTrainer>(cfg, 2,
                                          WeiPipeOptions{.dp_degree = 2});
}

std::unique_ptr<Trainer> make_weipipe_vocab(const std::string&,
                                            const TrainConfig& cfg) {
  return std::make_unique<WeiPipeTrainer>(
      cfg, 4, WeiPipeOptions{.replicate_vocab = true});
}

std::vector<Variant> variants() {
  std::vector<Variant> out;
  for (const std::string& name : trainer_names()) {
    out.push_back({name, 4, 1, make_named});
  }
  out.push_back({"weipipe-dp2", 4, 2, make_weipipe_dp2});
  out.push_back({"weipipe-vocab", 4, 1, make_weipipe_vocab});
  return out;
}

// Blocks of each shard index within one replica, derived from the model's
// chunking independently of the trainers.
std::vector<std::vector<std::int64_t>> shard_blocks(const Variant& v,
                                                    const Model& model) {
  std::vector<std::vector<std::int64_t>> out;
  if (v.label == "sequential") {
    for (std::int64_t b = 0; b < model.num_blocks(); ++b) {
      out.push_back({b});
    }
    return out;
  }
  const std::int64_t ring = v.world / v.replicas;
  const bool vocab = v.label == "weipipe-vocab";
  for (const ChunkSpec& c : vocab ? model.make_layer_chunks(ring)
                                  : model.make_chunks(ring)) {
    std::vector<std::int64_t>& blocks = out.emplace_back();
    for (std::int64_t b = c.begin; b < c.end; ++b) {
      blocks.push_back(b);
    }
  }
  if (vocab) {
    out.push_back({0, model.num_blocks() - 1});
  }
  return out;
}

struct Record {
  std::uint64_t index = 0;
  std::uint64_t step = 0;
  std::vector<float> params;
  std::vector<float> m;
  std::vector<float> v;
};

// Decodes the per-rank blob: [magic][count] then per record
// [index][n][step][params f32*n][m f32*n][v f32*n], u64s little-endian.
std::vector<Record> decode_blob(const std::vector<std::uint8_t>& blob) {
  std::size_t pos = 0;
  auto u64 = [&] {
    EXPECT_LE(pos + 8, blob.size());
    std::uint64_t x = 0;
    for (int i = 0; i < 8 && pos < blob.size(); ++i) {
      x |= static_cast<std::uint64_t>(blob[pos++]) << (8 * i);
    }
    return x;
  };
  auto floats = [&](std::uint64_t n) {
    std::vector<float> out(static_cast<std::size_t>(n));
    const std::size_t bytes = out.size() * sizeof(float);
    EXPECT_LE(pos + bytes, blob.size());
    if (pos + bytes <= blob.size() && bytes > 0) {
      std::memcpy(out.data(), blob.data() + pos, bytes);
    }
    pos += bytes;
    return out;
  };
  EXPECT_EQ(u64(), kRankStateMagic);
  const std::uint64_t count = u64();
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < count && pos < blob.size(); ++i) {
    Record& r = records.emplace_back();
    r.index = u64();
    const std::uint64_t n = u64();
    r.step = u64();
    r.params = floats(n);
    r.m = floats(n);
    r.v = floats(n);
  }
  EXPECT_EQ(records.size(), count);
  EXPECT_EQ(pos, blob.size());
  return records;
}

std::vector<float> concat(const std::vector<std::vector<float>>& per_block,
                          const std::vector<std::int64_t>& blocks) {
  std::vector<float> out;
  for (const std::int64_t b : blocks) {
    const auto& v = per_block[static_cast<std::size_t>(b)];
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(OwnerState, RankBlobsTileTheExportedState) {
  const TrainConfig cfg = tiny_config();
  const Model model(cfg.model);
  const SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  for (const Variant& v : variants()) {
    SCOPED_TRACE(v.label);
    std::unique_ptr<Trainer> t = v.make(v.label, cfg);
    (void)t->train_iteration(data, 0);  // non-zero moments, step 1
    const TrainerState state = t->export_state();
    ASSERT_EQ(state.step_count, 1);
    const auto layout = shard_blocks(v, model);
    std::vector<std::int64_t> covered(
        static_cast<std::size_t>(model.num_blocks()), 0);
    for (int r = 0; r < v.world; ++r) {
      const std::vector<Record> records =
          decode_blob(t->export_rank_state(r));
      if (v.label == "sequential") {
        ASSERT_EQ(records.size(), layout.size()) << "rank " << r;
      }
      std::uint64_t last_index = 0;
      for (std::size_t i = 0; i < records.size(); ++i) {
        const Record& rec = records[i];
        if (i > 0) {
          EXPECT_GT(rec.index, last_index) << "records in layout order";
        }
        last_index = rec.index;
        ASSERT_LT(rec.index, layout.size());
        const auto& blocks = layout[static_cast<std::size_t>(rec.index)];
        EXPECT_EQ(rec.step, 1u);
        EXPECT_TRUE(same_bytes(rec.params, concat(state.block_params, blocks)))
            << "rank " << r << " shard " << rec.index;
        EXPECT_TRUE(same_bytes(rec.m, concat(state.adam_m, blocks)))
            << "rank " << r << " shard " << rec.index;
        EXPECT_TRUE(same_bytes(rec.v, concat(state.adam_v, blocks)))
            << "rank " << r << " shard " << rec.index;
        for (const std::int64_t b : blocks) {
          ++covered[static_cast<std::size_t>(b)];
        }
      }
    }
    // Sequential: every rank holds every block. Sharded: each replica's
    // owners hold each block exactly once.
    const std::int64_t expect = v.label == "sequential" ? v.world : v.replicas;
    for (std::size_t b = 0; b < covered.size(); ++b) {
      EXPECT_EQ(covered[b], expect) << "block " << b;
    }
  }
}

// ---- golden checksums --------------------------------------------------------

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Exactly representable values (no libm), so the bytes are the same on any
// little-endian machine.
TrainerState synthetic_state(const Model& model) {
  TrainerState s;
  s.step_count = 7;
  for (std::int64_t b = 0; b < model.num_blocks(); ++b) {
    const auto n = static_cast<std::size_t>(model.block_param_count(b));
    const auto k = static_cast<std::size_t>(b);
    std::vector<float>& w = s.block_params.emplace_back(n);
    std::vector<float>& m = s.adam_m.emplace_back(n);
    std::vector<float>& v = s.adam_v.emplace_back(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = static_cast<float>((i + 3 * k) % 1024) * 0.5f;
      m[i] = static_cast<float>((i + 5 * k) % 512) * 0.25f;
      v[i] = static_cast<float>((i + 7 * k) % 256) * 0.125f;
    }
  }
  return s;
}

// fnv1a of export_rank_state(r) for r = 0..3, and of the checkpoint file,
// computed with the per-trainer state code that OwnerState replaced. The
// checkpoint file is the same for every trainer (block-major). At world 4
// the WeiPipe schedule owner of chunk c is rank c, so WeiPipe, 1F1B, GPipe
// and FSDP share one blob per rank.
constexpr std::uint64_t kGoldenCheckpoint = 0xbfa737b083f28253ull;
constexpr std::uint64_t kSequentialRanks[4] = {
    0x969cd01c76fe415aull, 0x969cd01c76fe415aull, 0x969cd01c76fe415aull,
    0x969cd01c76fe415aull};
constexpr std::uint64_t kChunkedRanks[4] = {
    0x0e4cb2f0525d990eull, 0xf4b61ac47cbf77a3ull, 0x379715fe71f2180cull,
    0x9d3af7d4a81df888ull};
constexpr std::uint64_t kDp2Ranks[4] = {
    0x6a1b3e997a3fbe7cull, 0x123d63b4f68b8348ull, 0x6a1b3e997a3fbe7cull,
    0x123d63b4f68b8348ull};
constexpr std::uint64_t kVocabRanks[4] = {
    0xfb8f5d6e6f1f7cafull, 0xf4b61ac47cbf77a3ull, 0x379715fe71f2180cull,
    0x76d2f853f93be60dull};

struct Golden {
  const char* label;
  const std::uint64_t* ranks;
};
constexpr Golden kGolden[] = {
    {"sequential", kSequentialRanks}, {"weipipe", kChunkedRanks},
    {"weipipe-interleave", kChunkedRanks}, {"weipipe-naive", kChunkedRanks},
    {"1f1b", kChunkedRanks},          {"gpipe", kChunkedRanks},
    {"fsdp", kChunkedRanks},          {"weipipe-dp2", kDp2Ranks},
    {"weipipe-vocab", kVocabRanks},
};

TEST(OwnerState, GoldenChecksumsPinBothByteFormats) {
  const TrainConfig cfg = tiny_config();
  const Model model(cfg.model);
  const TrainerState synthetic = synthetic_state(model);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("weipipe_owner_state_golden_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const std::vector<Variant> all = variants();
  ASSERT_EQ(all.size(), std::size(kGolden));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Variant& v = all[i];
    SCOPED_TRACE(v.label);
    ASSERT_EQ(v.label, kGolden[i].label);
    std::unique_ptr<Trainer> t = v.make(v.label, cfg);
    t->import_state(synthetic);
    save_checkpoint(path, t->export_state());
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> file(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(fnv1a(file.data(), file.size()), kGoldenCheckpoint);
    for (int r = 0; r < 4; ++r) {
      const std::vector<std::uint8_t> blob = t->export_rank_state(r);
      EXPECT_EQ(fnv1a(blob.data(), blob.size()), kGolden[i].ranks[r])
          << "rank " << r;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace weipipe
