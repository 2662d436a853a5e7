#include "core/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "common/check.hpp"

namespace weipipe {

namespace {

constexpr char kMagic[8] = {'W', 'P', 'C', 'K', 'P', 'T', '0', '1'};

void write_i64(std::ofstream& out, std::int64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_floats(std::ofstream& out, const std::vector<float>& v) {
  write_i64(out, static_cast<std::int64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
}

std::int64_t read_i64(std::ifstream& in) {
  std::int64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  WEIPIPE_CHECK_MSG(in.good(), "checkpoint truncated");
  return v;
}

std::vector<float> read_floats(std::ifstream& in) {
  const std::int64_t n = read_i64(in);
  WEIPIPE_CHECK_MSG(n >= 0 && n < (1ll << 40), "corrupt checkpoint length");
  std::vector<float> v(static_cast<std::size_t>(n));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(float)));
  WEIPIPE_CHECK_MSG(in.good(), "checkpoint truncated");
  return v;
}

}  // namespace

void save_checkpoint(const std::string& path, const TrainerState& state) {
  WEIPIPE_CHECK(state.block_params.size() == state.adam_m.size());
  WEIPIPE_CHECK(state.block_params.size() == state.adam_v.size());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  WEIPIPE_CHECK_MSG(out.is_open(), "cannot open '" << path << "' for write");
  out.write(kMagic, sizeof(kMagic));
  write_i64(out, state.step_count);
  write_i64(out, static_cast<std::int64_t>(state.block_params.size()));
  for (std::size_t b = 0; b < state.block_params.size(); ++b) {
    write_floats(out, state.block_params[b]);
    write_floats(out, state.adam_m[b]);
    write_floats(out, state.adam_v[b]);
  }
  out.flush();
  WEIPIPE_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

TrainerState load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  WEIPIPE_CHECK_MSG(in.is_open(), "cannot open '" << path << "'");
  char magic[8];
  in.read(magic, sizeof(magic));
  WEIPIPE_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, 8) == 0,
                    "'" << path << "' is not a weipipe checkpoint");
  TrainerState state;
  state.step_count = read_i64(in);
  const std::int64_t blocks = read_i64(in);
  WEIPIPE_CHECK_MSG(blocks >= 0 && blocks < (1 << 20),
                    "corrupt checkpoint block count");
  for (std::int64_t b = 0; b < blocks; ++b) {
    state.block_params.push_back(read_floats(in));
    state.adam_m.push_back(read_floats(in));
    state.adam_v.push_back(read_floats(in));
    WEIPIPE_CHECK_MSG(
        state.adam_m.back().size() == state.block_params.back().size() &&
            state.adam_v.back().size() == state.block_params.back().size(),
        "checkpoint block " << b << " has inconsistent sizes");
  }
  return state;
}

}  // namespace weipipe
