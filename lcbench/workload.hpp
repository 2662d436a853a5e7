// Workloads of the long-context benchmark and the rank server that runs a
// trainer on behalf of the benchmark process, in this process or in a forked one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "nn/microbatch.hpp"
#include "obs/recorder.hpp"
#include "stats.hpp"

namespace lcbench {

struct Workload {
  std::string name;
  std::string strategy;  // make_trainer name of the trainer under test
  bool forked = false;   // one rank process per rank over shm
  int world = 4;
  weipipe::TrainConfig cfg;

  std::int64_t tokens_per_step() const {
    return cfg.num_microbatches * cfg.microbatch_size * cfg.seq_len;
  }
};

// `tiny` shrinks the model and sequence for the benchmark's self-tests; the
// strategy, transport, world and wire precisions stay those of the workload.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

// Runs one trainer and answers the benchmark's text commands:
//   "step <i>"   one train_iteration; replies with the step's counters
//   "trace on|off", "spans"   span recorder control and drain
//   "state <r>"  export_rank_state(r) bytes;  "params"  gathered fp32 bytes
//   "rss"        peak resident bytes of this process;  "nivcsw"
// `local_rank` >= 0 hosts only that rank over shm segment `shm_name`.
class RankServer {
 public:
  RankServer(const Workload& w, const std::string& strategy,
             const weipipe::Dataset& data, int local_rank,
             const std::string& shm_name);
  ~RankServer();

  RankServer(const RankServer&) = delete;
  RankServer& operator=(const RankServer&) = delete;

  std::string handle(const std::string& cmd);

 private:
  std::string step(std::int64_t iter);

  const weipipe::Dataset& data_;
  std::unique_ptr<weipipe::Trainer> trainer_;
  std::unique_ptr<weipipe::obs::Recorder> recorder_;
};

// Involuntary context switches of this process since it started.
std::int64_t self_nivcsw();
// Peak resident set (VmHWM) of this process, in bytes.
std::int64_t self_peak_rss_bytes();

}  // namespace lcbench
