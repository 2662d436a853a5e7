#include "workload.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "baselines/factory.hpp"
#include "comm/fabric.hpp"
#include "comm/transport.hpp"
#include "common/thread_pool.hpp"
#include "core/accounting.hpp"
#include "obs/blackbox.hpp"

namespace lcbench {

using namespace weipipe;

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  TrainConfig& c = w.cfg;
  c.model.vocab_size = 256;
  c.model.n_heads = 4;
  c.model.n_layers = 4;
  c.microbatch_size = 1;
  c.num_microbatches = 8;
  c.seed = seed;
  if (name == "longctx-inproc" || name == "longctx-1f1b") {
    w.strategy = name == "longctx-inproc" ? "weipipe" : "1f1b";
    c.model.dim = 64;
    c.seq_len = 512;
  } else if (name == "wide-shm") {
    w.strategy = "weipipe";
    w.forked = true;
    c.model.dim = 256;
    c.seq_len = 32;
    c.precision.weights = WirePrecision::Fp16;
    c.precision.weight_grads = WirePrecision::Fp16;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (tiny) {
    c.model.dim = 32;
    c.seq_len = 32;
  }
  c.model.seq_len = c.seq_len;
  c.validate();
  return w;
}

std::int64_t self_nivcsw() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

std::int64_t self_peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoll(line.substr(6)) * 1024;  // "VmHWM:  1234 kB"
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

RankServer::RankServer(const Workload& w, const std::string& strategy,
                       const Dataset& data, int local_rank,
                       const std::string& shm_name)
    : data_(data) {
  if (local_rank >= 0) {
    obs::reset_blackbox_after_fork();
    obs::set_process_rank(local_rank);
    comm::TransportSpec spec;
    spec.kind = comm::TransportKind::kShm;
    spec.local_rank = local_rank;
    spec.shm_name = shm_name;
    comm::set_default_transport_spec(spec);
  }
  trainer_ = make_trainer(strategy, w.cfg, w.world);
}

RankServer::~RankServer() {
  if (recorder_) {
    recorder_->uninstall();
  }
}

std::string RankServer::step(std::int64_t iter) {
  comm::Fabric* fab = trainer_->fabric();
  const ThreadPoolStats p0 = ThreadPool::global().stats();
  const comm::RingStats r0 = fab ? fab->ring_stats() : comm::RingStats{};
  const IterationResult res = trainer_->train_iteration(data_, iter);
  const ThreadPoolStats p1 = ThreadPool::global().stats();
  const comm::RingStats r1 = fab ? fab->ring_stats() : comm::RingStats{};

  std::uint32_t loss_bits = 0;
  std::memcpy(&loss_bits, &res.mean_loss, sizeof loss_bits);
  std::ostringstream o;
  o << "{\"loss_bits\":" << loss_bits << ",\"bytes\":" << res.wire_bytes
    << ",\"msgs\":" << res.wire_messages
    << ",\"spins\":" << r1.spins - r0.spins
    << ",\"parks\":" << r1.parks - r0.parks
    << ",\"notifies\":" << r1.notifies - r0.notifies
    << ",\"dispatches\":" << p1.dispatches - p0.dispatches
    << ",\"serial_runs\":" << p1.serial_runs - p0.serial_runs
    << ",\"chunks\":" << p1.chunks - p0.chunks
    << ",\"steals\":" << p1.steals - p0.steals << ",\"kinds\":{";
  if (fab) {
    bool first = true;
    for (const auto& [kind, kv] : acct::measured_kind_volumes(*fab)) {
      o << (first ? "" : ",") << '"' << static_cast<int>(kind) << "\":["
        << kv.bytes << ',' << kv.messages << ']';
      first = false;
    }
  }
  o << "}}";
  return o.str();
}

std::string RankServer::handle(const std::string& cmd) {
  std::istringstream in(cmd);
  std::string op;
  in >> op;
  if (op == "step") {
    std::int64_t iter = -1;
    in >> iter;
    return step(iter);
  }
  if (op == "trace") {
    std::string mode;
    in >> mode;
    if (mode == "on" && !recorder_) {
      recorder_ = std::make_unique<obs::Recorder>();
      recorder_->install();
    } else if (mode == "off" && recorder_) {
      recorder_->uninstall();
      recorder_.reset();
    }
    return "ok";
  }
  if (op == "spans") {
    if (!recorder_) {
      throw std::runtime_error("spans requested while not tracing");
    }
    const std::vector<obs::Span> spans = recorder_->drain();
    return "{\"dropped\":" + std::to_string(recorder_->dropped()) +
           ",\"spans\":" + obs::spans_to_json(spans) + "}";
  }
  if (op == "state") {
    int rank = -1;
    in >> rank;
    const std::vector<std::uint8_t> blob = trainer_->export_rank_state(rank);
    return std::string(blob.begin(), blob.end());
  }
  if (op == "params") {
    std::string out;
    for (const std::vector<float>& block : trainer_->gather_block_params()) {
      out.append(reinterpret_cast<const char*>(block.data()),
                 block.size() * sizeof(float));
    }
    return out;
  }
  if (op == "rss") {
    return std::to_string(self_peak_rss_bytes());
  }
  if (op == "nivcsw") {
    return std::to_string(self_nivcsw());
  }
  throw std::invalid_argument("unknown command '" + cmd + "'");
}

}  // namespace lcbench
