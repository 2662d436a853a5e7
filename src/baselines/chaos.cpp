#include "baselines/chaos.hpp"

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "baselines/factory.hpp"
#include "comm/fabric.hpp"
#include "common/check.hpp"
#include "core/resilience.hpp"
#include "nn/microbatch.hpp"

namespace weipipe::chaos {

namespace {

struct RunOutcome {
  std::vector<std::vector<float>> weights;
  std::vector<std::uint8_t> rank_state;  // capture_rank_state >= 0 only
  float final_loss = 0.0f;
  int recoveries = 0;
};

RunOutcome run_once(const ChaosConfig& config, const comm::FaultPlan* plan) {
  std::unique_ptr<Trainer> trainer =
      make_trainer(config.strategy, config.train, config.world_size);
  comm::Fabric* fabric = trainer->fabric();
  if (fabric != nullptr && config.recv_timeout.count() > 0) {
    fabric->set_recv_timeout(config.recv_timeout);
  }
  if (plan != nullptr && !plan->empty() && fabric != nullptr) {
    fabric->install_fault_plan(*plan);
  }
  const SyntheticDataset data(config.train.model.vocab_size,
                              config.train.seed);
  RunOutcome out;
  const RecoveryOptions recovery{config.max_recovery_attempts};
  for (std::int64_t iter = 0; iter < config.iterations; ++iter) {
    const RecoveryResult r =
        train_iteration_with_recovery(*trainer, data, iter, recovery);
    out.final_loss = r.result.mean_loss;
    out.recoveries += r.recoveries;
  }
  out.weights = trainer->gather_block_params();
  if (config.capture_rank_state >= 0) {
    out.rank_state = trainer->export_rank_state(config.capture_rank_state);
  }
  return out;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> run_clean_rank_states(
    const ChaosConfig& config) {
  config.train.validate();
  std::unique_ptr<Trainer> trainer =
      make_trainer(config.strategy, config.train, config.world_size);
  const SyntheticDataset data(config.train.model.vocab_size,
                              config.train.seed);
  for (std::int64_t iter = 0; iter < config.iterations; ++iter) {
    trainer->train_iteration(data, iter);
  }
  std::vector<std::vector<std::uint8_t>> states;
  states.reserve(static_cast<std::size_t>(config.world_size));
  for (int r = 0; r < config.world_size; ++r) {
    states.push_back(trainer->export_rank_state(r));
  }
  return states;
}

ChaosReport run_chaos(const ChaosConfig& config) {
  config.train.validate();
  ChaosReport report;
  report.strategy = config.strategy;
  report.spec = comm::to_spec(config.plan);
  report.seed = config.plan.seed;

  const RunOutcome clean = run_once(config, nullptr);
  report.clean_loss = clean.final_loss;
  report.blocks = clean.weights.size();
  report.clean_rank_state = std::move(clean.rank_state);

  // The chaos run is inlined (not run_once) so fault stats and the event log
  // can be harvested from the fabric before the trainer is destroyed — also
  // when an iteration fails.
  std::unique_ptr<Trainer> trainer =
      make_trainer(config.strategy, config.train, config.world_size);
  comm::Fabric* fabric = trainer->fabric();
  if (fabric != nullptr && config.recv_timeout.count() > 0) {
    fabric->set_recv_timeout(config.recv_timeout);
  }
  if (!config.plan.empty() && fabric != nullptr) {
    fabric->install_fault_plan(config.plan);
  }
  const SyntheticDataset data(config.train.model.vocab_size,
                              config.train.seed);
  std::vector<std::vector<float>> chaos_weights;
  try {
    const RecoveryOptions recovery{config.max_recovery_attempts};
    for (std::int64_t iter = 0; iter < config.iterations; ++iter) {
      const RecoveryResult r =
          train_iteration_with_recovery(*trainer, data, iter, recovery);
      report.chaos_loss = r.result.mean_loss;
      report.recoveries += r.recoveries;
    }
    chaos_weights = trainer->gather_block_params();
    if (config.capture_rank_state >= 0) {
      report.chaos_rank_state =
          trainer->export_rank_state(config.capture_rank_state);
    }
    report.completed = true;
  } catch (const comm::CommError& e) {
    report.error = e.what();
    report.timed_out = e.info().kind == comm::CommErrorKind::kRecvTimeout;
  } catch (const Error& e) {
    report.error = e.what();
  }
  if (fabric != nullptr) {
    report.fault_stats = fabric->fault_stats();
    report.events = fabric->fault_events();
  }
  if (!report.completed) {
    return report;
  }

  WEIPIPE_CHECK_MSG(chaos_weights.size() == clean.weights.size(),
                    "chaos run produced " << chaos_weights.size()
                                          << " blocks, clean run "
                                          << clean.weights.size());
  report.bitwise_equal = true;
  bool have_first = false;
  for (std::size_t b = 0; b < clean.weights.size(); ++b) {
    const std::vector<float>& cw = clean.weights[b];
    const std::vector<float>& xw = chaos_weights[b];
    WEIPIPE_CHECK_MSG(cw.size() == xw.size(),
                      "block " << b << " size mismatch: " << cw.size()
                               << " vs " << xw.size());
    if (cw.empty() ||
        std::memcmp(cw.data(), xw.data(), cw.size() * sizeof(float)) == 0) {
      continue;
    }
    report.bitwise_equal = false;
    ++report.mismatched_blocks;
    for (std::size_t i = 0; i < cw.size(); ++i) {
      const double diff = std::abs(static_cast<double>(cw[i]) -
                                   static_cast<double>(xw[i]));
      if (diff > report.max_abs_diff) {
        report.max_abs_diff = diff;
      }
      if (!have_first &&
          std::memcmp(&cw[i], &xw[i], sizeof(float)) != 0) {
        have_first = true;
        report.first_diff = FirstDiff{b, i, cw[i], xw[i]};
      }
    }
  }
  return report;
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kEqual: return "equal";
    case Verdict::kDiverged: return "diverged";
    case Verdict::kTimedOut: return "timed out";
    case Verdict::kCrashed: return "crashed";
  }
  return "?";
}

Verdict verdict(const ChaosReport& report) {
  if (!report.completed) {
    return report.timed_out ? Verdict::kTimedOut : Verdict::kCrashed;
  }
  return report.bitwise_equal ? Verdict::kEqual : Verdict::kDiverged;
}

std::string report_to_json(const ChaosReport& report) {
  std::ostringstream oss;
  oss << "{\n";
  oss << "  \"strategy\": \"" << report.strategy << "\",\n";
  oss << "  \"faults\": \"" << report.spec << "\",\n";
  oss << "  \"seed\": " << report.seed << ",\n";
  oss << "  \"ok\": " << (report.ok() ? "true" : "false") << ",\n";
  oss << "  \"verdict\": \"" << to_string(verdict(report)) << "\",\n";
  oss << "  \"completed\": " << (report.completed ? "true" : "false")
      << ",\n";
  oss << "  \"bitwise_equal\": " << (report.bitwise_equal ? "true" : "false")
      << ",\n";
  if (!report.error.empty()) {
    std::string escaped;
    for (char c : report.error) {
      if (c == '"' || c == '\\') {
        escaped.push_back('\\');
      }
      escaped.push_back(c == '\n' ? ' ' : c);
    }
    oss << "  \"error\": \"" << escaped << "\",\n";
  }
  oss << "  \"blocks\": " << report.blocks << ",\n";
  oss << "  \"mismatched_blocks\": " << report.mismatched_blocks << ",\n";
  oss << "  \"max_abs_diff\": " << report.max_abs_diff << ",\n";
  if (report.completed && !report.bitwise_equal) {
    oss << "  \"first_diff\": {\"block\": " << report.first_diff.block
        << ", \"index\": " << report.first_diff.index
        << ", \"clean\": " << report.first_diff.clean
        << ", \"chaos\": " << report.first_diff.chaos << "},\n";
  }
  oss << "  \"clean_loss\": " << report.clean_loss << ",\n";
  oss << "  \"chaos_loss\": " << report.chaos_loss << ",\n";
  oss << "  \"recoveries\": " << report.recoveries << ",\n";
  const comm::FaultStats& fs = report.fault_stats;
  oss << "  \"fault_stats\": {\"delays\": " << fs.delays
      << ", \"drops\": " << fs.drops << ", \"retries\": " << fs.retries
      << ", \"duplicates\": " << fs.duplicates
      << ", \"duplicates_discarded\": " << fs.duplicates_discarded
      << ", \"reorders\": " << fs.reorders << ", \"stalls\": " << fs.stalls
      << ", \"recoveries\": " << fs.recoveries << "},\n";
  oss << "  \"events\": " << comm::fault_events_to_json(report.events);
  oss << "}\n";
  return oss.str();
}

void fill_fault_metrics(obs::Registry& registry,
                        const comm::FaultStats& stats) {
  registry.counter("fault.delays").add(stats.delays);
  registry.counter("fault.drops").add(stats.drops);
  registry.counter("fault.retries").add(stats.retries);
  registry.counter("fault.duplicates").add(stats.duplicates);
  registry.counter("fault.duplicates_discarded")
      .add(stats.duplicates_discarded);
  registry.counter("fault.reorders").add(stats.reorders);
  registry.counter("fault.stalls").add(stats.stalls);
  registry.counter("fault.recoveries").add(stats.recoveries);
}

}  // namespace weipipe::chaos
