// Chaos/differential harness: golden determinism of clean runs, bitwise
// equivalence of every trainer strategy under every fault class, fault-event
// log determinism, step-boundary stall recovery, and the mutation test that
// proves the differ actually detects broken gradient dedup.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/chaos.hpp"
#include "baselines/factory.hpp"
#include "comm/fabric.hpp"
#include "comm/fault.hpp"
#include "core/accounting.hpp"
#include "core/resilience.hpp"
#include "core/weipipe_trainer.hpp"
#include "nn/microbatch.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"

namespace weipipe {
namespace {

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.model.vocab_size = 32;
  cfg.model.dim = 16;
  cfg.model.n_layers = 4;
  cfg.model.n_heads = 2;
  cfg.model.seq_len = 8;
  cfg.num_microbatches = 4;
  cfg.microbatch_size = 1;
  cfg.seq_len = 8;
  cfg.seed = 2024;
  return cfg;
}

constexpr std::int64_t kWorld = 4;
constexpr std::int64_t kIters = 2;

struct CleanRun {
  std::vector<std::vector<float>> weights;
  // (tag -> messages, bytes) of the last iteration; in_flight fields are
  // scheduling-timing-dependent and deliberately excluded.
  std::map<std::int64_t, std::pair<std::uint64_t, std::uint64_t>> tag_traffic;
};

CleanRun clean_run(const std::string& strategy) {
  std::unique_ptr<Trainer> trainer =
      make_trainer(strategy, tiny_config(), kWorld);
  const SyntheticDataset data(tiny_config().model.vocab_size,
                              tiny_config().seed);
  for (std::int64_t i = 0; i < kIters; ++i) {
    (void)trainer->train_iteration(data, i);
  }
  CleanRun out;
  out.weights = trainer->gather_block_params();
  if (comm::Fabric* fabric = trainer->fabric()) {
    for (const auto& [tag, stats] : fabric->tag_stats()) {
      out.tag_traffic[tag] = {stats.messages, stats.bytes};
    }
  }
  return out;
}

bool bitwise_equal(const std::vector<std::vector<float>>& a,
                   const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return false;
    }
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(),
                    a[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// Two same-seed clean runs of every strategy: bitwise-identical weights and
// identical per-tag message/byte counts.
TEST(GoldenDeterminism, CleanRunsAreBitwiseIdentical) {
  for (const std::string& strategy : trainer_names()) {
    const CleanRun first = clean_run(strategy);
    const CleanRun second = clean_run(strategy);
    EXPECT_TRUE(bitwise_equal(first.weights, second.weights)) << strategy;
    EXPECT_EQ(first.tag_traffic, second.tag_traffic) << strategy;
    EXPECT_FALSE(first.weights.empty()) << strategy;
  }
}

// The headline sweep: strategy x fault class, all bitwise-equal to clean.
TEST(Chaos, EveryStrategySurvivesEveryFaultClassBitwise) {
  const std::vector<std::pair<std::string, std::string>> fault_classes = {
      {"delay", "delay:p=0.3:us=100"},
      {"drop", "drop:p=0.15:us=200"},
      {"dup", "dup:p=0.15:ns=0"},
      {"reorder", "reorder:p=0.15:us=100"},
      {"stall", "stall:rank=1:op=30"},
      {"mixed",
       "delay:p=0.2:us=50,drop:p=0.1:us=100,dup:p=0.1:ns=0,"
       "reorder:p=0.1:us=100,stall:rank=2:op=60"},
  };
  for (const std::string& strategy : trainer_names()) {
    for (const auto& [label, spec] : fault_classes) {
      chaos::ChaosConfig cc;
      cc.strategy = strategy;
      cc.train = tiny_config();
      cc.world_size = kWorld;
      cc.iterations = kIters;
      cc.plan = comm::parse_fault_plan(spec, 99);
      const chaos::ChaosReport r = chaos::run_chaos(cc);
      EXPECT_TRUE(r.completed)
          << strategy << " x " << label << ": " << r.error;
      EXPECT_TRUE(r.bitwise_equal)
          << strategy << " x " << label << ": max|diff|=" << r.max_abs_diff
          << " first at block " << r.first_diff.block << "["
          << r.first_diff.index << "]";
    }
  }
}

// Same FaultPlan seed => identical fault event logs (message-level plans;
// stall plans abort mid-step at a racy point, see docs/FAULTS.md).
TEST(Chaos, SameSeedProducesIdenticalFaultEventLog) {
  chaos::ChaosConfig cc;
  cc.strategy = "weipipe";
  cc.train = tiny_config();
  cc.world_size = kWorld;
  cc.iterations = kIters;
  cc.plan = comm::parse_fault_plan(
      "drop:p=0.2:us=100,dup:p=0.2:ns=0,reorder:p=0.2:us=50", 31337);
  const chaos::ChaosReport first = chaos::run_chaos(cc);
  const chaos::ChaosReport second = chaos::run_chaos(cc);
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_FALSE(first.events.empty());
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.fault_stats.drops, second.fault_stats.drops);
  EXPECT_EQ(first.fault_stats.duplicates, second.fault_stats.duplicates);
  EXPECT_EQ(first.fault_stats.reorders, second.fault_stats.reorders);

  // A different seed draws a different schedule.
  cc.plan.seed = 404;
  const chaos::ChaosReport third = chaos::run_chaos(cc);
  ASSERT_TRUE(third.ok()) << third.error;
  EXPECT_NE(first.events, third.events);
}

// A transient stall rolls the run back to the step boundary and re-runs to
// the bitwise-identical result.
TEST(Chaos, StallRecoversViaStepBoundaryRollback) {
  chaos::ChaosConfig cc;
  cc.strategy = "weipipe";
  cc.train = tiny_config();
  cc.world_size = kWorld;
  cc.iterations = kIters;
  cc.plan = comm::parse_fault_plan("stall:rank=1:op=25", 5);
  const chaos::ChaosReport r = chaos::run_chaos(cc);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(r.bitwise_equal);
  EXPECT_EQ(r.fault_stats.stalls, 1u);
  EXPECT_GE(r.recoveries, 1);
  EXPECT_GE(r.fault_stats.recoveries, 1u);
}

// Mutation test for the harness itself: disabling the receiver's dedup (the
// FaultPlan's nodedup knob) lets a duplicated message be consumed as the
// next one of its stream. Tag 10 (kTagRedistF) carries the same chunk, same
// size, from its owner every iteration, so the duplicate of iteration 0 is
// silently taken as iteration 1's weights: stale by one Adam step. The run
// must complete and the differ MUST report the divergence — if this test
// fails, the chaos harness has gone vacuously green.
TEST(Chaos, BrokenDedupIsCaughtByTheDiffer) {
  chaos::ChaosConfig cc;
  cc.strategy = "weipipe";
  cc.train = tiny_config();
  cc.world_size = kWorld;
  cc.iterations = kIters;
  cc.plan = comm::parse_fault_plan("nodedup,dup:p=1:tag=10:ns=0", 99);
  // A wedged run fails fast instead of waiting out the 60 s default.
  cc.recv_timeout = std::chrono::milliseconds(2000);
  const chaos::ChaosReport r = chaos::run_chaos(cc);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_FALSE(r.bitwise_equal);
  EXPECT_EQ(chaos::verdict(r), chaos::Verdict::kDiverged);
  EXPECT_GT(r.fault_stats.duplicates, 0u);
}

// ---- wire-format x fault sweep over the zero-copy buffer path ---------------

// Every WireFormat the fabric can put on the wire, including the paper's
// mixed-precision config and the block-quantized int8 gradient wire.
std::vector<std::pair<std::string, PrecisionConfig>> wire_format_matrix() {
  PrecisionConfig int8_grads = PrecisionConfig::paper();
  int8_grads.weight_grads = WirePrecision::Int8;
  return {
      {"fp32", PrecisionConfig::fp32()},
      {"paper-fp16", PrecisionConfig::paper()},
      {"bf16-flows",
       PrecisionConfig{WirePrecision::Bf16, WirePrecision::Bf16,
                       WirePrecision::Bf16, WirePrecision::Bf16}},
      {"int8-grads", int8_grads},
  };
}

// Strategy x wire-format x fault-class sweep on the zero-copy buffer path:
// the reliability layer (seq reassembly + dedup + retransmission) must keep
// every wire format bitwise-equal to its own clean run. This is the PR 5
// guarantee re-proven on top of the lock-free rings and relayed buffers.
TEST(Chaos, EveryWireFormatSurvivesEveryFaultClassBitwise) {
  const std::vector<std::pair<std::string, std::string>> fault_classes = {
      {"drop", "drop:p=0.2:us=100"},
      {"dup", "dup:p=0.2:ns=0"},
      {"reorder", "reorder:p=0.2:us=100"},
      {"mixed",
       "delay:p=0.2:us=50,drop:p=0.1:us=100,dup:p=0.1:ns=0,"
       "reorder:p=0.1:us=100"},
  };
  for (const auto& [format_label, precision] : wire_format_matrix()) {
    for (const auto& [fault_label, spec] : fault_classes) {
      chaos::ChaosConfig cc;
      cc.strategy = "weipipe";
      cc.train = tiny_config();
      cc.train.precision = precision;
      cc.world_size = kWorld;
      cc.iterations = kIters;
      cc.plan = comm::parse_fault_plan(spec, 4321);
      const chaos::ChaosReport r = chaos::run_chaos(cc);
      EXPECT_TRUE(r.completed)
          << format_label << " x " << fault_label << ": " << r.error;
      EXPECT_TRUE(r.bitwise_equal)
          << format_label << " x " << fault_label
          << ": max|diff|=" << r.max_abs_diff;
    }
  }
}

// Under the same faults, the per-kind wire ledger must still match the
// closed forms exactly for every wire format: retransmissions are latency,
// dup copies are handle aliases — neither may leak into the logical
// per-kind byte/message accounting.
TEST(Chaos, KindAccountingStaysExactUnderFaultsPerWireFormat) {
  for (const auto& [format_label, precision] : wire_format_matrix()) {
    TrainConfig cfg = tiny_config();
    cfg.precision = precision;
    WeiPipeTrainer trainer(cfg, kWorld);
    trainer.fabric()->install_fault_plan(comm::parse_fault_plan(
        "drop:p=0.2:us=100,dup:p=0.2:ns=0,reorder:p=0.2:us=100", 7));
    SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
    (void)trainer.train_iteration(data, 0);
    ASSERT_TRUE(acct::has_predicted_kind_volumes("weipipe", cfg))
        << format_label;
    const acct::KindVolumes measured =
        acct::measured_kind_volumes(*trainer.fabric());
    const acct::KindVolumes predicted =
        acct::predicted_kind_volumes("weipipe", cfg, kWorld);
    for (const auto& [kind, kv] : predicted) {
      const auto it = measured.find(kind);
      ASSERT_NE(it, measured.end())
          << format_label << ": no traffic of kind " << sched::to_string(kind);
      EXPECT_EQ(it->second.bytes, kv.bytes)
          << format_label << " " << sched::to_string(kind);
      EXPECT_EQ(it->second.messages, kv.messages)
          << format_label << " " << sched::to_string(kind);
    }
    EXPECT_EQ(measured.size(), predicted.size()) << format_label;
  }
}

TEST(Chaos, ReportJsonIsParseable) {
  chaos::ChaosConfig cc;
  cc.strategy = "1f1b";
  cc.train = tiny_config();
  cc.world_size = kWorld;
  cc.iterations = 1;
  cc.plan = comm::parse_fault_plan("drop:p=0.2:us=100", 11);
  const chaos::ChaosReport r = chaos::run_chaos(cc);
  const std::string json = chaos::report_to_json(r);
  const obs::JsonParseResult parsed = obs::parse_json(json);
  EXPECT_TRUE(parsed.ok) << parsed.error;
}

// The recovery runner is a pass-through when no fault plan is installed.
TEST(Resilience, PassThroughWithoutFaultPlan) {
  const TrainConfig cfg = tiny_config();
  std::unique_ptr<Trainer> trainer = make_trainer("weipipe", cfg, kWorld);
  const SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  const RecoveryResult r = train_iteration_with_recovery(*trainer, data, 0);
  EXPECT_EQ(r.recoveries, 0);
  EXPECT_GT(r.result.wire_messages, 0u);
}

// Structured CommError context survives the JSON round trip exactly (this
// is the shape black-box dumps and external tooling consume).
TEST(CommErrorJson, ContextRoundTripsExactly) {
  comm::CommErrorInfo info;
  info.kind = comm::CommErrorKind::kRecvTimeout;
  info.rank = 2;
  info.peer = 3;
  info.tag = 5;
  info.expected_seq = 17;
  info.pending_messages = 4;
  EXPECT_EQ(comm::comm_error_info_from_json(comm::comm_error_info_to_json(
                info)),
            info);

  info.kind = comm::CommErrorKind::kStall;
  info.peer = -1;
  info.tag = -1;
  EXPECT_EQ(comm::comm_error_info_from_json(comm::comm_error_info_to_json(
                info)),
            info);

  info.kind = comm::CommErrorKind::kAborted;
  EXPECT_EQ(comm::comm_error_info_from_json(comm::comm_error_info_to_json(
                info)),
            info);
}

TEST(CommErrorJson, MalformedContextThrows) {
  EXPECT_THROW((void)comm::comm_error_info_from_json("not json"), Error);
  EXPECT_THROW((void)comm::comm_error_info_from_json("{}"), Error);
  EXPECT_THROW((void)comm::comm_error_info_from_json(
                   "{\"kind\": \"no-such-kind\", \"rank\": 0}"),
               Error);
}

// The watchdog's blocked-on-peer attribution must match the injected stall
// plan: freeze rank 1 mid-iteration and some neighbor must be judged
// STALLED blocked on exactly that rank, while the thrown CommError carries
// round-trippable structured context.
TEST(Chaos, WatchdogAttributionMatchesTheInjectedStallPlan) {
  obs::WatchdogOptions wd;
  wd.poll_seconds = 0.02;
  wd.stall_timeout_seconds = 0.15;
  wd.dead_timeout_seconds = 60.0;  // attribution only; no DEAD verdicts here
  obs::Watchdog watchdog(wd);
  watchdog.start(static_cast<int>(kWorld));

  const TrainConfig cfg = tiny_config();
  std::unique_ptr<Trainer> trainer = make_trainer("weipipe", cfg, kWorld);
  trainer->fabric()->install_fault_plan(
      comm::parse_fault_plan("stall:rank=1:op=25:ms=700", 5));
  const SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  comm::CommErrorInfo caught;
  try {
    (void)trainer->train_iteration(data, 0);
    FAIL() << "expected a CommError from the injected stall";
  } catch (const comm::CommError& e) {
    caught = e.info();
  }
  const std::vector<obs::HealthTransition> transitions =
      watchdog.transitions();
  watchdog.stop();

  EXPECT_GE(caught.rank, 0);
  EXPECT_EQ(comm::comm_error_info_from_json(
                comm::comm_error_info_to_json(caught)),
            caught);
  bool attributed = false;
  for (const obs::HealthTransition& t : transitions) {
    if (t.to == obs::RankHealth::kStalled && t.blocked_on_peer == 1) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed)
      << "no STALLED verdict named the frozen rank 1 as the blocking peer";
}

// Direct resilience path: a stalled iteration is retried and converges to
// the same weights as an undisturbed trainer.
TEST(Resilience, StalledIterationMatchesCleanTrainerBitwise) {
  const TrainConfig cfg = tiny_config();
  const SyntheticDataset data(cfg.model.vocab_size, cfg.seed);

  std::unique_ptr<Trainer> clean = make_trainer("1f1b", cfg, kWorld);
  (void)clean->train_iteration(data, 0);

  std::unique_ptr<Trainer> faulty = make_trainer("1f1b", cfg, kWorld);
  faulty->fabric()->install_fault_plan(
      comm::parse_fault_plan("stall:rank=0:op=5", 1));
  const RecoveryResult r = train_iteration_with_recovery(*faulty, data, 0);
  EXPECT_EQ(faulty->fabric()->fault_stats().stalls, 1u);
  EXPECT_GE(r.recoveries, 1);
  EXPECT_TRUE(
      bitwise_equal(clean->gather_block_params(),
                    faulty->gather_block_params()));
}

}  // namespace
}  // namespace weipipe
