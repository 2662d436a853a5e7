// Chaos differ: runs a trainer strategy clean and under a seeded FaultPlan
// and diffs the final weights bitwise.
//
// This is the dynamic counterpart of the static schedule model-checker
// (src/analysis): instead of proving the schedule correct on a perfect
// network, it executes the schedule on a deliberately bad one (delays,
// drops, duplicates, reorders, transient rank stalls — comm/fault.hpp) and
// asserts the result is *exactly* the clean run's, down to the last bit.
// Any tolerated fault must therefore cost latency only; a fault that leaks
// into the numerics (double-accumulated gradient, stale weight version,
// missed rollback) shows up as a bitwise diff, not a statistical wobble.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "core/trainer.hpp"
#include "obs/metrics.hpp"

namespace weipipe::chaos {

struct ChaosConfig {
  std::string strategy = "weipipe";
  TrainConfig train;
  std::int64_t world_size = 4;
  std::int64_t iterations = 2;
  comm::FaultPlan plan;
  // Total tries per iteration when a stall aborts the step (resilience.hpp).
  int max_recovery_attempts = 3;
  // Forked-rank mode: >= 0 captures Trainer::export_rank_state(rank) of
  // both runs into the report, so a rank child can hand its shard to the
  // parent's cross-process differ. -1 (single-process mode) skips capture.
  int capture_rank_state = -1;
  // Fabric recv timeout override for both runs; 0 keeps the fabric default.
  // Mutation tests use a short one so that a run that wedges fails fast
  // instead of waiting out the default 60s.
  std::chrono::milliseconds recv_timeout{0};
};

// Location/value of the first bitwise mismatch, for diagnostics.
struct FirstDiff {
  std::size_t block = 0;
  std::size_t index = 0;
  float clean = 0.0f;
  float chaos = 0.0f;
};

struct ChaosReport {
  std::string strategy;
  std::string spec;        // canonical fault-plan spec (comm::to_spec)
  std::uint64_t seed = 0;  // fault-plan seed
  // The chaos run finished all iterations (recoveries included) without an
  // unrecovered error.
  bool completed = false;
  bool bitwise_equal = false;
  std::string error;  // what() of the failure when !completed
  bool timed_out = false;  // that failure was a receive timeout
  std::size_t blocks = 0;
  std::size_t mismatched_blocks = 0;
  FirstDiff first_diff;        // valid when completed && !bitwise_equal
  double max_abs_diff = 0.0;   // over all weights
  float clean_loss = 0.0f;     // final-iteration mean loss, clean run
  float chaos_loss = 0.0f;     // same, chaos run
  int recoveries = 0;          // rollback + re-run cycles across the run
  comm::FaultStats fault_stats;
  std::vector<comm::FaultEvent> events;  // deterministic order
  // Filled when config.capture_rank_state >= 0: that rank's state blob
  // after the clean and the chaos run (Trainer::export_rank_state).
  std::vector<std::uint8_t> clean_rank_state;
  std::vector<std::uint8_t> chaos_rank_state;

  bool ok() const { return completed && bitwise_equal; }
};

// How a chaos cell ended, in ascending severity; the value is the
// `weipipe_cli chaos` exit code. A run that stops on an error in one rank
// usually leaves the others waiting, so an error that is not a receive
// timeout ranks above one that is.
enum class Verdict : int {
  kEqual = 0,     // completed, bitwise equal to the clean run
  kDiverged = 1,  // completed, but the weights differ from the clean run
  kTimedOut = 2,  // a receive outlived the recv timeout
  kCrashed = 3,   // any other error
};

const char* to_string(Verdict verdict);  // "equal", "diverged", ...
Verdict verdict(const ChaosReport& report);

// Runs `strategy` twice on a fresh SyntheticDataset — once clean, once with
// `plan` installed in the trainer's fabric — and compares final weights
// bitwise. A strategy without a fabric (sequential) runs both times clean
// and trivially matches; it stays in the matrix as a control. Throws
// weipipe::Error only for configuration errors (unknown strategy, bad
// shapes); faults during the chaos run are reported, not thrown.
ChaosReport run_chaos(const ChaosConfig& config);

// The parent side of the forked multi-process differ: one clean full-world
// run of config.strategy on the current (typically inproc) transport,
// returning export_rank_state(r) for every rank r — the reference blobs the
// forked rank processes must reproduce bitwise over their real wire.
std::vector<std::vector<std::uint8_t>> run_clean_rank_states(
    const ChaosConfig& config);

std::string report_to_json(const ChaosReport& report);

// Mirrors the fault/retry/redelivery counters into a metrics registry as
// fault.* (the observability contract from docs/FAULTS.md).
void fill_fault_metrics(obs::Registry& registry, const comm::FaultStats& stats);

}  // namespace weipipe::chaos
