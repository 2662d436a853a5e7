// lcbench: the long-context training benchmark.
//
//   lcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--perturb ref-lr|params|twin-seed|wire] [--tiny]
//
// A closed loop: the benchmark issues the next step only after the previous one
// completed. The trainer under test alternates step by step with a
// SequentialTrainer reference in its own process, so both sides of each
// pair see the same machine state. --trace 0 prints the end-to-end metrics;
// --trace 1 prints the per-layer metrics from a separate traced run. The
// last line of stdout is the JSON result; see METRICS.md for every field.
#include <signal.h>
#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/accounting.hpp"
#include "obs/blackbox.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "probes.hpp"
#include "proc.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace lcbench {
namespace {

using namespace weipipe;
using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

constexpr int kSetupReps = 11;  // setup_s is the median over these
constexpr std::size_t kMinSteps = kTailAbove + 1;  // what the tail rule needs
constexpr std::size_t kMinTracedPairs = 4;  // per half of a traced run
constexpr milliseconds kStepTimeout{60'000};
constexpr double kHardCapSeconds = 100.0;  // timed loop, whatever --seconds

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string perturb;
  bool tiny = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
    } else if (k == "--perturb") {
      a.perturb = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  const std::vector<std::string> modes = {"", "ref-lr", "params", "twin-seed",
                                          "wire"};
  if (std::find(modes.begin(), modes.end(), a.perturb) == modes.end()) {
    throw std::invalid_argument("unknown --perturb " + a.perturb);
  }
  return a;
}

// ---- the ranks under test ---------------------------------------------------

// Every server hosting a rank of the trainer under test: one in this process
// (all ranks as threads), or one forked process per rank.
class World {
 public:
  World(const Workload& w, const Dataset& data, const std::string& shm_name) {
    if (!w.forked) {
      local_ = std::make_unique<RankServer>(w, w.strategy, data, -1, "");
      return;
    }
    for (int r = 0; r < w.world; ++r) {
      children_.push_back(std::make_unique<Child>([&, r](const Channel& ch) {
        RankServer server(w, w.strategy, data, r, shm_name);
        ch.send("ready");
        serve(server, ch);
      }));
    }
    for (const auto& c : children_) {
      const std::string got = c->channel().recv(kStepTimeout);
      if (got != "ready") throw std::runtime_error("rank server: " + got);
    }
  }

  static void serve(RankServer& server, const Channel& ch) {
    for (;;) {
      const std::string cmd = ch.recv(milliseconds(600'000));
      if (cmd == "quit") return;
      std::string reply;
      try {
        reply = server.handle(cmd);
      } catch (const std::exception& e) {
        reply = std::string("error ") + e.what();
      }
      ch.send(reply);
    }
  }

  // Sends `cmd` to every server, then collects the replies in rank order.
  std::vector<std::string> call(const std::string& cmd) {
    std::vector<std::string> out;
    if (local_) {
      out.push_back(local_->handle(cmd));
      return out;
    }
    for (const auto& c : children_) c->channel().send(cmd);
    for (const auto& c : children_) {
      out.push_back(c->channel().recv(kStepTimeout));
    }
    for (const std::string& r : out) {
      if (r.rfind("error ", 0) == 0) throw std::runtime_error(r.substr(6));
    }
    return out;
  }

  // Sum of a decimal reply over servers ("rss", "nivcsw").
  std::int64_t sum(const std::string& cmd) {
    std::int64_t total = 0;
    for (const std::string& r : call(cmd)) total += std::stoll(r);
    return total;
  }

  // export_rank_state(r) for every rank r, each from the server hosting it.
  std::vector<std::string> rank_states(int world) {
    std::vector<std::string> out;
    for (int r = 0; r < world; ++r) {
      const std::string cmd = "state " + std::to_string(r);
      if (local_) {
        out.push_back(local_->handle(cmd));
        continue;
      }
      const Channel& ch = children_.at(static_cast<std::size_t>(r))->channel();
      ch.send(cmd);
      out.push_back(ch.recv(kStepTimeout));
    }
    return out;
  }

  // Stops every rank process; true when all exited cleanly.
  bool stop() {
    bool ok = true;
    for (const auto& c : children_) ok = c->stop(milliseconds(10'000)) && ok;
    children_.clear();
    local_.reset();
    return ok;
  }

 private:
  std::unique_ptr<RankServer> local_;
  std::vector<std::unique_ptr<Child>> children_;
};

// The lockstep reference: a SequentialTrainer of the same model in its own
// process. Forked first, before this process starts any thread.
class Reference {
 public:
  Reference(const Workload& w, const Dataset& data)
      : child_([&](const Channel& ch) {
          RankServer server(w, "sequential", data, -1, "");
          ch.send("ready");
          World::serve(server, ch);
        }) {
    if (child_.channel().recv(kStepTimeout) != "ready") {
      throw std::runtime_error("reference failed to start");
    }
  }

  std::string call(const std::string& cmd) {
    child_.channel().send(cmd);
    std::string r = child_.channel().recv(kStepTimeout);
    if (r.rfind("error ", 0) == 0) throw std::runtime_error(r.substr(6));
    return r;
  }

  bool stop() { return child_.stop(milliseconds(10'000)); }

 private:
  Child child_;
};

// ---- per-step counters ------------------------------------------------------

struct StepCounters {
  std::uint32_t loss_bits = 0;  // rank server 0's
  double bytes = 0, msgs = 0, spins = 0, parks = 0, notifies = 0;
  double dispatches = 0, serial_runs = 0, chunks = 0, steals = 0;
  std::map<int, std::pair<double, double>> kinds;  // MsgKind -> bytes, msgs
};

obs::JsonValue parse(const std::string& text) {
  obs::JsonParseResult p = obs::parse_json(text);
  if (!p.ok) throw std::runtime_error("bad reply: " + p.error);
  return std::move(p.value);
}

double num(const obs::JsonValue& v, const char* key) {
  const obs::JsonValue* f = v.find(key);
  if (f == nullptr) throw std::runtime_error(std::string("missing ") + key);
  return f->as_number();
}

StepCounters sum_counters(const std::vector<std::string>& replies) {
  StepCounters c;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const obs::JsonValue v = parse(replies[i]);
    if (i == 0) c.loss_bits = static_cast<std::uint32_t>(num(v, "loss_bits"));
    c.bytes += num(v, "bytes");
    c.msgs += num(v, "msgs");
    c.spins += num(v, "spins");
    c.parks += num(v, "parks");
    c.notifies += num(v, "notifies");
    c.dispatches += num(v, "dispatches");
    c.serial_runs += num(v, "serial_runs");
    c.chunks += num(v, "chunks");
    c.steals += num(v, "steals");
    for (const auto& [k, bm] : v.find("kinds")->object) {
      auto& slot = c.kinds[std::stoi(k)];
      slot.first += bm.array.at(0).as_number();
      slot.second += bm.array.at(1).as_number();
    }
  }
  return c;
}

// ---- host notes -------------------------------------------------------------

struct CpuTimes {
  double steal = 0, total = 0;
};

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq
  CpuTimes t;  // softirq steal ...
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double loadavg_1m() {
  std::ifstream in("/proc/loadavg");
  double v = 0;
  in >> v;
  return v;
}

// Host notes are recorded and printed, never used to drop, retry or
// rescale a run.
struct HostNotes {
  CpuTimes cpu0;
  std::int64_t nivcsw0 = 0;
  double steal_frac = 0;
  std::int64_t nivcsw = 0;
  double loadavg = 0;

  void begin(World& world) {
    cpu0 = read_cpu_times();
    nivcsw0 = world.sum("nivcsw");
  }
  void end(World& world) {
    const CpuTimes c = read_cpu_times();
    steal_frac = c.total > cpu0.total
                     ? (c.steal - cpu0.steal) / (c.total - cpu0.total)
                     : 0.0;
    nivcsw = world.sum("nivcsw") - nivcsw0;
    loadavg = loadavg_1m();
  }
};

// ---- the run ----------------------------------------------------------------

struct Run {
  Workload w;
  Args args;
  acct::KindVolumes predicted;

  std::vector<double> setup_s;
  std::vector<double> step_s;     // untraced steps of the trainer under test
  std::vector<double> seq_s;      // lockstep reference steps, paired
  std::vector<double> traced_s;   // traced steps (--trace 1)
  std::vector<StepCounters> counters;  // per untraced timed step
  std::vector<obs::StepAnatomy> anatomy;
  std::vector<std::vector<obs::Span>> traced_spans;
  double spans_dropped = 0;
  std::map<std::int64_t, std::uint32_t> world_loss, ref_loss;
  std::int64_t attempted = 0;
  std::int64_t failed_steps = 0;
  bool final_ok = true;
  bool consistent = true;
  std::vector<std::string> problems;
  std::int64_t last_iter = -1;  // last step both sides completed
  double peak_rss = 0;
  HostNotes host;

  void problem(const std::string& p) {
    if (problems.size() < 8) problems.push_back(p);
  }

  // Per-step wire oracle: measured per-kind volumes equal the closed form.
  bool wire_matches(const StepCounters& c) const {
    std::map<int, std::pair<double, double>> want;
    for (const auto& [kind, kv] : predicted) {
      want[static_cast<int>(kind)] = {static_cast<double>(kv.bytes),
                                      static_cast<double>(kv.messages)};
    }
    return c.kinds == want;
  }
};

acct::KindVolumes predict(const Workload& w, const std::string& perturb) {
  TrainConfig cfg = w.cfg;
  if (perturb == "wire") {
    cfg.num_microbatches += w.world;  // one extra round: must not match
  }
  return acct::predicted_kind_volumes(w.strategy, cfg, w.world);
}

// One step of the trainer under test; returns its wall seconds. Clears
// `wire_ok` when the step fails the wire oracle.
double world_step(Run& run, World& world, std::int64_t iter, bool& wire_ok,
                  StepCounters* out) {
  const auto t0 = Clock::now();
  const std::vector<std::string> replies =
      world.call("step " + std::to_string(iter));
  const double dt = seconds_since(t0);
  StepCounters c = sum_counters(replies);
  run.world_loss[iter] = c.loss_bits;
  if (!run.wire_matches(c)) {
    run.problem("step " + std::to_string(iter) +
                ": measured wire volumes differ from the closed form");
    wire_ok = false;
  }
  if (out) *out = std::move(c);
  return dt;
}

double ref_step(Run& run, Reference& ref, std::int64_t iter) {
  const auto t0 = Clock::now();
  const std::string reply = ref.call("step " + std::to_string(iter));
  const double dt = seconds_since(t0);
  run.ref_loss[iter] = static_cast<std::uint32_t>(
      num(parse(reply), "loss_bits"));
  return dt;
}

// Loss oracle for the fp32 workloads: world and reference agree bitwise.
bool loss_matches(Run& run, std::int64_t iter) {
  if (run.w.forked) return true;  // fp16 wires: checked by the state twin
  const bool same = run.world_loss.at(iter) == run.ref_loss.at(iter);
  if (!same) {
    run.problem("step " + std::to_string(iter) +
                ": loss differs from the sequential reference");
  }
  return same;
}

std::vector<obs::Span> drain_spans(Run& run, World& world) {
  std::vector<obs::Span> all;
  run.spans_dropped = 0;
  for (const std::string& r : world.call("spans")) {
    const obs::JsonValue v = parse(r);
    run.spans_dropped += num(v, "dropped");
    std::vector<obs::Span> s = obs::spans_from_json(*v.find("spans"));
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

// Critical-path anatomy of one traced step, kept with its spans.
void analyze(Run& run, std::vector<obs::Span> spans) {
  obs::AnatomyOptions opt;
  opt.wire_kind_label = [](std::int64_t tag) {
    return std::string(sched::to_string(acct::classify_tag(tag)));
  };
  obs::StepAnatomy a = obs::analyze_step(spans, opt);
  if (std::fabs(a.path_seconds() - a.step_seconds()) >
      1e-9 * std::max(1.0, a.step_seconds())) {
    run.consistent = false;
    run.problem("critical-path categories do not sum to the step window");
  }
  run.anatomy.push_back(std::move(a));
  run.traced_spans.push_back(std::move(spans));
}

enum class Phase { kWarmup, kTimed, kTraced };

// The lockstep loop: pairs of (reference, world) steps in alternating order
// until `seconds` pass and at least `min_pairs` pairs ran. In the traced
// phase the world records spans, drained between steps. A step that throws
// or fails an oracle counts as failed; a throwing side ends the loop.
void lockstep(Run& run, World& world, Reference& ref, std::int64_t& iter,
              double seconds, std::size_t min_pairs, Phase phase) {
  if (phase == Phase::kTraced) {
    world.call("trace on");
    drain_spans(run, world);  // nothing from before the first traced step
  }
  const auto t0 = Clock::now();
  std::size_t pairs = 0;
  while ((seconds_since(t0) < seconds || pairs < min_pairs) &&
         seconds_since(t0) < kHardCapSeconds) {
    ++run.attempted;
    StepCounters c;
    double dw = 0, dr = 0;
    bool ok = true;
    try {
      if (iter % 2 == 0) {
        dr = ref_step(run, ref, iter);
        dw = world_step(run, world, iter, ok, &c);
      } else {
        dw = world_step(run, world, iter, ok, &c);
        dr = ref_step(run, ref, iter);
      }
      if (phase == Phase::kTraced) analyze(run, drain_spans(run, world));
    } catch (const std::exception& e) {
      ++run.failed_steps;
      run.problem(std::string("step ") + std::to_string(iter) + ": " +
                  e.what());
      return;
    }
    if (!loss_matches(run, iter) || !ok) ++run.failed_steps;
    run.last_iter = iter;
    ++iter;
    ++pairs;
    if (phase == Phase::kTimed) {
      run.step_s.push_back(dw);
      run.seq_s.push_back(dr);
      run.counters.push_back(std::move(c));
    } else if (phase == Phase::kTraced) {
      run.traced_s.push_back(dw);
    }
  }
  if (phase == Phase::kTraced) world.call("trace off");
}

void setup(Run& run, std::unique_ptr<World>& world, const Dataset& data,
           const std::string& shm_prefix) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (world) world->stop();
    world.reset();
    const auto t0 = Clock::now();
    world = std::make_unique<World>(run.w, data,
                                    shm_prefix + "-" + std::to_string(rep));
    run.setup_s.push_back(seconds_since(t0));
  }
}

// Final-state oracle, outside the timed window.
void final_oracle(Run& run, World& world, Reference& ref) {
  if (run.last_iter < 0) return;
  if (!run.w.forked) {
    std::string want = ref.call("params");
    if (run.args.perturb == "params") want[0] ^= 1;  // one low mantissa bit
    if (world.call("params").at(0) != want) {
      run.final_ok = false;
      run.problem("final params differ from the sequential reference");
    }
    return;
  }
  // fp16 wires have no sequential twin: compare each rank process's state
  // with an in-process inproc world run for the same steps.
  const std::vector<std::string> states = world.rank_states(run.w.world);
  world.stop();
  ref.stop();
  Workload twin = run.w;
  twin.forked = false;
  SyntheticDataset twin_data(
      twin.cfg.model.vocab_size,
      run.args.perturb == "twin-seed" ? run.args.seed + 1 : run.args.seed);
  RankServer server(twin, twin.strategy, twin_data, -1, "");
  for (std::int64_t i = 0; i <= run.last_iter; ++i) {
    server.handle("step " + std::to_string(i));
  }
  for (int r = 0; r < run.w.world; ++r) {
    if (server.handle("state " + std::to_string(r)) !=
        states[static_cast<std::size_t>(r)]) {
      run.final_ok = false;
      run.problem("rank " + std::to_string(r) +
                  " state differs from the inproc twin");
    }
  }
}

void print_host_notes(const Run& run) {
  std::printf(
      "host_notes {\"steal_frac\": %.6f, \"nivcsw\": %lld, "
      "\"loadavg_1m\": %.2f}\n",
      run.host.steal_frac, static_cast<long long>(run.host.nivcsw),
      run.host.loadavg);
}

std::vector<Metric> end_to_end(const Run& run) {
  const double tokens = static_cast<double>(run.w.tokens_per_step());
  const double p50 = median(run.step_s);
  std::vector<double> wire;
  for (const StepCounters& c : run.counters) wire.push_back(c.bytes);
  return {
      {"tokens_per_s", tokens / p50, "tokens/s"},
      {"step_s_p50", p50, "s"},
      {"step_s_tail", tail(run.step_s).value, "s"},
      {"seq_tokens_per_s", tokens / median(run.seq_s), "tokens/s"},
      {"setup_s", median(run.setup_s), "s"},
      {"peak_rss_bytes", run.peak_rss, "bytes"},
      {"wire_bytes_per_step", median(wire), "bytes"},
  };
}

std::vector<Metric> per_layer(const Run& run) {
  const double P = run.w.world;
  std::vector<double> disp, serial, steal, msgs, bpm, spins, parks, notif;
  std::vector<double> wW, wD, wA;
  for (const StepCounters& c : run.counters) {
    disp.push_back(c.dispatches);
    serial.push_back(c.serial_runs / std::max(1.0, c.dispatches + c.serial_runs));
    steal.push_back(c.steals / std::max(1.0, c.chunks));
    msgs.push_back(c.msgs);
    bpm.push_back(c.msgs > 0 ? c.bytes / c.msgs : 0.0);
    spins.push_back(c.msgs > 0 ? c.spins / c.msgs : 0.0);
    parks.push_back(c.msgs > 0 ? c.parks / c.msgs : 0.0);
    notif.push_back(c.msgs > 0 ? c.notifies / c.msgs : 0.0);
    double w = 0, d = 0, a = 0;
    for (const auto& [k, bm] : c.kinds) {
      const auto kind = static_cast<sched::MsgKind>(k);
      if (kind == sched::MsgKind::kWeightF || kind == sched::MsgKind::kWeightB) {
        w += bm.first;
      } else if (kind == sched::MsgKind::kGradD) {
        d += bm.first;
      } else if (kind == sched::MsgKind::kActivation ||
                 kind == sched::MsgKind::kActGrad) {
        a += bm.first;
      }
    }
    wW.push_back(w);
    wD.push_back(d);
    wA.push_back(a);
  }
  const double steps = static_cast<double>(run.step_s.size());
  // Span-derived per-step sums over ranks, medians over traced steps.
  std::vector<double> cp[obs::kNumPathCategories], exposed, idle, fwd, bwd,
      opt, loss, rwait, sxfer, rxfer;
  for (std::size_t i = 0; i < run.anatomy.size(); ++i) {
    const obs::StepAnatomy& a = run.anatomy[i];
    for (int k = 0; k < obs::kNumPathCategories; ++k) {
      cp[k].push_back(a.category_seconds[k]);
    }
    exposed.push_back(a.exposed_comm_fraction());
    double f = 0, b = 0, o = 0, l = 0, rw = 0, sx = 0, rx = 0;
    for (const obs::Span& s : run.traced_spans[i]) {
      if (s.rank < 0) continue;
      const double d = s.seconds();
      switch (s.kind) {
        case obs::SpanKind::kForward: f += d; break;
        case obs::SpanKind::kBackward:
        case obs::SpanKind::kBackwardActs:
        case obs::SpanKind::kBackwardWeights: b += d; break;
        case obs::SpanKind::kOptimizer: o += d; break;
        case obs::SpanKind::kLoss: l += d; break;
        case obs::SpanKind::kRecvWait: rw += d; break;
        case obs::SpanKind::kSendTransfer: sx += d; break;
        case obs::SpanKind::kRecvTransfer: rx += d; break;
        default: break;
      }
    }
    fwd.push_back(f);
    bwd.push_back(b);
    opt.push_back(o);
    loss.push_back(l);
    rwait.push_back(rw);
    sxfer.push_back(sx);
    rxfer.push_back(rx);
    const double window = a.step_seconds() * P;
    idle.push_back(window > 0 ? 1.0 - (f + b + o + l) / window : 0.0);
  }
  const auto cat = [&](obs::PathCategory c) {
    return median(cp[static_cast<int>(c)]);
  };
  const double untraced_p50 = median(run.step_s);
  std::vector<Metric> m = {
      {"common.pool_dispatches_per_step", median(disp), "count"},
      {"common.pool_serial_frac", median(serial), "fraction"},
      {"common.pool_steal_frac", median(steal), "fraction"},
      {"common.nivcsw_per_step",
       static_cast<double>(run.host.nivcsw) / std::max(1.0, steps), "count"},
      {"comm.msgs_per_step", median(msgs), "count"},
      {"comm.bytes_per_msg", median(bpm), "bytes"},
      {"comm.wire_bytes_W", median(wW), "bytes"},
      {"comm.wire_bytes_D", median(wD), "bytes"},
      {"comm.wire_bytes_act", median(wA), "bytes"},
      {"comm.spins_per_msg", median(spins), "count"},
      {"comm.parks_per_msg", median(parks), "count"},
      {"comm.notifies_per_msg", median(notif), "count"},
      {"comm.recv_wait_s", median(rwait), "s"},
      {"comm.send_transfer_s", median(sxfer), "s"},
      {"comm.recv_transfer_s", median(rxfer), "s"},
      {"core.critpath_compute_s", cat(obs::PathCategory::kCompute), "s"},
      {"core.critpath_exposed_wire_s", cat(obs::PathCategory::kExposedWire),
       "s"},
      {"core.critpath_blocked_recv_s", cat(obs::PathCategory::kBlockedRecv),
       "s"},
      {"core.critpath_stall_s", cat(obs::PathCategory::kStallFault), "s"},
      {"core.critpath_gap_s", cat(obs::PathCategory::kGap), "s"},
      {"core.exposed_comm_frac", median(exposed), "fraction"},
      {"core.idle_frac", median(idle), "fraction"},
      {"core.fwd_s", median(fwd), "s"},
      {"core.bwd_s", median(bwd), "s"},
      {"core.opt_s", median(opt), "s"},
      {"core.loss_s", median(loss), "s"},
      {"core.speedup_vs_seq", paired_ratio_median(run.seq_s, run.step_s),
       "ratio"},
      {"obs.trace_overhead_frac", median(run.traced_s) / untraced_p50 - 1.0,
       "fraction"},
      {"obs.spans_dropped", run.spans_dropped, "count"},
  };
  for (Metric& p : run_probes(run.w, untraced_p50 * P)) {
    m.push_back(std::move(p));
  }
  return m;
}

int run_benchmark(const Args& args) {
  Run run;
  run.args = args;
  run.w = make_workload(args.workload, args.seed, args.tiny);
  run.predicted = predict(run.w, args.perturb);
  SyntheticDataset data(run.w.cfg.model.vocab_size, args.seed);

  Workload ref_w = run.w;
  if (args.perturb == "ref-lr") {
    ref_w.cfg.adam.lr *= 1.01f;  // a reference that trains differently
  }
  // The reference forks before this process starts any thread.
  Reference ref(ref_w, data);
  const std::string shm_prefix = "lcbench-" + std::to_string(getpid());
  std::unique_ptr<World> world;
  setup(run, world, data, shm_prefix);

  // Warm-up pair (untimed, oracle-checked), then the timed window.
  std::int64_t iter = 0;
  lockstep(run, *world, ref, iter, 0.0, 1, Phase::kWarmup);
  run.host.begin(*world);
  lockstep(run, *world, ref, iter, args.trace ? args.seconds / 2 : args.seconds,
           args.trace ? kMinTracedPairs : kMinSteps, Phase::kTimed);
  run.host.end(*world);
  run.peak_rss = static_cast<double>(world->sum("rss"));
  if (args.trace && run.failed_steps == 0) {
    lockstep(run, *world, ref, iter, args.seconds / 2, kMinTracedPairs,
             Phase::kTraced);
  }
  if (run.failed_steps == 0) {
    final_oracle(run, *world, ref);
  }
  world->stop();
  ref.stop();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Rank processes unlink their segment on exit; this covers a killed one.
    shm_unlink(("/" + shm_prefix + "-" + std::to_string(rep) + "-g0").c_str());
  }

  std::int64_t failed = run.final_ok ? run.failed_steps : run.attempted;
  const bool enough =
      run.step_s.size() >= (args.trace ? kMinTracedPairs : kMinSteps);
  if (!enough && failed == 0) {
    run.problem("too few timed steps");
    failed = run.attempted;
  }
  const bool correct = failed == 0 && run.consistent;

  std::vector<Metric> metrics;
  try {
    metrics = args.trace ? per_layer(run) : end_to_end(run);
  } catch (const std::exception& e) {
    // Nothing to measure (e.g. every step failed); the result says so.
    run.problem(std::string("no metrics: ") + e.what());
  }
  std::printf("workload %s seed %llu: %zu timed steps, %zu traced, "
              "failed_frac %.4f\n",
              run.w.name.c_str(), static_cast<unsigned long long>(args.seed),
              run.step_s.size(), run.traced_s.size(),
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::int64_t>(1, run.attempted)));
  for (const std::string& p : run.problems) std::printf("problem: %s\n", p.c_str());
  for (const auto* side : {&run.step_s, &run.seq_s}) {
    std::printf("%s_ms", side == &run.step_s ? "step" : "seq");
    for (double t : *side) std::printf(" %.1f", t * 1e3);
    std::printf("\n");
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_host_notes(run);
  std::printf("%s\n", result_json(correct, std::max<std::int64_t>(1, run.attempted),
                                  failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace lcbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  lcbench::Args args;
  try {
    args = lcbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcbench: %s\n", e.what());
    return 2;
  }
  try {
    return lcbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcbench: %s\n", e.what());
    return 1;
  }
}
