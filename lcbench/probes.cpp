#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>

#include "comm/fabric.hpp"
#include "comm/wire.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/adam.hpp"
#include "nn/layer_math.hpp"
#include "nn/model.hpp"
#include "tensor/gemm.hpp"

namespace lcbench {

using namespace weipipe;

namespace {

// Median wall seconds of one call of `fn`, after one warm-up call, over at
// least `min_reps` calls and ~`budget_s` seconds.
double time_call(const std::function<void()>& fn, int min_reps = 5,
                 double budget_s = 0.15) {
  fn();
  std::vector<double> t;
  double total = 0;
  while (static_cast<int>(t.size()) < min_reps || total < budget_s) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    t.push_back(dt);
    total += dt;
    if (t.size() >= 2000) break;
  }
  return median(std::move(t));
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.next_below(2001)) / 1000.f - 1.f;
  return v;
}

// GFLOP/s of C[m,n] = A[m,k] * W[n,k]^T through kernels::gemm (the
// projection orientation the layers use).
double gemm_gflops(std::int64_t m, std::int64_t k, std::int64_t n) {
  const std::vector<float> a = random_floats(static_cast<std::size_t>(m * k), 1);
  const std::vector<float> b = random_floats(static_cast<std::size_t>(n * k), 2);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  const double s = time_call([&] {
    kernels::gemm(a.data(), k, 1, b.data(), 1, k, c.data(), n, m, k, n, false);
  });
  return 2.0 * static_cast<double>(m * k * n) / s * 1e-9;
}

// Half of a ping-pong of one `bytes` payload between the two ranks of a
// 2-rank fabric on `kind`: seconds per hop.
double hop_seconds(comm::TransportKind kind, std::size_t bytes) {
  comm::TransportSpec spec;
  spec.kind = kind;
  comm::Fabric fabric(2, nullptr, spec);
  constexpr int kRounds = 30;
  constexpr std::int64_t kTag = 7;
  double seconds = 0;
  comm::run_workers(fabric, [&](int rank, comm::Endpoint& ep) {
    if (rank == 0) {
      comm::Buffer buf = comm::Buffer::adopt(
          std::vector<std::uint8_t>(bytes, std::uint8_t{0x5a}));
      ep.send(1, kTag, buf);
      buf = ep.recv_buffer(1, kTag);  // warm-up round
      std::vector<double> t;
      for (int i = 0; i < kRounds; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        ep.send(1, kTag, buf);
        buf = ep.recv_buffer(1, kTag);
        t.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
      }
      seconds = median(std::move(t)) / 2;
    } else {
      for (int i = 0; i <= kRounds; ++i) {
        ep.send(0, kTag, ep.recv_buffer(0, kTag));
      }
    }
  });
  return seconds;
}

}  // namespace

std::vector<Metric> run_probes(const Workload& w, double rank_seconds_per_step) {
  const TrainConfig& cfg = w.cfg;
  const ModelConfig& mc = cfg.model;
  const std::int64_t G = cfg.microbatch_size, S = cfg.seq_len;
  const std::int64_t rows = G * S, H = mc.dim, F = mc.effective_ffn_hidden();
  const std::int64_t nh = mc.n_heads, nkv = mc.effective_kv_heads();
  const std::int64_t dh = mc.head_dim(), V = mc.vocab_size;
  const double N = static_cast<double>(cfg.num_microbatches);
  const double L = static_cast<double>(mc.n_layers);
  const Model model(mc);
  std::vector<Metric> out;

  // common: one near-empty dispatch over every pool worker.
  {
    ThreadPool& pool = ThreadPool::global();
    const std::size_t n = 4 * (pool.size() + 1);
    const double s = time_call(
        [&] {
          pool.parallel_for_range(
              0, n, [](void*, std::size_t, std::size_t) {}, nullptr, 1);
        },
        200, 0.05);
    out.push_back({"common.pool_dispatch_us", s * 1e6, "us"});
  }

  // tensor: GEMM at the projection and FFN shapes, against a square peak.
  {
    const double peak = gemm_gflops(512, 512, 512);
    const double proj = gemm_gflops(rows, H, H);
    const double ffn = gemm_gflops(rows, H, F);
    out.push_back({"tensor.gemm_peak_gflops", peak, "GFLOP/s"});
    out.push_back({"tensor.gemm_proj_gflops", proj, "GFLOP/s"});
    out.push_back({"tensor.gemm_ffn_gflops", ffn, "GFLOP/s"});
    out.push_back({"tensor.gemm_peak_frac", proj / peak, "fraction"});
  }

  // nn: one call of each layer function at one microbatch's shapes, and its
  // share of the step's rank-time at `calls` calls per step.
  {
    const auto r = static_cast<std::size_t>(rows);
    const std::vector<float> x = random_floats(r * H, 3);
    const std::vector<float> q0 = random_floats(r * H, 4);
    const std::vector<float> k0 = random_floats(r * nkv * dh, 5);
    const std::vector<float> v0 = random_floats(r * nkv * dh, 6);
    const std::vector<float> dy = random_floats(r * H, 7);
    const std::vector<float> gain(static_cast<std::size_t>(H), 1.0f);
    std::vector<float> y(r * H), q = q0, o(r * H), dq(r * H),
        dk(r * nkv * dh), dv(r * nkv * dh), dx(r * H), dgain(H);
    std::vector<float> lse(static_cast<std::size_t>(G * nh * S)), inv(r);
    const std::vector<float> w1 = random_floats(F * H, 8), w3 = random_floats(F * H, 9),
                             w2 = random_floats(H * F, 10);
    std::vector<float> a(r * F), b(r * F), dw1(F * H), dw3(F * H), dw2(H * F);
    const std::vector<float> logits = random_floats(r * V, 11);
    std::vector<float> dlogits(r * V);
    std::vector<std::int32_t> targets(r);
    for (std::size_t i = 0; i < r; ++i) targets[i] = static_cast<std::int32_t>(i % V);

    attention_forward_stream(q0.data(), k0.data(), v0.data(), o.data(),
                             lse.data(), G, S, nh, nkv, dh);
    struct Op {
      const char* name;
      double calls;
      std::function<void()> fn;
    };
    const auto params = static_cast<std::size_t>(model.total_param_count());
    std::vector<float> weights = random_floats(params, 12);
    const std::vector<float> grad = random_floats(params, 13);
    AdamShard adam(static_cast<std::int64_t>(params));
    const std::vector<Op> ops = {
        {"attn_fwd", N * L,
         [&] {
           attention_forward_stream(q0.data(), k0.data(), v0.data(), o.data(),
                                    lse.data(), G, S, nh, nkv, dh);
         }},
        {"attn_bwd", N * L,
         [&] {
           attention_backward_stream(q0.data(), k0.data(), v0.data(), o.data(),
                                     lse.data(), dy.data(), dq.data(),
                                     dk.data(), dv.data(), G, S, nh, nkv, dh);
         }},
        {"swiglu_fwd", N * L,
         [&] {
           swiglu_forward(x.data(), w1.data(), w3.data(), w2.data(), a.data(),
                          b.data(), y.data(), rows, H, F);
         }},
        {"swiglu_bwd", N * L,
         [&] {
           swiglu_backward(x.data(), w1.data(), w3.data(), w2.data(),
                           a.data(), b.data(), dy.data(), dx.data(),
                           dw1.data(), dw3.data(), dw2.data(), rows, H, F);
         }},
        {"rmsnorm", N * (2 * L + 1),  // forward + backward of one norm
         [&] {
           rmsnorm_forward(x.data(), gain.data(), y.data(), inv.data(), rows,
                           H, mc.norm_eps);
           rmsnorm_backward(x.data(), gain.data(), inv.data(), dy.data(),
                            dx.data(), dgain.data(), rows, H);
         }},
        {"rope", 4 * N * L,  // q and k, forward and backward
         [&] { rope_apply(q.data(), rows, S, nh, dh, mc.rope_theta, false); }},
        {"xent", N,
         [&] {
           cross_entropy(logits.data(), targets.data(), dlogits.data(), rows,
                         V);
         }},
        {"adam", 1,  // the whole model once per step, over all shards
         [&] { adam.step(weights, grad, cfg.adam); }},
    };
    std::vector<Metric> shares;
    for (const Op& op : ops) {
      const double s = time_call(op.fn);
      out.push_back({std::string("nn.") + op.name + "_ms", s * 1e3, "ms"});
      if (std::string(op.name) == "attn_bwd") {
        // Recompute P, then dV, dP, dQ, dK: five S x S x dh products per
        // head, halved by the causal mask.
        const double flops = 5.0 * static_cast<double>(G * nh * S * S * dh);
        out.push_back({"nn.attn_bwd_gflops", flops / s * 1e-9, "GFLOP/s"});
      }
      shares.push_back({std::string("nn.") + op.name + "_share",
                        s * op.calls / rank_seconds_per_step, "fraction"});
    }
    out.insert(out.end(), shares.begin(), shares.end());
  }

  // comm: fp16 pack/unpack of one weight chunk against memcpy, and one hop
  // of that chunk per transport.
  {
    std::int64_t chunk = 0;
    for (const ChunkSpec& c : model.make_chunks(w.world)) {
      chunk = std::max(chunk, c.param_count);
    }
    const auto n = static_cast<std::size_t>(chunk);
    const std::vector<float> src = random_floats(n, 14);
    std::vector<float> dst(n);
    const std::size_t packed = comm::packed_size(n, WirePrecision::Fp16);
    std::vector<std::uint8_t> wire(packed);
    const double fp32_bytes = static_cast<double>(n * sizeof(float));
    const double t_copy =
        time_call([&] { std::memcpy(dst.data(), src.data(), n * sizeof(float)); });
    const double t_pack = time_call([&] {
      comm::pack_floats_into(src, WirePrecision::Fp16, wire.data());
    });
    const double t_unpack = time_call([&] {
      comm::unpack_floats(wire, WirePrecision::Fp16, dst);
    });
    out.push_back({"comm.memcpy_gbps", fp32_bytes / t_copy * 1e-9, "GB/s"});
    out.push_back({"comm.pack_gbps", fp32_bytes / t_pack * 1e-9, "GB/s"});
    out.push_back({"comm.unpack_gbps", fp32_bytes / t_unpack * 1e-9, "GB/s"});
    const double hop_in = hop_seconds(comm::TransportKind::kInproc, packed);
    const double hop_shm = hop_seconds(comm::TransportKind::kShm, packed);
    out.push_back({"comm.hop_us_inproc", hop_in * 1e6, "us"});
    out.push_back({"comm.hop_us_shm", hop_shm * 1e6, "us"});
    out.push_back({"comm.hop_gbps_shm",
                   static_cast<double>(packed) / hop_shm * 1e-9, "GB/s"});
  }
  return out;
}

}  // namespace lcbench
