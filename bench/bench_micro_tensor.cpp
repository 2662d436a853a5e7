// google-benchmark microbenchmarks for the tensor/nn kernels the trainers
// spend their time in. With --kernels_json=PATH the binary instead emits a
// machine-readable GFLOP/s report (tiled vs naive per shape, attention
// backward stream vs naive, dispatch overhead, pool counters) — see
// kernels_json.hpp.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "kernels_json.hpp"
#include "nn/layer_math.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace weipipe {
namespace {

Tensor make_randn(std::vector<std::int64_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Tensor a = make_randn({n, n}, 1);
  const Tensor b = make_randn({n, n}, 2);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulBt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Tensor a = make_randn({n, n}, 1);
  const Tensor b = make_randn({n, n}, 2);
  for (auto _ : state) {
    Tensor c = matmul_bt(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulBt)->Arg(64)->Arg(128)->Arg(256);

void BM_SoftmaxRows(benchmark::State& state) {
  const std::int64_t rows = 256;
  const std::int64_t cols = state.range(0);
  Tensor x = make_randn({rows, cols}, 3);
  for (auto _ : state) {
    Tensor y = x;
    kernels::softmax_rows(y.data(), rows, cols, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_SoftmaxRows)->Arg(128)->Arg(1024);

void BM_AttentionNaive(benchmark::State& state) {
  const std::int64_t S = state.range(0);
  const std::int64_t G = 2;
  const std::int64_t nh = 4;
  const std::int64_t dh = 16;
  const Tensor q = make_randn({G * S, nh * dh}, 4);
  const Tensor k = make_randn({G * S, nh * dh}, 5);
  const Tensor v = make_randn({G * S, nh * dh}, 6);
  Tensor out({G * S, nh * dh});
  Tensor probs({G, nh, S, S});
  for (auto _ : state) {
    attention_forward_naive(q.data(), k.data(), v.data(), out.data(),
                            probs.data(), G, S, nh, dh);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AttentionNaive)->Arg(64)->Arg(128);

void BM_AttentionStream(benchmark::State& state) {
  const std::int64_t S = state.range(0);
  const std::int64_t G = 2;
  const std::int64_t nh = 4;
  const std::int64_t dh = 16;
  const Tensor q = make_randn({G * S, nh * dh}, 4);
  const Tensor k = make_randn({G * S, nh * dh}, 5);
  const Tensor v = make_randn({G * S, nh * dh}, 6);
  Tensor out({G * S, nh * dh});
  Tensor lse({G, nh, S});
  for (auto _ : state) {
    attention_forward_stream(q.data(), k.data(), v.data(), out.data(),
                             lse.data(), G, S, nh, dh);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AttentionStream)->Arg(64)->Arg(128);

void BM_RmsNorm(benchmark::State& state) {
  const std::int64_t rows = 512;
  const std::int64_t dim = state.range(0);
  const Tensor x = make_randn({rows, dim}, 7);
  const Tensor gain = Tensor::full({dim}, 1.0f);
  Tensor y({rows, dim});
  Tensor inv({rows});
  for (auto _ : state) {
    rmsnorm_forward(x.data(), gain.data(), y.data(), inv.data(), rows, dim,
                    1e-5f);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * dim);
}
BENCHMARK(BM_RmsNorm)->Arg(64)->Arg(512);

// ---- --kernels_json mode ----------------------------------------------------

using KernelFn = void (*)(const float*, const float*, float*, std::int64_t,
                          std::int64_t, std::int64_t, bool);

double gemm_gflops(KernelFn fn, std::int64_t m, std::int64_t k, std::int64_t n,
                   int reps) {
  const Tensor a = make_randn({m, k}, 1);
  const Tensor b = make_randn({k, n}, 2);  // pointer-level: size k*n == n*k
  Tensor c({m, n});
  fn(a.data(), b.data(), c.data(), m, k, n, false);  // warm (packs scratch)
  const double secs = bench::best_seconds(
      reps, [&] { fn(a.data(), b.data(), c.data(), m, k, n, false); });
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n) / secs / 1e9;
}

// Attention backward at one shape. Both paths start from their own forward
// output (the naive one needs the materialized probs). FLOPs follow the
// causal count: five S x S x dh products per head, halved by the mask.
struct AttnRow {
  const char* impl;
  std::int64_t G, S, nh, nkv, dh;
  double ms, gflops;
};

AttnRow attention_bwd_row(bool stream, std::int64_t G, std::int64_t S,
                          std::int64_t nh, std::int64_t nkv, std::int64_t dh,
                          int reps) {
  const std::int64_t rows = G * S;
  const Tensor q = make_randn({rows, nh * dh}, 11);
  const Tensor k = make_randn({rows, nkv * dh}, 12);
  const Tensor v = make_randn({rows, nkv * dh}, 13);
  const Tensor dout = make_randn({rows, nh * dh}, 14);
  Tensor out({rows, nh * dh});
  Tensor dq({rows, nh * dh}), dk({rows, nkv * dh}), dv({rows, nkv * dh});
  Tensor saved(stream ? std::vector<std::int64_t>{G, nh, S}
                      : std::vector<std::int64_t>{G, nh, S, S});
  if (stream) {
    attention_forward_stream(q.data(), k.data(), v.data(), out.data(),
                             saved.data(), G, S, nh, nkv, dh);
  } else {
    attention_forward_naive(q.data(), k.data(), v.data(), out.data(),
                            saved.data(), G, S, nh, nkv, dh);
  }
  auto bwd = [&] {
    if (stream) {
      attention_backward_stream(q.data(), k.data(), v.data(), out.data(),
                                saved.data(), dout.data(), dq.data(),
                                dk.data(), dv.data(), G, S, nh, nkv, dh);
    } else {
      attention_backward_naive(q.data(), k.data(), v.data(), saved.data(),
                               dout.data(), dq.data(), dk.data(), dv.data(),
                               G, S, nh, nkv, dh);
    }
  };
  bwd();  // warm
  const double secs = bench::best_seconds(reps, bwd);
  const double flops = 5.0 * static_cast<double>(G * nh * S * S * dh);
  return {stream ? "stream" : "naive", G, S, nh, nkv, dh, secs * 1e3,
          flops / secs / 1e9};
}

// Mean cost of pushing one empty dispatch through the arena (publish slot +
// wake workers + claim loop + join) — the fixed overhead every parallel
// kernel pays.
double dispatch_overhead_ns(int iters) {
  ThreadPool& pool = ThreadPool::global();
  auto noop = [](std::size_t, std::size_t) {};
  const std::size_t n = 16 * (pool.size() + 1);  // forces the dispatch path
  pool.for_range(0, n, noop, 1);  // warm
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    pool.for_range(0, n, noop, 1);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

int write_kernels_json(const std::string& path, bool smoke) {
  const ThreadPoolStats before = ThreadPool::global().stats();
  struct Row {
    const char* name;
    const char* impl;
    std::int64_t m, k, n;
    double gflops;
  };
  std::vector<Row> rows;
  const int reps = smoke ? 2 : 5;
  const std::vector<std::int64_t> sizes =
      smoke ? std::vector<std::int64_t>{64, 128}
            : std::vector<std::int64_t>{64, 128, 256, 512};
  for (std::int64_t s : sizes) {
    rows.push_back({"matmul", "tiled", s, s, s,
                    gemm_gflops(&kernels::matmul, s, s, s, reps)});
    rows.push_back({"matmul", "naive", s, s, s,
                    gemm_gflops(&kernels::matmul_naive, s, s, s, reps)});
  }
  const std::int64_t sq = smoke ? 128 : 256;
  rows.push_back({"matmul_bt", "tiled", sq, sq, sq,
                  gemm_gflops(&kernels::matmul_bt, sq, sq, sq, reps)});
  rows.push_back({"matmul_bt", "naive", sq, sq, sq,
                  gemm_gflops(&kernels::matmul_bt_naive, sq, sq, sq, reps)});
  rows.push_back({"matmul_at", "tiled", sq, sq, sq,
                  gemm_gflops(&kernels::matmul_at, sq, sq, sq, reps)});
  rows.push_back({"matmul_at", "naive", sq, sq, sq,
                  gemm_gflops(&kernels::matmul_at_naive, sq, sq, sq, reps)});
  // The per-kernel-grain case: tall-skinny bt (weight-gradient shape with a
  // tiny output) must not be slower than naive from over-parallelizing.
  const std::int64_t tall = smoke ? 128 : 512;
  rows.push_back({"matmul_bt_tiny_n", "tiled", tall, tall, 8,
                  gemm_gflops(&kernels::matmul_bt, tall, tall, 8, reps)});
  rows.push_back({"matmul_bt_tiny_n", "naive", tall, tall, 8,
                  gemm_gflops(&kernels::matmul_bt_naive, tall, tall, 8, reps)});

  // The long-context attention shape (H = 64, 4 heads), MHA and nkv = 1.
  std::vector<AttnRow> attn;
  const std::vector<std::int64_t> seqs =
      smoke ? std::vector<std::int64_t>{128}
            : std::vector<std::int64_t>{512, 1024};
  for (std::int64_t S : seqs) {
    for (std::int64_t nkv : {4, 1}) {
      for (bool stream : {true, false}) {
        attn.push_back(attention_bwd_row(stream, 1, S, 4, nkv, 16, reps));
      }
    }
  }

  const double overhead_ns = dispatch_overhead_ns(smoke ? 200 : 2000);
  const ThreadPoolStats after = ThreadPool::global().stats();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_micro_tensor\",\n");
  std::fprintf(f, "  \"simd\": \"%s\",\n  \"threads\": %zu,\n",
               bench::simd_label(), ThreadPool::global().size());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"impl\": \"%s\", \"m\": %lld, "
                 "\"k\": %lld, \"n\": %lld, \"gflops\": %.3f}%s\n",
                 r.name, r.impl, static_cast<long long>(r.m),
                 static_cast<long long>(r.k), static_cast<long long>(r.n),
                 r.gflops, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"attention\": [\n");
  for (std::size_t i = 0; i < attn.size(); ++i) {
    const AttnRow& r = attn[i];
    std::fprintf(f,
                 "    {\"name\": \"attention_bwd\", \"impl\": \"%s\", "
                 "\"G\": %lld, \"S\": %lld, \"nh\": %lld, \"nkv\": %lld, "
                 "\"dh\": %lld, \"ms\": %.3f, \"gflops\": %.3f}%s\n",
                 r.impl, static_cast<long long>(r.G),
                 static_cast<long long>(r.S), static_cast<long long>(r.nh),
                 static_cast<long long>(r.nkv), static_cast<long long>(r.dh),
                 r.ms, r.gflops, i + 1 < attn.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"dispatch_overhead_ns\": %.1f,\n", overhead_ns);
  std::fprintf(f,
               "  \"pool\": {\"dispatches\": %llu, \"serial_runs\": %llu, "
               "\"items\": %llu, \"chunks\": %llu, \"steals\": %llu}\n}\n",
               static_cast<unsigned long long>(after.dispatches -
                                               before.dispatches),
               static_cast<unsigned long long>(after.serial_runs -
                                               before.serial_runs),
               static_cast<unsigned long long>(after.items - before.items),
               static_cast<unsigned long long>(after.chunks - before.chunks),
               static_cast<unsigned long long>(after.steals - before.steals));
  std::fclose(f);
  std::printf("wrote %s (%zu kernel rows, %zu attention rows)\n",
              path.c_str(), rows.size(), attn.size());
  return 0;
}

}  // namespace
}  // namespace weipipe

int main(int argc, char** argv) {
  weipipe::bench::KernelsJsonArgs args =
      weipipe::bench::parse_kernels_json_args(argc, argv);
  if (!args.json_path.empty()) {
    return weipipe::write_kernels_json(args.json_path, args.smoke);
  }
  int rest_argc = static_cast<int>(args.rest.size());
  benchmark::Initialize(&rest_argc, args.rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, args.rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
