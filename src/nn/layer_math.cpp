#include "nn/layer_math.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace weipipe {

namespace {

// Per-kernel dispatch grain: enough items per chunk that each claim carries
// ~kElemsPerChunk scalar operations (work_per_item = inner-loop length).
constexpr std::int64_t kElemsPerChunk = 1 << 15;

std::size_t grain_for(std::int64_t work_per_item) {
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, kElemsPerChunk / std::max<std::int64_t>(1, work_per_item)));
}

// Streaming-attention tile: query rows x key columns per GEMM block, shared
// by the forward and backward kernels.
constexpr std::int64_t kBq = 64;
constexpr std::int64_t kBk = 64;

}  // namespace

void rmsnorm_forward(const float* x, const float* gain, float* y,
                     float* inv_rms, std::int64_t rows, std::int64_t dim,
                     float eps) {
  parallel_for_range(
      0, static_cast<std::size_t>(rows), grain_for(dim),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t rr = lo; rr < hi; ++rr) {
          const std::int64_t r = static_cast<std::int64_t>(rr);
          const float* xr = x + r * dim;
          float* yr = y + r * dim;
          double ss = 0.0;
          for (std::int64_t j = 0; j < dim; ++j) {
            ss += static_cast<double>(xr[j]) * xr[j];
          }
          const float inv = 1.0f / std::sqrt(static_cast<float>(
                                                 ss / static_cast<double>(dim)) +
                                             eps);
          inv_rms[r] = inv;
          for (std::int64_t j = 0; j < dim; ++j) {
            yr[j] = xr[j] * inv * gain[j];
          }
        }
      });
}

void rmsnorm_backward(const float* x, const float* gain, const float* inv_rms,
                      const float* dy, float* dx, float* dgain,
                      std::int64_t rows, std::int64_t dim) {
  // Two passes so both parallelize race-free: rows own disjoint dx slices,
  // column blocks own disjoint dgain slices. Each dgain column still sums
  // over rows in increasing order, so results match the serial loop exactly.
  parallel_for_range(
      0, static_cast<std::size_t>(rows), grain_for(dim),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t rr = lo; rr < hi; ++rr) {
          const std::int64_t r = static_cast<std::int64_t>(rr);
          const float* xr = x + r * dim;
          const float* dyr = dy + r * dim;
          float* dxr = dx + r * dim;
          const float inv = inv_rms[r];
          // s = sum_k dy_k * gain_k * x_k
          double s = 0.0;
          for (std::int64_t j = 0; j < dim; ++j) {
            s += static_cast<double>(dyr[j]) * gain[j] * xr[j];
          }
          const float coef =
              -static_cast<float>(s) * inv * inv * inv / static_cast<float>(dim);
          for (std::int64_t j = 0; j < dim; ++j) {
            dxr[j] = dyr[j] * gain[j] * inv + coef * xr[j];
          }
        }
      });
  parallel_for_range(
      0, static_cast<std::size_t>(dim), grain_for(rows),
      [&](std::size_t lo, std::size_t hi) {
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* xr = x + r * dim;
          const float* dyr = dy + r * dim;
          const float inv = inv_rms[r];
          for (std::size_t j = lo; j < hi; ++j) {
            dgain[j] += dyr[j] * xr[j] * inv;
          }
        }
      });
}

void rope_apply(float* x, std::int64_t rows, std::int64_t seq,
                std::int64_t n_heads, std::int64_t head_dim, float theta,
                bool inverse) {
  const std::int64_t half = head_dim / 2;
  // Per-frequency base angles are position-scaled; precompute the inverse
  // frequencies once per call (head_dim is small).
  std::vector<float> inv_freq(static_cast<std::size_t>(half));
  for (std::int64_t i = 0; i < half; ++i) {
    inv_freq[static_cast<std::size_t>(i)] = std::pow(
        theta, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim));
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t pos = r % seq;
    for (std::int64_t h = 0; h < n_heads; ++h) {
      float* base = x + r * n_heads * head_dim + h * head_dim;
      for (std::int64_t i = 0; i < half; ++i) {
        float ang = static_cast<float>(pos) * inv_freq[static_cast<std::size_t>(i)];
        if (inverse) {
          ang = -ang;
        }
        const float c = std::cos(ang);
        const float s = std::sin(ang);
        const float x0 = base[2 * i];
        const float x1 = base[2 * i + 1];
        base[2 * i] = x0 * c - x1 * s;
        base[2 * i + 1] = x0 * s + x1 * c;
      }
    }
  }
}

void attention_forward_naive(const float* q, const float* k, const float* v,
                             float* out, float* probs, std::int64_t G,
                             std::int64_t S, std::int64_t nh, std::int64_t nkv,
                             std::int64_t dh) {
  const float scl = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t H = nh * dh;
  const std::int64_t Hkv = nkv * dh;
  const std::int64_t group = nh / nkv;
  const std::size_t heads = static_cast<std::size_t>(G * nh);
  parallel_for_range(0, heads, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t gh = lo; gh < hi; ++gh) {
      const std::int64_t g = static_cast<std::int64_t>(gh) / nh;
      const std::int64_t h = static_cast<std::int64_t>(gh) % nh;
      const std::int64_t kvh = h / group;  // shared key/value head
      float* p = probs + (g * nh + h) * S * S;
      for (std::int64_t i = 0; i < S; ++i) {
        const float* qi = q + (g * S + i) * H + h * dh;
        float* pi = p + i * S;
        for (std::int64_t j = 0; j <= i; ++j) {
          const float* kj = k + (g * S + j) * Hkv + kvh * dh;
          float acc = 0.0f;
          for (std::int64_t d = 0; d < dh; ++d) {
            acc += qi[d] * kj[d];
          }
          pi[j] = acc * scl;
        }
        const std::int64_t valid = i + 1;
        kernels::softmax_rows(pi, 1, S, &valid);
        float* oi = out + (g * S + i) * H + h * dh;
        std::memset(oi, 0, static_cast<std::size_t>(dh) * sizeof(float));
        for (std::int64_t j = 0; j <= i; ++j) {
          const float* vj = v + (g * S + j) * Hkv + kvh * dh;
          const float pij = pi[j];
          for (std::int64_t d = 0; d < dh; ++d) {
            oi[d] += pij * vj[d];
          }
        }
      }
    }
  });
}

void attention_backward_naive(const float* q, const float* k, const float* v,
                              const float* probs, const float* dout, float* dq,
                              float* dk, float* dv, std::int64_t G,
                              std::int64_t S, std::int64_t nh,
                              std::int64_t nkv, std::int64_t dh) {
  const float scl = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t H = nh * dh;
  const std::int64_t Hkv = nkv * dh;
  const std::int64_t group = nh / nkv;
  std::memset(dq, 0, static_cast<std::size_t>(G * S * H) * sizeof(float));
  std::memset(dk, 0, static_cast<std::size_t>(G * S * Hkv) * sizeof(float));
  std::memset(dv, 0, static_cast<std::size_t>(G * S * Hkv) * sizeof(float));
  // Parallelize over (g, kv-head): every query head in the group accumulates
  // into the same dk/dv slices, so the group stays on one task.
  const std::size_t kv_groups = static_cast<std::size_t>(G * nkv);
  parallel_for_range(0, kv_groups, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t gkv = lo; gkv < hi; ++gkv) {
      const std::int64_t g = static_cast<std::int64_t>(gkv) / nkv;
      const std::int64_t kvh = static_cast<std::int64_t>(gkv) % nkv;
      std::vector<float> dp(static_cast<std::size_t>(S));
      for (std::int64_t h = kvh * group; h < (kvh + 1) * group; ++h) {
        const float* p = probs + (g * nh + h) * S * S;
        for (std::int64_t i = 0; i < S; ++i) {
          const float* pi = p + i * S;
          const float* doi = dout + (g * S + i) * H + h * dh;
          // dV and dP for row i.
          double row_dot = 0.0;
          for (std::int64_t j = 0; j <= i; ++j) {
            const float* vj = v + (g * S + j) * Hkv + kvh * dh;
            float acc = 0.0f;
            for (std::int64_t d = 0; d < dh; ++d) {
              acc += doi[d] * vj[d];
            }
            dp[static_cast<std::size_t>(j)] = acc;
            row_dot += static_cast<double>(acc) * pi[j];
            float* dvj = dv + (g * S + j) * Hkv + kvh * dh;
            const float pij = pi[j];
            for (std::int64_t d = 0; d < dh; ++d) {
              dvj[d] += pij * doi[d];
            }
          }
          // dScores_ij = P_ij * (dP_ij - sum_k dP_ik P_ik); then dq, dk.
          const float* qi = q + (g * S + i) * H + h * dh;
          float* dqi = dq + (g * S + i) * H + h * dh;
          for (std::int64_t j = 0; j <= i; ++j) {
            const float ds =
                pi[j] * (dp[static_cast<std::size_t>(j)] -
                         static_cast<float>(row_dot)) * scl;
            const float* kj = k + (g * S + j) * Hkv + kvh * dh;
            float* dkj = dk + (g * S + j) * Hkv + kvh * dh;
            for (std::int64_t d = 0; d < dh; ++d) {
              dqi[d] += ds * kj[d];
              dkj[d] += ds * qi[d];
            }
          }
        }
      }
    }
  });
}

void attention_forward_stream(const float* q, const float* k, const float* v,
                              float* out, float* lse, std::int64_t G,
                              std::int64_t S, std::int64_t nh,
                              std::int64_t nkv, std::int64_t dh) {
  const float scl = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t H = nh * dh;
  const std::int64_t Hkv = nkv * dh;
  const std::int64_t group = nh / nkv;
  // FlashAttention-style blocking: Bq query rows against Bk key columns at a
  // time. The score block and the P*V update are GEMMs against the strided
  // Q/K/V layouts (a transpose is a stride swap); only the online-softmax
  // rescale between them is elementwise. O(S) working set per task instead
  // of O(S^2) scores.
  const std::size_t heads = static_cast<std::size_t>(G * nh);
  parallel_for_range(0, heads, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t gh = lo; gh < hi; ++gh) {
      const std::int64_t g = static_cast<std::int64_t>(gh) / nh;
      const std::int64_t h = static_cast<std::int64_t>(gh) % nh;
      const std::int64_t kvh = h / group;
      std::vector<float> sblk(static_cast<std::size_t>(kBq * kBk));
      std::vector<float> acc(static_cast<std::size_t>(kBq * dh));
      std::vector<float> m(static_cast<std::size_t>(kBq));
      std::vector<float> l(static_cast<std::size_t>(kBq));
      for (std::int64_t i0 = 0; i0 < S; i0 += kBq) {
        const std::int64_t mq = std::min(kBq, S - i0);
        std::fill(m.begin(), m.end(), -std::numeric_limits<float>::infinity());
        std::fill(l.begin(), l.end(), 0.0f);
        std::fill(acc.begin(), acc.end(), 0.0f);
        const float* qblk = q + (g * S + i0) * H + h * dh;
        // Causal: the highest query row in this block sees keys 0..i0+mq-1.
        for (std::int64_t j0 = 0; j0 < i0 + mq; j0 += kBk) {
          const std::int64_t nk = std::min(kBk, std::min(S, i0 + mq) - j0);
          // S_blk[mq, nk] = Q_blk * K_blk^T  (K^T: column j is key row j0+j).
          kernels::gemm(qblk, H, 1, k + (g * S + j0) * Hkv + kvh * dh, 1, Hkv,
                        sblk.data(), kBk, mq, dh, nk, /*accumulate=*/false);
          // Online-softmax update per row; masked entries become P = 0.
          for (std::int64_t i = 0; i < mq; ++i) {
            float* si = sblk.data() + i * kBk;
            const std::int64_t qi = i0 + i;
            const std::int64_t valid = std::min(nk, qi - j0 + 1);
            if (valid <= 0) {
              std::fill(si, si + nk, 0.0f);
              continue;
            }
            float bmax = -std::numeric_limits<float>::infinity();
            for (std::int64_t j = 0; j < valid; ++j) {
              si[j] *= scl;
              bmax = std::max(bmax, si[j]);
            }
            const float m_new = std::max(m[static_cast<std::size_t>(i)], bmax);
            const float corr =
                (l[static_cast<std::size_t>(i)] == 0.0f)
                    ? 0.0f
                    : std::exp(m[static_cast<std::size_t>(i)] - m_new);
            float psum = 0.0f;
            for (std::int64_t j = 0; j < valid; ++j) {
              si[j] = std::exp(si[j] - m_new);
              psum += si[j];
            }
            std::fill(si + valid, si + nk, 0.0f);
            l[static_cast<std::size_t>(i)] =
                l[static_cast<std::size_t>(i)] * corr + psum;
            m[static_cast<std::size_t>(i)] = m_new;
            float* ai = acc.data() + i * dh;
            for (std::int64_t d = 0; d < dh; ++d) {
              ai[d] *= corr;
            }
          }
          // acc[mq, dh] += P_blk * V_blk.
          kernels::gemm(sblk.data(), kBk, 1,
                        v + (g * S + j0) * Hkv + kvh * dh, Hkv, 1, acc.data(),
                        dh, mq, nk, dh, /*accumulate=*/true);
        }
        for (std::int64_t i = 0; i < mq; ++i) {
          float* oi = out + (g * S + i0 + i) * H + h * dh;
          const float* ai = acc.data() + i * dh;
          const float inv = 1.0f / l[static_cast<std::size_t>(i)];
          for (std::int64_t d = 0; d < dh; ++d) {
            oi[d] = ai[d] * inv;
          }
          lse[(g * nh + h) * S + i0 + i] =
              m[static_cast<std::size_t>(i)] +
              std::log(l[static_cast<std::size_t>(i)]);
        }
      }
    }
  });
}

void attention_backward_stream(const float* q, const float* k, const float* v,
                               const float* out, const float* lse,
                               const float* dout, float* dq, float* dk,
                               float* dv, std::int64_t G, std::int64_t S,
                               std::int64_t nh, std::int64_t nkv,
                               std::int64_t dh) {
  const float scl = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t H = nh * dh;
  const std::int64_t Hkv = nkv * dh;
  const std::int64_t group = nh / nkv;
  const std::size_t q_elems = static_cast<std::size_t>(G * S * H);
  const std::size_t kv_elems = static_cast<std::size_t>(G * S * Hkv);
  std::memset(dq, 0, q_elems * sizeof(float));
  // One task per (g, query head), so every output has exactly one writer.
  // With MHA each task owns its dk/dv column slice; with GQA the query heads
  // of a group would share one, so each writes a dq-shaped partial instead
  // and the partials are summed in ascending head order afterwards. Either
  // way the result is bitwise independent of the thread count.
  std::vector<float> dk_part;
  std::vector<float> dv_part;
  float* dk_acc = dk;
  float* dv_acc = dv;
  if (group == 1) {
    std::memset(dk, 0, kv_elems * sizeof(float));
    std::memset(dv, 0, kv_elems * sizeof(float));
  } else {
    dk_part.assign(q_elems, 0.0f);
    dv_part.assign(q_elems, 0.0f);
    dk_acc = dk_part.data();
    dv_acc = dv_part.data();
  }
  // FlashAttention-2 backward: per (query tile, key tile) recompute the
  // scores and dP = dO*V^T as GEMMs, turn them into P and dS in one
  // elementwise pass, then accumulate dV += P^T*dO, dK += dS^T*Q and
  // dQ += dS*K as GEMMs. A transpose is a stride swap.
  const std::size_t heads = static_cast<std::size_t>(G * nh);
  parallel_for_range(0, heads, 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<float> pblk(static_cast<std::size_t>(kBq * kBk));
    std::vector<float> dsblk(static_cast<std::size_t>(kBq * kBk));
    std::vector<float> delta(static_cast<std::size_t>(kBq));
    for (std::size_t gh = lo; gh < hi; ++gh) {
      const std::int64_t g = static_cast<std::int64_t>(gh) / nh;
      const std::int64_t h = static_cast<std::int64_t>(gh) % nh;
      const std::int64_t kvh = h / group;
      // Partials share dq's layout (row stride H, column slice h); with MHA
      // that is dk/dv's own layout, since Hkv == H and kvh == h.
      float* dk_h = dk_acc + g * S * H + h * dh;
      float* dv_h = dv_acc + g * S * H + h * dh;
      const float* k_h = k + g * S * Hkv + kvh * dh;
      const float* v_h = v + g * S * Hkv + kvh * dh;
      for (std::int64_t i0 = 0; i0 < S; i0 += kBq) {
        const std::int64_t mq = std::min(kBq, S - i0);
        const std::int64_t row0 = (g * S + i0) * H + h * dh;
        const float* qblk = q + row0;
        const float* doblk = dout + row0;
        // D_i = <dO_i, O_i> (the FlashAttention-2 "delta").
        for (std::int64_t i = 0; i < mq; ++i) {
          const float* oi = out + row0 + i * H;
          const float* doi = doblk + i * H;
          float acc = 0.0f;
          for (std::int64_t d = 0; d < dh; ++d) {
            acc += doi[d] * oi[d];
          }
          delta[static_cast<std::size_t>(i)] = acc;
        }
        const float* lse_blk = lse + (g * nh + h) * S + i0;
        // Causal: the highest query row in this tile sees keys 0..i0+mq-1.
        for (std::int64_t j0 = 0; j0 < i0 + mq; j0 += kBk) {
          const std::int64_t nk = std::min(kBk, i0 + mq - j0);
          const float* kblk = k_h + j0 * Hkv;
          const float* vblk = v_h + j0 * Hkv;
          // S = Q*K^T and dP = dO*V^T, both [mq, nk].
          kernels::gemm(qblk, H, 1, kblk, 1, Hkv, pblk.data(), kBk, mq,
                        dh, nk, /*accumulate=*/false);
          kernels::gemm(doblk, H, 1, vblk, 1, Hkv, dsblk.data(), kBk, mq,
                        dh, nk, /*accumulate=*/false);
          // P = exp(S*scl - lse), dS = P*(dP - D)*scl; masked entries are 0
          // so the three GEMMs below can run over the whole tile.
          for (std::int64_t i = 0; i < mq; ++i) {
            float* pi = pblk.data() + i * kBk;
            float* dsi = dsblk.data() + i * kBk;
            const std::int64_t valid =
                std::clamp<std::int64_t>(i0 + i - j0 + 1, 0, nk);
            const float lse_i = lse_blk[i];
            const float delta_i = delta[static_cast<std::size_t>(i)];
            for (std::int64_t j = 0; j < valid; ++j) {
              const float p = std::exp(pi[j] * scl - lse_i);
              pi[j] = p;
              dsi[j] = p * (dsi[j] - delta_i) * scl;
            }
            std::fill(pi + valid, pi + nk, 0.0f);
            std::fill(dsi + valid, dsi + nk, 0.0f);
          }
          // dV[nk, dh] += P^T * dO;  dK[nk, dh] += dS^T * Q.
          kernels::gemm(pblk.data(), 1, kBk, doblk, H, 1,
                        dv_h + j0 * H, H, nk, mq, dh, /*accumulate=*/true);
          kernels::gemm(dsblk.data(), 1, kBk, qblk, H, 1,
                        dk_h + j0 * H, H, nk, mq, dh, /*accumulate=*/true);
          // dQ[mq, dh] += dS * K.
          kernels::gemm(dsblk.data(), kBk, 1, kblk, Hkv, 1, dq + row0, H,
                        mq, nk, dh, /*accumulate=*/true);
        }
      }
    }
  });
  if (group == 1) {
    return;
  }
  // dk/dv = sum over the group's query heads, in ascending head order.
  parallel_for_range(
      0, static_cast<std::size_t>(G * S), grain_for(H),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t rr = lo; rr < hi; ++rr) {
          const std::int64_t r = static_cast<std::int64_t>(rr);
          for (std::int64_t kvh = 0; kvh < nkv; ++kvh) {
            float* dkr = dk + r * Hkv + kvh * dh;
            float* dvr = dv + r * Hkv + kvh * dh;
            const std::int64_t h0 = kvh * group;
            std::memcpy(dkr, dk_part.data() + r * H + h0 * dh,
                        static_cast<std::size_t>(dh) * sizeof(float));
            std::memcpy(dvr, dv_part.data() + r * H + h0 * dh,
                        static_cast<std::size_t>(dh) * sizeof(float));
            for (std::int64_t h = h0 + 1; h < h0 + group; ++h) {
              const float* dkp = dk_part.data() + r * H + h * dh;
              const float* dvp = dv_part.data() + r * H + h * dh;
              for (std::int64_t d = 0; d < dh; ++d) {
                dkr[d] += dkp[d];
                dvr[d] += dvp[d];
              }
            }
          }
        }
      });
}

void swiglu_forward(const float* x, const float* w1, const float* w3,
                    const float* w2, float* a, float* b, float* y,
                    std::int64_t rows, std::int64_t dim, std::int64_t ffn) {
  kernels::matmul_bt(x, w1, a, rows, dim, ffn, /*accumulate=*/false);
  kernels::matmul_bt(x, w3, b, rows, dim, ffn, /*accumulate=*/false);
  std::vector<float> hbuf(static_cast<std::size_t>(rows * ffn));
  float* hp = hbuf.data();
  parallel_for_range(0, static_cast<std::size_t>(rows * ffn),
                     static_cast<std::size_t>(kElemsPerChunk),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         hp[i] = silu(a[i]) * b[i];
                       }
                     });
  kernels::matmul_bt(hbuf.data(), w2, y, rows, ffn, dim, /*accumulate=*/false);
}

void swiglu_backward(const float* x, const float* w1, const float* w3,
                     const float* w2, const float* a, const float* b,
                     const float* dy, float* dx, float* dw1, float* dw3,
                     float* dw2, std::int64_t rows, std::int64_t dim,
                     std::int64_t ffn) {
  // Recompute h = silu(a) * b (cheap, avoids storing a third [rows,F] buffer).
  std::vector<float> h(static_cast<std::size_t>(rows * ffn));
  float* hp = h.data();
  parallel_for_range(0, static_cast<std::size_t>(rows * ffn),
                     static_cast<std::size_t>(kElemsPerChunk),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         hp[i] = silu(a[i]) * b[i];
                       }
                     });
  // dW2 += dy^T h
  kernels::matmul_at(dy, h.data(), dw2, dim, rows, ffn, /*accumulate=*/true);
  // dh = dy W2
  std::vector<float>& dh = h;  // reuse buffer
  kernels::matmul(dy, w2, dh.data(), rows, dim, ffn, /*accumulate=*/false);
  // da = dh * b * silu'(a); db = dh * silu(a)
  std::vector<float> da(static_cast<std::size_t>(rows * ffn));
  std::vector<float> db(static_cast<std::size_t>(rows * ffn));
  float* dhp = dh.data();
  float* dap = da.data();
  float* dbp = db.data();
  parallel_for_range(0, static_cast<std::size_t>(rows * ffn),
                     static_cast<std::size_t>(kElemsPerChunk),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         dap[i] = dhp[i] * b[i] * silu_grad(a[i]);
                         dbp[i] = dhp[i] * silu(a[i]);
                       }
                     });
  // dx = da W1 + db W3
  kernels::matmul(da.data(), w1, dx, rows, ffn, dim, /*accumulate=*/false);
  kernels::matmul(db.data(), w3, dx, rows, ffn, dim, /*accumulate=*/true);
  // dW1 += da^T x ; dW3 += db^T x
  kernels::matmul_at(da.data(), x, dw1, ffn, rows, dim, /*accumulate=*/true);
  kernels::matmul_at(db.data(), x, dw3, ffn, rows, dim, /*accumulate=*/true);
}

float cross_entropy(const float* logits, const std::int32_t* targets,
                    float* dlogits, std::int64_t rows, std::int64_t vocab) {
  const float inv_rows = 1.0f / static_cast<float>(rows);
  // Rows are independent; per-row losses land in a scratch array and are
  // summed serially afterwards so the total is deterministic under any
  // thread count.
  std::vector<double> row_loss(static_cast<std::size_t>(rows));
  double* rl = row_loss.data();
  parallel_for_range(
      0, static_cast<std::size_t>(rows), grain_for(vocab),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t rr = lo; rr < hi; ++rr) {
          const std::int64_t r = static_cast<std::int64_t>(rr);
          const float* lr = logits + r * vocab;
          float* dr = dlogits + r * vocab;
          float mx = lr[0];
          for (std::int64_t j = 1; j < vocab; ++j) {
            mx = std::max(mx, lr[j]);
          }
          double denom = 0.0;
          for (std::int64_t j = 0; j < vocab; ++j) {
            denom += std::exp(static_cast<double>(lr[j] - mx));
          }
          const std::int64_t t = targets[r];
          rl[rr] = std::log(denom) - static_cast<double>(lr[t] - mx);
          const float inv_denom = static_cast<float>(1.0 / denom);
          for (std::int64_t j = 0; j < vocab; ++j) {
            const float p = std::exp(lr[j] - mx) * inv_denom;
            dr[j] = (p - (j == t ? 1.0f : 0.0f)) * inv_rows;
          }
        }
      });
  double total = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) {
    total += rl[r];
  }
  return static_cast<float>(total / static_cast<double>(rows));
}

}  // namespace weipipe
