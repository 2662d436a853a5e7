// Forward/backward math for every transformer sub-layer, as free functions on
// raw spans. Blocks (nn/blocks.*) compose these; unit tests gradient-check
// each one in isolation.
//
// Activation layout convention: [rows, dim] row-major with rows = G*S and the
// position of row r within its sequence = r % S. Heads occupy contiguous
// column slices [h*head_dim, (h+1)*head_dim).
#pragma once

#include <cstdint>

namespace weipipe {

// ---- RMSNorm ----------------------------------------------------------------
// y = x * inv_rms(x) * gain;  inv_rms = 1/sqrt(mean(x^2) + eps), saved per row.
void rmsnorm_forward(const float* x, const float* gain, float* y,
                     float* inv_rms, std::int64_t rows, std::int64_t dim,
                     float eps);
// dx written; dgain accumulated (+=).
void rmsnorm_backward(const float* x, const float* gain, const float* inv_rms,
                      const float* dy, float* dx, float* dgain,
                      std::int64_t rows, std::int64_t dim);

// ---- Rotary position embedding ----------------------------------------------
// In-place rotation of q/k pairs; `inverse` rotates by the negative angle,
// which is exactly the backward operation (rotation is orthonormal).
void rope_apply(float* x, std::int64_t rows, std::int64_t seq,
                std::int64_t n_heads, std::int64_t head_dim, float theta,
                bool inverse);

// ---- Causal multi/grouped-query attention -------------------------------------
// q: [G*S, nh*dh]; k, v: [G*S, nkv*dh] with nkv | nh (GQA; nkv == nh is
// classic MHA). Query head h attends through kv head h / (nh/nkv).
//
// Naive path: materializes probs [G, nh, S, S] (the memory hog the paper's
// Flash-Attention discussion is about). out: [G*S, nh*dh].
void attention_forward_naive(const float* q, const float* k, const float* v,
                             float* out, float* probs, std::int64_t G,
                             std::int64_t S, std::int64_t nh, std::int64_t nkv,
                             std::int64_t dh);
// dq/dk/dv written (not accumulated); dk/dv sized [G*S, nkv*dh].
void attention_backward_naive(const float* q, const float* k, const float* v,
                              const float* probs, const float* dout, float* dq,
                              float* dk, float* dv, std::int64_t G,
                              std::int64_t S, std::int64_t nh, std::int64_t nkv,
                              std::int64_t dh);

// Streaming (Flash-style) path: online softmax, saves only the per-row
// log-sum-exp `lse` [G, nh, S]; backward recomputes the probabilities tile
// by tile (FlashAttention-2). Both run 64x64 tiles through kernels::gemm
// with one task per (g, query head), and the backward's result is bitwise
// independent of the thread count (docs/KERNELS.md).
void attention_forward_stream(const float* q, const float* k, const float* v,
                              float* out, float* lse, std::int64_t G,
                              std::int64_t S, std::int64_t nh,
                              std::int64_t nkv, std::int64_t dh);
void attention_backward_stream(const float* q, const float* k, const float* v,
                               const float* out, const float* lse,
                               const float* dout, float* dq, float* dk,
                               float* dv, std::int64_t G, std::int64_t S,
                               std::int64_t nh, std::int64_t nkv,
                               std::int64_t dh);

// MHA conveniences (nkv == nh), used by existing tests and benches.
inline void attention_forward_naive(const float* q, const float* k,
                                    const float* v, float* out, float* probs,
                                    std::int64_t G, std::int64_t S,
                                    std::int64_t nh, std::int64_t dh) {
  attention_forward_naive(q, k, v, out, probs, G, S, nh, nh, dh);
}
inline void attention_backward_naive(const float* q, const float* k,
                                     const float* v, const float* probs,
                                     const float* dout, float* dq, float* dk,
                                     float* dv, std::int64_t G, std::int64_t S,
                                     std::int64_t nh, std::int64_t dh) {
  attention_backward_naive(q, k, v, probs, dout, dq, dk, dv, G, S, nh, nh,
                           dh);
}
inline void attention_forward_stream(const float* q, const float* k,
                                     const float* v, float* out, float* lse,
                                     std::int64_t G, std::int64_t S,
                                     std::int64_t nh, std::int64_t dh) {
  attention_forward_stream(q, k, v, out, lse, G, S, nh, nh, dh);
}
inline void attention_backward_stream(const float* q, const float* k,
                                      const float* v, const float* out,
                                      const float* lse, const float* dout,
                                      float* dq, float* dk, float* dv,
                                      std::int64_t G, std::int64_t S,
                                      std::int64_t nh, std::int64_t dh) {
  attention_backward_stream(q, k, v, out, lse, dout, dq, dk, dv, G, S, nh, nh,
                            dh);
}

// ---- SwiGLU feed-forward -----------------------------------------------------
// a = x W1^T, b = x W3^T, y = (silu(a) * b) W2^T.
// Saves a and b for backward (caller allocates [rows, F] each).
void swiglu_forward(const float* x, const float* w1, const float* w3,
                    const float* w2, float* a, float* b, float* y,
                    std::int64_t rows, std::int64_t dim, std::int64_t ffn);
// dx written; dw1/dw3/dw2 accumulated (+=).
void swiglu_backward(const float* x, const float* w1, const float* w3,
                     const float* w2, const float* a, const float* b,
                     const float* dy, float* dx, float* dw1, float* dw3,
                     float* dw2, std::int64_t rows, std::int64_t dim,
                     std::int64_t ffn);

// ---- Cross-entropy -----------------------------------------------------------
// Returns mean negative log-likelihood over rows; writes dlogits (gradient of
// that mean). logits: [rows, vocab]; targets: [rows].
float cross_entropy(const float* logits, const std::int32_t* targets,
                    float* dlogits, std::int64_t rows, std::int64_t vocab);

}  // namespace weipipe
