#include "ptdp/model/attention.hpp"

#include <algorithm>
#include <cmath>

#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {

using tensor::Tensor;

namespace {
std::string layer_name(std::int64_t layer, const char* suffix) {
  return "layer" + std::to_string(layer) + ".attn." + suffix;
}
}  // namespace

ParallelAttention::ParallelAttention(const GptConfig& config,
                                     std::int64_t global_layer_idx, dist::Comm tp)
    : config_(config),
      layer_idx_(global_layer_idx),
      qkv_(layer_name(global_layer_idx, "qkv"), config.hidden, 3 * config.hidden, tp,
           config.init_stddev, config.seed, /*skip_bias_add=*/false, config.dtype),
      proj_(layer_name(global_layer_idx, "proj"), config.hidden, config.hidden, tp,
            // Scaled init for residual-path projections (Megatron convention).
            config.init_stddev /
                std::sqrt(2.0f * static_cast<float>(config.num_layers)),
            config.seed, /*skip_bias_add=*/true, config.dtype) {
  const int t = tp.size();
  PTDP_CHECK_EQ(config.heads % t, 0)
      << "attention heads (" << config.heads << ") must divide by tensor size " << t;
  PTDP_CHECK_EQ(config.hidden % config.heads, 0);
  heads_local_ = config.heads / t;
  head_dim_ = config.hidden / config.heads;
  hidden_local_ = heads_local_ * head_dim_;
  head_begin_ = heads_local_ * tp.rank();
}

std::vector<Rng> ParallelAttention::prob_dropout_rngs(std::int64_t b,
                                                     std::uint64_t mb_tag) const {
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(b * heads_local_));
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t lh = 0; lh < heads_local_; ++lh) {
      // Keyed by the *global* head index so tensor-parallel ranks draw the
      // same mask the serial model draws for this head.
      const std::int64_t gh = head_begin_ + lh;
      rngs.push_back(site_rng(config_.seed, mb_tag,
                              static_cast<std::uint64_t>(layer_idx_),
                              DropSite::kAttentionProb,
                              static_cast<std::uint64_t>(bi * config_.heads + gh)));
    }
  }
  return rngs;
}

Tensor ParallelAttention::make_prob_dropout_mask(std::int64_t b,
                                                 std::uint64_t mb_tag) const {
  const std::int64_t s = config_.seq;
  Tensor mask = Tensor::empty({b * heads_local_, s, s});
  const float p = config_.dropout;
  const float keep_scale = 1.0f / (1.0f - p);
  auto dm = mask.data();
  std::vector<Rng> rngs = prob_dropout_rngs(b, mb_tag);
  // Each (batch, head) slab draws its own stream in element order, so the
  // slabs can be filled by the intra-op pool in any order without changing a
  // single draw.
  const std::int64_t grain =
      std::max<std::int64_t>(1, (1 << 15) / std::max<std::int64_t>(s * s, 1));
  runtime::parallel_for(
      0, b * heads_local_, grain, [&](std::int64_t u0, std::int64_t u1) {
        for (std::int64_t u = u0; u < u1; ++u) {
          Rng& rng = rngs[static_cast<std::size_t>(u)];
          float* slab = dm.data() + u * s * s;
          for (std::int64_t i = 0; i < s * s; ++i) {
            slab[i] = rng.next_bernoulli(p) ? 0.0f : keep_scale;
          }
        }
      });
  return mask;
}

Tensor ParallelAttention::forward_decode(const Tensor& x,
                                         std::span<const DecodeSeq> seqs,
                                         KvStore& kv) {
  PTDP_CHECK_EQ(x.ndim(), 2) << "decode input must be [rows, h]";
  PTDP_CHECK_EQ(x.dim(1), config_.hidden);
  PTDP_CHECK(config_.causal) << "incremental decode is causal-only";
  PTDP_CHECK_EQ(config_.dropout, 0.0f) << "disable dropout for decoding";
  const std::int64_t rows = x.dim(0);
  const std::int64_t dk = head_dim_;

  LinearCache qkv_cache;
  Tensor qkv2d = qkv_.forward(x, qkv_cache);  // [rows, 3*hidden_local]
  auto qkv = qkv2d.data();

  Tensor ctx2d = Tensor::empty({rows, hidden_local_});
  auto ctx_out = ctx2d.data();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));

  std::int64_t r0 = 0;
  for (const DecodeSeq& seq : seqs) {
    const std::int64_t c = seq.len;
    const std::int64_t kv_len = seq.pos + c;
    PTDP_CHECK_GT(c, 0);

    // Per-row qkv layout is [a_l, 3dk] (q | k | v per head): split the new
    // rows into the store's head-major K/V rows and the batched-GEMM query.
    Tensor k2d = Tensor::empty({c, hidden_local_});
    Tensor v2d = Tensor::empty({c, hidden_local_});
    Tensor q3d = Tensor::empty({heads_local_, c, dk});
    auto kd = k2d.data();
    auto vd = v2d.data();
    auto qd = q3d.data();
    for (std::int64_t i = 0; i < c; ++i) {
      const float* src = qkv.data() + (r0 + i) * 3 * hidden_local_;
      for (std::int64_t a = 0; a < heads_local_; ++a) {
        std::copy_n(src + a * 3 * dk, static_cast<std::size_t>(dk),
                    qd.data() + (a * c + i) * dk);
        std::copy_n(src + a * 3 * dk + dk, static_cast<std::size_t>(dk),
                    kd.data() + i * hidden_local_ + a * dk);
        std::copy_n(src + a * 3 * dk + 2 * dk, static_cast<std::size_t>(dk),
                    vd.data() + i * hidden_local_ + a * dk);
      }
    }
    kv.write(seq.id, layer_idx_, seq.pos, k2d, v2d);

    // Contiguous prefix+chunk K/V, then the exact full-path kernel sequence
    // on [a_l, c, kv_len] — bitwise the full forward's last c rows.
    Tensor kc = Tensor::empty({heads_local_, kv_len, dk});
    Tensor vc = Tensor::empty({heads_local_, kv_len, dk});
    kv.gather(seq.id, layer_idx_, kv_len, kc, vc);
    Tensor scores = tensor::bmm_nt(q3d, kc);  // [a_l, c, kv_len]
    Tensor probs = tensor::fused_scale_causal_softmax(scores, scale);
    Tensor ctx = tensor::bmm(probs, vc);  // [a_l, c, dk]
    auto cd = ctx.data();
    for (std::int64_t i = 0; i < c; ++i) {
      float* dst = ctx_out.data() + (r0 + i) * hidden_local_;
      for (std::int64_t a = 0; a < heads_local_; ++a) {
        std::copy_n(cd.data() + (a * c + i) * dk, static_cast<std::size_t>(dk),
                    dst + a * dk);
      }
    }
    r0 += c;
  }
  PTDP_CHECK_EQ(r0, rows) << "decode batch rows must equal the sum of seq lens";

  LinearCache proj_cache;
  return proj_.forward(ctx2d, proj_cache);  // [rows, h], bias skipped
}

void ParallelAttention::collect_params(ParamRefs& out) {
  qkv_.collect_params(out);
  proj_.collect_params(out);
}

}  // namespace ptdp::model
