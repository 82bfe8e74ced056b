#pragma once

// Tensor-parallel multi-head self-attention (Fig. 5b).
//
// The QKV projection is column-parallel with whole heads per rank (requires
// heads % t == 0); the output projection is row-parallel with its bias
// skipped so the transformer block can apply the fused
// bias+dropout+residual kernel. Data layout follows §4.2: activations flow
// as [s, b, h] (sequence-major) to avoid transposes in the hot path.

#include <span>
#include <vector>

#include "ptdp/dist/comm.hpp"
#include "ptdp/model/config.hpp"
#include "ptdp/model/kv_cache.hpp"
#include "ptdp/model/linear.hpp"
#include "ptdp/model/rng_sites.hpp"

namespace ptdp::model {

class ParallelAttention {
 public:
  ParallelAttention(const GptConfig& config, std::int64_t global_layer_idx,
                    dist::Comm tp);

  /// Incremental decode over a KV cache: x is [rows, h], the concatenated
  /// new-token activations of `seqs` in order (rows == Σ seq.len). Each
  /// sequence's new K/V rows are appended to `kv`, and its new queries
  /// attend over the full cached prefix. Returns [rows, h] (all-reduced by
  /// the row-parallel projection, bias NOT applied) — bitwise-identical to
  /// the corresponding rows of the planned training forward on the full
  /// prefix (DESIGN.md §16). Requires causal attention and dropout == 0.
  tensor::Tensor forward_decode(const tensor::Tensor& x,
                                std::span<const DecodeSeq> seqs, KvStore& kv);

  Param& proj_bias() { return proj_.bias(); }
  void collect_params(ParamRefs& out);
  /// Eval-mode switch: 0 disables attention-probability dropout.
  void set_dropout(float p) { config_.dropout = p; }

  // Graph-plan bindings: the planned layer body drives these modules
  // (DESIGN.md §14).
  ColumnParallelLinear& qkv() { return qkv_; }
  RowParallelLinear& proj() { return proj_; }
  std::int64_t heads_local() const { return heads_local_; }
  std::int64_t head_dim() const { return head_dim_; }
  std::int64_t hidden_local() const { return hidden_local_; }
  /// The attention-probability dropout streams of one microbatch: one
  /// site-keyed (kAttentionProb) Rng per (batch, local head) score slab,
  /// keyed by global head so tensor-parallel ranks draw what the serial
  /// model draws. The fused softmax kernels take them (tensor::ProbDropout).
  std::vector<Rng> prob_dropout_rngs(std::int64_t b, std::uint64_t mb_tag) const;
  /// The same draws as an f32 [b·a/t, s, s] mask, one sequential
  /// next_bernoulli loop per slab: the unfused plan's kAttnProbMask node,
  /// the independent reference for the fused kernels' counter-indexed draws.
  tensor::Tensor make_prob_dropout_mask(std::int64_t b, std::uint64_t mb_tag) const;

 private:
  GptConfig config_;
  std::int64_t layer_idx_;
  std::int64_t heads_local_, head_dim_, hidden_local_, head_begin_;
  ColumnParallelLinear qkv_;
  RowParallelLinear proj_;
};

}  // namespace ptdp::model
