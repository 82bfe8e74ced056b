#pragma once

// One pre-LayerNorm GPT transformer block:
//   h1 = x + dropout(attn(LN1(x)) + proj_bias)
//   y  = h1 + dropout(fc2(gelu(fc1(LN2(h1)) + fc1_bias)) + fc2_bias)
// with the bias+GeLU and bias+dropout+add fusions of §4.2. The MLP
// (Fig. 5a) is a column-parallel fc1 (h -> 4h) and a row-parallel fc2
// (4h -> h), both with their bias left to the fused kernels.
//
// Execution is planned: the block builds its ptdp::graph LayerPlans once
// (fusion + dtype + buffer passes, DESIGN.md §14) and forward/backward run
// them through the SequentialExecutor. The plans are the block's only
// training body. Execution is functional over an explicit LayerCache so a
// pipeline stage can hold many microbatches in flight, and so activation
// recomputation can rebuild state from the stashed input.

#include "ptdp/dist/comm.hpp"
#include "ptdp/graph/executor.hpp"
#include "ptdp/model/attention.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {

/// A layer's state for one microbatch in flight: the planned forward's
/// values, one per plan value. keep_input_only() is the §3.5 drop.
using LayerCache = graph::Frame;

class TransformerLayer {
 public:
  TransformerLayer(const GptConfig& config, std::int64_t global_layer_idx,
                   const dist::Comm& tp);

  /// x: [s, b, h] replicated across tensor ranks; returns [s, b, h].
  tensor::Tensor forward(const tensor::Tensor& x, LayerCache& cache,
                         std::uint64_t mb_tag);

  /// dy: [s, b, h]; returns dx and accumulates all parameter grads. The
  /// cache's slots are released at their planned last use.
  tensor::Tensor backward(const tensor::Tensor& dy, LayerCache& cache);

  /// Incremental decode over a KV cache: x is [rows, h] (see
  /// ParallelAttention::forward_decode for the batch layout). Runs the
  /// block's kernels in the planned forward's order with the attention
  /// swapped for the KV-cached path; row-wise ops are batched across
  /// sequences. Returns [rows, h], bitwise the full forward's rows at the
  /// same positions. Dropout must be 0 (no mask sites fire, so no mb_tag is
  /// needed).
  tensor::Tensor forward_decode(const tensor::Tensor& x,
                                std::span<const DecodeSeq> seqs, KvStore& kv);

  /// Backward with activation recomputation (§3.5): the cache holds only the
  /// layer input; the fwd ++ bwd recompute plan rebuilds the rest. `mb_tag`
  /// must match the original forward so the counter-based dropout streams
  /// replay bitwise.
  tensor::Tensor backward_recompute(const tensor::Tensor& dy, LayerCache& cache,
                                    std::uint64_t mb_tag);

  std::int64_t layer_idx() const { return layer_idx_; }
  void collect_params(ParamRefs& out);
  /// Eval-mode switch: 0 disables this layer's dropouts (incl. attention).
  /// Plans are topology-selected by dropout > 0, so this just flips which
  /// prebuilt plan runs.
  void set_dropout(float p);

  /// The planned graphs this layer executes (with- and without-dropout
  /// topologies) and the module binding they run against.
  const graph::LayerPlan& plan(bool with_dropout) const {
    return with_dropout ? plan_drop_ : plan_nodrop_;
  }
  const graph::LayerBinding& binding() const { return binding_; }

 private:
  GptConfig config_;
  std::int64_t layer_idx_;
  Param ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
  ParallelAttention attention_;
  ColumnParallelLinear fc1_;
  RowParallelLinear fc2_;
  graph::LayerPlan plan_nodrop_, plan_drop_;
  graph::LayerBinding binding_;  ///< self-referential: layer is pinned by
                                 ///< unique_ptr ownership (no copies/moves)
};

}  // namespace ptdp::model
