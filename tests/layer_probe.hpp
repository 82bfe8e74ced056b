#pragma once

// Test helper: one planned forward + backward of a transformer layer with
// chosen intermediate values read back from the executor frame. The layer's
// own plan releases every intermediate at its planned last use, so the probe
// runs a copy of that plan in which the requested values are never released.

#include <map>
#include <string>
#include <vector>

#include "ptdp/model/transformer_layer.hpp"

namespace ptdp::model {

struct LayerProbe {
  tensor::Tensor y, dx;
  std::map<std::string, tensor::Tensor> values;  ///< plan value name -> tensor
  std::map<std::string, tensor::Tensor> grads;   ///< param name -> grad
};

inline LayerProbe probe_layer(const GptConfig& c, const dist::Comm& tp,
                              const tensor::Tensor& x, const tensor::Tensor& dy,
                              std::uint64_t mb_tag,
                              const std::vector<std::string>& keep) {
  TransformerLayer layer(c, /*global_layer_idx=*/0, tp);
  ParamRefs params;
  layer.collect_params(params);
  for (Param* p : params) p->zero_grad();

  graph::LayerPlan plan = layer.plan(c.dropout > 0.0f);
  std::map<std::string, graph::ValueId> kept;
  for (std::size_t i = 0; i < plan.values.size(); ++i) {
    for (const std::string& name : keep) {
      if (plan.values[i].name != name) continue;
      plan.values[i].last_use = -1;  // never released by the executor
      kept.emplace(name, static_cast<graph::ValueId>(i));
    }
  }
  PTDP_CHECK_EQ(kept.size(), keep.size()) << "unknown plan value name";

  LayerProbe out;
  const graph::ExecContext ctx{x.dim(0), x.dim(1), mb_tag, c.dropout};
  graph::Frame frame;
  frame.begin(plan, x);
  out.y = graph::SequentialExecutor::run_forward(plan, frame, layer.binding(), ctx);
  for (const auto& [name, vid] : kept) {
    out.values.emplace(name, frame.vals[static_cast<std::size_t>(vid)]);
  }
  out.dx = graph::SequentialExecutor::run_backward(plan, frame, layer.binding(),
                                                   ctx, dy);
  for (Param* p : params) out.grads.emplace(p->name, p->grad.clone());
  return out;
}

}  // namespace ptdp::model
