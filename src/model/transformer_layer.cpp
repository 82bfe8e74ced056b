#include "ptdp/model/transformer_layer.hpp"

#include <cmath>

#include "ptdp/graph/builder.hpp"

namespace ptdp::model {

using tensor::Tensor;

namespace {
Param layernorm_param(std::int64_t layer, const char* suffix, std::int64_t h,
                      float init) {
  const std::string name = "layer" + std::to_string(layer) + "." + suffix;
  return Param{name, Tensor::full({h}, init), Tensor({h}),
               /*replicated_across_tensor_parallel=*/true};
}
}  // namespace

TransformerLayer::TransformerLayer(const GptConfig& config,
                                   std::int64_t global_layer_idx,
                                   const dist::Comm& tp)
    : config_(config),
      layer_idx_(global_layer_idx),
      ln1_gamma_(layernorm_param(global_layer_idx, "ln1.gamma", config.hidden, 1.0f)),
      ln1_beta_(layernorm_param(global_layer_idx, "ln1.beta", config.hidden, 0.0f)),
      ln2_gamma_(layernorm_param(global_layer_idx, "ln2.gamma", config.hidden, 1.0f)),
      ln2_beta_(layernorm_param(global_layer_idx, "ln2.beta", config.hidden, 0.0f)),
      attention_(config, global_layer_idx, tp),
      fc1_("layer" + std::to_string(global_layer_idx) + ".mlp.fc1", config.hidden,
           config.ffn_hidden(), tp, config.init_stddev, config.seed,
           /*skip_bias_add=*/true, config.dtype),
      fc2_("layer" + std::to_string(global_layer_idx) + ".mlp.fc2",
           config.ffn_hidden(), config.hidden, tp,
           // Scaled init for residual-path projections (Megatron convention).
           config.init_stddev /
               std::sqrt(2.0f * static_cast<float>(config.num_layers)),
           config.seed, /*skip_bias_add=*/true, config.dtype) {
  graph::PlannerOptions opts;
  opts.tp_size = tp.size();
  plan_nodrop_ = graph::build_layer_plan(config, /*with_dropout=*/false, opts);
  plan_drop_ = graph::build_layer_plan(config, /*with_dropout=*/true, opts);

  binding_.config = &config_;
  binding_.layer_idx = layer_idx_;
  auto slot = [this](graph::ParamSlot s) -> Param*& {
    return binding_.params[static_cast<int>(s)];
  };
  slot(graph::ParamSlot::kLn1Gamma) = &ln1_gamma_;
  slot(graph::ParamSlot::kLn1Beta) = &ln1_beta_;
  slot(graph::ParamSlot::kLn2Gamma) = &ln2_gamma_;
  slot(graph::ParamSlot::kLn2Beta) = &ln2_beta_;
  slot(graph::ParamSlot::kProjBias) = &attention_.proj_bias();
  slot(graph::ParamSlot::kFc1Bias) = &fc1_.bias();
  slot(graph::ParamSlot::kFc2Bias) = &fc2_.bias();
  binding_.qkv = &attention_.qkv();
  binding_.proj = &attention_.proj();
  binding_.fc1 = &fc1_;
  binding_.fc2 = &fc2_;
  binding_.attn = &attention_;
}

Tensor TransformerLayer::forward(const Tensor& x, LayerCache& cache,
                                 std::uint64_t mb_tag) {
  PTDP_CHECK_EQ(x.ndim(), 3);
  const graph::LayerPlan& plan = this->plan(config_.dropout > 0.0f);
  cache.begin(plan, x);
  graph::ExecContext ctx{x.dim(0), x.dim(1), mb_tag, config_.dropout};
  return graph::SequentialExecutor::run_forward(plan, cache, binding_, ctx);
}

Tensor TransformerLayer::forward_decode(const Tensor& x,
                                        std::span<const DecodeSeq> seqs,
                                        KvStore& kv) {
  PTDP_CHECK_EQ(x.ndim(), 2);
  PTDP_CHECK_EQ(config_.dropout, 0.0f) << "disable dropout for decoding";

  // The planned forward's kernels at p = 0: bias-add then residual-add is
  // the exact elementwise sequence fused_bias_dropout_add performs at p = 0,
  // so the residual stream stays bitwise the training path's.
  auto ln1 = tensor::layernorm(x, ln1_gamma_.value, ln1_beta_.value);
  Tensor attn_out = attention_.forward_decode(ln1.y, seqs, kv);
  Tensor h1 = tensor::add(tensor::add_bias(attn_out, attention_.proj_bias().value), x);

  auto ln2 = tensor::layernorm(h1, ln2_gamma_.value, ln2_beta_.value);
  LinearCache fc1_cache, fc2_cache;
  Tensor act = tensor::fused_bias_gelu(fc1_.forward(ln2.y, fc1_cache),
                                       fc1_.bias().value);
  Tensor mlp_out = fc2_.forward(act, fc2_cache);
  return tensor::add(tensor::add_bias(mlp_out, fc2_.bias().value), h1);
}

Tensor TransformerLayer::backward(const Tensor& dy, LayerCache& cache) {
  PTDP_CHECK(cache.active()) << "backward without a forward frame";
  const graph::LayerPlan& plan = this->plan(cache.with_dropout);
  graph::ExecContext ctx{dy.dim(0), dy.dim(1), /*mb_tag=*/0, config_.dropout};
  return graph::SequentialExecutor::run_backward(plan, cache, binding_,
                                                 ctx, dy);
}

Tensor TransformerLayer::backward_recompute(const Tensor& dy, LayerCache& cache,
                                            std::uint64_t mb_tag) {
  PTDP_CHECK(cache.active()) << "recompute backward without a frame";
  const graph::LayerPlan& plan = this->plan(cache.with_dropout);
  graph::ExecContext ctx{dy.dim(0), dy.dim(1), mb_tag, config_.dropout};
  return graph::SequentialExecutor::run_recompute(plan, cache, binding_,
                                                  ctx, dy);
}

void TransformerLayer::set_dropout(float p) {
  config_.dropout = p;
  attention_.set_dropout(p);
}

void TransformerLayer::collect_params(ParamRefs& out) {
  out.push_back(&ln1_gamma_);
  out.push_back(&ln1_beta_);
  attention_.collect_params(out);
  out.push_back(&ln2_gamma_);
  out.push_back(&ln2_beta_);
  fc1_.collect_params(out);
  fc2_.collect_params(out);
}

}  // namespace ptdp::model
