#include "core/pipeline.hpp"

#include "transform/validate.hpp"
#include "util/macros.hpp"
#include "util/timer.hpp"

namespace graffix {

const char* technique_name(Technique technique) {
  switch (technique) {
    case Technique::None:
      return "none";
    case Technique::Coalescing:
      return "coalescing";
    case Technique::Latency:
      return "latency";
    case Technique::Divergence:
      return "divergence";
    case Technique::Combined:
      return "combined";
  }
  return "?";
}

Pipeline::Pipeline(Csr graph) : original_(std::move(graph)) {
  GRAFFIX_CHECK(!original_.has_holes(),
                "Pipeline expects an untransformed input graph");
}

const transform::CoalescingResult& Pipeline::apply_coalescing(
    const transform::CoalescingKnobs& knobs) {
  reset();
  WallTimer timer;
  coalescing_ = transform::coalescing_transform(original_, knobs);
  preprocessing_seconds_ = timer.seconds();
  technique_ = Technique::Coalescing;
  transform::check_transform_phase("pipeline/coalescing", coalescing_->graph,
                                   &coalescing_->replicas);
  return *coalescing_;
}

const transform::LatencyResult& Pipeline::apply_latency(
    const transform::LatencyKnobs& knobs) {
  reset();
  WallTimer timer;
  latency_ = transform::latency_transform(original_, knobs);
  preprocessing_seconds_ = timer.seconds();
  technique_ = Technique::Latency;
  transform::check_transform_phase("pipeline/latency", latency_->graph);
  return *latency_;
}

const transform::DivergenceResult& Pipeline::apply_divergence(
    const transform::DivergenceKnobs& knobs) {
  reset();
  WallTimer timer;
  divergence_ = transform::divergence_transform(original_, knobs);
  preprocessing_seconds_ = timer.seconds();
  technique_ = Technique::Divergence;
  transform::check_transform_phase("pipeline/divergence", divergence_->graph);
  return *divergence_;
}

const transform::CombinedResult& Pipeline::apply_combined(
    const transform::CombinedKnobs& knobs) {
  reset();
  WallTimer timer;
  combined_ = transform::combined_transform(original_, knobs);
  preprocessing_seconds_ = timer.seconds();
  technique_ = Technique::Combined;
  transform::check_transform_phase(
      "pipeline/combined", combined_->graph,
      combined_->replicas.empty() ? nullptr : &combined_->replicas);
  return *combined_;
}

void Pipeline::reset() {
  technique_ = Technique::None;
  coalescing_.reset();
  latency_.reset();
  divergence_.reset();
  combined_.reset();
  preprocessing_seconds_ = 0.0;
}

const Csr& Pipeline::current() const {
  switch (technique_) {
    case Technique::None:
      return original_;
    case Technique::Coalescing:
      return coalescing_->graph;
    case Technique::Latency:
      return latency_->graph;
    case Technique::Divergence:
      return divergence_->graph;
    case Technique::Combined:
      return combined_->graph;
  }
  return original_;
}

double Pipeline::extra_space_fraction() const {
  switch (technique_) {
    case Technique::None:
      return 0.0;
    case Technique::Coalescing:
      return coalescing_->extra_space_fraction;
    case Technique::Latency:
      return latency_->extra_space_fraction;
    case Technique::Divergence:
      return divergence_->extra_space_fraction;
    case Technique::Combined:
      return combined_->extra_space_fraction;
  }
  return 0.0;
}

std::uint64_t Pipeline::edges_added() const {
  switch (technique_) {
    case Technique::None:
      return 0;
    case Technique::Coalescing:
      return coalescing_->edges_added;
    case Technique::Latency:
      return latency_->edges_added;
    case Technique::Divergence:
      return divergence_->edges_added;
    case Technique::Combined:
      return combined_->edges_added;
  }
  return 0;
}

core::RunOutput Pipeline::run(core::Algorithm alg,
                              core::RunConfig config) const {
  config.warp_order = {};
  config.replicas = nullptr;
  config.clusters = nullptr;
  switch (technique_) {
    case Technique::None:
      break;
    case Technique::Coalescing:
      config.replicas = &coalescing_->replicas;
      break;
    case Technique::Latency:
      config.clusters = &latency_->schedule;
      break;
    case Technique::Divergence:
      config.warp_order = divergence_->warp_order;
      break;
    case Technique::Combined:
      if (!combined_->replicas.empty()) config.replicas = &combined_->replicas;
      if (!combined_->schedule.empty()) config.clusters = &combined_->schedule;
      if (!combined_->warp_order.empty()) {
        config.warp_order = combined_->warp_order;
      }
      break;
  }
  return core::run_algorithm(alg, current(), config);
}

core::RunOutput Pipeline::run_exact(core::Algorithm alg,
                                    core::RunConfig config) const {
  config.warp_order = {};
  config.replicas = nullptr;
  config.clusters = nullptr;
  return core::run_algorithm(alg, original_, config);
}

NodeId Pipeline::slot_of_node(NodeId v) const {
  if (technique_ == Technique::Coalescing) {
    return coalescing_->renumber.slot_of_node[v];
  }
  if (technique_ == Technique::Combined && combined_->renumber.has_value()) {
    return combined_->renumber->slot_of_node[v];
  }
  return v;
}

std::vector<double> Pipeline::project(
    std::span<const double> attr_slots) const {
  if (technique_ == Technique::Coalescing) {
    return coalescing_->project(attr_slots);
  }
  if (technique_ == Technique::Combined && combined_->renumber.has_value()) {
    return transform::project_to_nodes<double>(*combined_->renumber,
                                               attr_slots);
  }
  return {attr_slots.begin(), attr_slots.end()};
}

}  // namespace graffix
