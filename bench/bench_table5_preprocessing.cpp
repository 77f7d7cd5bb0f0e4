// Table 5: preprocessing overhead (wall-clock transform time + extra
// space) for each technique on each suite graph. Unlike the simulated
// execution times, the seconds here are REAL host time of this repo's
// transform implementations, so the table is run at 1, 2, and the
// hardware-default thread count to show how the parallel transform
// substrate scales. Outputs (edges added) are checked identical across
// thread counts — the transforms promise bit-identical results
// regardless of parallelism (DESIGN.md §7).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) {
  using namespace graffix;
  const bench::BenchOptions options = bench::parse_args(argc, argv);

  // Thread counts to sweep: 1, 2, and the full pool (deduplicated,
  // ascending). --threads caps the "max" point.
  const int max_threads = num_threads();
  std::vector<int> counts{1};
  if (max_threads >= 2) counts.push_back(2);
  if (max_threads > 2) counts.push_back(max_threads);

  struct Section {
    Technique technique;
    const char* title;
  };
  const Section sections[] = {
      {Technique::Coalescing, "Improving coalescing"},
      {Technique::Latency, "Reducing latency"},
      {Technique::Divergence, "Reducing thread divergence"},
  };
  bool deterministic = true;
  for (const auto& section : sections) {
    core::ExperimentConfig config = bench::make_config(
        options, section.technique, baselines::BaselineId::TopologyDriven);
    std::vector<std::vector<core::PreprocessReport>> runs;
    for (int t : counts) {
      set_num_threads(t);
      runs.push_back(core::run_preprocessing(config));
    }
    set_num_threads(0);
    // Determinism smoke check: the transform output must not depend on
    // the thread count.
    for (const auto& run : runs) {
      for (std::size_t g = 0; g < run.size(); ++g) {
        if (run[g].edges_added != runs.front()[g].edges_added) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: %s edges_added differs "
                       "across thread counts (%llu vs %llu)\n",
                       run[g].graph.c_str(),
                       static_cast<unsigned long long>(run[g].edges_added),
                       static_cast<unsigned long long>(
                           runs.front()[g].edges_added));
          deterministic = false;
        }
      }
    }
    bench::print_preprocessing_table(
        std::string("Table 5 | ") + section.title + " (scale " +
            std::to_string(options.scale) + ", wall-clock, T=" +
            std::to_string(counts.back()) + ")",
        runs.back());
    bench::print_preprocessing_scaling_table(
        std::string("Table 5b | ") + section.title + " thread scaling",
        counts, runs);
  }
  return deterministic ? 0 : 1;
}
