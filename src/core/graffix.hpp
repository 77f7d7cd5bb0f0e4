// Umbrella header: the Graffix public API.
//
//   #include "core/graffix.hpp"
//
// pulls in the graph types, generators, the three transforms, the SIMT
// simulator, the algorithm runners, and the Pipeline/experiment drivers.
#pragma once

#include "algorithms/bc.hpp"
#include "algorithms/mst.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/scc.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/steiner.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/runners.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/permute.hpp"
#include "gen/rmat.hpp"
#include "gen/road_grid.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "graph/subgraph.hpp"
#include "graph/validate.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/table.hpp"
#include "transform/coalescing.hpp"
#include "transform/divergence.hpp"
#include "transform/latency.hpp"
#include "transform/renumber.hpp"
#include "transform/replicate.hpp"
