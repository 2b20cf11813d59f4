// Umbrella header: the public API of the sepdc library.
//
//   #include "sepdc.hpp"
//
// pulls in everything a typical user needs:
//   - core::build_knn_graph / build_neighborhood_system (one-call API)
//   - core::parallel_nearest_neighborhood (§6), simple_parallel_dnc (§5)
//   - core::NeighborhoodQueryTree (§3), core::SeparatorIndex (spatial
//     queries over the partition tree)
//   - separator::SphereSeparatorSampler (the MTTV separator itself)
//   - service::QueryBroker (concurrent query serving on the caller's
//     thread, with snapshot handoff), service::SnapshotStore
//   - knn:: brute force, kd-tree, graphs, serialization
//   - workload:: generators, support:: RNG / stats / tables
#pragma once

#include "core/api.hpp"
#include "core/engine.hpp"
#include "core/partition_forest.hpp"
#include "core/query_tree.hpp"
#include "core/run_context.hpp"
#include "core/separator_index.hpp"
#include "geometry/constants.hpp"
#include "knn/brute_force.hpp"
#include "knn/graph.hpp"
#include "knn/io.hpp"
#include "knn/kdtree.hpp"
#include "knn/neighborhood.hpp"
#include "parallel/thread_pool.hpp"
#include "pvm/machine.hpp"
#include "pvm/vector_ops.hpp"
#include "separator/hyperplane.hpp"
#include "separator/mttv.hpp"
#include "separator/quality.hpp"
#include "service/query_broker.hpp"
#include "service/service_stats.hpp"
#include "service/snapshot.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workload/generators.hpp"
