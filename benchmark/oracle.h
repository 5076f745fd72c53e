// Independent truth for the real-threads benchmark.
//
// The oracle is fed every update the benchmark publishes and predicts, with
// no Helios code involved, what an idle cluster must serve for a TopK plan:
// each sampled cell holds the C newest edges of its vertex (ties to the
// earlier arrival), and each served feature is the latest one published.
// The checks return "" on success and a description of the first mismatch
// otherwise; the self-test feeds them doctored results to show each one
// can fail.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/types.h"
#include "helios/query.h"
#include "helios/serving_core.h"
#include "helios/threaded_cluster.h"

namespace realbench {

using helios::graph::VertexId;

class Oracle {
 public:
  explicit Oracle(const helios::QueryPlan& plan);

  // Thread-safe; edges may arrive from several publishers. Features must be
  // published by one thread at a time (the latest call wins).
  void AddEdge(const helios::graph::EdgeUpdate& e);
  void SetFeature(VertexId v, const helios::graph::Feature& f);

  // Prepares the lookups below; call once every publisher has stopped.
  void Finalize();

  // The C newest destinations of v's out-edges of hop k's type, newest
  // first (C = hop k's fan-out). Empty when v is not a key vertex of hop k.
  std::vector<VertexId> Newest(std::size_t hop, VertexId v) const;
  // Every destination of v for hop k, newest first (self-test helper).
  std::vector<VertexId> AllNewestFirst(std::size_t hop, VertexId v) const;
  bool IsEdge(std::size_t hop, VertexId src, VertexId dst) const;
  const helios::graph::Feature* FeatureOf(VertexId v) const;

  // Subgraph built from the oracle alone: children newest first, features
  // as published. Embedding it gives the reference embedding.
  helios::SampledSubgraph Assemble(VertexId seed) const;

  // Idle-state check: every hop-k set (grouped by parent) equals Newest(),
  // every feature equals the latest published, and nothing is missing.
  std::string CheckIdle(const helios::SampledSubgraph& s) const;
  // Any-interleaving check for results taken while updates flowed: every
  // (parent, child) pair is an edge of the hop's type in the final graph
  // and no parent has more children than the hop's fan-out.
  std::string CheckPairs(VertexId seed,
                         const std::vector<std::vector<helios::SampledSubgraph::Node>>& layers) const;

  std::uint64_t edges() const { return edge_count_; }
  // Approximate heap bytes held by the oracle (tables, vectors and hash
  // nodes), i.e. the benchmark's own share of the process footprint.
  std::size_t ApproxBytes() const;

  // One published edge as the oracle keeps it.
  struct Entry {
    VertexId dst;
    helios::graph::Timestamp ts;
    std::uint64_t arrival;
  };

 private:
  const std::vector<Entry>* AdjOf(std::size_t hop, VertexId v) const;

  helios::QueryPlan plan_;
  mutable std::mutex mu_;
  // Per edge type: src -> out-edges in arrival order.
  std::vector<std::unordered_map<VertexId, std::vector<Entry>>> adj_;
  // Per edge type, built by Finalize: src -> sorted destinations (pair
  // lookups), and src -> the newest destinations, as many as the largest
  // fan-out of a hop over that type.
  std::vector<std::unordered_map<VertexId, std::vector<VertexId>>> sorted_dst_;
  std::vector<std::unordered_map<VertexId, std::vector<VertexId>>> newest_;
  std::unordered_map<VertexId, helios::graph::Feature> features_;
  std::uint64_t edge_count_ = 0;
};

// Relative+absolute tolerance on each component: |got - want| <= tol * (1 + |want|).
// The served and oracle subgraphs list children in different orders, so
// the float sums of the mean aggregator differ in rounding only.
std::string CompareEmbeddings(const std::vector<float>& got, const std::vector<float>& want,
                              float tol);
// Bitwise equality (the cached path must replay the plain path exactly).
std::string CompareBits(const std::vector<float>& got, const std::vector<float>& want);
// Flow totals at an idle point: every serving message published was
// applied, every control delta sent was processed, and the cluster saw
// exactly the updates the generator published.
std::string CheckFlows(const helios::ClusterStats& stats, std::uint64_t generator_published);

}  // namespace realbench
