#include "benchmark/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>

#include "gen/datasets.h"

namespace realbench {

using helios::SampledSubgraph;
namespace graph = helios::graph;

namespace {

std::string Describe(const std::vector<VertexId>& vs) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < vs.size(); ++i) os << (i ? " " : "") << vs[i];
  os << "]";
  return os.str();
}

// TopK order: larger timestamp first, ties to the earlier arrival.
bool NewerFirst(const Oracle::Entry& a, const Oracle::Entry& b) {
  if (a.ts != b.ts) return a.ts > b.ts;
  return a.arrival < b.arrival;
}

}  // namespace

Oracle::Oracle(const helios::QueryPlan& plan) : plan_(plan) {
  graph::EdgeTypeId max_type = 0;
  for (const auto& q : plan_.one_hop) max_type = std::max(max_type, q.edge_type);
  adj_.resize(static_cast<std::size_t>(max_type) + 1);
  sorted_dst_.resize(adj_.size());
  newest_.resize(adj_.size());
}

void Oracle::AddEdge(const graph::EdgeUpdate& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (e.type >= adj_.size()) return;  // not an edge type the plan samples
  adj_[e.type][e.src].push_back({e.dst, e.ts, edge_count_});
  ++edge_count_;
}

void Oracle::SetFeature(VertexId v, const graph::Feature& f) {
  std::lock_guard<std::mutex> lock(mu_);
  features_.insert_or_assign(v, f);
}

void Oracle::Finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint32_t> keep(adj_.size(), 0);
  for (const auto& q : plan_.one_hop) keep[q.edge_type] = std::max(keep[q.edge_type], q.fanout);
  for (std::size_t t = 0; t < adj_.size(); ++t) {
    sorted_dst_[t].clear();
    newest_[t].clear();
    for (const auto& [src, entries] : adj_[t]) {
      std::vector<VertexId>& d = sorted_dst_[t][src];
      d.reserve(entries.size());
      for (const Entry& e : entries) d.push_back(e.dst);
      std::sort(d.begin(), d.end());
      std::vector<Entry> order = entries;
      const std::size_t n = std::min<std::size_t>(keep[t], order.size());
      std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n), order.end(),
                        NewerFirst);
      std::vector<VertexId>& top = newest_[t][src];
      for (std::size_t i = 0; i < n; ++i) top.push_back(order[i].dst);
    }
  }
}

namespace {

// One hash node (next pointer, cached hash, key and value) plus its bucket
// slot, and the heap block of each vector value.
template <typename Map>
std::size_t MapBytes(const Map& m) {
  std::size_t bytes = m.bucket_count() * sizeof(void*);
  for (const auto& kv : m) {
    bytes += sizeof(void*) + sizeof(std::size_t) + sizeof(kv) +
             kv.second.capacity() * sizeof(typename Map::mapped_type::value_type);
  }
  return bytes;
}

}  // namespace

std::size_t Oracle::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = MapBytes(features_);
  for (std::size_t t = 0; t < adj_.size(); ++t) {
    bytes += MapBytes(adj_[t]) + MapBytes(sorted_dst_[t]) + MapBytes(newest_[t]);
  }
  return bytes;
}

const std::vector<Oracle::Entry>* Oracle::AdjOf(std::size_t hop, VertexId v) const {
  const helios::OneHopQuery& q = plan_.one_hop[hop];
  if (helios::gen::VertexTypeOf(v) != q.target_type) return nullptr;
  const auto it = adj_[q.edge_type].find(v);
  return it == adj_[q.edge_type].end() ? nullptr : &it->second;
}

std::vector<VertexId> Oracle::AllNewestFirst(std::size_t hop, VertexId v) const {
  const std::vector<Entry>* adj = AdjOf(hop, v);
  if (adj == nullptr) return {};
  std::vector<Entry> order = *adj;
  std::sort(order.begin(), order.end(), NewerFirst);
  std::vector<VertexId> out;
  out.reserve(order.size());
  for (const Entry& e : order) out.push_back(e.dst);
  return out;
}

std::vector<VertexId> Oracle::Newest(std::size_t hop, VertexId v) const {
  const helios::OneHopQuery& q = plan_.one_hop[hop];
  if (helios::gen::VertexTypeOf(v) != q.target_type) return {};
  const auto it = newest_[q.edge_type].find(v);
  if (it == newest_[q.edge_type].end()) return {};
  const std::size_t n = std::min<std::size_t>(q.fanout, it->second.size());
  return {it->second.begin(), it->second.begin() + static_cast<std::ptrdiff_t>(n)};
}

bool Oracle::IsEdge(std::size_t hop, VertexId src, VertexId dst) const {
  const helios::OneHopQuery& q = plan_.one_hop[hop];
  if (helios::gen::VertexTypeOf(src) != q.target_type) return false;
  const auto it = sorted_dst_[q.edge_type].find(src);
  if (it == sorted_dst_[q.edge_type].end()) return false;
  return std::binary_search(it->second.begin(), it->second.end(), dst);
}

const graph::Feature* Oracle::FeatureOf(VertexId v) const {
  const auto it = features_.find(v);
  return it == features_.end() ? nullptr : &it->second;
}

SampledSubgraph Oracle::Assemble(VertexId seed) const {
  SampledSubgraph s;
  s.Reset(seed, plan_.num_hops() + 1);
  s.layers[0].push_back({seed, 0});
  for (std::size_t k = 0; k < plan_.num_hops(); ++k) {
    for (std::size_t i = 0; i < s.layers[k].size(); ++i) {
      for (VertexId c : Newest(k, s.layers[k][i].vertex)) {
        s.layers[k + 1].push_back({c, static_cast<std::uint32_t>(i)});
      }
    }
  }
  for (const auto& layer : s.layers) {
    for (const auto& n : layer) {
      if (const graph::Feature* f = FeatureOf(n.vertex)) s.features.Set(n.vertex, *f);
    }
  }
  return s;
}

std::string Oracle::CheckIdle(const SampledSubgraph& s) const {
  std::ostringstream err;
  if (s.missing_cells != 0 || s.missing_features != 0 || s.bad_cells != 0) {
    err << "seed " << s.seed << ": gaps missing_cells=" << s.missing_cells
        << " missing_features=" << s.missing_features << " bad_cells=" << s.bad_cells;
    return err.str();
  }
  if (s.layers.size() != plan_.num_hops() + 1 || s.layers[0].size() != 1 ||
      s.layers[0][0].vertex != s.seed) {
    err << "seed " << s.seed << ": malformed layers";
    return err.str();
  }
  for (std::size_t k = 0; k < plan_.num_hops(); ++k) {
    const auto& parents = s.layers[k];
    std::vector<std::vector<VertexId>> got(parents.size());
    for (const auto& n : s.layers[k + 1]) {
      if (n.parent >= parents.size()) {
        err << "seed " << s.seed << ": hop " << k + 1 << " parent index out of range";
        return err.str();
      }
      got[n.parent].push_back(n.vertex);
    }
    for (std::size_t i = 0; i < parents.size(); ++i) {
      std::vector<VertexId> want = Newest(k, parents[i].vertex);
      std::sort(want.begin(), want.end());
      std::sort(got[i].begin(), got[i].end());
      if (got[i] != want) {
        err << "seed " << s.seed << ": hop " << k + 1 << " children of " << parents[i].vertex
            << " are " << Describe(got[i]) << ", the " << want.size() << " newest are "
            << Describe(want);
        return err.str();
      }
    }
  }
  std::size_t distinct = 0;
  std::map<VertexId, bool> seen;
  for (const auto& layer : s.layers) {
    for (const auto& n : layer) {
      if (!seen.emplace(n.vertex, true).second) continue;
      ++distinct;
      const graph::Feature* want = FeatureOf(n.vertex);
      const std::span<const float> got = s.features.Find(n.vertex);
      if (want == nullptr || !s.features.Contains(n.vertex) || got.size() != want->size() ||
          std::memcmp(got.data(), want->data(), got.size() * sizeof(float)) != 0) {
        err << "seed " << s.seed << ": feature of " << n.vertex
            << " differs from the latest published";
        return err.str();
      }
    }
  }
  if (s.features.size() != distinct) {
    err << "seed " << s.seed << ": " << s.features.size() << " features for " << distinct
        << " distinct vertices";
    return err.str();
  }
  return {};
}

std::string Oracle::CheckPairs(VertexId seed,
                               const std::vector<std::vector<SampledSubgraph::Node>>& layers) const {
  std::ostringstream err;
  if (layers.empty() || layers[0].size() != 1 || layers[0][0].vertex != seed ||
      layers.size() > plan_.num_hops() + 1) {
    err << "seed " << seed << ": malformed layers";
    return err.str();
  }
  for (std::size_t k = 0; k + 1 < layers.size(); ++k) {
    std::vector<std::uint32_t> per_parent(layers[k].size(), 0);
    for (const auto& n : layers[k + 1]) {
      if (n.parent >= layers[k].size()) {
        err << "seed " << seed << ": hop " << k + 1 << " parent index out of range";
        return err.str();
      }
      const VertexId parent = layers[k][n.parent].vertex;
      if (!IsEdge(k, parent, n.vertex)) {
        err << "seed " << seed << ": hop " << k + 1 << " pair (" << parent << ", " << n.vertex
            << ") is not an edge of type " << plan_.one_hop[k].edge_type;
        return err.str();
      }
      if (++per_parent[n.parent] > plan_.one_hop[k].fanout) {
        err << "seed " << seed << ": hop " << k + 1 << " parent " << parent << " has more than "
            << plan_.one_hop[k].fanout << " children";
        return err.str();
      }
    }
  }
  return {};
}

std::string CompareEmbeddings(const std::vector<float>& got, const std::vector<float>& want,
                              float tol) {
  if (got.size() != want.size()) return "embedding width differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!std::isfinite(got[i]) || std::fabs(got[i] - want[i]) > tol * (1.0f + std::fabs(want[i]))) {
      std::ostringstream err;
      err << "embedding[" << i << "] = " << got[i] << ", oracle " << want[i];
      return err.str();
    }
  }
  return {};
}

std::string CompareBits(const std::vector<float>& got, const std::vector<float>& want) {
  if (got.size() != want.size() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
    return "cached embedding is not bit-identical to the plain one";
  }
  return {};
}

std::string CheckFlows(const helios::ClusterStats& stats, std::uint64_t generator_published) {
  std::ostringstream err;
  if (stats.serving_msgs_published != stats.serving_msgs_applied) {
    err << "serving messages published " << stats.serving_msgs_published << " != applied "
        << stats.serving_msgs_applied;
  } else if (stats.ctrl_sent != stats.ctrl_processed) {
    err << "control deltas sent " << stats.ctrl_sent << " != processed " << stats.ctrl_processed;
  } else if (stats.updates_published != generator_published) {
    err << "cluster counted " << stats.updates_published << " updates, the generator published "
        << generator_published;
  }
  return err.str();
}

}  // namespace realbench
