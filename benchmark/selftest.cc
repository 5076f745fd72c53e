// Self-test of the benchmark's output checks: each check must accept a
// genuine result of a small real cluster and reject the same result after
// one deliberate fault is planted in it.
//
//   python3 benchmark/run.py --self-test
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "benchmark/oracle.h"
#include "gen/datasets.h"
#include "gen/update_stream.h"
#include "gnn/graphsage.h"
#include "helios/threaded_cluster.h"

namespace {

using namespace helios;
using realbench::Oracle;
using graph::VertexId;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

// A copy of `s` with the hop-1 child at index `drop` and its hop-2
// children removed (parents re-indexed).
SampledSubgraph DropHop1(const SampledSubgraph& s, std::uint32_t drop) {
  SampledSubgraph d;
  d.Reset(s.seed, s.layers.size());
  d.layers = s.layers;
  d.layers[1].erase(d.layers[1].begin() + drop);
  std::vector<SampledSubgraph::Node> hop2;
  for (auto n : s.layers[2]) {
    if (n.parent == drop) continue;
    if (n.parent > drop) --n.parent;
    hop2.push_back(n);
  }
  d.layers[2] = hop2;
  s.features.ForEach([&](VertexId v, std::span<const float> f) { d.features.Set(v, f.data(), f.size()); });
  return d;
}

}  // namespace

int main() {
  const gen::DatasetSpec spec = gen::MakeInter(200000);  // dataset floors: ~84k updates
  const QueryPlan plan = bench::PaperQuery(spec, Strategy::kTopK);
  ClusterOptions opt;
  opt.map = ShardMap{2, 2, 2};
  ThreadedCluster cluster(plan, opt);
  cluster.Start();
  Oracle oracle(plan);
  gen::UpdateStream stream(spec);
  graph::GraphUpdate u;
  std::uint64_t published = 0;
  while (stream.Next(u)) {
    if (const auto* e = std::get_if<graph::EdgeUpdate>(&u)) {
      oracle.AddEdge(*e);
    } else {
      const auto& v = std::get<graph::VertexUpdate>(u);
      oracle.SetFeature(v.id, v.feature);
    }
    cluster.PublishUpdate(u);
    ++published;
  }
  cluster.WaitForIngestIdle();
  oracle.Finalize();

  // Every seed whose subgraph has no legitimate gap by the oracle's own
  // account (a hop-1 edge, and a hop-2 edge under each of its newest
  // hop-1 children) must pass the idle oracle. The first of them with
  // more than C hop-1 edges, so that an older edge exists to swap in,
  // carries the doctored results below.
  const std::uint32_t c1 = plan.one_hop[0].fanout;
  VertexId seed = graph::kInvalidVertex;
  SampledSubgraph s;
  std::size_t gap_free = 0, passed = 0;
  std::string first_err;
  for (std::uint64_t i = 0; i < spec.vertices_per_type[0]; ++i) {
    const VertexId cand = gen::MakeVertexId(0, i);
    const std::vector<VertexId> hop1 = oracle.Newest(0, cand);
    bool full = !hop1.empty();
    for (VertexId c : hop1) full = full && !oracle.Newest(1, c).empty();
    if (!full) continue;
    ++gap_free;
    SampledSubgraph r = cluster.Serve(cand);
    const std::string err = oracle.CheckIdle(r);
    if (!err.empty()) {
      if (first_err.empty()) first_err = err;
      continue;
    }
    ++passed;
    if (seed == graph::kInvalidVertex && oracle.AllNewestFirst(0, cand).size() > c1) {
      seed = cand;
      s = std::move(r);
    }
  }
  std::printf("      %zu of %zu gap-free seeds pass%s%s\n", passed, gap_free,
              first_err.empty() ? "" : "; first mismatch: ", first_err.c_str());
  Expect(gap_free > 0 && passed == gap_free, "every gap-free idle result passes the idle oracle");
  Expect(seed != graph::kInvalidVertex, "a seed with more than C hop-1 edges exists");
  if (seed == graph::kInvalidVertex) return 1;
  Expect(oracle.CheckPairs(seed, s.layers).empty(), "a genuine result passes the pair check");

  // 1. A dropped hop-1 vertex.
  Expect(!oracle.CheckIdle(DropHop1(s, 0)).empty(), "idle oracle rejects a dropped hop-1 vertex");

  // 2. An older edge swapped in for one of the C newest.
  {
    const std::vector<VertexId> all = oracle.AllNewestFirst(0, seed);
    VertexId older = graph::kInvalidVertex;
    for (std::size_t i = c1; i < all.size() && older == graph::kInvalidVertex; ++i) {
      bool in_cell = false;
      for (const auto& n : s.layers[1]) in_cell = in_cell || n.vertex == all[i];
      if (!in_cell) older = all[i];
    }
    SampledSubgraph d = s;
    if (older != graph::kInvalidVertex) d.layers[1][0].vertex = older;
    Expect(older != graph::kInvalidVertex && !oracle.CheckIdle(d).empty(),
           "idle oracle rejects an older edge swapped into hop 1");
  }

  // 3. One flipped float: in a feature, and in an embedding.
  {
    SampledSubgraph d = s;
    const VertexId v = s.layers[1][0].vertex;
    std::vector<float> f(s.features.Find(v).begin(), s.features.Find(v).end());
    std::uint32_t bits;
    std::memcpy(&bits, &f[0], 4);
    bits ^= 1u;  // lowest mantissa bit
    std::memcpy(&f[0], &bits, 4);
    d.features.Set(v, f.data(), f.size());
    Expect(!oracle.CheckIdle(d).empty(), "idle oracle rejects one flipped feature bit");

    const gnn::GraphSageEncoder enc(gnn::SageConfig{});
    const std::vector<float> want = enc.EmbedSeed(oracle.Assemble(seed));
    std::vector<float> got = enc.EmbedSeed(s);
    Expect(realbench::CompareEmbeddings(got, want, 1e-4f).empty(),
           "a genuine embedding matches the oracle's within tolerance");
    got[3] = -got[3] + 0.5f;
    Expect(!realbench::CompareEmbeddings(got, want, 1e-4f).empty(),
           "embedding check rejects a flipped float");
    std::vector<float> same = enc.EmbedSeed(s);
    Expect(realbench::CompareBits(same, enc.EmbedSeed(s)).empty(), "bitwise check accepts a replay");
    std::memcpy(&bits, &same[0], 4);
    bits ^= 1u;
    std::memcpy(&same[0], &bits, 4);
    Expect(!realbench::CompareBits(same, enc.EmbedSeed(s)).empty(),
           "bitwise check rejects one flipped bit");
  }

  // 4. Gaps and pair violations.
  {
    SampledSubgraph d = s;
    d.missing_cells = 1;
    Expect(!oracle.CheckIdle(d).empty(), "idle oracle rejects a missing cell");
    auto layers = s.layers;
    layers[2][0].vertex = layers[2][0].vertex ^ 0x5555;  // not an edge of that parent
    Expect(!oracle.CheckPairs(seed, layers).empty(), "pair check rejects a non-edge");
    layers = s.layers;
    for (std::uint32_t i = 0; i <= plan.one_hop[0].fanout; ++i) layers[1].push_back(layers[1][0]);
    Expect(!oracle.CheckPairs(seed, layers).empty(), "pair check rejects a hop over its fan-out");
  }

  // 5. Off-by-one flow totals.
  {
    const ClusterStats stats = cluster.Stats();
    Expect(realbench::CheckFlows(stats, published).empty(), "genuine flow totals pass");
    Expect(!realbench::CheckFlows(stats, published + 1).empty(),
           "flow check rejects an off-by-one update count");
    ClusterStats d = stats;
    d.serving_msgs_applied -= 1;
    Expect(!realbench::CheckFlows(d, published).empty(),
           "flow check rejects one unapplied serving message");
    d = stats;
    d.ctrl_processed += 1;
    Expect(!realbench::CheckFlows(d, published).empty(),
           "flow check rejects an extra control delta");
  }

  cluster.Stop();
  std::printf("%s: %d check(s) misbehaved\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
