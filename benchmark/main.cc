// realbench — end-to-end and per-layer benchmark of helios::ThreadedCluster.
//
//   realbench --workload <infer-uniform|infer-hot|ingest-recover> --seed <n>
//             --seconds <n> --trace <0|1> --workdir <dir>
//
// One process drives the real-threads runtime (2 sampling workers x 2
// shards, 2 serving workers) through a fixed phase sequence, checks every
// output against an oracle built from the generated update stream
// (oracle.h), and prints one JSON line: with --trace 0 the end-to-end
// metrics, with --trace 1 the per-layer metrics of calls timed from here
// around each layer's public functions. README.md lists the phases, rates
// and which end-to-end metric each layer metric should move.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "bench/harness.h"
#include "benchmark/oracle.h"
#include "gen/datasets.h"
#include "gen/update_stream.h"
#include "gen/workload.h"
#include "gnn/graphsage.h"
#include "helios/sampling_core.h"
#include "helios/serving_core.h"
#include "helios/threaded_cluster.h"
#include "kv/kv_store.h"
#include "util/hash.h"
#include "util/rng.h"

namespace {

using namespace helios;
using Clock = std::chrono::steady_clock;
using graph::VertexId;

// Taken during static initialisation, i.e. at process start: setup_s is
// one cold set-up as a user launching the deployment would see it.
const Clock::time_point kProcessStart = Clock::now();

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Micros(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }

// ---------------------------------------------------------------- flags

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  std::string workdir;
};

bool ParseUint(const std::string& text, std::uint64_t lo, std::uint64_t hi, std::uint64_t& out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && out >= lo && out <= hi;
}

// Every flag is required, known and well formed; anything else is an
// error (a typo must never run a default configuration).
bool ParseArgs(int argc, char** argv, Args& a, std::string& err) {
  bool have[5] = {false, false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      err = "flag " + flag + " needs a value";
      return false;
    }
    int slot = -1;
    bool ok = true;
    if (flag == "--workload") {
      slot = 0;
      a.workload = value;
      ok = !value.empty();
    } else if (flag == "--seed") {
      slot = 1;
      ok = ParseUint(value, 0, ~0ULL, a.seed);
    } else if (flag == "--seconds") {
      slot = 2;
      ok = ParseUint(value, 1, 60, a.seconds);
    } else if (flag == "--trace") {
      slot = 3;
      ok = ParseUint(value, 0, 1, a.trace);
    } else if (flag == "--workdir") {
      slot = 4;
      a.workdir = value;
      ok = !value.empty();
    } else {
      err = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      err = "malformed value '" + value + "' for " + flag;
      return false;
    }
    if (have[slot]) {
      err = "flag " + flag + " given twice";
      return false;
    }
    have[slot] = true;
  }
  static const char* kNames[] = {"--workload", "--seed", "--seconds", "--trace", "--workdir"};
  for (int s = 0; s < 5; ++s) {
    if (!have[s]) {
      err = std::string("missing flag ") + kNames[s];
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* dataset;           // INTER or FIN
  std::uint64_t scale;           // gen::Make* divisor of the published sizes
  bool cached;                   // EmbedSeedCached through the aggregate cache
  double zipf;                   // seed skew; 0 = uniform
  double query_hz;               // open-loop query rate
  double update_hz;              // fixed ingest rate during the open-loop phase
  double probe_hz;               // freshness probe cadence
  std::uint64_t saturate_updates;  // split over kSaturateRounds
  std::uint64_t downtime_updates;  // published while the victim is down, per recovery round
};

// README.md ("Rates and sizes") gives the basis of every figure here:
// - query_hz: 1/15 of the uncached closed-loop capacity on INTER (both
//   INTER workloads offer it, so they differ only in seeds and query
//   path), 1/33 on the write workload FIN; the open loop times service,
//   not queueing, even when a busy host halves the capacity;
// - update_hz: one rate for both datasets, 1/14 of INTER's and 1/10 of
//   FIN's saturating capacity, capped by memory (the broker log keeps
//   every update; at 20k/s a 20 s run peaks under 1 GB);
// - probe_hz: >= 1000 probes per run from --seconds 10, at 1% of the
//   update traffic, spaced ~10x the probe p50;
// - scale, saturate_updates, downtime_updates: about 1 s of preload,
//   about 0.1 s of saturated publishing and 0.1 s of log replay per round.
// Each run prints the shares it realised on its `load:` line.
const Workload kWorkloads[] = {
    {"infer-uniform", "INTER", 10000, false, 0.0, 2000, 20000, 200, 200000, 50000},
    {"infer-hot", "INTER", 10000, true, 1.1, 2000, 20000, 200, 200000, 50000},
    {"ingest-recover", "FIN", 16000, false, 0.0, 1000, 20000, 200, 150000, 35000},
};

constexpr std::int64_t kStalenessUs = 20000;      // infer-hot aggregate bound
constexpr std::size_t kAggEntries = 1 << 16;
constexpr double kOpenShare = 0.6;                // of --seconds
constexpr double kClosedShare = 0.2;
constexpr int kClosedClients = 2;
// Single-shot phases are repeated and their median reported, so that one
// stall of the shared host moves no figure.
constexpr int kSaturateRounds = 5;
constexpr int kRecoverRounds = 3;
constexpr double kWindowS = 1.0;                  // timings: median over windows of this length
constexpr std::uint32_t kRefreshEvery = 16;       // every 16th trickle update is a feature refresh
constexpr auto kProbeTimeout = std::chrono::seconds(2);
constexpr std::size_t kRecordCap = 3000;          // timed results kept for the pair check
constexpr std::size_t kCheckSeeds = 1200;
constexpr float kEmbedTolerance = 1e-4f;

// ---------------------------------------------------------------- stream

// Everything the benchmark publishes, generated from --seed alone. Every
// vertex gets a feature, every key vertex of every hop gets one coverage
// edge (so an idle cache has no legitimate gaps), then the dataset's own
// edge stream follows. Extra "probe" vertices of the hop-1 destination
// type exist only as targets of freshness probes.
class WorkloadStream {
 public:
  WorkloadStream(const Workload& w, const QueryPlan& plan, std::uint64_t seed,
                 std::uint64_t tail_edges, std::uint64_t probe_vertices)
      : plan_(plan), rng_(util::MixHash(seed ^ 0xC0FFEEULL)) {
    spec_ = std::string(w.dataset) == "FIN" ? gen::MakeFin(w.scale) : gen::MakeInter(w.scale);
    spec_.seed = util::MixHash(seed + spec_.seed);
    preload_edges_ = spec_.TotalEdges();
    // Stretch every edge stream so the generator keeps going past the
    // preload with the same skew.
    const double stretch =
        static_cast<double>(preload_edges_ + tail_edges) / static_cast<double>(preload_edges_);
    for (auto& es : spec_.edge_streams) {
      es.count = static_cast<std::uint64_t>(std::ceil(static_cast<double>(es.count) * stretch));
    }
    stream_ = std::make_unique<gen::UpdateStream>(spec_);
    probe_type_ = spec_.schema.edge_endpoints[plan_.one_hop[0].edge_type].dst_type;
    for (std::uint64_t i = 0; i < probe_vertices; ++i) {
      probe_targets_.push_back(gen::MakeVertexId(probe_type_, spec_.vertices_per_type[probe_type_] + i));
    }
  }

  graph::VertexTypeId seed_type() const { return plan_.query.seed_type; }
  std::uint64_t seed_population() const { return spec_.vertices_per_type[seed_type()]; }
  const std::vector<VertexId>& probe_targets() const { return probe_targets_; }

  // The preload, in publish order: dataset vertices, probe vertices,
  // coverage edges, then the first TotalEdges() stream edges.
  void Preload(const std::function<void(const graph::GraphUpdate&)>& fn) {
    graph::GraphUpdate u;
    for (std::uint64_t i = 0; i < spec_.TotalVertices(); ++i) {
      stream_->Next(u);
      fn(u);
    }
    for (VertexId v : probe_targets_) fn(graph::VertexUpdate{probe_type_, v, 0, RandomFeature()});
    std::vector<std::pair<graph::EdgeTypeId, graph::VertexTypeId>> covered;
    for (const auto& q : plan_.one_hop) {
      const auto key = std::make_pair(q.edge_type, q.target_type);
      if (std::find(covered.begin(), covered.end(), key) != covered.end()) continue;
      covered.push_back(key);
      const graph::VertexTypeId dst_type = spec_.schema.edge_endpoints[q.edge_type].dst_type;
      auto cover = [&](VertexId src) {
        const VertexId dst =
            gen::MakeVertexId(dst_type, rng_.Uniform(spec_.vertices_per_type[dst_type]));
        fn(graph::EdgeUpdate{q.edge_type, src, dst, 0, 1.0f});
      };
      for (std::uint64_t i = 0; i < spec_.vertices_per_type[q.target_type]; ++i) {
        cover(gen::MakeVertexId(q.target_type, i));
      }
      if (q.target_type == probe_type_) {
        for (VertexId v : probe_targets_) cover(v);
      }
    }
    for (std::uint64_t i = 0; i < preload_edges_; ++i) {
      stream_->Next(u);
      fn(u);
    }
  }

  // The next stream edge past the preload.
  graph::GraphUpdate NextEdge() {
    graph::GraphUpdate u;
    if (!stream_->Next(u)) {
      std::fprintf(stderr, "realbench: update stream exhausted\n");
      std::abort();
    }
    return u;
  }

  // A feature refresh of a uniformly chosen dataset vertex.
  graph::VertexUpdate NextRefresh() {
    std::uint64_t pick = rng_.Uniform(spec_.TotalVertices());
    graph::VertexTypeId type = 0;
    while (pick >= spec_.vertices_per_type[type]) pick -= spec_.vertices_per_type[type++];
    return graph::VertexUpdate{type, gen::MakeVertexId(type, pick), 0, RandomFeature()};
  }

 private:
  graph::Feature RandomFeature() {
    graph::Feature f(spec_.schema.feature_dim);
    for (float& x : f) x = static_cast<float>(rng_.UniformDouble()) * 2.0f - 1.0f;
    return f;
  }

  QueryPlan plan_;
  gen::DatasetSpec spec_;
  util::Rng rng_;
  std::unique_ptr<gen::UpdateStream> stream_;
  std::uint64_t preload_edges_ = 0;
  graph::VertexTypeId probe_type_ = 0;
  std::vector<VertexId> probe_targets_;
};

// Stamps every update with a fresh, strictly increasing event time (so the
// probe edge is always the newest of its vertex), records it in the
// oracle, and publishes it.
class Publisher {
 public:
  Publisher(ThreadedCluster& cluster, realbench::Oracle& oracle)
      : cluster_(cluster), oracle_(oracle) {}

  graph::GraphUpdate Stamp(graph::GraphUpdate u) {
    const graph::Timestamp ts = next_ts_.fetch_add(1);
    if (auto* e = std::get_if<graph::EdgeUpdate>(&u)) {
      e->ts = ts;
      if (e->src == watch_src_.load() && e->type == watch_type_.load() && ts > watch_ts_.load()) {
        newer_.fetch_add(1);
      }
      oracle_.AddEdge(*e);
    } else {
      auto& v = std::get<graph::VertexUpdate>(u);
      v.ts = ts;
      oracle_.SetFeature(v.id, v.feature);
    }
    return u;
  }
  void Send(const graph::GraphUpdate& stamped) {
    cluster_.PublishUpdate(stamped);
    published_.fetch_add(1, std::memory_order_relaxed);
  }
  void StampAndSend(graph::GraphUpdate u) { Send(Stamp(std::move(u))); }
  std::uint64_t published() const { return published_.load(); }

  // Stamps a probe edge and from then on counts the edges of its type and
  // source stamped after it. Once a hop's fan-out of them exist, TopK
  // rightly hides the probe for good. Edges stamped while the watch is
  // being set up may go uncounted, never the reverse, so a count of C
  // proves supersession.
  graph::GraphUpdate StampWatched(const graph::EdgeUpdate& probe) {
    watch_ts_.store(kNever);
    newer_.store(0);
    watch_type_.store(probe.type);
    watch_src_.store(probe.src);
    graph::GraphUpdate stamped = Stamp(probe);
    watch_ts_.store(std::get<graph::EdgeUpdate>(stamped).ts);
    return stamped;
  }
  std::uint64_t newer_than_watched() const { return newer_.load(); }

 private:
  static constexpr graph::Timestamp kNever = std::numeric_limits<graph::Timestamp>::max();

  ThreadedCluster& cluster_;
  realbench::Oracle& oracle_;
  std::atomic<graph::Timestamp> next_ts_{1};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<VertexId> watch_src_{graph::kInvalidVertex};
  std::atomic<graph::EdgeTypeId> watch_type_{0};
  std::atomic<graph::Timestamp> watch_ts_{kNever};
  std::atomic<std::uint64_t> newer_{0};
};

// ---------------------------------------------------------------- stats

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Latency samples tagged with the kWindowS window their request was due
// in. A timing is the median, over the windows, of each window's quantile:
// a host stall spanning a minority of the windows leaves it unchanged,
// where it would shift a quantile of the pooled samples.
struct Windowed {
  std::vector<double> us;
  std::vector<std::uint32_t> window;

  void Add(std::uint32_t w, double v) {
    us.push_back(v);
    window.push_back(w);
  }
  std::uint32_t Windows() const {
    return window.empty() ? 0 : *std::max_element(window.begin(), window.end()) + 1;
  }
  double Quantile(double q) const {
    std::vector<std::vector<double>> per(Windows());
    for (std::size_t i = 0; i < us.size(); ++i) per[window[i]].push_back(us[i]);
    std::vector<double> qs;
    for (const auto& w : per) {
      if (!w.empty()) qs.push_back(::Quantile(w, q));
    }
    return Median(qs);
  }
};

std::uint32_t WindowOf(Clock::duration since_start) {
  return static_cast<std::uint32_t>(Seconds(since_start) / kWindowS);
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// Tight sleeps for the load-generator threads: the default 50 us timer
// slack would show up as generator lateness on every scheduled send.
void UseTightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void WaitUntil(Clock::time_point t) {
  // Sleep to just short of the due time, then yield-spin: the open-loop
  // clock must not inherit wake-up jitter, and the spin must not starve
  // the cluster's own threads of the 4 cores they share with it.
  if (t - Clock::now() > std::chrono::microseconds(60)) {
    std::this_thread::sleep_until(t - std::chrono::microseconds(40));
  }
  while (Clock::now() < t) std::this_thread::yield();
}

struct Recorded {
  VertexId seed = 0;
  std::vector<std::vector<SampledSubgraph::Node>> layers;
};

// Samples of the layer calls timed on traced queries.
struct LayerSamples {
  std::vector<double> serve_into_us, embed_us, embed_cached_us, unattributed_us, kv_probes;
};

// ---------------------------------------------------------------- the run

class Bench {
 public:
  Bench(const Workload& w, const Args& args)
      : w_(w),
        args_(args),
        plan_(bench::PaperQuery(std::string(w.dataset) == "FIN" ? gen::MakeFin(w.scale)
                                                                 : gen::MakeInter(w.scale),
                                Strategy::kTopK)),
        oracle_(plan_),
        encoder_(gnn::SageConfig{}) {
    open_s_ = kOpenShare * static_cast<double>(args.seconds);
    closed_s_ = kClosedShare * static_cast<double>(args.seconds);
    probes_max_ = static_cast<std::uint64_t>(std::ceil(open_s_ * w.probe_hz)) + 16;
    trickle_total_ = static_cast<std::uint64_t>(std::llround(open_s_ * w.update_hz));
    stream_ = std::make_unique<WorkloadStream>(w, plan_, args.seed, TailEdges(), probes_max_);
  }

  int Run();

 private:
  // Stream edges published after the preload.
  std::uint64_t TailEdges() const {
    return trickle_total_ + w_.saturate_updates + w_.downtime_updates * kRecoverRounds;
  }
  void Setup();
  void OpenLoop(double seconds, bool traced, Windowed& query, Windowed& fresh);
  // Runs one query and returns when it completed; on traced queries the
  // layer calls timed apart run after that point.
  Clock::time_point QueryOnce(VertexId seed, bool traced, SampledSubgraph& plain_out,
                              gnn::CachedEmbedScratch& cached, std::vector<float>& emb,
                              Recorded* rec);
  void ClosedLoop();
  void Saturate();
  void CheckCachedParity();
  void Recover();
  void FinalChecks();
  void MeasureStandaloneLayers();
  void Fail(const std::string& what) {
    if (correct_.exchange(false)) std::fprintf(stderr, "realbench: CHECK FAILED: %s\n", what.c_str());
  }
  // Query seeds follow the workload's skew; probe and check seeds can ask
  // for uniform ones.
  std::vector<VertexId> Seeds(std::size_t n, std::uint64_t salt, bool skewed = true) const;

  const Workload& w_;
  Args args_;
  QueryPlan plan_;
  realbench::Oracle oracle_;
  gnn::GraphSageEncoder encoder_;
  std::unique_ptr<WorkloadStream> stream_;
  std::unique_ptr<ThreadedCluster> cluster_;
  std::unique_ptr<Publisher> pub_;
  double open_s_ = 0, closed_s_ = 0;
  std::uint64_t probes_max_ = 0, trickle_total_ = 0;
  std::uint64_t next_probe_ = 0;

  std::atomic<bool> correct_{true};
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::mutex recorded_mu_;
  std::vector<Recorded> recorded_;
  std::vector<VertexId> timed_seeds_;

  // end-to-end
  double setup_s_ = 0, qps_ = 0, ingest_ups_ = 0, recover_s_ = 0, peak_rss_mb_ = 0;
  Windowed query_, fresh_;
  std::vector<double> lateness_us_;
  std::uint64_t superseded_ = 0;
  // per-layer
  LayerSamples layers_;
  Windowed traced_query_, untraced_query_;
  double publish_ns_ = 0, checkpoint_ms_ = 0, checkpoint_bytes_ = 0, restore_ms_ = 0;
  double kv_view_ns_ = 0, on_update_ns_ = 0, on_ctrl_ns_ = 0, ctrl_per_update_ = 0,
         msgs_per_update_ = 0;
  std::uint64_t agg_hits_ = 0, agg_lookups_ = 0;
};

std::vector<VertexId> Bench::Seeds(std::size_t n, std::uint64_t salt, bool skewed) const {
  const std::uint64_t rng_seed = util::MixHash(args_.seed * 31 + salt);
  if (skewed && w_.zipf > 0) {
    return gen::HotKeyBatch(stream_->seed_type(), stream_->seed_population(),
                            gen::QuerySkew{w_.zipf, rng_seed}, n);
  }
  gen::SeedGenerator g(stream_->seed_type(), stream_->seed_population(), 0.0, rng_seed);
  return g.Batch(n);
}

void Bench::Setup() {
  ClusterOptions opt;
  opt.map = ShardMap{2, 2, 2};
  opt.seed = util::MixHash(args_.seed + 7);
  if (w_.cached) {
    opt.aggregate_cache_entries = kAggEntries;
    opt.aggregate_staleness_us = kStalenessUs;
  }
  cluster_ = std::make_unique<ThreadedCluster>(plan_, opt);
  cluster_->Start();
  pub_ = std::make_unique<Publisher>(*cluster_, oracle_);
  stream_->Preload([&](const graph::GraphUpdate& u) { pub_->StampAndSend(u); });
  cluster_->WaitForIngestIdle();
  setup_s_ = Seconds(Clock::now() - kProcessStart);
  std::printf("setup: %llu updates preloaded, peak RSS %.1f MB\n",
              static_cast<unsigned long long>(pub_->published()), PeakRssMb());
}

Clock::time_point Bench::QueryOnce(VertexId seed, bool traced, SampledSubgraph& plain_out,
                                   gnn::CachedEmbedScratch& cached, std::vector<float>& emb,
                                   Recorded* rec) {
  const ServingCore& core = cluster_->serving_core(cluster_->RouteOf(seed));
  if (!w_.cached) {
    const auto t0 = Clock::now();
    SampledSubgraph r = cluster_->Serve(seed);
    const auto t1 = Clock::now();
    emb = encoder_.EmbedSeed(r);
    const auto t2 = Clock::now();
    if (rec != nullptr) *rec = Recorded{seed, r.layers};
    if (traced) {
      static thread_local ServeScratch scratch;
      const auto t3 = Clock::now();
      core.ServeInto(seed, plain_out, scratch);
      const auto t4 = Clock::now();
      std::vector<float> unused;
      encoder_.EmbedSeedCached(core, seed, cached, unused);  // bypassed: cache off
      const auto t5 = Clock::now();
      layers_.serve_into_us.push_back(Micros(t4 - t3));
      layers_.embed_us.push_back(Micros(t2 - t1));
      layers_.embed_cached_us.push_back(Micros(t5 - t4));
      layers_.unattributed_us.push_back(Micros(t1 - t0) - Micros(t4 - t3));
      layers_.kv_probes.push_back(static_cast<double>(r.sample_lookups + r.feature_lookups));
    }
    return t2;
  }
  const auto t0 = Clock::now();
  if (!encoder_.EmbedSeedCached(core, seed, cached, emb)) {
    Fail("EmbedSeedCached refused a 2-hop plan with the cache on");
  }
  const auto t1 = Clock::now();
  if (rec != nullptr) {
    rec->seed = seed;
    rec->layers.assign(2, {});
    rec->layers[0].push_back({seed, 0});
    for (VertexId c : cached.result.children) rec->layers[1].push_back({c, 0});
  }
  if (traced) {
    static thread_local ServeScratch scratch;
    const auto t2 = Clock::now();
    core.ServeInto(seed, plain_out, scratch);
    const auto t3 = Clock::now();
    const std::vector<float> plain = encoder_.EmbedSeed(plain_out);
    const auto t4 = Clock::now();
    layers_.serve_into_us.push_back(Micros(t3 - t2));
    layers_.embed_us.push_back(Micros(t4 - t3));
    layers_.embed_cached_us.push_back(Micros(t1 - t0));
    layers_.unattributed_us.push_back(0.0);
    layers_.kv_probes.push_back(
        static_cast<double>(cached.result.sample_lookups + cached.result.feature_lookups));
  }
  return t1;
}

void Bench::OpenLoop(double seconds, bool traced, Windowed& query, Windowed& fresh) {
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  const std::uint64_t trickle =
      static_cast<std::uint64_t>(std::llround(seconds * w_.update_hz));
  const std::size_t n_queries = static_cast<std::size_t>(std::ceil(seconds * w_.query_hz)) + 1;
  const std::vector<VertexId> seeds = Seeds(n_queries, 11);
  const std::vector<VertexId> probe_seeds = Seeds(probes_max_, 13, /*skewed=*/false);
  std::atomic<std::uint64_t> probe_fail{0}, probes_done{0}, queries_done{0}, superseded{0};
  const std::uint32_t query_base = query.Windows(), fresh_base = fresh.Windows();

  // Fixed-rate ingest: the generator's share of the remaining stream plus
  // feature refreshes, paced per millisecond against an absolute schedule.
  std::thread trickler([&] {
    UseTightTimerSlack();
    std::uint64_t sent = 0;
    for (std::uint64_t tick = 1; sent < trickle; ++tick) {
      WaitUntil(t0 + std::chrono::milliseconds(tick));
      const std::uint64_t due = std::min<std::uint64_t>(
          trickle, static_cast<std::uint64_t>(static_cast<double>(tick) * w_.update_hz / 1000.0));
      for (; sent < due; ++sent) {
        if (sent % kRefreshEvery == kRefreshEvery - 1) {
          pub_->StampAndSend(stream_->NextRefresh());
        } else {
          pub_->StampAndSend(stream_->NextEdge());
        }
      }
    }
  });

  // Read-after-write probes: a newest-timestamp hop-1 edge from a real
  // seed to a probe vertex no other edge reaches, then Serve() until the
  // seed's hop 1 holds it. A probe delayed until C newer edges of its
  // seed exist can no longer be seen; it is counted apart, neither a
  // sample nor a failure (a hub of FIN gets C edges in about 0.1 s).
  std::thread prober([&] {
    UseTightTimerSlack();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / w_.probe_hz));
    std::vector<Recorded> local;
    for (std::uint64_t j = 0;; ++j) {
      const auto due = t0 + period * static_cast<std::int64_t>(j);
      if (due >= t_end || next_probe_ >= probes_max_) break;
      WaitUntil(due);
      const VertexId seed = probe_seeds[next_probe_ % probe_seeds.size()];
      const VertexId target = stream_->probe_targets()[next_probe_++];
      const graph::GraphUpdate probe = pub_->StampWatched(
          graph::EdgeUpdate{plan_.one_hop[0].edge_type, seed, target, 0, 1.0f});
      const auto sent = Clock::now();
      pub_->Send(probe);
      bool seen = false, hidden = false;
      while (!seen && !hidden && Clock::now() - sent < kProbeTimeout) {
        SampledSubgraph r = cluster_->Serve(seed);
        const auto now = Clock::now();
        for (const auto& n : r.layers[1]) seen = seen || n.vertex == target;
        if (seen) {
          fresh.Add(fresh_base + WindowOf(due - t0), Micros(now - sent));
          if (local.size() < kRecordCap / 4) local.push_back(Recorded{seed, r.layers});
        } else {
          hidden = pub_->newer_than_watched() >= plan_.one_hop[0].fanout;
          std::this_thread::yield();
        }
      }
      if (hidden) superseded.fetch_add(1);
      if (!seen && !hidden) probe_fail.fetch_add(1);
      probes_done.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(recorded_mu_);
    for (auto& r : local) recorded_.push_back(std::move(r));
  });

  // Open-loop queries, each timed from when it was due. Tight timer slack
  // is set only on the generator threads, never on threads the cluster
  // spawns (new actor pools inherit the slack of the thread creating them).
  std::thread sender([&] {
    UseTightTimerSlack();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / w_.query_hz));
    SampledSubgraph plain;
    gnn::CachedEmbedScratch cached;
    std::vector<float> emb;
    std::vector<Recorded> local;
    for (std::size_t i = 0;; ++i) {
      const auto due = t0 + period * static_cast<std::int64_t>(i);
      if (due >= t_end) break;
      WaitUntil(due);
      const auto start = Clock::now();
      Recorded rec;
      const bool record = local.size() < kRecordCap;
      const auto end = QueryOnce(seeds[i], traced, plain, cached, emb, record ? &rec : nullptr);
      query.Add(query_base + WindowOf(due - t0), Micros(end - due));
      lateness_us_.push_back(Micros(start - due));
      if (emb.size() != encoder_.config().output_dim) Fail("query returned no embedding");
      if (record) local.push_back(std::move(rec));
      if (timed_seeds_.size() < kRecordCap) timed_seeds_.push_back(seeds[i]);
      queries_done.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(recorded_mu_);
    for (auto& r : local) recorded_.push_back(std::move(r));
  });
  sender.join();
  trickler.join();
  prober.join();
  attempted_ += queries_done.load() + probes_done.load() + trickle;
  failed_ += probe_fail.load();
  superseded_ += superseded.load();
}

void Bench::ClosedLoop() {
  const std::vector<VertexId> seeds = Seeds(1 << 14, 17);
  std::atomic<std::uint64_t> done{0};
  // Completions per whole window; the median window rate is query_qps.
  const std::uint32_t windows = std::max<std::uint32_t>(1, WindowOf(
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(closed_s_))));
  std::vector<std::atomic<std::uint64_t>> per_window(windows);
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(closed_s_));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedClients; ++c) {
    clients.emplace_back([&, c] {
      SampledSubgraph plain;
      gnn::CachedEmbedScratch cached;
      std::vector<float> emb;
      std::uint64_t n = 0;
      for (std::size_t i = static_cast<std::size_t>(c); Clock::now() < t_end; i += kClosedClients) {
        const auto end = QueryOnce(seeds[i % seeds.size()], false, plain, cached, emb, nullptr);
        const std::uint32_t w = WindowOf(end - t0);
        if (w < windows) per_window[w].fetch_add(1);
        ++n;
      }
      done.fetch_add(n);
    });
  }
  for (auto& t : clients) t.join();
  const double window_s = closed_s_ < kWindowS ? closed_s_ : kWindowS;
  std::vector<double> rates;
  for (const auto& c : per_window) rates.push_back(static_cast<double>(c.load()) / window_s);
  qps_ = Median(rates);
  attempted_ += done.load();
}

void Bench::Saturate() {
  std::vector<graph::GraphUpdate> batch;
  batch.reserve(w_.saturate_updates);
  for (std::uint64_t i = 0; i < w_.saturate_updates; ++i) {
    batch.push_back(pub_->Stamp(stream_->NextEdge()));
  }
  std::vector<double> ups;
  double publish_s = 0;
  for (int r = 0; r < kSaturateRounds; ++r) {
    const std::size_t begin = batch.size() * r / kSaturateRounds;
    const std::size_t end = batch.size() * (r + 1) / kSaturateRounds;
    const auto t0 = Clock::now();
    for (std::size_t i = begin; i < end; ++i) pub_->Send(batch[i]);
    const auto t1 = Clock::now();
    cluster_->WaitForIngestIdle();
    const auto t2 = Clock::now();
    ups.push_back(static_cast<double>(end - begin) / Seconds(t2 - t0));
    publish_s += Seconds(t1 - t0);
  }
  ingest_ups_ = Median(ups);
  publish_ns_ = publish_s * 1e9 / static_cast<double>(batch.size());
  attempted_ += batch.size();
  const std::string flows = realbench::CheckFlows(cluster_->Stats(), pub_->published());
  if (!flows.empty()) Fail("flow totals at idle: " + flows);
}

void Bench::CheckCachedParity() {
  // Past the staleness bound every entry computed during ingest is stale,
  // so the first cached call recomputes from the idle cells and the second
  // one hits; both must replay the plain path bit for bit.
  std::this_thread::sleep_for(std::chrono::microseconds(kStalenessUs) +
                              std::chrono::milliseconds(5));
  gnn::CachedEmbedScratch scratch;
  std::vector<float> cached;
  const std::vector<VertexId> seeds = Seeds(kCheckSeeds, 19);
  for (VertexId seed : seeds) {
    const ServingCore& core = cluster_->serving_core(cluster_->RouteOf(seed));
    const std::vector<float> plain = encoder_.EmbedSeed(core.Serve(seed));
    for (int pass = 0; pass < 2; ++pass) {
      encoder_.EmbedSeedCached(core, seed, scratch, cached);
      const std::string diff = realbench::CompareBits(cached, plain);
      if (!diff.empty()) {
        Fail("seed " + std::to_string(seed) + " pass " + std::to_string(pass) + ": " + diff);
        return;
      }
    }
  }
}

void Bench::Recover() {
  // A fixed victim: the two nodes own different shards, so recovery time
  // depends on which one dies.
  constexpr std::uint32_t victim = 1;
  std::vector<double> checkpoint_ms, checkpoint_bytes, restore_ms, recover_s;
  for (int round = 0; round < kRecoverRounds; ++round) {
    const std::string dir = args_.workdir + "/ckpt-" + std::to_string(round);
    const auto c0 = Clock::now();
    const util::Status st = cluster_->Checkpoint(dir);
    const auto c1 = Clock::now();
    if (!st.ok()) Fail("checkpoint: " + st.ToString());
    checkpoint_ms.push_back(Seconds(c1 - c0) * 1e3);
    std::error_code ec;
    checkpoint_bytes.push_back(
        static_cast<double>(std::filesystem::file_size(dir + "/checkpoints.hstore", ec)));

    std::vector<graph::GraphUpdate> batch;
    batch.reserve(w_.downtime_updates);
    for (std::uint64_t i = 0; i < w_.downtime_updates; ++i) {
      batch.push_back(pub_->Stamp(stream_->NextEdge()));
    }
    const std::uint64_t replayed0 =
        cluster_->registry().TakeSnapshot().CounterTotal("ft.updates_replayed");
    if (!cluster_->KillNode(victim)) Fail("KillNode refused");
    for (const auto& u : batch) pub_->Send(u);
    cluster_->WaitForIngestIdle();  // the live node drains; the victim's log waits
    const auto r0 = Clock::now();
    if (!cluster_->RestartNode(victim)) Fail("RestartNode refused");
    const auto r1 = Clock::now();
    cluster_->WaitForIngestIdle();
    const auto r2 = Clock::now();
    restore_ms.push_back(Seconds(r1 - r0) * 1e3);
    recover_s.push_back(Seconds(r2 - r0));
    attempted_ += batch.size();
    if (cluster_->registry().TakeSnapshot().CounterTotal("ft.updates_replayed") == replayed0) {
      Fail("recovery round " + std::to_string(round) + " replayed no records");
    }
    std::filesystem::remove_all(dir, ec);
  }
  checkpoint_ms_ = Median(checkpoint_ms);
  checkpoint_bytes_ = Median(checkpoint_bytes);
  restore_ms_ = Median(restore_ms);
  recover_s_ = Median(recover_s);
}

void Bench::FinalChecks() {
  oracle_.Finalize();
  // Idle-state oracle: at least kCheckSeeds distinct seeds (all of them
  // when the population is smaller), plus every probed seed.
  std::vector<VertexId> seeds;
  const std::uint64_t pop = stream_->seed_population();
  util::Rng rng(util::MixHash(args_.seed + 23));
  std::vector<std::uint64_t> idx(pop);
  for (std::uint64_t i = 0; i < pop; ++i) idx[i] = i;
  for (std::uint64_t i = 0; i + 1 < pop; ++i) std::swap(idx[i], idx[i + rng.Uniform(pop - i)]);
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(pop, kCheckSeeds); ++i) {
    seeds.push_back(gen::MakeVertexId(stream_->seed_type(), idx[i]));
  }
  std::size_t checked = 0;
  for (VertexId seed : seeds) {
    const SampledSubgraph s = cluster_->Serve(seed);
    std::string err = oracle_.CheckIdle(s);
    if (err.empty()) {
      err = realbench::CompareEmbeddings(encoder_.EmbedSeed(s),
                                         encoder_.EmbedSeed(oracle_.Assemble(seed)),
                                         kEmbedTolerance);
    }
    if (!err.empty()) {
      Fail("idle oracle: " + err);
      break;
    }
    ++checked;
  }
  for (const Recorded& r : recorded_) {
    const std::string err = oracle_.CheckPairs(r.seed, r.layers);
    if (!err.empty()) {
      Fail("timed-phase pairs: " + err);
      break;
    }
  }
  const ClusterStats stats = cluster_->Stats();
  if (stats.serving_msgs_published != stats.serving_msgs_applied) {
    Fail("serving messages published != applied after recovery");
  }
  std::printf("checks: %zu seeds against the idle oracle, %zu timed results pair-checked, "
              "%llu oracle edges\n",
              checked, recorded_.size(), static_cast<unsigned long long>(oracle_.edges()));
}

void Bench::MeasureStandaloneLayers() {
  // kv: each serving worker's cache loaded into a standalone KvStore, then
  // the timed queries' key batches (hop by hop, as ServeInto issues them)
  // replayed through MultiView.
  {
    const std::uint32_t n_workers = 2;
    std::vector<std::unique_ptr<kv::KvStore>> stores;
    for (std::uint32_t wk = 0; wk < n_workers; ++wk) {
      stores.push_back(std::make_unique<kv::KvStore>(kv::KvOptions{}));
      for (const auto& [k, v] : cluster_->DumpServingCache(wk)) stores.back()->Put(k, v);
    }
    // One key batch per hop, then one feature batch over the distinct
    // tree vertices: the MultiView calls ServeInto makes for that seed.
    struct KeyBatch {
      std::uint32_t worker = 0;
      std::vector<std::string> keys;
      std::vector<std::string_view> views;
    };
    std::vector<KeyBatch> batches;
    for (VertexId seed : timed_seeds_) {
      const SampledSubgraph s = cluster_->Serve(seed);
      const std::uint32_t worker = cluster_->RouteOf(seed);
      std::vector<VertexId> distinct;
      for (std::size_t k = 0; k < plan_.num_hops(); ++k) {
        KeyBatch& b = batches.emplace_back();
        b.worker = worker;
        for (const auto& n : s.layers[k]) {
          b.keys.emplace_back(SampleKeyBuf(plan_.one_hop[k].hop, n.vertex).view());
        }
      }
      for (const auto& layer : s.layers) {
        for (const auto& n : layer) distinct.push_back(n.vertex);
      }
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
      KeyBatch& b = batches.emplace_back();
      b.worker = worker;
      for (VertexId v : distinct) b.keys.emplace_back(FeatureKeyBuf(v).view());
    }
    for (KeyBatch& b : batches) {
      for (const std::string& k : b.keys) b.views.push_back(k);
    }
    kv::KvStore::ViewScratch scratch;
    std::uint64_t keys = 0, sink = 0;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 5; ++rep) {
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const KeyBatch& kb = batches[b];
        stores[kb.worker]->MultiView(
            kb.views.data(), kb.views.size(),
            [&](std::size_t, std::string_view value, bool found) { sink += found ? value.size() : 1; },
            scratch);
        keys += kb.views.size();
      }
    }
    kv_view_ns_ = keys ? Seconds(Clock::now() - t0) * 1e9 / static_cast<double>(keys) : 0.0;
    if (sink == 0) Fail("kv replay read nothing");
  }

  // sampling: standalone shard cores fed the workload's preload plus the
  // stream edges of the timed phases, routed by ShardMap; control deltas
  // are drained after each window of updates, as the shard actors do.
  {
    const ShardMap map{2, 2, 2};
    std::vector<std::unique_ptr<SamplingShardCore>> cores;
    std::vector<SamplingShardCore::Outputs> outs(map.TotalShards());
    for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
      cores.push_back(std::make_unique<SamplingShardCore>(plan_, map, s, 42));
    }
    const std::uint64_t tail = w_.saturate_updates;
    WorkloadStream replay(w_, plan_, args_.seed, TailEdges(), probes_max_);
    std::vector<graph::GraphUpdate> updates;
    replay.Preload([&](const graph::GraphUpdate& u) { updates.push_back(u); });
    for (std::uint64_t i = 0; i < tail; ++i) updates.push_back(replay.NextEdge());
    graph::Timestamp ts = 1;
    for (auto& u : updates) std::visit([&](auto& x) { x.ts = ts++; }, u);

    double update_s = 0, ctrl_s = 0;
    std::uint64_t ctrl = 0, msgs = 0;
    std::vector<std::pair<std::uint32_t, SubscriptionDelta>> pending, next;
    constexpr std::size_t kWindow = 512;
    for (std::size_t base = 0; base < updates.size(); base += kWindow) {
      const std::size_t end = std::min(updates.size(), base + kWindow);
      const auto t0 = Clock::now();
      for (std::size_t i = base; i < end; ++i) {
        const auto& u = updates[i];
        const VertexId owner_v = std::holds_alternative<graph::EdgeUpdate>(u)
                                     ? std::get<graph::EdgeUpdate>(u).src
                                     : std::get<graph::VertexUpdate>(u).id;
        const std::uint32_t s = map.ShardOf(owner_v);
        cores[s]->OnGraphUpdate(u, 1, outs[s]);
      }
      const auto t1 = Clock::now();
      update_s += Seconds(t1 - t0);
      for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
        for (auto& d : outs[s].to_shards) pending.push_back(d);
        msgs += outs[s].to_serving.total_messages();
        outs[s].Clear();
      }
      while (!pending.empty()) {
        ctrl += pending.size();
        const auto c0 = Clock::now();
        for (const auto& [shard, delta] : pending) {
          if (cores[shard]->AdmitCtrl(delta)) cores[shard]->OnSubscriptionDelta(delta, 1, outs[shard]);
        }
        ctrl_s += Seconds(Clock::now() - c0);
        pending.clear();
        for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
          for (auto& d : outs[s].to_shards) pending.push_back(d);
          msgs += outs[s].to_serving.total_messages();
          outs[s].Clear();
        }
      }
    }
    const double n = static_cast<double>(updates.size());
    on_update_ns_ = update_s * 1e9 / n;
    on_ctrl_ns_ = ctrl ? ctrl_s * 1e9 / static_cast<double>(ctrl) : 0.0;
    ctrl_per_update_ = static_cast<double>(ctrl) / n;
    msgs_per_update_ = static_cast<double>(msgs) / n;
  }
}

int Bench::Run() {
  Setup();
  const auto snap0 = cluster_->registry().TakeSnapshot();

  if (args_.trace == 0) {
    OpenLoop(open_s_, false, query_, fresh_);
  } else {
    // The traced run splits the open-loop phase: an untraced half, then a
    // traced half under identical settings; the p50 ratio is the tracing
    // overhead.
    OpenLoop(open_s_ / 2, false, untraced_query_, fresh_);
    OpenLoop(open_s_ / 2, true, traced_query_, fresh_);
    query_ = untraced_query_;
  }
  ClosedLoop();
  {
    const auto snap1 = cluster_->registry().TakeSnapshot();
    agg_hits_ = snap1.CounterTotal("serving.cache.hits") - snap0.CounterTotal("serving.cache.hits");
    agg_lookups_ = agg_hits_ +
                   snap1.CounterTotal("serving.cache.misses") -
                   snap0.CounterTotal("serving.cache.misses") +
                   snap1.CounterTotal("serving.cache.stale_recompute") -
                   snap0.CounterTotal("serving.cache.stale_recompute");
    if (w_.cached && agg_hits_ == 0) Fail("the aggregate cache served no hits");
  }
  Saturate();
  if (w_.cached) CheckCachedParity();
  Recover();
  // Read before the checks: the oracle's lookup tables built there are
  // the benchmark's, not the program's.
  peak_rss_mb_ = PeakRssMb();
  std::printf("memory: peak RSS %.1f MB, of which the oracle holds ~%.1f MB\n", peak_rss_mb_,
              static_cast<double>(oracle_.ApproxBytes()) / (1024.0 * 1024.0));
  FinalChecks();
  if (args_.trace == 1) MeasureStandaloneLayers();

  const auto snap = cluster_->MetricsSnapshot();
  const util::Histogram e2e = cluster_->IngestionLatency();
  std::printf("workload %s: dataset %s scale %llu, seed %llu, %.1f s open loop, %.1f s closed loop\n",
              w_.name, w_.dataset, static_cast<unsigned long long>(w_.scale),
              static_cast<unsigned long long>(args_.seed), open_s_, closed_s_);
  std::printf("queries: %zu open-loop samples at %.0f/s, generator lateness p50 %.1f us p99 %.1f us "
              "max %.1f us\n",
              query_.us.size(), w_.query_hz, Quantile(lateness_us_, 0.5),
              Quantile(lateness_us_, 0.99), Quantile(lateness_us_, 1.0));
  std::printf("freshness: %zu probes seen at %.0f/s under %.0f updates/s, %llu superseded; "
              "program's own ingest_e2e p50 %llu us p99 %llu us\n",
              fresh_.us.size(), w_.probe_hz, w_.update_hz,
              static_cast<unsigned long long>(superseded_),
              static_cast<unsigned long long>(e2e.P50()), static_cast<unsigned long long>(e2e.P99()));
  std::printf("tails (p99 is printed, not gated: on a shared host it swings with neighbours' "
              "stalls): query p99 %.1f us, fresh p99 %.1f us\n",
              Quantile(query_.us, 0.99), Quantile(fresh_.us, 0.99));
  std::printf("load: open-loop queries at %.3f of this run's closed-loop capacity, updates at "
              "%.3f of its saturating capacity\n",
              w_.query_hz / qps_, w_.update_hz / ingest_ups_);
  std::printf("aggregate cache: %llu hits of %llu lookups\n",
              static_cast<unsigned long long>(agg_hits_), static_cast<unsigned long long>(agg_lookups_));

  char buf[8192];
  std::string metrics;
  auto add = [&](const char* name, double value, const char* unit) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.6f, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, value, unit);
    metrics += buf;
  };
  if (args_.trace == 0) {
    add("setup_s", setup_s_, "s");
    add("query_p50_us", query_.Quantile(0.5), "us");
    add("query_p90_us", query_.Quantile(0.9), "us");
    add("query_qps", qps_, "queries/s");
    add("fresh_p50_us", fresh_.Quantile(0.5), "us");
    add("fresh_p90_us", fresh_.Quantile(0.9), "us");
    add("ingest_ups", ingest_ups_, "updates/s");
    add("recover_s", recover_s_, "s");
    add("peak_rss_mb", peak_rss_mb_, "MB");
  } else {
    const double diss_updates = static_cast<double>(snap.CounterTotal("cluster.updates_processed"));
    const double batches = static_cast<double>(snap.CounterTotal("dissemination.batches"));
    const double messages = static_cast<double>(snap.CounterTotal("dissemination.messages"));
    const double coalesced = static_cast<double>(snap.CounterTotal("dissemination.coalesced_msgs"));
    add("serving.serve_into_us", Quantile(layers_.serve_into_us, 0.5), "us");
    add("serving.kv_probes_per_query", Mean(layers_.kv_probes), "count");
    add("serving.agg_hit_ratio",
        agg_lookups_ ? static_cast<double>(agg_hits_) / static_cast<double>(agg_lookups_) : 0.0,
        "ratio");
    add("pipeline.cache_apply_us",
        static_cast<double>(snap.LatencyTotal("pipeline.stage.cache_apply").P50()), "us");
    add("kv.view_ns_per_key", kv_view_ns_, "ns");
    add("gnn.embed_us", Quantile(layers_.embed_us, 0.5), "us");
    add("gnn.embed_cached_us", Quantile(layers_.embed_cached_us, 0.5), "us");
    add("cluster.unattributed_us", Quantile(layers_.unattributed_us, 0.5), "us");
    add("sampling.on_update_ns", on_update_ns_, "ns");
    add("sampling.on_ctrl_ns", on_ctrl_ns_, "ns");
    add("sampling.ctrl_per_update", ctrl_per_update_, "count");
    add("sampling.serving_msgs_per_update", msgs_per_update_, "count");
    add("dissemination.bytes_per_update",
        static_cast<double>(snap.CounterTotal("dissemination.bytes_wire")) / diss_updates, "bytes");
    add("dissemination.coalesce_ratio", coalesced / (messages + coalesced), "ratio");
    add("dissemination.msgs_per_batch", messages / batches, "count");
    add("mq.publish_ns", publish_ns_, "ns");
    add("pipeline.ingest_wait_us",
        static_cast<double>(snap.LatencyTotal("pipeline.stage.ingest").P50()), "us");
    add("pipeline.ingest_e2e_us", static_cast<double>(e2e.P50()), "us");
    add("store.checkpoint_ms", checkpoint_ms_, "ms");
    add("store.checkpoint_bytes", checkpoint_bytes_, "bytes");
    add("ft.restore_ms", restore_ms_, "ms");
    add("ft.replayed_records",
        static_cast<double>(snap.CounterTotal("ft.updates_replayed")) / kRecoverRounds, "count");
    add("ft.replay_ms", static_cast<double>(snap.LatencyTotal("ft.time_to_replay_us").P50()) / 1e3,
        "ms");
    const double untraced = untraced_query_.Quantile(0.5);
    const double traced = traced_query_.Quantile(0.5);
    std::printf("tracing overhead: query p50 %.1f us untraced vs %.1f us traced\n", untraced,
                traced);
    add("trace.query_p50_overhead_pct", untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0, "%");
  }
  cluster_->Stop();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct_.load() ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return correct_.load() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string err;
  if (!ParseArgs(argc, argv, args, err)) {
    std::fprintf(stderr, "realbench: %s\n", err.c_str());
    return 2;
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "realbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "realbench: cannot create %s\n", args.workdir.c_str());
    return 2;
  }
  Bench bench(*w, args);
  return bench.Run();
}
