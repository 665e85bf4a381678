// Plan cache for the reduction service: repeat traffic with the same
// reduction shape skips the whole source -> parse -> analyze -> plan
// pipeline (job.cpp) and reuses the cached ExecutionPlan. The RedFuser
// observation the ROADMAP names — planning work is highly reusable across
// repeated reduction shapes — applied to our acc planner.
//
// Key: (compiler, position, op, dtype, extent-bucket, launch geometry,
// parallel-work flag) — everything the planner's *decisions* depend on.
// The planner's decisions (strategy kind, staging, layouts, buffer sizes)
// are extent-independent; only the iteration extents vary inside a bucket,
// so a hit rebinds the cached plan's dims to the job's exact extents and
// is bit-identical to planning from scratch (pinned by
// tests/service/test_plan_cache.cpp). Extents are still bucketed by
// ceil(log2) in the key so any future extent-*dependent* planning rule
// (e.g. an autotuner picking geometry per size class) stays cacheable,
// and so key cardinality is bounded for admission-time estimates.
//
// Thread safe; eviction is strict LRU, so hit/miss/eviction counters are
// deterministic for any single-threaded submission order (the bench
// driver submits from one thread precisely to keep them gateable).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "service/job.hpp"

namespace accred::service {

/// Everything the planner's decisions can depend on, normalized.
struct PlanKey {
  acc::CompilerId compiler = acc::CompilerId::kOpenUH;
  acc::Position pos = acc::Position::kGang;
  acc::ReductionOp op = acc::ReductionOp::kSum;
  acc::DataType type = acc::DataType::kInt32;
  std::uint32_t extent_bucket = 0;  ///< ceil(log2(reduction_extent))
  std::uint32_t num_gangs = 0;
  std::uint32_t num_workers = 0;
  std::uint32_t vector_length = 0;
  /// Packed cascade-chain ops, innermost stage first, 8 bits per stage
  /// holding op+1; 0 = scalar job (no chain). Fused kFusedCascade plans
  /// differ structurally from the scalar plan at the same (pos, op, type),
  /// so the chain must participate in both equality and the hash.
  std::uint32_t chain = 0;
  bool parallel_work = true;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

[[nodiscard]] PlanKey key_of(const JobSpec& job);

/// Render for diagnostics / eviction tests ("openuh/gang/+/int/b12/...").
[[nodiscard]] std::string to_string(const PlanKey& k);

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept;
};

/// Counters surfaced through the obs layer (bench records and
/// ServiceStats). hit_rate() follows the record naming conventions:
/// exported as a "hit_rate" metric, which `accred_report diff` treats as
/// higher-is-better (obs/diff.cpp).
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t size = 0;
  std::uint64_t capacity = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class PlanCache {
public:
  /// `capacity` = max cached plans; at least 1.
  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  /// The service default: comfortably above the full testsuite grid
  /// (7 positions x 9 ops x 5 types) times a handful of extent buckets.
  static constexpr std::size_t kDefaultCapacity = 512;

  /// Cached plan for the job's key — planned via plan_job() and inserted
  /// on miss, evicting the least-recently-used entry past capacity. The
  /// returned plan is rebound to the job's exact extents and carries
  /// default SimOptions (callers apply per-job sim knobs afterwards).
  /// `hit` (optional) reports whether planning was skipped.
  [[nodiscard]] acc::ExecutionPlan get_or_plan(const JobSpec& job,
                                               bool* hit = nullptr);

  [[nodiscard]] PlanCacheStats stats() const;
  void clear();

private:
  using LruList = std::list<std::pair<PlanKey, acc::ExecutionPlan>>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<PlanKey, LruList::iterator, PlanKeyHash> map_;
  PlanCacheStats stats_;
};

/// Rebind a cached plan to a job's exact extents: recompute the iteration
/// dims (testsuite::case_geometry) and reset SimOptions; every planner
/// decision (kind, strategy, launch geometry, buffer sizes) is reused.
void rebind_plan(acc::ExecutionPlan& plan, const JobSpec& job);

/// ceil(log2(n)) bucket index (0 for n <= 1).
[[nodiscard]] std::uint32_t extent_bucket(std::int64_t n);

}  // namespace accred::service
