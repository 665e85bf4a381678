// Host-cost benchmark driver. Runs one workload of the accred program for a
// fixed wall time from a single process and writes the raw run record of
// record.hpp; perfbench/run.py builds this binary, runs it, and turns the
// record into metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out FILE <workload parameters>
//   perfbench_driver --record service|grid|apps --out FILE <parameters>
//
// The driver measures every layer from outside: it times the calls it makes
// into the program's public functions (ReductionService::submit,
// testsuite::plan_for_case, Runner::run_planned, apps::run_*), and reads the
// timings and counters the returned results already carry (JobResult,
// CaseOutcome, LaunchStats). The program under test sees only the JobSpecs,
// cases and app options generated here from --seed.
//
// With --trace 1, every other item (service jobs) or every other pass (grid
// and apps) is traced: its spans are kept in memory and written at exit, and
// analysis.py compares traced with untraced items for the tracing overhead.
//
// --record runs each distinct item of a workload family once and writes its
// modeled results, from which run.py --record rebuilds digests.json.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <future>
#include <iomanip>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/heat.hpp"
#include "apps/matmul.hpp"
#include "apps/montecarlo.hpp"
#include "gpusim/pool.hpp"
#include "record.hpp"
#include "service/service.hpp"
#include "testsuite/cases.hpp"
#include "testsuite/runner.hpp"
#include "util/cli.hpp"
#include "util/main_guard.hpp"
#include "util/rng.hpp"

namespace {

using namespace accred;
using perfbench::Clock;
using perfbench::Item;
using perfbench::ns_between;

/// Workload parameters; all come from perfbench/workloads.json via run.py.
struct Params {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  int setup_reps = 0;
  // Service workloads.
  std::string tenants;
  std::uint32_t workers = 0;
  std::uint32_t sim_threads = 0;
  std::int64_t r = 0;  ///< jobs sample extents {r, 2r}
  acc::LaunchConfig geometry{};
  std::size_t window = 0;  ///< closed loop: jobs kept outstanding
  double rate = 0;         ///< open loop: Poisson arrivals per second
  // Grid and apps workloads.
  std::uint32_t shards = 0;  ///< host threads per kernel launch
  std::int64_t grid_r = 0;
  std::int64_t heat_n = 0;
  int heat_iters = 0;
  std::int64_t matmul_n = 0;
  std::int64_t mc_samples = 0;
  std::uint64_t variants = 0;  ///< app input variants the seed picks from
};

Params parse(const util::Cli& cli) {
  Params p;
  p.workload = cli.get("workload", "");
  p.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  p.seconds = cli.get_double("seconds", 0);
  p.trace = cli.get_int("trace", 0) != 0;
  p.setup_reps = static_cast<int>(cli.get_int("setup-reps", 1));
  p.tenants = cli.get("tenants", "");
  p.workers = static_cast<std::uint32_t>(cli.get_int("workers", 0));
  p.sim_threads = static_cast<std::uint32_t>(cli.get_int("sim-threads", 0));
  p.r = cli.get_int("r", 0);
  p.geometry = acc::LaunchConfig{
      static_cast<std::uint32_t>(cli.get_int("gangs", 0)),
      static_cast<std::uint32_t>(cli.get_int("workers-per-gang", 0)),
      static_cast<std::uint32_t>(cli.get_int("vector", 0))};
  p.window = static_cast<std::size_t>(cli.get_int("window", 0));
  p.rate = cli.get_double("rate", 0);
  p.shards = static_cast<std::uint32_t>(cli.get_int("shards", 0));
  p.grid_r = cli.get_int("grid-r", 0);
  p.heat_n = cli.get_int("heat-n", 0);
  p.heat_iters = static_cast<int>(cli.get_int("heat-iters", 0));
  p.matmul_n = cli.get_int("matmul-n", 0);
  p.mc_samples = cli.get_int("mc-samples", 0);
  p.variants = static_cast<std::uint64_t>(cli.get_int("variants", 0));
  if (p.setup_reps < 1) {
    throw std::invalid_argument("--setup-reps must be >= 1");
  }
  return p;
}

std::string position_name(acc::Position pos) {
  std::string s(acc::to_string(pos));
  std::replace(s.begin(), s.end(), ' ', '_');
  return s;
}

std::string cell_key(acc::CompilerId id, const testsuite::CaseSpec& c) {
  return std::string(acc::to_string(id)) + "/" + position_name(c.pos) + "/" +
         std::string(acc::to_string(c.op)) + "/" +
         std::string(acc::to_string(c.type));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Everything one run measures: set-up times and items.
struct Run {
  std::vector<double> setup_s;
  std::deque<Item> items;
};

// ---------------------------------------------------------------------
// Service workloads: the service_throughput default mix.

std::vector<service::TenantConfig> parse_tenants(const std::string& spec) {
  std::vector<service::TenantConfig> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string part = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    const std::size_t colon = part.find(':');
    service::TenantConfig t;
    t.name = part.substr(0, colon);
    if (colon != std::string::npos) {
      t.weight = std::stod(part.substr(colon + 1));
    }
    if (t.name.empty() || t.weight <= 0) {
      throw std::invalid_argument("bad --tenants entry '" + part + "'");
    }
    out.push_back(std::move(t));
  }
  if (out.empty()) throw std::invalid_argument("missing --tenants");
  return out;
}

/// Tenant by weight, compiler biased toward OpenUH, a Table 2 cell the
/// compiler handles cleanly, extent in {r, 2r}: a pure function of the seed.
class JobSampler {
public:
  JobSampler(const Params& p, std::vector<service::TenantConfig> tenants,
             std::uint64_t seed)
      : p_(p), tenants_(std::move(tenants)), rng_(seed),
        grid_(testsuite::table2_grid()) {
    for (const auto& t : tenants_) total_weight_ += t.weight;
  }

  service::JobSpec next() {
    service::JobSpec job;
    double pick = rng_.next_unit() * total_weight_;
    job.tenant = tenants_.back().name;
    for (const service::TenantConfig& t : tenants_) {
      if (pick < t.weight) {
        job.tenant = t.name;
        break;
      }
      pick -= t.weight;
    }
    static constexpr acc::CompilerId kCompilers[] = {
        acc::CompilerId::kOpenUH, acc::CompilerId::kOpenUH,
        acc::CompilerId::kPgiLike, acc::CompilerId::kCapsLike};
    job.compiler = kCompilers[rng_.next_below(4)];
    for (;;) {
      const testsuite::CaseSpec& c = grid_[rng_.next_below(grid_.size())];
      if (acc::table2_robustness(job.compiler, c.pos, c.op, c.type) ==
          acc::Robustness::kOk) {
        job.kase = c;
        break;
      }
    }
    job.reduction_extent = p_.r << (rng_.next() & 1);
    job.config = p_.geometry;
    job.sim_threads = p_.sim_threads;
    return job;
  }

private:
  const Params& p_;
  std::vector<service::TenantConfig> tenants_;
  double total_weight_ = 0;
  util::SplitMix64 rng_;
  std::vector<testsuite::CaseSpec> grid_;
};

std::string job_key(const service::JobSpec& job) {
  return cell_key(job.compiler, job.kase) + "/r" +
         std::to_string(job.reduction_extent);
}

service::ServiceConfig service_config(const Params& p) {
  service::ServiceConfig cfg;
  cfg.workers = p.workers;
  return cfg;
}

void take_job(Item& it, const service::JobResult& r) {
  it.ok = r.status == service::JobStatus::kOk && r.outcome.verified;
  if (!it.ok) {
    it.why = std::string(service::to_string(r.status)) + ": " +
             (r.reject_reason.empty() ? r.outcome.detail : r.reject_reason);
  }
  it.queue_ms = r.queue_ms;
  it.service_ms = r.service_ms;
  it.wall_ms = r.outcome.wall_ms;
  it.attempts = r.outcome.attempts;
  it.kernels = r.outcome.kernels;
  if (r.status != service::JobStatus::kRejected) {
    it.cache_hit = r.plan_cache_hit ? 1 : 0;
  }
  it.take_stats(r.outcome.stats);
  // Copy into the capacity the submitting thread reserved: an allocation
  // kept from a worker thread would interleave with the jobs' transient
  // buffers in that worker's heap and make peak_rss_mb depend on timing.
  const std::vector<std::uint64_t> model = perfbench::model_of(r.outcome);
  it.model.assign(model.begin(), model.end());
}

/// Warm-up traffic: every position under every compiler at the mix's
/// largest extent and block shape, so worker heaps and fiber-stack slabs
/// reach their timed-run size, but with half the gangs: a plan-cache key
/// the timed mix never uses.
void warm_service(service::ReductionService& svc, const Params& p) {
  acc::LaunchConfig geometry = p.geometry;
  geometry.num_gangs = std::max<std::uint32_t>(geometry.num_gangs / 2, 1);
  std::vector<std::future<service::JobResult>> futs;
  for (const acc::CompilerId id :
       {acc::CompilerId::kOpenUH, acc::CompilerId::kPgiLike,
        acc::CompilerId::kCapsLike}) {
    for (const acc::Position pos : testsuite::all_positions()) {
      service::JobSpec job;
      job.tenant = "warmup";
      job.compiler = id;
      job.kase = {pos, acc::ReductionOp::kProd, acc::DataType::kInt32};
      job.reduction_extent = 2 * p.r;
      job.config = geometry;
      job.sim_threads = p.sim_threads;
      futs.push_back(svc.submit(std::move(job)));
    }
  }
  for (auto& f : futs) {
    const service::JobResult r = f.get();
    if (r.status != service::JobStatus::kOk) {
      throw std::runtime_error("service warm-up job failed: " +
                               r.outcome.detail + r.reject_reason);
    }
  }
}

std::unique_ptr<service::ReductionService> setup_service(const Params& p,
                                                         Run& run) {
  gpusim::set_default_sim_threads(p.sim_threads);
  std::unique_ptr<service::ReductionService> svc;
  for (int rep = 0; rep < p.setup_reps; ++rep) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = std::make_unique<service::ReductionService>(
        service_config(p), parse_tenants(p.tenants));
    warm_service(*svc, p);
    run.setup_s.push_back(seconds_since(t0));
  }
  return svc;
}

/// Spans of a traced service job, recorded in its completion callback.
/// Children derived from the returned timings are anchored at the submit
/// call, where the service stamps admission: queue = admission -> dispatch,
/// execute = dispatch -> end of the runner, and inside it the guarded
/// execution and its launches. The submit span itself is added after the
/// run (finish_service_spans): the callback may run before submit returns.
void service_spans(Item& it) {
  const int job = it.span("job", it.start_ns, it.done_ns, -1);
  if (it.cache_hit < 0) return;  // rejected at admission: never ran
  const std::int64_t admit = it.issue_ns;
  const std::int64_t dispatch = admit + perfbench::ms_to_ns(it.queue_ms);
  const std::int64_t end = admit + perfbench::ms_to_ns(it.service_ms);
  it.span("service.queue", admit, dispatch, job);
  const int exec = it.span("service.execute", dispatch, end, job);
  const int guarded =
      it.span("executor", end - perfbench::ms_to_ns(it.wall_ms), end, exec);
  it.span("gpusim.launch", end - static_cast<std::int64_t>(it.launch_ns), end,
          guarded);
}

void finish_service_spans(Run& run) {
  for (Item& it : run.items) {
    if (it.traced) it.span("service.submit", it.issue_ns, it.issue_end_ns, 0);
  }
}

/// Completion callback of one job: stamp, record, trace.
void complete_job(Item& it, Clock::time_point t0,
                  const service::JobResult& r) {
  it.done_ns = ns_between(t0, Clock::now());
  take_job(it, r);
  if (it.traced) service_spans(it);
}

/// Closed-loop admission window: at most `cap` jobs outstanding.
class Window {
public:
  explicit Window(std::size_t cap) : cap_(cap) {}

  /// Take a slot, waiting for one if all are taken. Returns when the slot
  /// became free: `now_ns` if one was free on entry, else the release time.
  std::int64_t acquire(std::int64_t now_ns) {
    std::unique_lock<std::mutex> lk(mu_);
    if (outstanding_ < cap_) {
      ++outstanding_;
      return now_ns;
    }
    cv_.wait(lk, [&] { return outstanding_ < cap_; });
    ++outstanding_;
    return freed_at_ns_;
  }

  void release(std::int64_t at_ns) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      --outstanding_;
      freed_at_ns_ = at_ns;
    }
    cv_.notify_one();
  }

private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
  std::int64_t freed_at_ns_ = 0;
  const std::size_t cap_;
};

void run_service_closed(const Params& p, Run& run) {
  if (p.window == 0) throw std::invalid_argument("--window must be >= 1");
  auto svc = setup_service(p, run);
  JobSampler sampler(p, parse_tenants(p.tenants), p.seed);
  Window window(p.window);
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(p.seconds);
  while (Clock::now() < deadline) {
    const std::int64_t ready_ns = window.acquire(ns_between(t0, Clock::now()));
    service::JobSpec job = sampler.next();
    Item& it = run.items.emplace_back();
    it.key = job_key(job);
    it.kind = position_name(job.kase.pos);
    it.model.reserve(perfbench::kCaseModelWords);
    it.traced = p.trace && run.items.size() % 2 == 0;
    Item* slot = &it;  // deque elements never move on emplace_back
    it.issue_ns = ns_between(t0, Clock::now());
    it.start_ns = it.issue_ns;
    it.lag_ns = it.issue_ns - ready_ns;
    svc->submit(std::move(job), [slot, t0, &window](service::JobResult r) {
      complete_job(*slot, t0, r);
      window.release(slot->done_ns);
    });
    slot->issue_end_ns = ns_between(t0, Clock::now());
  }
  svc->drain();
  finish_service_spans(run);
}

void run_service_open(const Params& p, Run& run) {
  if (p.rate <= 0) throw std::invalid_argument("--rate must be > 0");
  auto svc = setup_service(p, run);
  // The schedule and the jobs are fixed before the clock starts: each job
  // is timed from when it was due, and the generator never waits on the
  // service, so a stall shows in the latency of every job due behind it.
  JobSampler sampler(p, parse_tenants(p.tenants), p.seed);
  util::SplitMix64 arrivals(p.seed ^ 0x6f70656e6c6f6f70ULL);
  std::vector<std::int64_t> due;
  std::vector<service::JobSpec> jobs;
  for (double t = 0;;) {
    t += -std::log(1.0 - arrivals.next_unit()) / p.rate;
    if (t >= p.seconds) break;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
    jobs.push_back(sampler.next());
  }
  run.items.resize(jobs.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::this_thread::sleep_until(t0 + std::chrono::nanoseconds(due[i]));
    Item& it = run.items[i];
    it.key = job_key(jobs[i]);
    it.kind = position_name(jobs[i].kase.pos);
    it.model.reserve(perfbench::kCaseModelWords);
    it.traced = p.trace && i % 2 == 1;
    it.start_ns = due[i];
    it.issue_ns = ns_between(t0, Clock::now());
    it.lag_ns = it.issue_ns - due[i];
    Item* slot = &it;
    svc->submit(std::move(jobs[i]), [slot, t0](service::JobResult r) {
      complete_job(*slot, t0, r);
    });
    slot->issue_end_ns = ns_between(t0, Clock::now());
  }
  svc->drain();
  finish_service_spans(run);
}

// ---------------------------------------------------------------------
// Table 2 grid: every cell of the published grid under every compiler.

struct Cell {
  acc::CompilerId id;
  testsuite::CaseSpec spec;
  acc::Robustness expect;
};

std::vector<Cell> grid_cells() {
  std::vector<Cell> cells;
  for (const acc::CompilerId id :
       {acc::CompilerId::kOpenUH, acc::CompilerId::kPgiLike,
        acc::CompilerId::kCapsLike}) {
    for (const testsuite::CaseSpec& c : testsuite::table2_grid()) {
      cells.push_back(
          {id, c, acc::table2_robustness(id, c.pos, c.op, c.type)});
    }
  }
  return cells;
}

testsuite::RunnerOptions grid_options(const Params& p, std::int64_t r) {
  testsuite::RunnerOptions opts;
  opts.reduction_extent = r;
  opts.sim_threads = p.shards;
  return opts;
}

/// One cell, timed from outside: plan, then run the plan (the runner
/// synthesizes the input, executes under the guard, verifies against the
/// host fold). Modeled failure and compile-error cells are checked to
/// report exactly their Table 2 verdict.
Item run_cell(const Cell& cell, const testsuite::RunnerOptions& opts,
              Clock::time_point t0) {
  Item it;
  it.key = cell_key(cell.id, cell.spec);
  it.kind = position_name(cell.spec.pos);
  it.issue_ns = ns_between(t0, Clock::now());
  it.start_ns = it.issue_ns;
  testsuite::Runner runner(opts);
  testsuite::CaseOutcome out;
  if (cell.expect == acc::Robustness::kOk) {
    const acc::ExecutionPlan plan =
        testsuite::plan_for_case(cell.id, cell.spec, opts);
    it.plan_end_ns = ns_between(t0, Clock::now());
    out = runner.run_planned(cell.id, cell.spec, plan);
  } else {
    it.plan_end_ns = -1;  // never planned
    out = runner.run(cell.id, cell.spec);
  }
  it.done_ns = ns_between(t0, Clock::now());
  it.ok = out.status == cell.expect &&
          (cell.expect != acc::Robustness::kOk || out.verified);
  if (!it.ok) it.why = "cell " + it.key + ": " + out.detail;
  it.wall_ms = out.wall_ms;
  it.attempts = out.attempts;
  it.kernels = out.kernels;
  it.take_stats(out.stats);
  it.model = perfbench::model_of(out);
  return it;
}

void setup_grid(const Params& p, Run& run) {
  gpusim::set_default_sim_threads(p.shards);
  // Warm-up: one small cell per position, so the host pool's threads and
  // the fiber-stack slabs exist before the clock starts.
  const testsuite::RunnerOptions warm = grid_options(p, 256);
  for (int rep = 0; rep < p.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    for (const acc::Position pos : testsuite::all_positions()) {
      const Item it = run_cell(
          {acc::CompilerId::kOpenUH,
           {pos, acc::ReductionOp::kSum, acc::DataType::kInt32},
           acc::Robustness::kOk},
          warm, t0);
      if (!it.ok) throw std::runtime_error("grid warm-up failed: " + it.why);
    }
    run.setup_s.push_back(seconds_since(t0));
  }
}

/// Runs whole passes (each a seeded shuffle of the full set) until the
/// time is up; a traced run always makes at least one traced and one
/// untraced pass. `one` runs item `k` of the set and returns its record;
/// `spans_of` records a traced item's spans as soon as it completes.
template <typename RunOne>
void run_passes(const Params& p, Run& run, std::size_t set_size,
                RunOne&& one, void (*spans_of)(Item&)) {
  util::SplitMix64 rng(p.seed);
  std::vector<std::size_t> order(set_size);
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(p.seconds);
  std::int64_t prev_done = 0;
  for (int pass = 0;; ++pass) {
    if (pass > 0 && Clock::now() >= deadline && (!p.trace || pass >= 2)) {
      break;
    }
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (const std::size_t k : order) {
      Item it = one(k, rng, t0);
      it.pass = pass;
      it.traced = p.trace && pass % 2 == 1;
      if (it.traced) spans_of(it);
      it.lag_ns = it.issue_ns - prev_done;
      prev_done = it.done_ns;
      run.items.push_back(std::move(it));
    }
  }
}

void grid_spans(Item& it) {
  const int cell = it.span("cell", it.start_ns, it.done_ns, -1);
  if (it.plan_end_ns < 0) {  // modeled F / CE: nothing ran
    it.span("runner.run", it.issue_ns, it.done_ns, cell);
    return;
  }
  it.span("acc.plan", it.issue_ns, it.plan_end_ns, cell);
  const int planned =
      it.span("runner.run_planned", it.plan_end_ns, it.done_ns, cell);
  const int guarded = it.span(
      "executor", it.done_ns - perfbench::ms_to_ns(it.wall_ms), it.done_ns,
      planned);
  it.span("gpusim.launch",
          it.done_ns - static_cast<std::int64_t>(it.launch_ns), it.done_ns,
          guarded);
}

void run_grid(const Params& p, Run& run) {
  setup_grid(p, run);
  const std::vector<Cell> cells = grid_cells();
  const testsuite::RunnerOptions opts = grid_options(p, p.grid_r);
  run_passes(p, run, cells.size(),
             [&](std::size_t k, util::SplitMix64&, Clock::time_point t0) {
               return run_cell(cells[k], opts, t0);
             },
             grid_spans);
}

// ---------------------------------------------------------------------
// Fig. 12 apps under the OpenUH profile.

enum class App : std::uint8_t { kHeat, kMatmul, kMonteCarlo };

/// App inputs: a fixed heat problem, and for matmul and Monte Carlo one of
/// `variants` input seeds (the benchmark seed picks which, per pass).
struct AppInputs {
  apps::HeatOptions heat;
  std::vector<apps::MatmulOptions> matmul;
  std::vector<apps::MonteCarloOptions> mc;
  // Host references, computed before the clock starts.
  apps::HeatResult heat_ref;
  std::vector<std::vector<float>> matmul_ref;
  std::vector<std::int64_t> mc_ref;

  explicit AppInputs(const Params& p) {
    heat.ni = heat.nj = p.heat_n;
    heat.max_iterations = p.heat_iters;
    heat.tolerance = 0;
    heat_ref = apps::run_heat_reference(heat);
    for (std::uint64_t v = 0; v < p.variants; ++v) {
      apps::MatmulOptions m;
      m.n = p.matmul_n;
      m.seed += v;
      matmul.push_back(m);
      matmul_ref.push_back(apps::matmul_reference(m));
      apps::MonteCarloOptions c;
      c.samples = p.mc_samples;
      c.seed += v;
      mc.push_back(c);
      mc_ref.push_back(apps::montecarlo_reference_hits(c));
    }
    if (matmul.empty()) throw std::invalid_argument("--variants must be >= 1");
  }
};

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

Item solve_heat(const AppInputs& in, Clock::time_point t0) {
  Item it;
  it.key = "heat";
  it.kind = "heat";
  it.issue_ns = it.start_ns = ns_between(t0, Clock::now());
  const apps::HeatResult r = apps::run_heat(in.heat);
  it.done_ns = ns_between(t0, Clock::now());
  it.ok = r.iterations == in.heat_ref.iterations &&
          std::fabs(r.final_error - in.heat_ref.final_error) <= 1e-12;
  if (!it.ok) it.why = "heat differs from the host reference";
  it.kernels = r.iterations;  // one reduction per iteration
  it.take_stats(r.reduction_stats);
  it.model = {static_cast<std::uint64_t>(r.iterations), r.converged ? 1u : 0u,
              perfbench::bits_of(r.final_error),
              perfbench::bits_of(r.update_device_ms),
              perfbench::bits_of(r.reduction_device_ms),
              perfbench::bits_of(r.total_device_ms)};
  perfbench::append_model(it.model, r.reduction_stats);
  return it;
}

Item solve_matmul(const AppInputs& in, std::size_t v, Clock::time_point t0) {
  Item it;
  it.key = "matmul/v" + std::to_string(v);
  it.kind = "matmul";
  it.issue_ns = it.start_ns = ns_between(t0, Clock::now());
  const apps::MatmulResult r = apps::run_matmul(in.matmul[v]);
  it.done_ns = ns_between(t0, Clock::now());
  const std::vector<float>& ref = in.matmul_ref[v];
  it.ok = r.c.size() == ref.size();
  for (std::size_t i = 0; it.ok && i < ref.size(); ++i) {
    it.ok = std::fabs(r.c[i] - ref[i]) <= 1e-3 + 1e-4 * std::fabs(ref[i]);
  }
  if (!it.ok) it.why = "matmul differs from the host reference";
  it.kernels = 1;
  it.take_stats(r.stats);
  it.model = {perfbench::bits_of(r.device_ms),
              fnv1a(r.c.data(), r.c.size() * sizeof(float))};
  perfbench::append_model(it.model, r.stats);
  return it;
}

Item solve_mc(const AppInputs& in, std::size_t v, Clock::time_point t0) {
  Item it;
  it.key = "montecarlo/v" + std::to_string(v);
  it.kind = "montecarlo";
  it.issue_ns = it.start_ns = ns_between(t0, Clock::now());
  const apps::MonteCarloResult r = apps::run_montecarlo(in.mc[v]);
  it.done_ns = ns_between(t0, Clock::now());
  it.ok = r.hits == in.mc_ref[v];
  if (!it.ok) it.why = "montecarlo hits differ from the host reference";
  it.kernels = 1;
  it.take_stats(r.stats);
  it.model = {static_cast<std::uint64_t>(r.hits),
              perfbench::bits_of(r.pi_estimate),
              perfbench::bits_of(r.device_ms),
              perfbench::bits_of(r.transfer_ms)};
  perfbench::append_model(it.model, r.stats);
  return it;
}

void setup_apps(const Params& p, Run& run) {
  gpusim::set_default_sim_threads(p.shards);
  Params tiny = p;
  tiny.heat_n = 16;
  tiny.heat_iters = 2;
  tiny.matmul_n = 8;
  tiny.mc_samples = 4096;
  tiny.variants = 1;
  const AppInputs warm(tiny);
  for (int rep = 0; rep < p.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    for (const Item& it : {solve_heat(warm, t0), solve_matmul(warm, 0, t0),
                           solve_mc(warm, 0, t0)}) {
      if (!it.ok) throw std::runtime_error("apps warm-up failed: " + it.why);
    }
    run.setup_s.push_back(seconds_since(t0));
  }
}

void app_spans(Item& it) {
  const int solve = it.span("apps." + it.kind, it.start_ns, it.done_ns, -1);
  it.span("gpusim.launch",
          it.done_ns - static_cast<std::int64_t>(it.launch_ns), it.done_ns,
          solve);
}

void run_apps(const Params& p, Run& run) {
  const AppInputs in(p);
  setup_apps(p, run);
  run_passes(p, run, 3,
             [&](std::size_t k, util::SplitMix64& rng, Clock::time_point t0) {
               const std::size_t v = rng.next_below(p.variants);
               switch (static_cast<App>(k)) {
                 case App::kHeat: return solve_heat(in, t0);
                 case App::kMatmul: return solve_matmul(in, v, t0);
                 case App::kMonteCarlo: break;
               }
               return solve_mc(in, v, t0);
             },
             app_spans);
}

// ---------------------------------------------------------------------
// Record mode: each distinct item once, for the digest table.

void record_service(const Params& p, Run& run) {
  gpusim::set_default_sim_threads(p.sim_threads);
  service::ReductionService svc(service_config(p));
  for (const acc::CompilerId id :
       {acc::CompilerId::kOpenUH, acc::CompilerId::kPgiLike,
        acc::CompilerId::kCapsLike}) {
    for (const testsuite::CaseSpec& c : testsuite::table2_grid()) {
      if (acc::table2_robustness(id, c.pos, c.op, c.type) !=
          acc::Robustness::kOk) {
        continue;
      }
      for (const std::int64_t extent : {p.r, 2 * p.r}) {
        service::JobSpec job;
        job.compiler = id;
        job.kase = c;
        job.reduction_extent = extent;
        job.config = p.geometry;
        job.sim_threads = p.sim_threads;
        Item& it = run.items.emplace_back();
        it.key = job_key(job);
        take_job(it, svc.submit(std::move(job)).get());
      }
    }
  }
}

void record_grid(const Params& p, Run& run) {
  gpusim::set_default_sim_threads(p.shards);
  const testsuite::RunnerOptions opts = grid_options(p, p.grid_r);
  for (const Cell& cell : grid_cells()) {
    run.items.push_back(run_cell(cell, opts, Clock::now()));
  }
}

void record_apps(const Params& p, Run& run) {
  gpusim::set_default_sim_threads(p.shards);
  const AppInputs in(p);
  const auto t0 = Clock::now();
  run.items.push_back(solve_heat(in, t0));
  for (std::size_t v = 0; v < p.variants; ++v) {
    run.items.push_back(solve_matmul(in, v, t0));
    run.items.push_back(solve_mc(in, v, t0));
  }
}

// ---------------------------------------------------------------------

void write_run(const std::string& path, const Params& p, const Run& run) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << std::setprecision(17);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  os << "{\"workload\":";
  perfbench::write_string(os, p.workload);
  os << ",\"seed\":" << p.seed << ",\"trace\":" << (p.trace ? 1 : 0)
     << ",\"peak_rss_kb\":" << ru.ru_maxrss << ",\"setup_s\":[";
  for (std::size_t i = 0; i < run.setup_s.size(); ++i) {
    os << (i ? "," : "") << run.setup_s[i];
  }
  os << "],\"items\":[";
  for (std::size_t i = 0; i < run.items.size(); ++i) {
    os << (i ? ",\n" : "\n");
    perfbench::write_item(os, run.items[i]);
  }
  os << "]}\n";
  if (!os.flush()) throw std::runtime_error("write failed: " + path);
}

int run_main(int argc, char** argv) {
  // Pin glibc's allocation thresholds. Left dynamic, the mmap threshold
  // rises at the first large free, and whether a freed 16 MiB fiber-stack
  // slab then stays resident depends on thread timing: a 16 MiB step in
  // peak_rss_mb between identical runs. Fixed, blocks of 4 MiB and more
  // are mapped and unmapped with their owner, and the heap keeps up to the
  // 32 MiB the dynamic rule would settle on.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 32 << 20);
  const util::Cli cli(argc, argv);
  Params p = parse(cli);
  const std::string out = cli.get("out", "");
  if (out.empty()) throw std::invalid_argument("missing --out");
  Run run;
  if (cli.has("record")) {
    const std::string family = cli.get("record", "");
    p.workload = "record:" + family;
    if (family == "service") {
      record_service(p, run);
    } else if (family == "grid") {
      record_grid(p, run);
    } else if (family == "apps") {
      record_apps(p, run);
    } else {
      throw std::invalid_argument("unknown --record family '" + family + "'");
    }
    write_run(out, p, run);
    return 0;
  }
  if (p.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  if (p.workload == "service_closed") {
    run_service_closed(p, run);
  } else if (p.workload == "service_open") {
    run_service_open(p, run);
  } else if (p.workload == "table2_grid") {
    run_grid(p, run);
  } else if (p.workload == "apps_fig12") {
    run_apps(p, run);
  } else {
    throw std::invalid_argument("unknown --workload '" + p.workload + "'");
  }
  write_run(out, p, run);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run_main(argc, argv); });
}
