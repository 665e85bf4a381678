// Executes an ExecutionPlan on the simulated device by dispatching to the
// strategy kernels of src/reduce/. This is the "run the generated kernel"
// stage; codegen/cuda_emitter.hpp is its source-text twin.
//
// execute() is the bare dispatch: any device-side failure (watchdog trip,
// injected fault, OOM) escapes as gpusim::LaunchError. run_guarded()
// wraps any attempt in the graceful-degradation policy of DESIGN.md §11:
// re-run a failed attempt up to GuardPolicy::max_retries times, then walk
// a degradation ladder — all-barriers tree first, then progressively
// smaller launch geometry — until the run succeeds or the ladder is
// exhausted. execute_guarded() is run_guarded over execute().
#pragma once

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "acc/planner.hpp"
#include "gpusim/device.hpp"
#include "gpusim/error.hpp"
#include "gpusim/faultinject.hpp"
#include "obs/trace.hpp"
#include "reduce/fused_cascade.hpp"
#include "reduce/gang_reduce.hpp"
#include "reduce/rmp_reduce.hpp"
#include "reduce/vector_reduce.hpp"
#include "reduce/worker_reduce.hpp"

namespace accred::acc {

/// Run `plan` with the given loop-body bindings. T must match plan.type.
template <typename T>
reduce::ReduceResult<T> execute(gpusim::Device& dev, const ExecutionPlan& plan,
                                const reduce::Bindings<T>& b) {
  if (data_type_of<T>() != plan.type) {
    throw std::invalid_argument(
        "execute<T>: T does not match the planned operand type");
  }
  switch (plan.kind) {
    case StrategyKind::kVector:
      return reduce::run_vector_reduction<T>(dev, plan.dims, plan.launch,
                                             plan.op, b, plan.strategy);
    case StrategyKind::kWorker:
      return reduce::run_worker_reduction<T>(dev, plan.dims, plan.launch,
                                             plan.op, b, plan.strategy);
    case StrategyKind::kGang:
      return reduce::run_gang_reduction<T>(dev, plan.dims, plan.launch,
                                           plan.op, b, plan.strategy);
    case StrategyKind::kWorkerVector:
      return reduce::run_worker_vector_reduction<T>(
          dev, plan.dims, plan.launch, plan.op, b, plan.strategy);
    case StrategyKind::kGangWorker:
      return reduce::run_gang_worker_reduction<T>(
          dev, plan.dims, plan.launch, plan.op, b, plan.strategy);
    case StrategyKind::kGangWorkerVector:
      return reduce::run_gang_worker_vector_reduction<T>(
          dev, plan.dims, plan.launch, plan.op, b, plan.strategy);
    case StrategyKind::kSameLoop:
      return reduce::run_same_loop_reduction<T>(dev, plan.same_loop_extent,
                                                plan.launch, plan.op, b,
                                                plan.strategy);
    case StrategyKind::kFusedCascade: {
      // The generic Bindings only carry a scalar observable, so this
      // dispatch covers gang-terminated chains (which return one); chains
      // ending below the gang level need run_fused_chain with explicit
      // per-stage sinks.
      if (plan.chain.empty() || plan.chain.back().level != Par::kGang) {
        throw std::invalid_argument(
            "execute<T>: fused chains not ending at the gang level need "
            "run_fused_chain with per-stage sinks");
      }
      reduce::FusedChainBindings<T> fb;
      fb.contrib = b.contrib;
      fb.parallel_work = b.parallel_work;
      if (b.instance_init) {
        if (plan.chain.front().level == Par::kVector) {
          fb.vector_init = b.instance_init;
        } else {
          fb.worker_init = [&b](std::int64_t k) {
            return b.instance_init(k, -1);
          };
        }
      }
      fb.host_init = b.host_init;
      fb.host_init_set = b.host_init_set;
      return reduce::run_fused_chain<T>(dev, plan.chain, plan.dims,
                                        plan.launch, fb, plan.strategy);
    }
  }
  throw std::logic_error("unreachable strategy kind");
}

/// Retry/fallback policy for run_guarded().
struct GuardPolicy {
  /// Same-configuration re-runs after a failed attempt before the ladder
  /// degrades the plan.
  int max_retries = 1;
  /// Permit the degradation rungs below retries (all-barriers tree, then
  /// geometry shrink). Off = fail after the retries.
  bool degrade = true;
  /// Degradation rungs the ladder may descend when `degrade` is on: -1 =
  /// unlimited (the full ladder), 0 = none (equivalent to degrade off), N
  /// = stop after the Nth plan change. Lets a service bound how much work
  /// one failing job may consume.
  int max_degrade_rungs = -1;
  /// Hard cap on total attempts across every rung (0 = unlimited). The
  /// first attempt always runs; the ladder gives up once the cap is spent.
  /// This is the hook a per-tenant retry budget debits against.
  int max_total_attempts = 0;
};

/// One failed attempt and what the executor did about it.
struct DegradeEvent {
  int attempt = 0;  ///< 1-based attempt that failed
  int rung = 0;     ///< ladder rung the attempt ran on (0 = as planned)
  int failure_on_rung = 0;  ///< 1-based failure ordinal within that rung
  gpusim::LaunchErrorCode code = gpusim::LaunchErrorCode::kNone;
  std::string reason;  ///< rendered error / guard diagnostic
  std::string action;  ///< "retry", "strip non-sticky faults", rung change…
};

/// Outcome of a guarded run whose attempts return R (any result carrying
/// the attempt's gpusim::LaunchStats as `stats`). `ok == false` means every
/// rung of the ladder failed; `error` then holds the last failure (the
/// events list has the full history either way).
template <typename R>
struct GuardedRun {
  bool ok = false;
  R result{};            ///< of the successful attempt
  ExecutionPlan plan{};  ///< the plan that finally ran
  int attempts = 0;
  bool recovered = false;  ///< succeeded after at least one failure
  bool degraded = false;   ///< succeeded on a degraded rung
  std::vector<DegradeEvent> events;
  gpusim::LaunchErrorInfo error{};  ///< terminal failure when !ok
  /// Fault bookkeeping aggregated over every attempt: completed launches
  /// contribute their LaunchStats::fault_events; failed attempts
  /// contribute the events their LaunchError carried (the launch's stats
  /// are lost with the exception), or one synthesized event for injected
  /// errors that recorded none (device-side alloc_fail).
  bool faults_armed = false;
  std::vector<gpusim::FaultEvent> fault_events;
};

template <typename T>
using GuardedResult = GuardedRun<reduce::ReduceResult<T>>;

namespace detail {

/// FaultKind a thrown injected error corresponds to (only warp_abort and
/// alloc_fail surface as exceptions; the data faults corrupt silently).
inline gpusim::FaultKind fault_kind_of(gpusim::LaunchErrorCode code) {
  return code == gpusim::LaunchErrorCode::kOom
             ? gpusim::FaultKind::kAllocFail
             : gpusim::FaultKind::kWarpAbort;
}

/// A non-finite floating scalar fails the guard unconditionally; results
/// without a scalar observable have nothing to check.
template <typename R>
bool non_finite_scalar(const R&) {
  return false;
}
template <typename T>
bool non_finite_scalar(const reduce::ReduceResult<T>& r) {
  if constexpr (std::is_floating_point_v<T>) {
    return r.scalar && !std::isfinite(*r.scalar);
  } else {
    return false;
  }
}

}  // namespace detail

/// Run `attempt` under the graceful-degradation policy. This is the one
/// place a failed attempt is handled: it arms the plan's faults for each
/// attempt (the device's alloc_fail arms included, so allocations the
/// attempt makes itself follow the same ladder as a kernel's scratch
/// buffers), strips non-sticky faults, retries, honours cancellation and
/// the attempt budget, walks the degradation rungs, and caps the fault
/// events it collects. `attempt` runs the plan it is handed (the rung's
/// plan, faults normalized into its SimOptions); any device-side failure
/// may escape it as gpusim::LaunchError. `verify` (optional) is the
/// numeric guard: it sees the completed result and returns false —
/// filling `detail` — when the values are unacceptable (the testsuite
/// runner passes its sequential-reference check here). A non-finite
/// floating scalar fails the guard unconditionally. Failed attempts walk:
///
///   rung 0  as planned; after the first failure, non-sticky injected
///           faults are stripped (a deterministic injector fails every
///           retry identically), then up to max_retries same-rung re-runs
///   rung 1  warp-synchronous tail off (tree.unroll_last_warp = false)
///   rung 2+ halve vector_length (floor 32), then num_workers (floor 1)
///
/// Never throws LaunchError: terminal failure comes back in the result.
template <typename R>
GuardedRun<R> run_guarded(
    gpusim::Device& dev, ExecutionPlan plan, const GuardPolicy& policy,
    const std::function<R(const ExecutionPlan&)>& attempt,
    const std::function<bool(const R&, std::string&)>& verify = {}) {
  GuardedRun<R> out;
  gpusim::SimOptions& sim = plan.strategy.sim;

  // Normalize the fault source to one spec string so retry stripping works
  // the same for SimOptions::faults, a pre-resolved plan, and the env
  // default.
  std::string spec = sim.fault_plan != nullptr ? sim.fault_plan->to_spec()
                     : !sim.faults.empty()     ? sim.faults
                                           : gpusim::faults_env_default();
  sim.fault_plan = nullptr;

  int failures_on_rung = 0;
  int rung = 0;  // plan changes so far; DegradeEvent::rung and the
                 // GuardPolicy::max_degrade_rungs bound both count these
  const auto may_degrade = [&policy, &rung] {
    return policy.degrade &&
           (policy.max_degrade_rungs < 0 || rung < policy.max_degrade_rungs);
  };
  const auto append_events = [&out](std::vector<gpusim::FaultEvent> evs) {
    for (gpusim::FaultEvent& e : evs) {
      if (out.fault_events.size() >= gpusim::BlockFaults::kMaxEventsPerLaunch) {
        break;
      }
      out.fault_events.push_back(std::move(e));
    }
  };
  for (;;) {
    ++out.attempts;
    gpusim::FaultPlan faults;
    if (!spec.empty()) faults = gpusim::FaultPlan::parse(spec);
    out.faults_armed = out.faults_armed || !faults.empty();
    sim.faults = spec;
    // Alloc-fail arms are one-shot on the device; re-arm the current set
    // each attempt so sticky alloc faults keep firing down the ladder.
    if (faults.has_alloc_faults()) {
      dev.arm_alloc_faults(faults);
    } else {
      dev.clear_alloc_faults();
    }

    gpusim::LaunchErrorInfo fail;
    try {
      R res = attempt(plan);
      append_events(std::move(res.stats.fault_events));
      std::string detail;
      bool good = true;
      if (detail::non_finite_scalar(res)) {
        good = false;
        detail = "non-finite scalar result";
      }
      if (good && verify && !verify(res, detail)) good = false;
      if (good) {
        out.ok = true;
        out.result = std::move(res);
        out.plan = plan;
        out.recovered = out.attempts > 1;
        dev.clear_alloc_faults();
        return out;
      }
      fail.code = gpusim::LaunchErrorCode::kNumericGuard;
      fail.message =
          detail.empty() ? "result failed the numeric guard" : detail;
    } catch (const gpusim::LaunchError& e) {
      fail = e.info();
      // Faults that fired before the launch died ride on the error (the
      // attempt's stats are gone) — e.g. a skip_barrier whose race got
      // escalated, or a bitflip in an earlier block of the aborting shard.
      const bool carried = !fail.fired.empty();
      append_events(std::move(fail.fired));
      fail.fired.clear();
      // Synthesize an event only when the injected error recorded none
      // itself (an alloc_fail fires on the Device, outside BlockFaults).
      if (fail.injected && !carried) {
        gpusim::FaultEvent ev;
        ev.kind = detail::fault_kind_of(fail.code);
        ev.block = fail.block;
        ev.warp = fail.warp;
        ev.stage = fail.stage;
        ev.detail = fail.message;
        append_events({std::move(ev)});
      }
    }

    DegradeEvent ev;
    ev.attempt = out.attempts;
    ev.rung = rung;
    ev.code = fail.code;
    ev.reason = to_string(fail);
    ++failures_on_rung;
    ev.failure_on_rung = failures_on_rung;

    // Decide the next move. A client cancellation is terminal before any
    // ladder logic runs — retrying or degrading a job the client no longer
    // wants only burns device time (and the token would fail every retry
    // identically anyway). Then the attempt budget: once spent, the ladder
    // may not launch again regardless of remaining rungs. Then the normal
    // ladder, where stripping non-sticky faults is always the first
    // response to a failure with faults armed: the injector is
    // deterministic, so an unmodified retry would fail identically.
    const std::string sticky = faults.sticky_spec();
    const auto descend = [&](std::string action) {
      ev.action = std::move(action);
      out.degraded = true;
      failures_on_rung = 0;
      ++rung;
    };
    const char* give_up = nullptr;
    if (fail.code == gpusim::LaunchErrorCode::kCancelled) {
      give_up = "cancelled: give up";
    } else if (policy.max_total_attempts > 0 &&
               out.attempts >= policy.max_total_attempts) {
      give_up = "attempt budget exhausted: give up";
    } else if (out.attempts == 1 && sticky != spec) {
      spec = sticky;
      ev.action = "strip non-sticky faults and retry";
    } else if (failures_on_rung <= policy.max_retries) {
      ev.action = "retry";
    } else if (may_degrade() && plan.strategy.tree.unroll_last_warp) {
      plan.strategy.tree.unroll_last_warp = false;
      descend("degrade: all-barriers tree (unroll_last_warp off)");
    } else if (may_degrade() && plan.launch.vector_length > 32) {
      const std::uint32_t prev = plan.launch.vector_length;
      plan.launch.vector_length = prev / 2;
      descend("degrade: vector_length " + std::to_string(prev) + " -> " +
              std::to_string(plan.launch.vector_length));
    } else if (may_degrade() && plan.launch.num_workers > 1) {
      const std::uint32_t prev = plan.launch.num_workers;
      plan.launch.num_workers = prev / 2;
      descend("degrade: num_workers " + std::to_string(prev) + " -> " +
              std::to_string(plan.launch.num_workers));
    } else {
      give_up = "give up";  // ladder exhausted
    }
    if (give_up != nullptr) {
      ev.action = give_up;
      out.events.push_back(std::move(ev));
      out.plan = plan;  // the bottom rung: what the last attempt ran
      out.error = std::move(fail);
      out.degraded = false;  // only a *successful* degraded run counts
      dev.clear_alloc_faults();
      return out;
    }
    if (obs::trace_enabled()) {
      obs::trace_complete(
          "degrade", 0, obs::trace_now_us(), 0,
          {{"attempt", static_cast<double>(ev.attempt)},
           {"code", static_cast<double>(static_cast<int>(ev.code))}});
    }
    out.events.push_back(std::move(ev));
  }
}

/// run_guarded over the plan's own strategy kernel (execute<T>).
template <typename T>
GuardedResult<T> execute_guarded(
    gpusim::Device& dev, ExecutionPlan plan, const reduce::Bindings<T>& b,
    const GuardPolicy& policy = {},
    const std::function<bool(const reduce::ReduceResult<T>&, std::string&)>&
        verify = {}) {
  return run_guarded<reduce::ReduceResult<T>>(
      dev, std::move(plan), policy,
      [&dev, &b](const ExecutionPlan& p) { return execute<T>(dev, p, b); },
      verify);
}

}  // namespace accred::acc
