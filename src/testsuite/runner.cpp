#include "testsuite/runner.hpp"

#include <chrono>
#include <functional>
#include <sstream>
#include <utility>

#include "acc/executor.hpp"
#include "gpusim/error.hpp"
#include "reduce/argminmax.hpp"
#include "reduce/segmented_reduce.hpp"
#include "testsuite/values.hpp"

namespace accred::testsuite {

namespace {

using acc::Position;

/// Where a case's reduction variable accumulates and is next used
/// (level indices into the canonical gang/worker/vector triple nest).
struct CaseSemantics {
  int accum_level;
  int use_level;
};

CaseSemantics semantics_of(Position pos) {
  switch (pos) {
    case Position::kGang: return {0, acc::VarInfo::kHostUse};
    case Position::kWorker: return {1, 0};
    case Position::kVector: return {2, 1};
    case Position::kGangWorker: return {1, acc::VarInfo::kHostUse};
    case Position::kWorkerVector: return {2, 0};
    case Position::kGangWorkerVector: return {2, acc::VarInfo::kHostUse};
    case Position::kSameLineGangWorkerVector:
      return {0, acc::VarInfo::kHostUse};
  }
  return {0, acc::VarInfo::kHostUse};
}

/// Build the nest the way a user of this discipline writes it.
acc::NestIR build_nest(Position pos, acc::ReductionOp op, acc::DataType type,
                       const CaseGeometry& geo, const acc::LaunchConfig& cfg,
                       acc::ClauseDiscipline discipline) {
  acc::NestIR nest;
  nest.config = cfg;
  const CaseSemantics sem = semantics_of(pos);
  const acc::ReductionClause clause{op, "red"};

  if (pos == Position::kSameLineGangWorkerVector) {
    acc::LoopSpec loop;
    loop.par = acc::Par::kGang | acc::Par::kWorker | acc::Par::kVector;
    loop.extent = geo.same_loop_extent;
    loop.reductions = {clause};
    nest.loops = {loop};
  } else {
    nest.loops = {
        acc::LoopSpec{acc::mask_of(acc::Par::kGang), geo.dims.nk, {}},
        acc::LoopSpec{acc::mask_of(acc::Par::kWorker), geo.dims.nj, {}},
        acc::LoopSpec{acc::mask_of(acc::Par::kVector), geo.dims.ni, {}},
    };
    if (discipline == acc::ClauseDiscipline::kExplicitAllLevels) {
      for (int l = sem.use_level + 1; l <= sem.accum_level; ++l) {
        nest.loops[static_cast<std::size_t>(l)].reductions = {clause};
      }
    } else {
      // OpenUH style: one clause on the loop closest to the next use.
      nest.loops[static_cast<std::size_t>(sem.use_level + 1)].reductions = {
          clause};
    }
  }
  nest.vars = {{"red", type, sem.accum_level, sem.use_level}};
  return nest;
}

/// FNV-1a fold over raw bytes (result fingerprinting).
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

using Clock = std::chrono::steady_clock;
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
/// Buckets of a segmented extended-kind cell (element i -> i % kSegments).
constexpr std::size_t kSegments = 64;

/// The runner's simulator knobs, laid over a strategy's SimOptions.
void apply_sim_options(gpusim::SimOptions& sim, const RunnerOptions& opts) {
  if (opts.sim_threads != 0) sim.sim_threads = opts.sim_threads;
  if (opts.racecheck) sim.racecheck = true;
  if (opts.error_on_race) sim.error_on_race = true;
  sim.max_steps = opts.max_steps;
  sim.faults = opts.faults;
  sim.cancel_token = opts.cancel;
}

/// Run a cell's attempts under acc::run_guarded and fold the run into
/// `out`. `setup` accumulates, while the attempts run, the time they spend
/// allocating the runner's buffers and synthesizing input; it is kept out
/// of wall_ms, which covers the guarded kernel attempts only.
template <typename R>
acc::GuardedRun<R> run_cell(
    CaseOutcome& out, gpusim::Device& dev, const acc::ExecutionPlan& plan,
    const acc::GuardPolicy& policy,
    const std::function<R(const acc::ExecutionPlan&)>& attempt,
    const std::function<bool(const R&, std::string&)>& verify,
    const Clock::duration& setup) {
  const auto t0 = Clock::now();
  acc::GuardedRun<R> run =
      acc::run_guarded<R>(dev, plan, policy, attempt, verify);
  out.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0 -
                                                          setup)
                    .count();
  out.attempts = run.attempts;
  out.recovered = run.recovered;
  out.degraded = run.degraded;
  for (const acc::DegradeEvent& ev : run.events) {
    out.events.push_back("attempt " + std::to_string(ev.attempt) + " (rung " +
                         std::to_string(ev.rung) + ", failure " +
                         std::to_string(ev.failure_on_rung) +
                         ") failed: " + ev.reason + " -> " + ev.action);
  }
  if (run.ok) {
    out.stats = run.result.stats;
    out.kernels = run.result.kernels;
    out.device_ms = run.result.stats.device_time_ns / 1e6;
    out.verified = true;
  } else {
    out.stats.error = run.error;
    out.detail = to_string(run.error);
  }
  // The aggregate over every attempt, not just the last launch: failed
  // attempts' fired faults belong in the record too.
  out.stats.faults_armed = run.faults_armed;
  out.stats.fault_events = std::move(run.fault_events);
  return run;
}

/// Loop-body bindings of a scalar cell over the runner's buffers.
template <typename T>
reduce::Bindings<T> bindings_for(Position pos, const reduce::Nest3& dims,
                                 gpusim::GlobalView<T> in_view,
                                 const gpusim::DeviceBuffer<T>* temp,
                                 gpusim::GlobalView<T> out_view) {
  const auto [nk, nj, ni] = dims;
  reduce::Bindings<T> b;
  if (temp != nullptr) {
    const auto temp_view = temp->view();
    b.parallel_work = [=](gpusim::ThreadCtx& ctx, std::int64_t k,
                          std::int64_t j, std::int64_t i) {
      const auto idx = static_cast<std::size_t>((k * nj + j) * ni + i);
      ctx.st(temp_view, idx, ctx.ld(in_view, idx));
    };
  }
  switch (pos) {
    case Position::kGang:
      b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t,
                      std::int64_t) {
        return ctx.ld(in_view, static_cast<std::size_t>(k * nj * ni));
      };
      break;
    case Position::kWorker:
    case Position::kGangWorker:
      b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                      std::int64_t) {
        return ctx.ld(in_view, static_cast<std::size_t>((k * nj + j) * ni));
      };
      break;
    case Position::kVector:
    case Position::kWorkerVector:
    case Position::kGangWorkerVector:
      b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                      std::int64_t i) {
        return ctx.ld(in_view,
                      static_cast<std::size_t>((k * nj + j) * ni + i));
      };
      break;
    case Position::kSameLineGangWorkerVector:
      b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t idx, std::int64_t,
                      std::int64_t) {
        return ctx.ld(in_view, static_cast<std::size_t>(idx));
      };
      break;
  }
  if (pos == Position::kVector) {
    b.sink = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                 T r) {
      ctx.st(out_view, static_cast<std::size_t>(k * nj + j), r);
    };
  } else if (pos == Position::kWorker || pos == Position::kWorkerVector) {
    // Both positions produce one result per gang (k) instance.
    b.sink = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t, T r) {
      ctx.st(out_view, static_cast<std::size_t>(k), r);
    };
  }
  return b;
}

/// Allocate `buf` unless an earlier attempt already did (an allocated
/// buffer never sits at vaddr 0); true when this call allocated it.
template <typename T>
bool ensure_buffer(gpusim::Device& dev, gpusim::DeviceBuffer<T>& buf,
                   std::size_t n, std::string_view label) {
  if (buf.vaddr() != 0) return false;
  buf = dev.alloc<T>(n, label);
  return true;
}

template <typename T>
CaseOutcome run_typed(acc::CompilerId id, const CaseSpec& spec,
                      const RunnerOptions& opts,
                      const acc::ExecutionPlan* preplanned,
                      bool apply_robustness = true) {
  CaseOutcome out;
  if (apply_robustness) {
    out.status = table2_robustness(id, spec.pos, spec.op, spec.type);
    if (out.status != acc::Robustness::kOk) return out;
  }

  const CaseGeometry geo = case_geometry(spec.pos, opts.reduction_extent);
  const acc::CompilerProfile& prof = acc::profile(id);
  acc::ExecutionPlan plan;
  if (preplanned != nullptr) {
    plan = *preplanned;  // e.g. a service plan-cache hit
  } else {
    const acc::NestIR nest = build_nest(spec.pos, spec.op, spec.type, geo,
                                        opts.config, prof.discipline);
    plan = acc::plan_single(nest, prof);
  }
  apply_sim_options(plan.strategy.sim, opts);

  gpusim::Device dev(opts.device_limits);
  const bool same_loop = spec.pos == Position::kSameLineGangWorkerVector;
  const std::size_t volume = static_cast<std::size_t>(
      same_loop ? geo.same_loop_extent
                : geo.dims.nk * geo.dims.nj * geo.dims.ni);

  const bool copy_work = opts.parallel_work && !same_loop;
  // Per-instance output slots for the vector / worker positions.
  const std::size_t out_slots =
      spec.pos == Position::kVector
          ? static_cast<std::size_t>(geo.dims.nk * geo.dims.nj)
          : (spec.pos == Position::kWorker ||
                     spec.pos == Position::kWorkerVector
                 ? static_cast<std::size_t>(geo.dims.nk)
                 : 1);

  // The runner's own buffers are allocated inside the guarded attempt, so
  // an injected alloc_fail on them walks the same ladder as one on a
  // kernel's scratch buffer. Each is allocated once and kept across
  // attempts; the bindings are built once all of them exist.
  gpusim::DeviceBuffer<T> input;
  gpusim::DeviceBuffer<T> temp;
  gpusim::DeviceBuffer<T> result_buf;
  reduce::Bindings<T> b;
  Clock::duration setup{};
  const auto attempt = [&](const acc::ExecutionPlan& p) {
    if (!b.contrib) {
      const auto s0 = Clock::now();
      if (ensure_buffer(dev, input, volume, "input")) {
        auto host = input.host_span();
        for (std::size_t i = 0; i < volume; ++i) {
          host[i] = testsuite_value<T>(spec.op, i);
        }
      }
      if (copy_work) ensure_buffer(dev, temp, volume, "temp");
      ensure_buffer(dev, result_buf, out_slots, "result");
      b = bindings_for<T>(spec.pos, geo.dims, input.view(),
                          copy_work ? &temp : nullptr, result_buf.view());
      setup += Clock::now() - s0;
    }
    return acc::execute<T>(dev, p, b);
  };

  // ---- Verification against the sequential CPU fold ----------------
  // Runs as run_guarded's numeric guard after every attempt: a mismatch
  // (e.g. an injected bitflip's silent corruption) fails the attempt and
  // drives the retry/degradation ladder instead of merely flagging the
  // cell. float references accumulate in double: past ~2^24 elements a
  // float running sum rounds away every addend, so the *reference* would
  // be the wrong side of the comparison (the device's tree is far more
  // accurate). Bitwise operators never reach here with floating T.
  const auto [nk, nj, ni] = geo.dims;
  using Acc = std::conditional_t<std::is_same_v<T, float>, double, T>;
  const acc::RuntimeOp<Acc> rop_acc{spec.op};
  const acc::RuntimeOp<T> rop{spec.op};
  auto fold_strided = [&](std::size_t base, std::size_t stride,
                          std::size_t count) {
    const auto host_in = input.host_span();
    Acc acc_v = rop_acc.identity();
    for (std::size_t i = 0; i < count; ++i) {
      acc_v = rop_acc.apply(acc_v, static_cast<Acc>(host_in[base + i * stride]));
    }
    return static_cast<T>(acc_v);
  };

  auto verify = [&](const reduce::ReduceResult<T>& res,
                    std::string& why) -> bool {
    bool ok = true;
    std::ostringstream detail;
    auto check = [&](T expect, T actual, const char* what) {
      if (!reduction_result_matches(expect, actual,
                                    static_cast<std::uint64_t>(
                                        geo.contrib_count))) {
        ok = false;
        detail << what << ": expected " << expect << " got " << actual << "; ";
      }
    };

    switch (spec.pos) {
      case Position::kGang:
        check(fold_strided(0, static_cast<std::size_t>(nj * ni),
                           static_cast<std::size_t>(nk)),
              res.scalar.value_or(rop.identity()), "scalar");
        break;
      case Position::kGangWorker:
        check(fold_strided(0, static_cast<std::size_t>(ni),
                           static_cast<std::size_t>(nk * nj)),
              res.scalar.value_or(rop.identity()), "scalar");
        break;
      case Position::kGangWorkerVector:
      case Position::kSameLineGangWorkerVector:
        check(fold_strided(0, 1, volume),
              res.scalar.value_or(rop.identity()), "scalar");
        break;
      case Position::kWorker:
        for (std::int64_t k = 0; k < nk; ++k) {
          check(fold_strided(static_cast<std::size_t>(k * nj * ni),
                             static_cast<std::size_t>(ni),
                             static_cast<std::size_t>(nj)),
                result_buf.host_span()[static_cast<std::size_t>(k)],
                "worker instance");
        }
        break;
      case Position::kVector:
        for (std::int64_t k = 0; k < nk; ++k) {
          for (std::int64_t j = 0; j < nj; ++j) {
            check(fold_strided(static_cast<std::size_t>((k * nj + j) * ni), 1,
                               static_cast<std::size_t>(ni)),
                  result_buf
                      .host_span()[static_cast<std::size_t>(k * nj + j)],
                  "vector instance");
          }
        }
        break;
      case Position::kWorkerVector:
        for (std::int64_t k = 0; k < nk; ++k) {
          check(fold_strided(static_cast<std::size_t>(k * nj * ni), 1,
                             static_cast<std::size_t>(nj * ni)),
                result_buf.host_span()[static_cast<std::size_t>(k)],
                "worker-vector instance");
        }
        break;
    }

    // Spot-check the parallel copy actually happened.
    if (copy_work && volume > 0) {
      const auto host_in = input.host_span();
      const auto host_temp = temp.host_span();
      for (std::size_t s = 0; s < 997 && s < volume; ++s) {
        const std::size_t idx = (s * 104729) % volume;
        if (host_temp[idx] != host_in[idx]) {
          ok = false;
          detail << "parallel copy missing at " << idx << "; ";
          break;
        }
      }
    }
    why = detail.str();
    return ok;
  };

  const auto run = run_cell<reduce::ReduceResult<T>>(out, dev, plan,
                                                     opts.guard, attempt,
                                                     verify, setup);
  if (run.ok) {
    std::uint64_t h = kFnvBasis;
    if (run.result.scalar.has_value()) {
      const T v = *run.result.scalar;
      h = fnv1a(h, &v, sizeof v);
    }
    if (out_slots > 1) {
      const auto span = result_buf.host_span();
      h = fnv1a(h, span.data(), span.size() * sizeof(T));
    }
    out.result_hash = h;
  }
  return out;
}

/// Extended-kind cells: the loc / segmented pipelines run under the same
/// guarded attempt loop with verification as the guard, but on rung 0
/// only — they have no plan to degrade.
template <typename T>
CaseOutcome run_ext_typed(acc::CompilerId id, const ExtSpec& spec,
                          const RunnerOptions& opts) {
  if (spec.kind == ExtKind::kFusedCascade) {
    // The fused chain is a planned strategy like any scalar cell, so it
    // rides the full run_typed pipeline (guarded execution, degradation
    // ladder, result hashing) with a pre-built chain plan. The Table 2
    // robustness model does not apply: its GWV failure cells describe
    // those compilers' scalar lowering, not this fusion pass.
    const acc::NestIR nest =
        nest_for_chain(acc::ReductionOp::kSum, spec.type, opts);
    acc::ExecutionPlan plan = acc::plan_chained(nest, acc::profile(id));
    const CaseSpec scalar{Position::kGangWorkerVector, acc::ReductionOp::kSum,
                          spec.type};
    return run_typed<T>(id, scalar, opts, &plan, /*apply_robustness=*/false);
  }

  // Only the strategy configuration rides along in the plan.
  acc::ExecutionPlan plan;
  plan.strategy = acc::profile(id).strategy;
  apply_sim_options(plan.strategy.sim, opts);
  acc::GuardPolicy policy = opts.guard;
  policy.degrade = false;

  const std::int64_t extent = opts.reduction_extent;
  const auto volume = static_cast<std::size_t>(extent);
  const bool want_min = spec.kind == ExtKind::kArgMin;
  const acc::ReductionOp value_op = spec.kind == ExtKind::kSegmented
                                        ? acc::ReductionOp::kSum
                                        : (want_min ? acc::ReductionOp::kMin
                                                    : acc::ReductionOp::kMax);

  gpusim::Device dev(opts.device_limits);
  gpusim::DeviceBuffer<T> input;
  Clock::duration setup{};
  // Allocates and synthesizes the input on the first attempt that gets
  // that far; returns the per-element load the kernels run.
  const auto load_input = [&] {
    const auto s0 = Clock::now();
    if (ensure_buffer(dev, input, volume, "input")) {
      auto host = input.host_span();
      for (std::size_t i = 0; i < volume; ++i) {
        host[i] = testsuite_value<T>(value_op, i);
      }
    }
    setup += Clock::now() - s0;
    const auto in_view = input.view();
    return [in_view](gpusim::ThreadCtx& ctx, std::int64_t idx) {
      return ctx.ld(in_view, static_cast<std::size_t>(idx));
    };
  };

  CaseOutcome out;
  if (spec.kind == ExtKind::kSegmented) {
    using Result = reduce::ArrayReduceResult<T>;
    const auto run = run_cell<Result>(
        out, dev, plan, policy,
        [&](const acc::ExecutionPlan& p) {
          return reduce::run_segmented_reduction<T>(
              dev, extent, kSegments, opts.config, value_op,
              [](std::int64_t idx) {
                return static_cast<std::size_t>(idx) % kSegments;
              },
              load_input(), p.strategy);
        },
        [&](const Result& res, std::string& why) {
          // Per-segment sequential reference (float refs in double, as
          // the scalar grid does).
          using Acc = std::conditional_t<std::is_same_v<T, float>, double, T>;
          const acc::RuntimeOp<Acc> rop{value_op};
          const auto host_in = input.host_span();
          std::ostringstream detail;
          for (std::size_t s = 0; s < kSegments; ++s) {
            Acc ref = rop.identity();
            for (std::size_t i = s; i < volume; i += kSegments) {
              ref = rop.apply(ref, static_cast<Acc>(host_in[i]));
            }
            if (!reduction_result_matches(static_cast<T>(ref), res.values[s],
                                          volume / kSegments + 1)) {
              detail << "segment " << s << ": expected " << static_cast<T>(ref)
                     << " got " << res.values[s] << "; ";
            }
          }
          why = detail.str();
          return why.empty();
        },
        setup);
    if (run.ok) {
      out.result_hash = fnv1a(kFnvBasis, run.result.values.data(),
                              run.result.values.size() * sizeof(T));
    }
  } else {
    using Result = reduce::PayloadReduceResult<acc::ValueIndex<T>>;
    const auto run = run_cell<Result>(
        out, dev, plan, policy,
        [&](const acc::ExecutionPlan& p) {
          return reduce::run_arg_reduction<T>(dev, extent, opts.config,
                                              want_min, load_input(),
                                              p.strategy);
        },
        [&](const Result& res, std::string& why) {
          // The loc fold is value-comparison only (no rounding), so the
          // device pair must match the sequential one exactly.
          const auto host_in = input.host_span();
          acc::ValueIndex<T> ref = want_min ? acc::ArgMinOp<T>::identity()
                                            : acc::ArgMaxOp<T>::identity();
          for (std::size_t i = 0; i < volume; ++i) {
            const acc::ValueIndex<T> c{host_in[i],
                                       static_cast<std::int64_t>(i)};
            ref = want_min ? acc::ArgMinOp<T>{}.apply(ref, c)
                           : acc::ArgMaxOp<T>{}.apply(ref, c);
          }
          if (res.value == ref) return true;
          std::ostringstream detail;
          detail << "arg pair: expected (" << ref.value << ", " << ref.index
                 << ") got (" << res.value.value << ", " << res.value.index
                 << ")";
          why = detail.str();
          return false;
        },
        setup);
    if (run.ok) {
      const std::uint64_t h =
          fnv1a(kFnvBasis, &run.result.value.value, sizeof(T));
      out.result_hash = fnv1a(h, &run.result.value.index,
                              sizeof run.result.value.index);
    }
  }
  return out;
}

}  // namespace

acc::NestIR nest_for_case(const CaseSpec& spec, const RunnerOptions& opts,
                          acc::ClauseDiscipline discipline) {
  const CaseGeometry geo = case_geometry(spec.pos, opts.reduction_extent);
  return build_nest(spec.pos, spec.op, spec.type, geo, opts.config,
                    discipline);
}

acc::ExecutionPlan plan_for_case(acc::CompilerId id, const CaseSpec& spec,
                                 const RunnerOptions& opts) {
  const acc::CompilerProfile& prof = acc::profile(id);
  return acc::plan_single(nest_for_case(spec, opts, prof.discipline), prof);
}

CaseOutcome Runner::run(acc::CompilerId id, const CaseSpec& spec) {
  return dispatch_type(spec.type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return run_typed<T>(id, spec, opts_, nullptr);
  });
}

CaseOutcome Runner::run_planned(acc::CompilerId id, const CaseSpec& spec,
                                const acc::ExecutionPlan& plan) {
  return dispatch_type(spec.type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return run_typed<T>(id, spec, opts_, &plan);
  });
}

acc::NestIR nest_for_chain(acc::ReductionOp op, acc::DataType type,
                           const RunnerOptions& opts) {
  return nest_for_chain(std::array<acc::ReductionOp, 3>{op, op, op}, type,
                        opts);
}

acc::NestIR nest_for_chain(const std::array<acc::ReductionOp, 3>& ops,
                           acc::DataType type, const RunnerOptions& opts) {
  const CaseGeometry geo = case_geometry(Position::kGangWorkerVector,
                                         opts.reduction_extent);
  acc::NestIR nest;
  nest.config = opts.config;
  nest.loops = {
      acc::LoopSpec{acc::mask_of(acc::Par::kGang), geo.dims.nk,
                    {{ops[2], "sum"}}},
      acc::LoopSpec{acc::mask_of(acc::Par::kWorker), geo.dims.nj,
                    {{ops[1], "j_sum"}}},
      acc::LoopSpec{acc::mask_of(acc::Par::kVector), geo.dims.ni,
                    {{ops[0], "i_sum"}}},
  };
  // use_level of each producer == accum_level of its consumer: the chain
  // signature detect_chains() keys on.
  nest.vars = {
      {"i_sum", type, 2, 1},
      {"j_sum", type, 1, 0},
      {"sum", type, 0, acc::VarInfo::kHostUse},
  };
  return nest;
}

CaseOutcome Runner::run_ext(acc::CompilerId id, const ExtSpec& spec) {
  return dispatch_type(spec.type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return run_ext_typed<T>(id, spec, opts_);
  });
}

}  // namespace accred::testsuite
