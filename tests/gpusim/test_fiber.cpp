#include "gpusim/fiber.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace accred::gpusim {
namespace {

/// A fiber driven the way the block scheduler drives a lane: `body` runs on
/// the fiber's stack, exceptions are caught at the lane boundary, and the
/// lane always ends by leaving its chain.
struct Lane {
  explicit Lane(std::size_t stack_size = 64 * 1024) : fiber(stack_size) {}

  void arm(FastChain& c, std::function<void()> b) {
    chain = &c;
    body = std::move(b);
    fiber.reset(&Lane::entry, this);
  }

  static void entry(void* arg) {
    Lane& self = *static_cast<Lane*>(arg);
    try {
      self.body();
    } catch (...) {
      self.fiber.set_exception(Fiber::capture_current_exception());
    }
    self.chain->leave();
  }

  Fiber fiber;
  FastChain* chain = nullptr;
  std::function<void()> body;
};

/// One pass over `fibers` in list order.
void run_pass(FastChain& chain, std::vector<Fiber*> fibers) {
  std::vector<std::uint32_t> order(fibers.size());
  std::iota(order.begin(), order.end(), 0U);
  chain.run(fibers.data(), order.data(),
            static_cast<std::uint32_t>(order.size()));
}

TEST(Fiber, RunsToCompletionWithoutParking) {
  FastChain chain;
  Lane lane;
  int x = 0;
  lane.arm(chain, [&] { x = 42; });
  EXPECT_FALSE(lane.fiber.done());
  run_pass(chain, {&lane.fiber});
  EXPECT_TRUE(lane.fiber.done());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, ParkSuspendsAndNextPassContinues) {
  FastChain chain;
  Lane lane;
  std::vector<int> trace;
  lane.arm(chain, [&] {
    trace.push_back(1);
    chain.park();
    trace.push_back(2);
    chain.park();
    trace.push_back(3);
  });
  run_pass(chain, {&lane.fiber});
  trace.push_back(10);
  run_pass(chain, {&lane.fiber});
  trace.push_back(20);
  EXPECT_FALSE(lane.fiber.done());
  run_pass(chain, {&lane.fiber});
  EXPECT_TRUE(lane.fiber.done());
  EXPECT_EQ(trace, (std::vector<int>{1, 10, 2, 20, 3}));
}

TEST(Fiber, CurrentTracksExecutingFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  FastChain chain;
  Lane a;
  Lane b;
  Fiber* seen_a = nullptr;
  Fiber* seen_b = nullptr;
  a.arm(chain, [&] { seen_a = Fiber::current(); });
  b.arm(chain, [&] { seen_b = Fiber::current(); });
  run_pass(chain, {&a.fiber, &b.fiber});
  EXPECT_EQ(seen_a, &a.fiber);
  EXPECT_EQ(seen_b, &b.fiber);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, NestedPassRestoresCurrent) {
  FastChain outer_chain;
  FastChain inner_chain;
  Lane outer;
  Lane inner;
  Fiber* in_outer_before = nullptr;
  Fiber* in_inner = nullptr;
  Fiber* in_outer_after = nullptr;
  inner.arm(inner_chain, [&] { in_inner = Fiber::current(); });
  outer.arm(outer_chain, [&] {
    in_outer_before = Fiber::current();
    run_pass(inner_chain, {&inner.fiber});
    in_outer_after = Fiber::current();
  });
  run_pass(outer_chain, {&outer.fiber});
  EXPECT_EQ(in_outer_before, &outer.fiber);
  EXPECT_EQ(in_inner, &inner.fiber);
  EXPECT_EQ(in_outer_after, &outer.fiber);
}

TEST(Fiber, ReusableAfterCompletion) {
  FastChain chain;
  Lane lane;
  int runs = 0;
  for (int i = 0; i < 100; ++i) {
    lane.arm(chain, [&] {
      ++runs;
      chain.park();
      ++runs;
    });
    run_pass(chain, {&lane.fiber});
    run_pass(chain, {&lane.fiber});
    ASSERT_TRUE(lane.fiber.done());
  }
  EXPECT_EQ(runs, 200);
}

TEST(Fiber, ExceptionStopsThePassAndPropagates) {
  FastChain chain;
  Lane faulty;
  Lane later;
  bool later_ran = false;
  faulty.arm(chain, [] { throw std::runtime_error("boom"); });
  later.arm(chain, [&] { later_ran = true; });
  EXPECT_THROW(run_pass(chain, {&faulty.fiber, &later.fiber}),
               std::runtime_error);
  EXPECT_TRUE(faulty.fiber.done());
  // A faulting lane aborts the pass before any later lane runs.
  EXPECT_FALSE(later_ran);
  later.fiber.abandon();
}

TEST(Fiber, ExceptionAfterParkPropagates) {
  FastChain chain;
  Lane lane;
  lane.arm(chain, [&] {
    chain.park();
    throw std::logic_error("late boom");
  });
  run_pass(chain, {&lane.fiber});
  EXPECT_FALSE(lane.fiber.done());
  EXPECT_THROW(run_pass(chain, {&lane.fiber}), std::logic_error);
  EXPECT_TRUE(lane.fiber.done());
}

TEST(Fiber, DeepStackUsageSurvives) {
  FastChain chain;
  Lane lane(256 * 1024);
  std::uint64_t sum = 0;
  lane.arm(chain, [&] {
    // Touch a decent chunk of stack to catch layout mistakes.
    volatile char buf[128 * 1024];
    for (std::size_t i = 0; i < sizeof(buf); i += 4096) {
      buf[i] = static_cast<char>(i / 4096 + 1);
    }
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < sizeof(buf); i += 4096) {
      s += std::uint64_t(buf[i]) & 0xff;
    }
    sum = s;
  });
  run_pass(chain, {&lane.fiber});
  EXPECT_TRUE(lane.fiber.done());
  EXPECT_GT(sum, 0u);
}

TEST(Fiber, ManyFibersInterleaved) {
  constexpr int kN = 64;
  FastChain chain;
  std::vector<std::unique_ptr<Lane>> lanes;
  std::vector<Fiber*> fibers;
  std::vector<int> order;
  for (int i = 0; i < kN; ++i) {
    lanes.push_back(std::make_unique<Lane>(16 * 1024));
    lanes.back()->arm(chain, [&order, &chain, i] {
      order.push_back(i);
      chain.park();
      order.push_back(i + kN);
    });
    fibers.push_back(&lanes.back()->fiber);
  }
  run_pass(chain, fibers);
  run_pass(chain, fibers);
  ASSERT_EQ(order.size(), 2 * kN);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(order[kN + i], kN + i);
  }
  for (const auto& lane : lanes) EXPECT_TRUE(lane->fiber.done());
}

TEST(Fiber, RejectsBogusStackSize) {
  EXPECT_THROW(Fiber f(100), std::invalid_argument);  // not 16-aligned
  EXPECT_THROW(Fiber f(1024), std::invalid_argument); // too small
}

}  // namespace
}  // namespace accred::gpusim
