#include "acc/ops.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "acc/types.hpp"
#include "util/rng.hpp"

namespace accred::acc {
namespace {

constexpr ReductionOp kAllOps[] = {
    ReductionOp::kSum,    ReductionOp::kProd,  ReductionOp::kMax,
    ReductionOp::kMin,    ReductionOp::kBitAnd, ReductionOp::kBitOr,
    ReductionOp::kBitXor, ReductionOp::kLogAnd, ReductionOp::kLogOr};

TEST(Ops, RoundTripSpelling) {
  for (ReductionOp op : kAllOps) {
    EXPECT_EQ(parse_reduction_op(to_string(op)), op);
  }
  EXPECT_THROW((void)parse_reduction_op("plus"), std::invalid_argument);
  EXPECT_THROW((void)parse_reduction_op(""), std::invalid_argument);
}

TEST(Ops, IdentityIsNeutralForInts) {
  util::SplitMix64 rng(7);
  for (ReductionOp op : kAllOps) {
    RuntimeOp<std::int64_t> r{op};
    for (int trial = 0; trial < 50; ++trial) {
      // Logical operators collapse values to 0/1, so identity-neutrality
      // only holds on the operator's value domain.
      std::int64_t v = static_cast<std::int64_t>(rng.next() % 1000) - 500;
      if (op == ReductionOp::kLogAnd || op == ReductionOp::kLogOr) v = v & 1;
      EXPECT_EQ(r.apply(r.identity(), v), v) << to_string(op);
      EXPECT_EQ(r.apply(v, r.identity()), v) << to_string(op);
    }
  }
}

TEST(Ops, IdentityIsNeutralForFloats) {
  for (ReductionOp op :
       {ReductionOp::kSum, ReductionOp::kProd, ReductionOp::kMax,
        ReductionOp::kMin}) {
    RuntimeOp<double> r{op};
    for (double v : {-3.5, 0.0, 1.0, 123.75}) {
      EXPECT_EQ(r.apply(r.identity(), v), v) << to_string(op);
    }
  }
}

TEST(Ops, AssociativityOnIntegers) {
  // The property §3 of the paper builds everything on. Exact for integers.
  util::SplitMix64 rng(13);
  for (ReductionOp op : kAllOps) {
    RuntimeOp<std::int32_t> r{op};
    for (int trial = 0; trial < 100; ++trial) {
      const auto a = static_cast<std::int32_t>(rng.next());
      const auto b = static_cast<std::int32_t>(rng.next());
      const auto c = static_cast<std::int32_t>(rng.next());
      EXPECT_EQ(r.apply(r.apply(a, b), c), r.apply(a, r.apply(b, c)))
          << to_string(op);
    }
  }
}

TEST(Ops, CommutativityOnIntegers) {
  util::SplitMix64 rng(17);
  for (ReductionOp op : kAllOps) {
    RuntimeOp<std::int32_t> r{op};
    for (int trial = 0; trial < 100; ++trial) {
      const auto a = static_cast<std::int32_t>(rng.next());
      const auto b = static_cast<std::int32_t>(rng.next());
      EXPECT_EQ(r.apply(a, b), r.apply(b, a)) << to_string(op);
    }
  }
}

TEST(Ops, BitwiseRejectedForFloat) {
  EXPECT_FALSE(op_valid_for_type<float>(ReductionOp::kBitAnd));
  EXPECT_FALSE(op_valid_for_type<double>(ReductionOp::kBitXor));
  EXPECT_TRUE(op_valid_for_type<float>(ReductionOp::kSum));
  EXPECT_TRUE(op_valid_for_type<int>(ReductionOp::kBitAnd));
  RuntimeOp<float> r{ReductionOp::kBitOr};
  EXPECT_THROW((void)r.identity(), std::invalid_argument);
  EXPECT_THROW((void)r.apply(1.0F, 2.0F), std::invalid_argument);
}

TEST(Ops, ConcreteSemantics) {
  RuntimeOp<int> sum{ReductionOp::kSum};
  RuntimeOp<int> prod{ReductionOp::kProd};
  RuntimeOp<int> mx{ReductionOp::kMax};
  RuntimeOp<int> mn{ReductionOp::kMin};
  RuntimeOp<int> band{ReductionOp::kBitAnd};
  RuntimeOp<int> bor{ReductionOp::kBitOr};
  RuntimeOp<int> bxor{ReductionOp::kBitXor};
  RuntimeOp<int> land{ReductionOp::kLogAnd};
  RuntimeOp<int> lor{ReductionOp::kLogOr};
  EXPECT_EQ(sum.apply(3, 4), 7);
  EXPECT_EQ(prod.apply(3, 4), 12);
  EXPECT_EQ(mx.apply(-3, 4), 4);
  EXPECT_EQ(mn.apply(-3, 4), -3);
  EXPECT_EQ(band.apply(0b1100, 0b1010), 0b1000);
  EXPECT_EQ(bor.apply(0b1100, 0b1010), 0b1110);
  EXPECT_EQ(bxor.apply(0b1100, 0b1010), 0b0110);
  EXPECT_EQ(land.apply(2, 3), 1);
  EXPECT_EQ(land.apply(2, 0), 0);
  EXPECT_EQ(lor.apply(0, 0), 0);
  EXPECT_EQ(lor.apply(0, 9), 1);
}

template <typename T>
void expect_nan_deterministic_minmax() {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  for (ReductionOp op : {ReductionOp::kMin, ReductionOp::kMax}) {
    const RuntimeOp<T> r{op};
    for (T v : {T(-3), T(0), T(7), inf, -inf, r.identity()}) {
      // NaN wins from either operand slot — std::min/max alone would
      // return the first operand on an unordered compare, making the
      // result depend on fold order.
      EXPECT_TRUE(r.apply(nan, v) != r.apply(nan, v)) << to_string(op);
      EXPECT_TRUE(r.apply(v, nan) != r.apply(v, nan)) << to_string(op);
    }
    EXPECT_TRUE(r.apply(nan, nan) != r.apply(nan, nan)) << to_string(op);
  }
  // The compile-time functor mirrors agree with RuntimeOp.
  EXPECT_TRUE(MinOp{}(nan, T(1)) != MinOp{}(nan, T(1)));
  EXPECT_TRUE(MinOp{}(T(1), nan) != MinOp{}(T(1), nan));
  EXPECT_TRUE(MaxOp{}(nan, T(1)) != MaxOp{}(nan, T(1)));
  EXPECT_TRUE(MaxOp{}(T(1), nan) != MaxOp{}(T(1), nan));
}

TEST(Ops, MinMaxPropagateNanFromEitherOperand) {
  expect_nan_deterministic_minmax<float>();
  expect_nan_deterministic_minmax<double>();
}

TEST(Ops, MinMaxNanHandlingIsCommutativeAndAssociative) {
  // The §3 property, extended to the non-finite domain: any fold order
  // over a set containing NaN must land on NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (ReductionOp op : {ReductionOp::kMin, ReductionOp::kMax}) {
    const RuntimeOp<double> r{op};
    const double vals[] = {nan, 2.0, -1.0};
    const double left = r.apply(r.apply(vals[0], vals[1]), vals[2]);
    const double right = r.apply(vals[0], r.apply(vals[1], vals[2]));
    EXPECT_TRUE(left != left) << to_string(op);
    EXPECT_TRUE(right != right) << to_string(op);
  }
}

TEST(Ops, ArgReductionsBreakTiesTowardSmallestIndex) {
  const ArgMinOp<int> amin;
  const ArgMaxOp<int> amax;
  const ValueIndex<int> a{5, 3};
  const ValueIndex<int> b{5, 9};
  EXPECT_EQ(amin.apply(a, b), a);
  EXPECT_EQ(amin.apply(b, a), a);  // commutative under ties
  EXPECT_EQ(amax.apply(a, b), a);
  EXPECT_EQ(amax.apply(b, a), a);
  EXPECT_EQ(amin.apply(ValueIndex<int>{1, 9}, b), (ValueIndex<int>{1, 9}));
  EXPECT_EQ(amax.apply(ValueIndex<int>{9, 9}, b), (ValueIndex<int>{9, 9}));
}

TEST(Ops, ArgReductionIdentityIsNeutral) {
  const ValueIndex<double> v{-2.5, 7};
  EXPECT_EQ(ArgMinOp<double>{}.apply(ArgMinOp<double>::identity(), v), v);
  EXPECT_EQ(ArgMinOp<double>{}.apply(v, ArgMinOp<double>::identity()), v);
  EXPECT_EQ(ArgMaxOp<double>{}.apply(ArgMaxOp<double>::identity(), v), v);
  EXPECT_EQ(ArgMaxOp<double>{}.apply(v, ArgMaxOp<double>::identity()), v);
  // Floating identities are +/-inf so an all-infinite input still yields a
  // real index: a contributed +inf beats argmin's +inf identity via the
  // index tiebreak.
  const ValueIndex<double> inf_contrib{
      std::numeric_limits<double>::infinity(), 4};
  EXPECT_EQ(
      ArgMinOp<double>{}.apply(ArgMinOp<double>::identity(), inf_contrib),
      inf_contrib);
  // Integral identities fall back to the type's extremes.
  EXPECT_EQ(ArgMinOp<int>::identity().value, std::numeric_limits<int>::max());
  EXPECT_EQ(ArgMaxOp<int>::identity().value,
            std::numeric_limits<int>::lowest());
}

TEST(Ops, ArgReductionsNanWinsWithSmallestNanIndex) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ArgMinOp<double> amin;
  const ArgMaxOp<double> amax;
  const ValueIndex<double> real{-100.0, 0};
  const ValueIndex<double> nan_hi{nan, 8};
  const ValueIndex<double> nan_lo{nan, 2};
  // NaN beats any real value from either slot, for both directions.
  for (const auto& got : {amin.apply(real, nan_hi), amin.apply(nan_hi, real),
                          amax.apply(real, nan_hi),
                          amax.apply(nan_hi, real)}) {
    EXPECT_TRUE(got.value != got.value);
    EXPECT_EQ(got.index, 8);
  }
  // Among several NaNs the smallest index wins, keeping the fold
  // commutative even when multiple lanes contribute NaN.
  EXPECT_EQ(amin.apply(nan_hi, nan_lo).index, 2);
  EXPECT_EQ(amin.apply(nan_lo, nan_hi).index, 2);
  EXPECT_EQ(amax.apply(nan_hi, nan_lo).index, 2);
}

TEST(Ops, UnsignedWrapIsWellDefined) {
  RuntimeOp<std::uint32_t> sum{ReductionOp::kSum};
  EXPECT_EQ(sum.apply(0xFFFFFFFFu, 1u), 0u);
}

// Signed sums and products wrap in two's complement like CUDA's integer
// ops. apply() is constexpr, so a signed overflow (UB) would not compile.
constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
static_assert(RuntimeOp<std::int32_t>{ReductionOp::kSum}.apply(kI32Max, 1) ==
              kI32Min);
static_assert(RuntimeOp<std::int32_t>{ReductionOp::kProd}.apply(kI32Max, 2) ==
              -2);
static_assert(RuntimeOp<std::int64_t>{ReductionOp::kProd}.apply(
                  std::numeric_limits<std::int64_t>::min(), -1) ==
              std::numeric_limits<std::int64_t>::min());

TEST(Types, SizesAndNames) {
  EXPECT_EQ(size_of(DataType::kInt32), 4u);
  EXPECT_EQ(size_of(DataType::kDouble), 8u);
  EXPECT_EQ(to_string(DataType::kFloat), "float");
  EXPECT_TRUE(is_integral(DataType::kInt64));
  EXPECT_FALSE(is_integral(DataType::kDouble));
}

TEST(Types, DispatchSelectsMatchingType) {
  const std::size_t sz = dispatch_type(
      DataType::kDouble, [](auto tag) { return sizeof(typename decltype(tag)::type); });
  EXPECT_EQ(sz, 8u);
  dispatch_type(DataType::kInt32, [](auto tag) {
    using T = typename decltype(tag)::type;
    static_assert(std::is_same_v<T, std::int32_t> ||
                  !std::is_same_v<T, std::int32_t>);
    EXPECT_EQ(data_type_of<T>(), DataType::kInt32);
  });
}

}  // namespace
}  // namespace accred::acc
