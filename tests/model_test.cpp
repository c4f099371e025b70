// Unit tests for src/model: operation/resource shapes and the SONIC
// latency/area model the paper's evaluation uses.

#include "model/hardware_model.hpp"
#include "model/op_shape.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace mwl {
namespace {

// ----------------------------------------------------------- op_shape --

TEST(OpShape, AdderFactorySetsWidths)
{
    const op_shape a = op_shape::adder(12);
    EXPECT_EQ(a.kind(), op_kind::add);
    EXPECT_EQ(a.width_a(), 12);
    EXPECT_EQ(a.width_b(), 0);
}

TEST(OpShape, MultiplierNormalisesOperandOrder)
{
    const op_shape m1 = op_shape::multiplier(8, 20);
    const op_shape m2 = op_shape::multiplier(20, 8);
    EXPECT_EQ(m1, m2);
    EXPECT_EQ(m1.width_a(), 20);
    EXPECT_EQ(m1.width_b(), 8);
}

TEST(OpShape, InvalidWidthsThrow)
{
    EXPECT_THROW(static_cast<void>(op_shape::adder(0)), precondition_error);
    EXPECT_THROW(static_cast<void>(op_shape::adder(-3)), precondition_error);
    EXPECT_THROW(static_cast<void>(op_shape::multiplier(0, 4)), precondition_error);
    EXPECT_THROW(static_cast<void>(op_shape::multiplier(4, 0)), precondition_error);
}

TEST(OpShape, WidthsAboveMaximumThrow)
{
    constexpr int max = op_shape::max_width;
    EXPECT_EQ(op_shape::multiplier(max, max).width_b(), max);
    EXPECT_THROW(static_cast<void>(op_shape::adder(max + 1)),
                 precondition_error);
    EXPECT_THROW(static_cast<void>(op_shape::multiplier(max + 1, 4)),
                 precondition_error);
    EXPECT_THROW(static_cast<void>(op_shape::multiplier(4, max + 1)),
                 precondition_error);
    EXPECT_THROW(
        static_cast<void>(op_shape::multiplier(2000000000, 2000000000)),
        precondition_error);
}

TEST(OpShape, CoversRequiresSameKind)
{
    EXPECT_FALSE(op_shape::adder(32).covers(op_shape::multiplier(2, 2)));
    EXPECT_FALSE(op_shape::multiplier(32, 32).covers(op_shape::adder(2)));
}

TEST(OpShape, CoversRequiresSufficientWidths)
{
    const op_shape r = op_shape::multiplier(20, 18);
    EXPECT_TRUE(r.covers(op_shape::multiplier(20, 18)));
    EXPECT_TRUE(r.covers(op_shape::multiplier(18, 16)));
    EXPECT_TRUE(r.covers(op_shape::multiplier(16, 20))); // swapped operands
    EXPECT_FALSE(r.covers(op_shape::multiplier(21, 4)));
    EXPECT_FALSE(r.covers(op_shape::multiplier(19, 19)));
}

TEST(OpShape, AdderCovering)
{
    EXPECT_TRUE(op_shape::adder(16).covers(op_shape::adder(12)));
    EXPECT_TRUE(op_shape::adder(16).covers(op_shape::adder(16)));
    EXPECT_FALSE(op_shape::adder(12).covers(op_shape::adder(16)));
}

TEST(OpShape, CoversIsReflexive)
{
    for (const op_shape s :
         {op_shape::adder(7), op_shape::multiplier(9, 5)}) {
        EXPECT_TRUE(s.covers(s));
    }
}

TEST(OpShape, JoinIsComponentwiseMax)
{
    const op_shape j = op_shape::join(op_shape::multiplier(20, 4),
                                      op_shape::multiplier(6, 18));
    // normalised: (20,4) and (18,6) -> join (20,6)
    EXPECT_EQ(j, op_shape::multiplier(20, 6));
}

TEST(OpShape, JoinCoversBothArguments)
{
    const op_shape x = op_shape::multiplier(13, 7);
    const op_shape y = op_shape::multiplier(8, 8);
    const op_shape j = op_shape::join(x, y);
    EXPECT_TRUE(j.covers(x));
    EXPECT_TRUE(j.covers(y));
}

TEST(OpShape, JoinOfMixedKindsThrows)
{
    EXPECT_THROW(static_cast<void>(op_shape::join(op_shape::adder(4),
                                                 op_shape::multiplier(4, 4))),
                 precondition_error);
}

TEST(OpShape, JoinIsIdempotentCommutativeAssociative)
{
    const op_shape a = op_shape::multiplier(10, 3);
    const op_shape b = op_shape::multiplier(5, 5);
    const op_shape c = op_shape::multiplier(12, 2);
    EXPECT_EQ(op_shape::join(a, a), a);
    EXPECT_EQ(op_shape::join(a, b), op_shape::join(b, a));
    EXPECT_EQ(op_shape::join(op_shape::join(a, b), c),
              op_shape::join(a, op_shape::join(b, c)));
}

TEST(OpShape, ToStringFormats)
{
    EXPECT_EQ(op_shape::adder(12).to_string(), "add12");
    EXPECT_EQ(op_shape::multiplier(20, 18).to_string(), "mul20x18");
}

TEST(OpShape, StreamOperatorMatchesToString)
{
    std::ostringstream os;
    os << op_shape::multiplier(4, 6);
    EXPECT_EQ(os.str(), "mul6x4");
}

TEST(OpShape, DefaultIsSmallestAdder)
{
    const op_shape d;
    EXPECT_EQ(d.kind(), op_kind::add);
    EXPECT_EQ(d.width_a(), 1);
}

// -------------------------------------------------------- sonic model --

TEST(SonicModel, AdderLatencyIsConstantTwoCycles)
{
    const sonic_model model;
    EXPECT_EQ(model.latency(op_shape::adder(1)), 2);
    EXPECT_EQ(model.latency(op_shape::adder(12)), 2);
    EXPECT_EQ(model.latency(op_shape::adder(64)), 2);
}

TEST(SonicModel, MultiplierLatencyIsCeilSumOver8)
{
    const sonic_model model;
    // Paper: latency of an n x m multiplier = ceil((n+m)/8).
    EXPECT_EQ(model.latency(op_shape::multiplier(4, 4)), 1);  // 8/8
    EXPECT_EQ(model.latency(op_shape::multiplier(4, 5)), 2);  // 9/8
    EXPECT_EQ(model.latency(op_shape::multiplier(20, 18)), 5); // 38/8
    EXPECT_EQ(model.latency(op_shape::multiplier(24, 24)), 6); // 48/8
}

TEST(SonicModel, MultiplierLatencyIsMonotoneInWidths)
{
    const sonic_model model;
    for (int a = 1; a <= 24; ++a) {
        for (int b = 1; b <= a; ++b) {
            const int lat = model.latency(op_shape::multiplier(a, b));
            EXPECT_LE(model.latency(op_shape::multiplier(a - 1 > 0 ? a - 1 : 1,
                                                         b)),
                      lat);
        }
    }
}

TEST(SonicModel, AreaModelsAreWidthProportional)
{
    const sonic_model model;
    EXPECT_DOUBLE_EQ(model.area(op_shape::adder(12)), 12.0);
    EXPECT_DOUBLE_EQ(model.area(op_shape::multiplier(20, 18)), 360.0);
}

TEST(SonicModel, AreaIsMonotoneUnderCovering)
{
    const sonic_model model;
    const op_shape small = op_shape::multiplier(8, 6);
    const op_shape big = op_shape::multiplier(10, 9);
    ASSERT_TRUE(big.covers(small));
    EXPECT_GT(model.area(big), model.area(small));
}

TEST(SonicModel, CustomParametersApply)
{
    const sonic_model model(/*adder_latency=*/3, /*mul_bits_per_cycle=*/16);
    EXPECT_EQ(model.latency(op_shape::adder(8)), 3);
    EXPECT_EQ(model.latency(op_shape::multiplier(16, 16)), 2); // 32/16
}

TEST(SonicModel, ExtremeParametersKeepLatencyInRange)
{
    // ceil(bits / bits-per-cycle) once overflowed int for a huge
    // bits-per-cycle, and surfaced as "operation latencies must be >= 1".
    const sonic_model one_cycle(2, std::numeric_limits<int>::max());
    EXPECT_EQ(one_cycle.latency(op_shape::multiplier(24, 24)), 1);
    constexpr int max = op_shape::max_width;
    EXPECT_EQ(one_cycle.latency(op_shape::multiplier(max, max)), 1);
    const sonic_model model;
    EXPECT_EQ(model.latency(op_shape::multiplier(max, max)), 2 * max / 8);
    EXPECT_EQ(sonic_model(2, 1).latency(op_shape::multiplier(max, max)),
              2 * max);
}

TEST(SonicModel, InvalidParametersThrow)
{
    EXPECT_THROW(static_cast<void>(sonic_model(0, 8)), precondition_error);
    EXPECT_THROW(static_cast<void>(sonic_model(2, 0)), precondition_error);
}

TEST(UniformLatencyModel, LatencyIsUniform)
{
    const uniform_latency_model model(3);
    EXPECT_EQ(model.latency(op_shape::adder(4)), 3);
    EXPECT_EQ(model.latency(op_shape::multiplier(24, 24)), 3);
}

TEST(UniformLatencyModel, AreaStillScalesWithWordlength)
{
    const uniform_latency_model model;
    EXPECT_LT(model.area(op_shape::adder(4)),
              model.area(op_shape::adder(8)));
    EXPECT_DOUBLE_EQ(model.area(op_shape::multiplier(6, 5)), 30.0);
}

TEST(UniformLatencyModel, InvalidLatencyThrows)
{
    EXPECT_THROW(static_cast<void>(uniform_latency_model(0)), precondition_error);
}

TEST(OpKind, ToStringNames)
{
    EXPECT_STREQ(to_string(op_kind::add), "add");
    EXPECT_STREQ(to_string(op_kind::mul), "mul");
}

} // namespace
} // namespace mwl
