#include "model/hardware_model.hpp"

#include "support/error.hpp"
#include "support/hash.hpp"

namespace mwl {

std::uint64_t hardware_model::fingerprint() const
{
    fnv1a_hasher h;
    h.mix("model:identity");
    h.mix(static_cast<std::int64_t>(serial_.value()));
    return h.digest();
}

sonic_model::sonic_model(int adder_latency, int mul_bits_per_cycle)
    : adder_latency_(adder_latency), mul_bits_per_cycle_(mul_bits_per_cycle)
{
    require(adder_latency >= 1, "adder latency must be >= 1 cycle");
    require(mul_bits_per_cycle >= 1, "multiplier bits/cycle must be >= 1");
}

int sonic_model::latency(const op_shape& shape) const
{
    switch (shape.kind()) {
    case op_kind::add:
        return adder_latency_;
    case op_kind::mul: {
        // Empirical SONIC formula: ceil((n + m) / 8) cycles, in a form
        // that cannot overflow for any bits/cycle.
        const int bits = shape.width_a() + shape.width_b();
        return 1 + (bits - 1) / mul_bits_per_cycle_;
    }
    }
    MWL_ASSERT(false && "unreachable");
    return 1;
}

double sonic_model::area(const op_shape& shape) const
{
    switch (shape.kind()) {
    case op_kind::add:
        // Ripple-carry adder: area proportional to width.
        return static_cast<double>(shape.width_a());
    case op_kind::mul:
        // Array multiplier: area proportional to the operand-width product.
        return static_cast<double>(shape.width_a()) *
               static_cast<double>(shape.width_b());
    }
    MWL_ASSERT(false && "unreachable");
    return 1.0;
}

std::uint64_t sonic_model::fingerprint() const
{
    fnv1a_hasher h;
    h.mix("model:sonic");
    h.mix(static_cast<std::int64_t>(adder_latency_));
    h.mix(static_cast<std::int64_t>(mul_bits_per_cycle_));
    return h.digest();
}

uniform_latency_model::uniform_latency_model(int latency) : latency_(latency)
{
    require(latency >= 1, "uniform latency must be >= 1 cycle");
}

int uniform_latency_model::latency(const op_shape& /*shape*/) const
{
    return latency_;
}

double uniform_latency_model::area(const op_shape& shape) const
{
    // Same area law as the SONIC model: only latency is made uniform.
    if (shape.kind() == op_kind::add) {
        return static_cast<double>(shape.width_a());
    }
    return static_cast<double>(shape.width_a()) *
           static_cast<double>(shape.width_b());
}

std::uint64_t uniform_latency_model::fingerprint() const
{
    fnv1a_hasher h;
    h.mix("model:uniform-latency");
    h.mix(static_cast<std::int64_t>(latency_));
    return h.digest();
}

} // namespace mwl
