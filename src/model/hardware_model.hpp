// Hardware latency/area models.
//
// The paper's evaluation targets the SONIC reconfigurable computing platform
// [12]: every adder takes 2 cycles regardless of wordlength, and an n x m-bit
// multiplier takes ceil((n+m)/8) cycles at the platform clock rate. Area is
// "the area model presented in [5]"; the Electronics Letters text is not
// available, so this reproduction uses the LUT-proportional model standard in
// the same authors' line of work (area(add, n) = n, area(mul, n, m) = n*m)
// and keeps the whole model *pluggable* behind `hardware_model` (see
// DESIGN.md section 7, substitution 2 -- every reproduced result is an area
// ratio under a common model, so the shape of the results is preserved by
// any monotone wordlength-proportional model).

#ifndef MWL_MODEL_HARDWARE_MODEL_HPP
#define MWL_MODEL_HARDWARE_MODEL_HPP

#include "model/op_shape.hpp"
#include "support/serial.hpp"

#include <cstdint>

namespace mwl {

/// Abstract latency/area model. A shape serves both as "operation executed
/// at its native wordlength" and as "resource-wordlength type", so one
/// function of shape suffices for each quantity.
class hardware_model {
public:
    virtual ~hardware_model() = default;

    hardware_model() = default;
    hardware_model(const hardware_model&) = delete;
    hardware_model& operator=(const hardware_model&) = delete;

    /// Latency in control steps of a resource of shape `shape`; always >= 1.
    [[nodiscard]] virtual int latency(const op_shape& shape) const = 0;

    /// Area in model units of a resource of shape `shape`; always > 0.
    [[nodiscard]] virtual double area(const op_shape& shape) const = 0;

    /// Stable content fingerprint used by the batch engine (src/engine/) to
    /// key its result cache: equal fingerprints MUST imply identical
    /// latency() and area() on every shape. The default hashes a
    /// never-reused per-object serial number (not the address, which a
    /// later allocation could recycle while the cache still holds the old
    /// model's results) -- always sound, never shared across instances --
    /// so custom models are cache-correct without writing anything;
    /// override it (as the built-in models do) to let equal-parameter
    /// instances share cached results across runs of a service.
    [[nodiscard]] virtual std::uint64_t fingerprint() const;

private:
    instance_serial serial_;
};

/// SONIC-derived model used throughout the paper's evaluation.
class sonic_model final : public hardware_model {
public:
    /// `adder_latency`: cycles for any adder (paper: 2).
    /// `mul_bits_per_cycle`: divisor in ceil((n+m)/divisor) (paper: 8).
    explicit sonic_model(int adder_latency = 2, int mul_bits_per_cycle = 8);

    [[nodiscard]] int latency(const op_shape& shape) const override;
    [[nodiscard]] double area(const op_shape& shape) const override;
    [[nodiscard]] std::uint64_t fingerprint() const override;

private:
    int adder_latency_;
    int mul_bits_per_cycle_;
};

/// Degenerate model in which every resource has the same latency; with it the
/// multiple-wordlength scheduling problem collapses onto classic list
/// scheduling. Used by tests and by the ablation benches as a control.
class uniform_latency_model final : public hardware_model {
public:
    explicit uniform_latency_model(int latency = 1);

    [[nodiscard]] int latency(const op_shape& shape) const override;
    [[nodiscard]] double area(const op_shape& shape) const override;
    [[nodiscard]] std::uint64_t fingerprint() const override;

private:
    int latency_;
};

} // namespace mwl

#endif // MWL_MODEL_HARDWARE_MODEL_HPP
