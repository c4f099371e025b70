// Operation / resource shapes.
//
// In a multiple-wordlength system an operation is characterised not only by
// its kind (adder, multiplier) but by the wordlengths of its operands; a
// resource-wordlength type (e.g. "20x18-bit multiplier", "12-bit adder") is
// described by exactly the same data. `op_shape` therefore serves both roles:
// the shape of an operation and the shape of a resource, with `covers()`
// expressing the paper's compatibility relation (same kind, sufficient
// wordlength on every operand).

#ifndef MWL_MODEL_OP_SHAPE_HPP
#define MWL_MODEL_OP_SHAPE_HPP

#include <compare>
#include <iosfwd>
#include <string>

namespace mwl {

/// Kind of a computational operation / resource.
enum class op_kind {
    add, ///< wordlength-parameterised adder (also covers subtract)
    mul, ///< n x m bit-parallel multiplier
};

[[nodiscard]] const char* to_string(op_kind kind);
std::ostream& operator<<(std::ostream& os, op_kind kind);

/// Shape of an operation or of a resource-wordlength type.
///
/// Invariants (established by the factory functions):
///  * adders have `max_width >= width_a >= 1` and `width_b == 0`;
///  * multipliers have `max_width >= width_a >= width_b >= 1` (operands
///    are normalised wider-first, since a bit-parallel multiplier can take
///    its operands in either order).
class op_shape {
public:
    /// Widest operand a shape may have. Far beyond any datapath, and low
    /// enough that everything computed from widths in int -- a
    /// multiplier's n + m result bits, latencies, schedule lengths summed
    /// over a million operations -- cannot overflow.
    static constexpr int max_width = 1024;

    /// Default: a 1-bit adder (the smallest valid shape).
    op_shape() = default;

    /// An `n`-bit adder / addition. Throws `precondition_error` unless
    /// 1 <= n <= max_width.
    [[nodiscard]] static op_shape adder(int n);

    /// An `n x m`-bit multiplier / multiplication; operand order is
    /// irrelevant and is normalised. Throws `precondition_error` unless
    /// both widths lie in [1, max_width].
    [[nodiscard]] static op_shape multiplier(int n, int m);

    [[nodiscard]] op_kind kind() const { return kind_; }

    /// Wider operand width (adders: the single operand width).
    [[nodiscard]] int width_a() const { return width_a_; }

    /// Narrower operand width (adders: 0).
    [[nodiscard]] int width_b() const { return width_b_; }

    /// True iff a resource of shape `*this` can execute an operation of
    /// shape `op`: identical kind and every operand wide enough.
    [[nodiscard]] bool covers(const op_shape& op) const;

    /// Smallest single shape covering both arguments (componentwise max).
    /// Precondition: identical kind.
    [[nodiscard]] static op_shape join(const op_shape& x, const op_shape& y);

    /// Human-readable form, e.g. "mul20x18", "add12".
    [[nodiscard]] std::string to_string() const;

    friend auto operator<=>(const op_shape&, const op_shape&) = default;

private:
    op_shape(op_kind kind, int a, int b)
        : kind_(kind), width_a_(a), width_b_(b)
    {
    }

    op_kind kind_ = op_kind::add;
    int width_a_ = 1;
    int width_b_ = 0;
};

std::ostream& operator<<(std::ostream& os, const op_shape& shape);

/// Operand width at port 0 / 1: port 0 carries the (wider-normalised)
/// first operand, port 1 the second -- an adder's both ports are its
/// single width. The one convention shared by the simulator (operand 0
/// wraps at width_a), the elaborate pass, and the verification harness.
[[nodiscard]] inline int operand_width(const op_shape& shape, int port)
{
    if (port == 0) {
        return shape.width_a();
    }
    return shape.kind() == op_kind::mul ? shape.width_b() : shape.width_a();
}

} // namespace mwl

#endif // MWL_MODEL_OP_SHAPE_HPP
