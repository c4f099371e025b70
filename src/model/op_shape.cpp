#include "model/op_shape.hpp"

#include "support/error.hpp"

#include <algorithm>
#include <ostream>
#include <string>

namespace mwl {

const char* to_string(op_kind kind)
{
    switch (kind) {
    case op_kind::add:
        return "add";
    case op_kind::mul:
        return "mul";
    }
    MWL_ASSERT(false && "unreachable");
    return "?";
}

std::ostream& operator<<(std::ostream& os, op_kind kind)
{
    return os << to_string(kind);
}

op_shape op_shape::adder(int n)
{
    require(n >= 1, "adder width must be at least 1 bit");
    if (n > max_width) {
        throw precondition_error("adder width must be <= " +
                                 std::to_string(max_width) + " bits");
    }
    return op_shape(op_kind::add, n, 0);
}

op_shape op_shape::multiplier(int n, int m)
{
    require(n >= 1 && m >= 1, "multiplier operand widths must be >= 1 bit");
    if (n > max_width || m > max_width) {
        throw precondition_error("multiplier operand widths must be <= " +
                                 std::to_string(max_width) + " bits");
    }
    return op_shape(op_kind::mul, std::max(n, m), std::min(n, m));
}

bool op_shape::covers(const op_shape& op) const
{
    return kind_ == op.kind_ && width_a_ >= op.width_a_ &&
           width_b_ >= op.width_b_;
}

op_shape op_shape::join(const op_shape& x, const op_shape& y)
{
    require(x.kind_ == y.kind_, "cannot join shapes of different kinds");
    return op_shape(x.kind_, std::max(x.width_a_, y.width_a_),
                    std::max(x.width_b_, y.width_b_));
}

std::string op_shape::to_string() const
{
    std::string text = mwl::to_string(kind_);
    text += std::to_string(width_a_);
    if (kind_ == op_kind::mul) {
        text += 'x';
        text += std::to_string(width_b_);
    }
    return text;
}

std::ostream& operator<<(std::ostream& os, const op_shape& shape)
{
    return os << shape.to_string();
}

} // namespace mwl
