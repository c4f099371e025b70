#include "support/parse_num.hpp"

#include "support/error.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mwl {
namespace {

[[noreturn]] void bad_value(std::string_view text, std::string_view context)
{
    if (context.empty()) {
        throw precondition_error("bad numeric value '" + std::string(text) +
                                 "'");
    }
    throw precondition_error("bad numeric value in '" +
                             std::string(context) + "'");
}

[[noreturn]] void out_of_range(std::string_view text,
                               std::string_view context)
{
    if (context.empty()) {
        throw precondition_error("numeric value out of range '" +
                                 std::string(text) + "'");
    }
    throw precondition_error("numeric value out of range in '" +
                             std::string(context) + "'");
}

/// Runs one of the std::sto* functions under the shared contract: the
/// whole token consumed, range errors distinct from parse errors.
template <typename Fn>
auto checked(Fn&& convert, std::string_view text, std::string_view context)
{
    const std::string owned(text); // sto* need a terminated string
    std::size_t used = 0;
    try {
        const auto value = convert(owned, &used);
        if (used != owned.size()) {
            bad_value(text, context);
        }
        return value;
    } catch (const std::out_of_range&) {
        out_of_range(text, context);
    } catch (const std::invalid_argument&) {
        bad_value(text, context);
    }
}

void reject_sign(std::string_view text, std::string_view context)
{
    // stoul wraps negatives silently ("-1" -> 1.8e19); reject up front.
    if (!text.empty() && text[0] == '-') {
        bad_value(text, context);
    }
}

} // namespace

int parse_int_checked(std::string_view text, std::string_view context)
{
    return checked(
        [](const std::string& t, std::size_t* used) {
            return std::stoi(t, used);
        },
        text, context);
}

std::size_t parse_size_checked(std::string_view text,
                               std::string_view context)
{
    reject_sign(text, context);
    const unsigned long long value = checked(
        [](const std::string& t, std::size_t* used) {
            return std::stoull(t, used);
        },
        text, context);
    if (value > static_cast<unsigned long long>(SIZE_MAX)) {
        out_of_range(text, context);
    }
    return static_cast<std::size_t>(value);
}

std::uint64_t parse_u64_checked(std::string_view text,
                                std::string_view context)
{
    reject_sign(text, context);
    return checked(
        [](const std::string& t, std::size_t* used) {
            return std::stoull(t, used);
        },
        text, context);
}

double parse_double_checked(std::string_view text, std::string_view context)
{
    const double value = checked(
        [](const std::string& t, std::size_t* used) {
            return std::stod(t, used);
        },
        text, context);
    if (!std::isfinite(value)) {
        out_of_range(text, context);
    }
    return value;
}

} // namespace mwl
