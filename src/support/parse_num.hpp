// Checked numeric parsing for user-facing text inputs.
//
// Every tool accepts numbers from the command line, manifests or spec
// files. Raw std::stoi/stod have three failure modes that turn a typo
// into the wrong behaviour: an uncaught std::invalid_argument aborts the
// process, std::out_of_range likewise, and a partial parse ("4x" -> 4,
// "3e" -> 3) is silently *accepted*. These helpers give one contract for
// all call sites: the whole token must parse, out-of-range is rejected,
// and failures throw `precondition_error` (an `mwl::error`, so the tools'
// existing catch blocks turn it into a diagnostic + exit 2, never an
// abort). The unsigned variants also reject a leading '-', which stoul
// would silently wrap ("-1" -> 1.8e19).
//
// `context`, when non-empty, names the offending flag or token in the
// message ("bad numeric value in 'lambda=4x'"); when empty the raw text
// itself is quoted ("bad numeric value '4x'").

#ifndef MWL_SUPPORT_PARSE_NUM_HPP
#define MWL_SUPPORT_PARSE_NUM_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace mwl {

[[nodiscard]] int parse_int_checked(std::string_view text,
                                    std::string_view context = {});

[[nodiscard]] std::size_t parse_size_checked(std::string_view text,
                                             std::string_view context = {});

[[nodiscard]] std::uint64_t parse_u64_checked(std::string_view text,
                                              std::string_view context = {});

/// Requires a finite value (rejects "inf"/"nan" -- no budget, slack or
/// fraction in this codebase wants them).
[[nodiscard]] double parse_double_checked(std::string_view text,
                                          std::string_view context = {});

/// The checked parser for `T` (int, double, std::size_t or
/// std::uint64_t), for callers that are generic over the target type.
template <typename T>
[[nodiscard]] T parse_checked(std::string_view text,
                              std::string_view context = {})
{
    if constexpr (std::is_same_v<T, int>) {
        return parse_int_checked(text, context);
    } else if constexpr (std::is_same_v<T, double>) {
        return parse_double_checked(text, context);
    } else if constexpr (std::is_same_v<T, std::size_t>) {
        return parse_size_checked(text, context);
    } else {
        static_assert(std::is_same_v<T, std::uint64_t>,
                      "parse_checked: unsupported target type");
        return parse_u64_checked(text, context);
    }
}

} // namespace mwl

#endif // MWL_SUPPORT_PARSE_NUM_HPP
