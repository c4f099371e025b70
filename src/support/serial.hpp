// Process-unique object identity.
//
// A cache that outlives the object it describes cannot key on that
// object's address: a later object may be built at the same address and
// would inherit the stale entry. An `instance_serial` member instead draws
// a never-reused number at construction, and draws a fresh one when the
// owner is copied or assigned, so two live objects never share a serial
// and a destroyed object's serial is never seen again.

#ifndef MWL_SUPPORT_SERIAL_HPP
#define MWL_SUPPORT_SERIAL_HPP

#include <atomic>
#include <cstdint>

namespace mwl {

class instance_serial {
public:
    instance_serial() noexcept : value_(next()) {}
    instance_serial(const instance_serial& /*other*/) noexcept
        : value_(next())
    {
    }
    instance_serial& operator=(const instance_serial& /*other*/) noexcept
    {
        value_ = next();
        return *this;
    }

    /// Never 0, so 0 can stand for "no object".
    [[nodiscard]] std::uint64_t value() const { return value_; }

private:
    static std::uint64_t next() noexcept
    {
        static std::atomic<std::uint64_t> counter{1};
        return counter.fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t value_;
};

} // namespace mwl

#endif // MWL_SUPPORT_SERIAL_HPP
