// Always-on contract checking for release builds.
//
// The paper states invariants (C1 capacity feasibility, C3 exactly-one-slot,
// the Theorem-1/2 penalty embedding) that the code historically guarded with
// plain `assert`, which vanishes in the RelWithDebInfo builds qbpartd ships
// with.  This header is the replacement:
//
//   QBP_CHECK(cond) << "context";          always on, streams context
//   QBP_CHECK_EQ/NE/LT/LE/GT/GE(a, b);     always on, prints both operands
//   QBP_DCHECK(cond) << "context";         debug only (compiles away under
//                                          NDEBUG, like assert)
//
// What happens on a violation is process-configurable (check::set_fail_mode):
//
//   kAbort       print to stderr and abort() -- the default, and the right
//                mode for CLIs, benches and tests;
//   kThrow       throw qbp::ContractViolation -- the mode qbpartd runs in,
//                so a hostile input or corrupted solver state fails one job
//                instead of killing the daemon;
//   kLogAndCount log via util/log, bump the violation counter, continue --
//                an audit mode for the shadow validator where the caller
//                inspects check::violation_count() afterwards.  Only safe
//                for checks whose failure the continuation can tolerate
//                (validator audits, not memory-safety guards).
//
// Every violation, in every mode, also invokes the registered hook (the job
// server points it at a `contract_violations` metrics counter) and bumps the
// process-wide counter.
//
// The CHECK_* comparison operands are evaluated a second time to build the
// failure message, so keep them side-effect free (the same discipline assert
// requires).  Streamed context after `<<` is evaluated only on failure.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace qbp {

/// Thrown on a contract violation when the fail mode is kThrow.  what() is
/// the fully formatted message: file:line, the failed expression, operand
/// values and any streamed context.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& message)
      : std::logic_error(message) {}
};

namespace check {

enum class FailMode : int { kAbort = 0, kThrow = 1, kLogAndCount = 2 };

/// Process-wide fail mode (atomic; default kAbort).
void set_fail_mode(FailMode mode) noexcept;
[[nodiscard]] FailMode fail_mode() noexcept;

/// Observer called with the formatted message on every violation regardless
/// of mode -- e.g. the job server bumps its metrics counter here.  Replaces
/// any previous hook; an empty function clears it.
using ViolationHook = std::function<void(std::string_view message)>;
void set_violation_hook(ViolationHook hook);

/// Count of violations seen by this process (all modes).
[[nodiscard]] std::uint64_t violation_count() noexcept;

/// |a - b| <= tolerance * max(1, |a|, |b|): relative agreement, absolute
/// below magnitude 1.  The comparison of the shadow validator and of the
/// debug drift audits of patched solver state.
[[nodiscard]] inline bool within_relative(double a, double b,
                                          double tolerance) noexcept {
  return std::abs(a - b) <= tolerance * std::max({1.0, std::abs(a), std::abs(b)});
}

namespace detail {

/// Formats one failure and fires it from the destructor, after the caller's
/// streamed context has been appended.
class Failure {
 public:
  Failure(const char* file, int line, const char* expression);
  Failure(const Failure&) = delete;
  Failure& operator=(const Failure&) = delete;

  /// Fires the configured fail mode; may throw ContractViolation.
  ~Failure() noexcept(false);

  [[nodiscard]] std::ostream& stream() noexcept { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Makes the `check-failed` branch a void expression so both arms of the
/// conditional in QBP_CHECK have the same type (the glog idiom).
struct Voidify {
  void operator&(std::ostream&) const noexcept {}
};

}  // namespace detail
}  // namespace check
}  // namespace qbp

// The switch(0) wrapper makes the macro a single statement that binds
// correctly under un-braced if/else; `&` binds looser than `<<`, so streamed
// context attaches to the Failure's stream before Voidify discards it.
#define QBP_CHECK(condition)                                          \
  switch (0)                                                          \
  case 0:                                                             \
  default:                                                            \
    (condition)                                                       \
        ? (void)0                                                     \
        : ::qbp::check::detail::Voidify{} &                           \
              ::qbp::check::detail::Failure(__FILE__, __LINE__,       \
                                            #condition)               \
                  .stream()

#define QBP_CHECK_OP_(a, b, op)                                       \
  switch (0)                                                          \
  case 0:                                                             \
  default:                                                            \
    ((a)op(b))                                                        \
        ? (void)0                                                     \
        : ::qbp::check::detail::Voidify{} &                           \
              ::qbp::check::detail::Failure(__FILE__, __LINE__,       \
                                            #a " " #op " " #b)        \
                      .stream()                                       \
                  << "(" << (a) << " vs " << (b) << ") "

#define QBP_CHECK_EQ(a, b) QBP_CHECK_OP_(a, b, ==)
#define QBP_CHECK_NE(a, b) QBP_CHECK_OP_(a, b, !=)
#define QBP_CHECK_LT(a, b) QBP_CHECK_OP_(a, b, <)
#define QBP_CHECK_LE(a, b) QBP_CHECK_OP_(a, b, <=)
#define QBP_CHECK_GT(a, b) QBP_CHECK_OP_(a, b, >)
#define QBP_CHECK_GE(a, b) QBP_CHECK_OP_(a, b, >=)

// Debug-only variant: under NDEBUG the condition is type-checked but never
// evaluated (dead `true ||` branch), so hot-path guards cost nothing in the
// builds we ship, exactly like assert -- but with streamed context in debug.
#ifdef NDEBUG
#define QBP_DCHECK(condition)                                         \
  switch (0)                                                          \
  case 0:                                                             \
  default:                                                            \
    (true || (condition))                                             \
        ? (void)0                                                     \
        : ::qbp::check::detail::Voidify{} &                           \
              ::qbp::check::detail::Failure(__FILE__, __LINE__,       \
                                            #condition)               \
                  .stream()
#else
#define QBP_DCHECK(condition) QBP_CHECK(condition)
#endif
