// Deterministic fork-join parallelism for the one solver phase that runs
// on threads: the multilevel coarsening proposal scan.  Every other phase
// of a solve runs serially; a new parallel region must first beat its
// serial form on the cores that exist (DESIGN.md section 11).
//
// The repo-wide invariant is bit-identical assignments and objectives at
// every thread count (engine determinism tests, the shadow validator, and
// the exact-objective bench gate all enforce it).  This pool is built so
// that invariant holds *by construction*:
//
//   1. Static chunking.  A range [0, n) is cut into chunks whose boundaries
//      are a pure function of (n, grain) -- never of the thread count.
//      Thread count only decides which thread *executes* a chunk, and every
//      chunk writes to its own disjoint outputs, so FP results cannot
//      re-associate across thread counts.
//   2. No atomics on results.  Atomics only hand out chunks; results always
//      travel through chunk-private outputs.
//
// Execution model: one process-wide pool of helper threads, grown lazily
// and shared by every caller (portfolio starts included).  A parallel
// region claims helpers up to its requested thread count, capped by a fair
// share of the machine: base / active_regions.  Concurrent regions
// therefore split the pool instead of oversubscribing, and a region that
// gets zero helpers simply runs its chunks inline -- same chunks, same
// results.  Nested regions (a parallel_for issued from inside a pool
// worker) always run inline for the same reason.
//
// The bodies passed in run concurrently on pool threads: they must only
// write state that is private per chunk, and any shared state they read
// must be frozen for the duration of the region.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/annotations.hpp"

namespace qbp::par {

/// Hard ceiling on pool helper threads (the caller participates too, so a
/// region can use at most kMaxHelpers + 1 threads).
inline constexpr std::int32_t kMaxHelpers = 63;

/// Regions with fewer chunks than this run inline even when threads were
/// requested: waking a helper costs microseconds, so a small problem's
/// scan would pay more in scheduling than its chunks are worth.
/// Scheduling-only -- the chunk plan is the same either way, so results
/// cannot change.
inline constexpr std::int32_t kMinFanoutChunks = 4;

/// The static chunk layout for a range: a pure function of (n, grain) so
/// every thread count sees identical chunk boundaries.
struct ChunkPlan {
  std::int64_t n = 0;
  std::int64_t grain = 1;
  std::int32_t count = 0;

  [[nodiscard]] static ChunkPlan make(std::int64_t n, std::int64_t grain) {
    ChunkPlan plan;
    plan.n = n < 0 ? 0 : n;
    plan.grain = grain < 1 ? 1 : grain;
    plan.count = plan.n == 0
                     ? 0
                     : static_cast<std::int32_t>((plan.n + plan.grain - 1) /
                                                 plan.grain);
    return plan;
  }

  [[nodiscard]] std::int64_t begin(std::int32_t chunk) const {
    return static_cast<std::int64_t>(chunk) * grain;
  }
  [[nodiscard]] std::int64_t end(std::int32_t chunk) const {
    const std::int64_t e = begin(chunk) + grain;
    return e < n ? e : n;
  }
};

/// The denominator of the fair-share arbitration: how many hardware slots
/// concurrent regions divide among themselves.  Defaults to
/// max(hardware_concurrency(), 8) -- the floor keeps the multi-thread code
/// paths genuinely exercised (determinism tests, TSan) on tiny containers;
/// actual oversubscription *policy* lives in the service layer, which
/// clamps requested thread counts against the real core count.
[[nodiscard]] std::int32_t fair_share_base();
/// Override the fair-share base (tests; 0 restores the default).
void set_fair_share_base(std::int32_t base);

class Pool {
 public:
  /// The process-wide shared pool.
  [[nodiscard]] static Pool& instance();

  /// True while the calling thread is a pool helper executing chunks --
  /// regions started from such a thread run inline (no nested fan-out).
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// Execute `body(ctx, chunk_begin, chunk_end, chunk_index)` for every
  /// chunk of ChunkPlan::make(n, grain), using at most `threads` threads
  /// (the caller plus claimed helpers).  Returns after every chunk ran.
  /// Chunk boundaries, and therefore results, do not depend on `threads`.
  void run(std::int64_t n, std::int64_t grain, std::int32_t threads,
           void (*body)(void*, std::int64_t, std::int64_t, std::int32_t),
           void* ctx);

  /// Make sure at least `count` helper threads exist (bounded by
  /// kMaxHelpers).  Portfolio calls this once up front so concurrent starts
  /// do not race to spawn threads mid-solve.
  void warm(std::int32_t count) QBP_EXCLUDES(mu_);

  /// Observability for the metrics layer (instantaneous).
  [[nodiscard]] std::int32_t helpers_spawned() const;
  [[nodiscard]] std::int32_t helpers_busy() const;

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

 private:
  struct Task {
    void (*body)(void*, std::int64_t, std::int64_t, std::int32_t) = nullptr;
    void* ctx = nullptr;
    ChunkPlan plan;
    std::atomic<std::int32_t> next_chunk{0};
    /// Helpers this task may still recruit (set at submit, read under mu_).
    std::int32_t helpers_allowed = 0;
    std::int32_t helpers_joined = 0;
    /// Helpers currently executing chunks; the submitter waits for 0.
    std::atomic<std::int32_t> helpers_active{0};
    sync::Mutex done_mutex;
    sync::CondVar done_cv;
  };

  Pool() = default;
  ~Pool();

  void helper_main();
  void ensure_helpers_locked(std::int32_t count) QBP_REQUIRES(mu_);
  static void process_chunks(Task& task);

  mutable sync::Mutex mu_;
  sync::CondVar cv_;
  // This pool is the ONE sanctioned home for raw std::thread in the tree
  // (qbp_lint rule `raw-thread`); everything else must fan out through it
  // so the determinism contract stays enforceable in one place.
  std::vector<std::thread> helpers_ QBP_GUARDED_BY(mu_);
  std::vector<Task*> pending_ QBP_GUARDED_BY(mu_);
  std::int32_t active_regions_ QBP_GUARDED_BY(mu_) = 0;
  std::int32_t busy_ QBP_GUARDED_BY(mu_) = 0;
  bool stop_ QBP_GUARDED_BY(mu_) = false;
};

/// Instantaneous pool utilization in [0, 1]: busy helpers / spawned
/// helpers (0 when no helper was ever needed).
[[nodiscard]] double utilization();

/// Canonical interpretation of a thread-count knob: > 0 is taken literally,
/// <= 0 means "all hardware"; both are clamped to [1, kMaxHelpers + 1].
[[nodiscard]] inline std::int32_t resolve_threads(std::int32_t requested) {
  std::int32_t threads = requested;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<std::int32_t>(hw);
  }
  return std::clamp(threads, 1, kMaxHelpers + 1);
}

namespace detail {

template <class Body>
void invoke_body(void* ctx, std::int64_t begin, std::int64_t end,
                 std::int32_t chunk) {
  (*static_cast<Body*>(ctx))(begin, end, chunk);
}

}  // namespace detail

/// body(chunk_begin, chunk_end, chunk_index) over [0, n) in chunks of
/// `grain`.  Bit-identical contract: the body must write only chunk-private
/// state (boundaries never depend on `threads`).
template <class Body>
void parallel_for(std::int64_t n, std::int64_t grain, std::int32_t threads,
                  Body&& body) {
  using Fn = std::remove_reference_t<Body>;
  Pool::instance().run(n, grain, threads, &detail::invoke_body<Fn>,
                       const_cast<void*>(static_cast<const void*>(&body)));
}

}  // namespace qbp::par
