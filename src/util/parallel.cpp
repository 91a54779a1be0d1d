#include "util/parallel.hpp"

#include "util/check.hpp"

namespace qbp::par {

namespace {

thread_local bool tl_on_worker_thread = false;

std::atomic<std::int32_t> g_fair_share_base{0};  // 0 = derive from hardware

[[nodiscard]] std::int32_t default_fair_share_base() {
  const unsigned hw = std::thread::hardware_concurrency();
  // The floor of 8 keeps helper threads real (not a degenerate inline-only
  // pool) on 1-2 core containers, so the determinism and TSan tests
  // exercise the concurrent paths everywhere.  Oversubscription policy for
  // production traffic is enforced by the service layer against the true
  // core count.
  const unsigned base = hw > 8 ? hw : 8;
  return static_cast<std::int32_t>(base);
}

}  // namespace

std::int32_t fair_share_base() {
  const std::int32_t base = g_fair_share_base.load(std::memory_order_relaxed);
  return base > 0 ? base : default_fair_share_base();
}

void set_fair_share_base(std::int32_t base) {
  g_fair_share_base.store(base > 0 ? base : 0, std::memory_order_relaxed);
}

Pool& Pool::instance() {
  static Pool pool;
  return pool;
}

bool Pool::on_worker_thread() noexcept { return tl_on_worker_thread; }

Pool::~Pool() {
  // Move the helpers out under the lock so the join loop below touches no
  // guarded state (nothing may spawn after stop_; joining needs no lock).
  std::vector<std::thread> to_join;
  {
    const sync::MutexLock lock(mu_);
    stop_ = true;
    to_join.swap(helpers_);
  }
  cv_.notify_all();
  for (std::thread& helper : to_join) helper.join();
}

void Pool::ensure_helpers_locked(std::int32_t count) {
  if (count > kMaxHelpers) count = kMaxHelpers;
  while (static_cast<std::int32_t>(helpers_.size()) < count) {
    helpers_.emplace_back([this] { helper_main(); });
  }
}

void Pool::warm(std::int32_t count) {
  const sync::MutexLock lock(mu_);
  ensure_helpers_locked(count);
}

std::int32_t Pool::helpers_spawned() const {
  const sync::MutexLock lock(mu_);
  return static_cast<std::int32_t>(helpers_.size());
}

std::int32_t Pool::helpers_busy() const {
  const sync::MutexLock lock(mu_);
  return busy_;
}

void Pool::process_chunks(Task& task) {
  for (;;) {
    const std::int32_t chunk =
        task.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= task.plan.count) return;
    task.body(task.ctx, task.plan.begin(chunk), task.plan.end(chunk), chunk);
  }
}

void Pool::run(std::int64_t n, std::int64_t grain, std::int32_t threads,
               void (*body)(void*, std::int64_t, std::int64_t, std::int32_t),
               void* ctx) {
  QBP_CHECK(body != nullptr) << "parallel region without a body";
  const ChunkPlan plan = ChunkPlan::make(n, grain);
  if (plan.count == 0) return;

  // Inline fast path: a 1-thread request, too few chunks to be worth a
  // helper wakeup, or a nested region on a pool thread.  Chunk boundaries
  // are the same either way, so this is not a semantic branch -- only a
  // scheduling one.
  if (threads <= 1 || plan.count < kMinFanoutChunks || tl_on_worker_thread) {
    for (std::int32_t c = 0; c < plan.count; ++c) {
      body(ctx, plan.begin(c), plan.end(c), c);
    }
    return;
  }

  Task task;
  task.body = body;
  task.ctx = ctx;
  task.plan = plan;
  {
    const sync::MutexLock lock(mu_);
    ++active_regions_;
    // Fair share: concurrent regions (e.g. portfolio starts) split the
    // machine instead of each taking `threads`.
    std::int32_t share = fair_share_base() / active_regions_;
    if (share < 1) share = 1;
    std::int32_t want = (threads < share ? threads : share) - 1;
    if (want > plan.count - 1) want = plan.count - 1;
    if (want > kMaxHelpers) want = kMaxHelpers;
    if (want < 0) want = 0;
    task.helpers_allowed = want;
    if (want > 0) {
      ensure_helpers_locked(want);
      pending_.push_back(&task);
    }
  }
  if (task.helpers_allowed > 0) {
    // Wake exactly as many helpers as the region may recruit; notify_all
    // would stampede every idle helper through mu_ for each tiny region.
    if (task.helpers_allowed == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

  // The caller is one of the workers.
  process_chunks(task);

  if (task.helpers_allowed > 0) {
    {
      // Stop new helpers from adopting the task...
      const sync::MutexLock lock(mu_);
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i] == &task) {
          pending_.erase(pending_.begin() +
                         static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    // ...then wait for the ones already in it.  The task lives on this
    // stack frame; helpers touch it only under done_mutex before their
    // final notify, so returning after active == 0 is safe.
    const sync::MutexLock done_lock(task.done_mutex);
    while (task.helpers_active.load(std::memory_order_relaxed) != 0) {
      task.done_cv.wait(task.done_mutex);
    }
  }
  {
    const sync::MutexLock lock(mu_);
    --active_regions_;
  }
}

void Pool::helper_main() {
  tl_on_worker_thread = true;
  // Explicit lock()/unlock() instead of a scoped guard: the loop holds mu_
  // while picking work and drops it around chunk execution.  The thread
  // safety analysis tracks the hand-over-hand state across the loop.
  mu_.lock();
  for (;;) {
    Task* task = nullptr;
    for (Task* candidate : pending_) {
      if (candidate->helpers_joined < candidate->helpers_allowed &&
          candidate->next_chunk.load(std::memory_order_relaxed) <
              candidate->plan.count) {
        task = candidate;
        break;
      }
    }
    if (task == nullptr) {
      if (stop_) break;
      cv_.wait(mu_);
      continue;
    }
    ++task->helpers_joined;
    task->helpers_active.fetch_add(1, std::memory_order_relaxed);
    ++busy_;
    mu_.unlock();

    process_chunks(*task);
    {
      // Decrement and notify under done_mutex: once the submitter observes
      // zero it may destroy the task, so no access may follow the unlock.
      const sync::MutexLock done_lock(task->done_mutex);
      task->helpers_active.fetch_sub(1, std::memory_order_relaxed);
      task->done_cv.notify_one();
    }

    mu_.lock();
    --busy_;
  }
  mu_.unlock();
}

double utilization() {
  Pool& pool = Pool::instance();
  const std::int32_t spawned = pool.helpers_spawned();
  if (spawned <= 0) return 0.0;
  return static_cast<double>(pool.helpers_busy()) /
         static_cast<double>(spawned);
}

}  // namespace qbp::par
