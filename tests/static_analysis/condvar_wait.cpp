// Negative-compile probe: CondVar::wait takes the capability-tracked
// UniqueLock; waiting while the analysis believes the lock is not held (the
// shape that silently deadlocks or races with a raw condition_variable)
// must be rejected. The control branch is the house idiom: explicit
// while-loop re-check, no predicate lambda (clang analyzes lambda bodies as
// separate functions, which is why swc::CondVar has no predicate overload).

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace condvar_probe {

struct Gate {
  swc::Mutex mutex;
  swc::CondVar cv;
  bool open SWC_GUARDED_BY(mutex) = false;
};

}  // namespace condvar_probe

int probe_condvar_wait(condvar_probe::Gate& gate);
int probe_condvar_wait(condvar_probe::Gate& gate) {
  swc::UniqueLock lock(gate.mutex);
  while (!gate.open) gate.cv.wait(lock);
#if defined(SWC_NEGCOMP)
  lock.unlock();
  // VIOLATION: guarded predicate read after the lock was dropped.
  while (!gate.open) gate.cv.wait(lock);
  lock.lock();
#endif
  return 0;
}
