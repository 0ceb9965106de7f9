#include "llmms/common/shared_mutex.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace llmms {
namespace {

void CheckRwlock(int rc, const char* call) {
  if (rc == 0) return;
  std::fprintf(stderr, "WriterPreferringSharedMutex: %s failed: %s\n", call,
               std::strerror(rc));
  std::abort();
}

}  // namespace

WriterPreferringSharedMutex::WriterPreferringSharedMutex() {
  pthread_rwlockattr_t attr;
  CheckRwlock(pthread_rwlockattr_init(&attr), "pthread_rwlockattr_init");
  CheckRwlock(pthread_rwlockattr_setkind_np(
                  &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP),
              "pthread_rwlockattr_setkind_np");
  CheckRwlock(pthread_rwlock_init(&rwlock_, &attr), "pthread_rwlock_init");
  pthread_rwlockattr_destroy(&attr);
}

WriterPreferringSharedMutex::~WriterPreferringSharedMutex() {
  pthread_rwlock_destroy(&rwlock_);
}

void WriterPreferringSharedMutex::lock() {
  CheckRwlock(pthread_rwlock_wrlock(&rwlock_), "pthread_rwlock_wrlock");
}

bool WriterPreferringSharedMutex::try_lock() {
  const int rc = pthread_rwlock_trywrlock(&rwlock_);
  if (rc == EBUSY) return false;
  CheckRwlock(rc, "pthread_rwlock_trywrlock");
  return true;
}

void WriterPreferringSharedMutex::unlock() {
  CheckRwlock(pthread_rwlock_unlock(&rwlock_), "pthread_rwlock_unlock");
}

void WriterPreferringSharedMutex::lock_shared() {
  CheckRwlock(pthread_rwlock_rdlock(&rwlock_), "pthread_rwlock_rdlock");
}

bool WriterPreferringSharedMutex::try_lock_shared() {
  const int rc = pthread_rwlock_tryrdlock(&rwlock_);
  if (rc == EBUSY || rc == EAGAIN) return false;  // EAGAIN: too many readers
  CheckRwlock(rc, "pthread_rwlock_tryrdlock");
  return true;
}

void WriterPreferringSharedMutex::unlock_shared() {
  CheckRwlock(pthread_rwlock_unlock(&rwlock_), "pthread_rwlock_unlock");
}

}  // namespace llmms
