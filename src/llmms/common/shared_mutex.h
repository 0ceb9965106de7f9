#ifndef LLMMS_COMMON_SHARED_MUTEX_H_
#define LLMMS_COMMON_SHARED_MUTEX_H_

#include <pthread.h>

namespace llmms {

// A shared mutex that admits no new reader while a writer waits, so a
// stream of overlapping readers cannot starve writers. glibc's
// std::shared_mutex prefers readers: two threads that re-take it shared
// back to back can hold a writer off for seconds. A pthread rwlock of kind
// PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP. Meets the standard
// SharedMutex requirements, so std::unique_lock and std::shared_lock work
// with it.
//
// Not recursive: a thread that holds it shared must not take it shared
// again. With a writer queued in between, the second lock_shared waits for
// the writer, and the writer for the first hold. A failed pthread call is
// a program error and aborts.
class WriterPreferringSharedMutex {
 public:
  WriterPreferringSharedMutex();
  ~WriterPreferringSharedMutex();

  WriterPreferringSharedMutex(const WriterPreferringSharedMutex&) = delete;
  WriterPreferringSharedMutex& operator=(const WriterPreferringSharedMutex&) =
      delete;

  void lock();
  bool try_lock();
  void unlock();

  void lock_shared();
  bool try_lock_shared();
  void unlock_shared();

 private:
  pthread_rwlock_t rwlock_;
};

}  // namespace llmms

#endif  // LLMMS_COMMON_SHARED_MUTEX_H_
