#ifndef LLMMS_COMMON_SCRATCH_H_
#define LLMMS_COMMON_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace llmms {

// Per-call scratch memory for short-lived containers: bump allocation over
// a 4 KB buffer inside the object, so a Scratch on the stack serves small
// texts without touching the heap. Once the buffer is used up it falls back
// to doubling heap blocks. Nothing is freed before the scratch dies.
class Scratch {
 public:
  Scratch() = default;
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  ~Scratch() {
    while (heap_ != nullptr) {
      Block* next = heap_->next;
      ::operator delete(heap_);
      heap_ = next;
    }
  }

  void* Allocate(size_t bytes, size_t align) {
    void* p = next_;
    size_t space = static_cast<size_t>(end_ - next_);
    if (std::align(align, bytes, p, space) == nullptr) {
      const size_t size = std::max(next_block_, sizeof(Block) + bytes + align);
      next_block_ = 2 * size;
      heap_ = new (::operator new(size)) Block{heap_};
      p = heap_ + 1;
      space = size - sizeof(Block);
      std::align(align, bytes, p, space);
      end_ = reinterpret_cast<char*>(heap_) + size;
    }
    next_ = static_cast<char*>(p) + bytes;
    return p;
  }

 private:
  struct alignas(std::max_align_t) Block {
    Block* next;
  };

  alignas(std::max_align_t) char stack_[4096];
  char* next_ = stack_;
  char* end_ = stack_ + sizeof(stack_);
  Block* heap_ = nullptr;
  size_t next_block_ = 2 * sizeof(stack_);
};

// Standard allocator over a Scratch, for containers that must not outlive
// it. deallocate is a no-op; the scratch frees everything at once.
template <typename T>
class ScratchAllocator {
 public:
  using value_type = T;

  explicit ScratchAllocator(Scratch* scratch) : scratch_(scratch) {}
  template <typename U>
  ScratchAllocator(const ScratchAllocator<U>& other)  // NOLINT
      : scratch_(other.scratch()) {}

  T* allocate(size_t n) {
    return static_cast<T*>(scratch_->Allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, size_t) {}

  Scratch* scratch() const { return scratch_; }
  friend bool operator==(const ScratchAllocator& a, const ScratchAllocator& b) {
    return a.scratch_ == b.scratch_;
  }

 private:
  Scratch* scratch_;
};

template <typename T>
using ScratchVector = std::vector<T, ScratchAllocator<T>>;

}  // namespace llmms

#endif  // LLMMS_COMMON_SCRATCH_H_
