//===----------------------------------------------------------------------===//
///
/// \file
/// A bump allocator for trees that die all at once. The surface AST and
/// the core IR of one program live in one Arena each: nodes, child lists
/// and names are carved from a chain of small blocks, nothing is freed
/// one object at a time, and destroying the arena frees every block.
///
/// Only trivially destructible objects may live here (`make` and `copy`
/// assert it), because no destructor ever runs on them. Moving an Arena
/// keeps every object where it is: the blocks are separate heap
/// allocations, and only the chain's head moves.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SUPPORT_ARENA_H
#define GRIFT_SUPPORT_ARENA_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

namespace grift {

class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  Arena(Arena &&Other) noexcept
      : Head(std::exchange(Other.Head, nullptr)),
        Cur(std::exchange(Other.Cur, nullptr)),
        End(std::exchange(Other.End, nullptr)),
        NextSize(std::exchange(Other.NextSize, FirstBlock)) {}
  Arena &operator=(Arena &&Other) noexcept {
    if (this != &Other) {
      release();
      Head = std::exchange(Other.Head, nullptr);
      Cur = std::exchange(Other.Cur, nullptr);
      End = std::exchange(Other.End, nullptr);
      NextSize = std::exchange(Other.NextSize, FirstBlock);
    }
    return *this;
  }
  ~Arena() { release(); }

  /// Constructs a T in the arena.
  template <typename T, typename... Args> T *make(Args &&...As) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(As)...);
  }

  /// Copies \p Items into the arena; an empty list takes no space.
  template <typename T> std::span<T> copy(std::span<const T> Items) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      std::is_trivially_copyable_v<T>,
                  "arena arrays are copied bytewise and never destroyed");
    if (Items.empty())
      return {};
    auto *Out = static_cast<T *>(allocate(Items.size_bytes(), alignof(T)));
    std::memcpy(Out, Items.data(), Items.size_bytes());
    return {Out, Items.size()};
  }

  /// Copies the characters of \p Text into the arena.
  std::string_view copy(std::string_view Text) {
    if (Text.empty())
      return {};
    auto *Out = static_cast<char *>(allocate(Text.size(), 1));
    std::memcpy(Out, Text.data(), Text.size());
    return {Out, Text.size()};
  }

  /// \p Bytes of raw storage aligned to \p Align (a power of two no
  /// larger than alignof(std::max_align_t)).
  void *allocate(size_t Bytes, size_t Align) {
    auto P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    if (Cur && P + Bytes <= reinterpret_cast<uintptr_t>(End)) {
      Cur = reinterpret_cast<char *>(P + Bytes);
      return reinterpret_cast<void *>(P);
    }
    return allocateSlow(Bytes, Align);
  }

private:
  /// Blocks start small and double up to MaxBlock; a request larger than
  /// that gets a block of its own size.
  static constexpr size_t FirstBlock = 2048;
  static constexpr size_t MaxBlock = 32768;

  /// The header of a block; its bytes follow it.
  struct alignas(std::max_align_t) Block {
    Block *Prev;
  };

  Block *Head = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextSize = FirstBlock;

  void *allocateSlow(size_t Bytes, size_t Align) {
    size_t Size = std::max(NextSize, Bytes + Align);
    if (NextSize < MaxBlock)
      NextSize *= 2;
    auto *B = static_cast<Block *>(std::malloc(sizeof(Block) + Size));
    if (!B)
      throw std::bad_alloc();
    B->Prev = Head;
    Head = B;
    Cur = reinterpret_cast<char *>(B + 1);
    End = Cur + Size;
    return allocate(Bytes, Align);
  }

  void release() {
    while (Head)
      std::free(std::exchange(Head, Head->Prev));
    Cur = End = nullptr;
  }
};

} // namespace grift

#endif // GRIFT_SUPPORT_ARENA_H
