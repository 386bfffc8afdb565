// Per-worker payload arena with deferred cross-thread reclamation.
//
// Every `make_payload` in the repo used to be a bare `new` — fine serially,
// but once SimPool fans independent simulations out over worker threads,
// all of them hammer the one process allocator, and the payload churn of an
// MP run (a RequestPayload or RegionUpdatePayload per transaction) turns
// into cross-thread coherence traffic on the allocator's shared state. The
// arena removes that coupling:
//
//   * every thread owns a private PayloadArena (pool workers and the
//     caller alike — the arena is installed thread-locally, lazily on
//     first allocation);
//   * allocation and same-thread free touch only the owner's free lists —
//     no locks, no atomics, no shared cache lines;
//   * a block freed on a *different* thread is never pushed onto the
//     owner's free lists directly (that would race); it goes onto the
//     owner's mutex-guarded reclamation list, which the owner drains the
//     next time it allocates (or via reclaim()). This is the only path by
//     which a block allocated on worker A ever becomes reusable anywhere,
//     and tests/test_sim_pool.cpp pins that invariant down.
//
// Arenas are checked out of a process-wide registry and returned at thread
// exit, so a fresh pool run re-acquires the previous run's warmed slabs
// (free lists intact, pages already faulted in) instead of growing without
// bound. Slabs are first-touched by the acquiring thread when carved, so
// under the first-touch NUMA policy a worker's blocks live in its local
// memory module. Arena objects themselves are immortal: a block may outlive
// the thread that allocated it (results handed back to the caller), and its
// header must still find a live owner to free into.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace locus {

/// Allocation/free/reclamation tallies of one arena. Exact while the arena
/// is quiescent (its owning thread joined or idle); the balance invariant
/// `allocs == local_frees + remote_frees + live blocks` always holds then.
struct ArenaStats {
  std::uint64_t allocs = 0;        ///< class blocks handed out
  std::uint64_t local_frees = 0;   ///< freed on the owning thread
  std::uint64_t remote_frees = 0;  ///< freed elsewhere: reclamation list
  std::uint64_t reclaimed = 0;     ///< drained off the reclamation list
  std::uint64_t slabs = 0;         ///< 16 KiB slabs carved
  std::uint64_t oversize_allocs = 0;  ///< passthrough (> max class size)
  std::uint64_t oversize_frees = 0;

  std::uint64_t live() const {
    return allocs - local_frees - remote_frees;
  }
};

class PayloadArena {
 public:
  /// Block sizes (header included). Payloads are small polymorphic structs;
  /// anything larger passes through to the global allocator.
  static constexpr std::array<std::size_t, 5> kClassSizes = {64, 128, 256,
                                                             512, 1024};

  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;

  /// Allocates `bytes` from the calling thread's arena.
  static void* allocate(std::size_t bytes);
  /// Returns `p` to the arena that allocated it: onto a free list when the
  /// caller is the owner, onto the owner's reclamation list otherwise.
  static void deallocate(void* p);

  /// The calling thread's arena, acquired from the registry on first use
  /// and returned automatically at thread exit.
  static PayloadArena& current();
  /// Owning arena of a live block, or nullptr for oversize passthrough
  /// blocks (test/profiling hook).
  static PayloadArena* owner_of(const void* p);

  /// Checks an idle arena out of the process-wide registry (LIFO, so a new
  /// pool run reuses the warmest arenas first), creating one when none is
  /// idle. Paired with release(); Scope and the thread-local path manage
  /// this automatically.
  static PayloadArena* acquire();
  static void release(PayloadArena* arena);
  /// Arenas ever created (== peak concurrent allocating threads).
  static std::size_t registry_size();

  /// RAII override of the calling thread's arena (profiling/tests; worker
  /// threads normally just use the lazy thread-local path).
  class Scope {
   public:
    explicit Scope(PayloadArena* arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PayloadArena* prev_;
    bool prev_owned_;
  };

  /// Drains the reclamation list onto the free lists now (the owner also
  /// does this lazily when a free list runs dry). Returns blocks drained.
  /// Must be called by the thread currently owning the arena.
  std::uint64_t reclaim();

  ArenaStats stats() const;
  int id() const { return id_; }

 private:
  struct FreeNode;

  explicit PayloadArena(int id) : id_(id) {}

  void* allocate_class(std::size_t cls);
  void carve_slab(std::size_t cls);
  std::uint64_t drain_remote_locked();

  const int id_;
  std::array<FreeNode*, kClassSizes.size()> free_{};
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  ArenaStats stats_;  ///< single-writer fields (owner thread only)

  mutable std::mutex remote_mutex_;
  FreeNode* remote_head_ = nullptr;      ///< guarded by remote_mutex_
  std::uint64_t remote_frees_ = 0;       ///< guarded by remote_mutex_
  std::uint64_t oversize_frees_ = 0;     ///< guarded by remote_mutex_
};

}  // namespace locus
