// Network packets.
//
// The simulator charges time and traffic from `bytes` only; `payload`
// carries the application data (update contents) by PayloadRef so the
// simulation does not pay host-memory copies per hop. Applications define
// their own `type` space.
//
// PayloadRef is an intrusive, non-atomic refcounted pointer: the count
// lives inside the payload object itself, so a payload costs exactly one
// allocation (no shared_ptr control block) and handing it along the
// send -> arena slot -> inbox -> deliver chain is a plain integer bump with
// no atomic traffic. Payloads belong to one Machine's event loop and are
// never shared across concurrently running simulations (SimPool jobs each
// own their Machine), which is what makes the non-atomic count safe — the
// pool-backed suites run under TSan to enforce it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "geom/partition.hpp"
#include "support/assert.hpp"

namespace locus {

/// Base class for application payloads attached to packets. Carries the
/// intrusive reference count PayloadRef manipulates. Payloads live on the
/// global heap: where the host keeps them changes no route, byte or
/// simulated nanosecond.
struct PacketPayload {
  virtual ~PacketPayload() = default;

  mutable std::uint32_t payload_refs_ = 0;
};

/// Intrusive pointer to a const payload. Copying bumps the embedded count;
/// the payload is deleted when the last reference drops. Single-threaded by
/// design (see file comment).
class PayloadRef {
 public:
  PayloadRef() = default;
  PayloadRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  PayloadRef(const PayloadRef& other) : ptr_(other.ptr_) { retain(); }
  PayloadRef(PayloadRef&& other) noexcept : ptr_(other.ptr_) {
    other.ptr_ = nullptr;
  }
  PayloadRef& operator=(const PayloadRef& other) {
    if (this != &other) {
      release();
      ptr_ = other.ptr_;
      retain();
    }
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& other) noexcept {
    if (this != &other) {
      release();
      ptr_ = other.ptr_;
      other.ptr_ = nullptr;
    }
    return *this;
  }
  ~PayloadRef() { release(); }

  const PacketPayload* get() const { return ptr_; }
  const PacketPayload& operator*() const { return *ptr_; }
  const PacketPayload* operator->() const { return ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }

  void reset() {
    release();
    ptr_ = nullptr;
  }

  /// Adopts a freshly allocated payload (count starts at 1).
  static PayloadRef adopt(const PacketPayload* p) { return PayloadRef(p); }

 private:
  explicit PayloadRef(const PacketPayload* p) : ptr_(p) { retain(); }

  void retain() {
    if (ptr_ != nullptr) ++ptr_->payload_refs_;
  }
  void release() {
    if (ptr_ != nullptr && --ptr_->payload_refs_ == 0) delete ptr_;
  }

  const PacketPayload* ptr_ = nullptr;
};

/// Allocates a payload of concrete type T and returns the owning reference:
/// `make_payload<RegionUpdatePayload>()` replaces
/// `std::make_shared<const RegionUpdatePayload>()`. Returns a mutable
/// borrow alongside would defeat the const contract, so fill the object
/// via the returned `T*` before first send:
///   auto [ref, p] = make_payload<RequestPayload>();
///   p->wires = ...;
template <typename T, typename... Args>
std::pair<PayloadRef, T*> make_payload(Args&&... args) {
  T* raw = new T(std::forward<Args>(args)...);
  return {PayloadRef::adopt(raw), raw};
}

struct Packet {
  ProcId src = -1;
  ProcId dst = -1;
  std::int32_t type = 0;
  std::int32_t bytes = 0;  ///< total on-wire size including header
  PayloadRef payload;

  template <typename T>
  const T& payload_as() const {
    const T* p = dynamic_cast<const T*>(payload.get());
    return *p;
  }
};

}  // namespace locus
