// Network packets.
//
// The simulator charges time and traffic from `bytes` only; `payload`
// carries the application data (update contents) by shared pointer so the
// simulation does not pay host-memory copies per hop. Applications define
// their own `type` space.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "geom/partition.hpp"

namespace locus {

/// Base class for application payloads attached to packets. Payloads live
/// on the global heap: where the host keeps them changes no route, byte or
/// simulated nanosecond.
struct PacketPayload {
  virtual ~PacketPayload() = default;
};

/// Allocates a payload of concrete type T in one allocation (object and
/// count together) and returns the owning pointer plus a mutable borrow.
/// The payload is const once sent, so fill it via the returned `T*` first:
///   auto [ref, p] = make_payload<RequestPayload>();
///   p->bbox = ...;
template <typename T, typename... Args>
std::pair<std::shared_ptr<const PacketPayload>, T*> make_payload(Args&&... args) {
  auto owned = std::make_shared<T>(std::forward<Args>(args)...);
  T* raw = owned.get();
  return {std::move(owned), raw};
}

struct Packet {
  ProcId src = -1;
  ProcId dst = -1;
  std::int32_t type = 0;
  std::int32_t bytes = 0;  ///< total on-wire size including header
  std::shared_ptr<const PacketPayload> payload;

  template <typename T>
  const T& payload_as() const {
    const T* p = dynamic_cast<const T*>(payload.get());
    return *p;
  }
};

}  // namespace locus
