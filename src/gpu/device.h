// Simulated GPU device memory.
//
// A Device tracks a fixed device-memory capacity (the paper machine's
// TITAN X has 12 GB; at repro scale 12 MiB) and hands out DeviceBuffers.
// Allocation beyond capacity fails with OutOfDeviceMemory -- the "O.O.M."
// condition every GPU baseline in Section 7 hits. Buffers are real host
// allocations so kernels really execute against them.
#ifndef GTS_GPU_DEVICE_H_
#define GTS_GPU_DEVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace gts {
namespace gpu {

class Device;

/// Owning handle to a device-memory allocation. Movable; releases its
/// reservation on destruction.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer();

  /// A buffer of `size` host bytes that no device accounts (the host
  /// CPUs' WA replica under CPU assist).
  static DeviceBuffer Host(uint64_t size) {
    return DeviceBuffer(nullptr, size);
  }

  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }
  uint64_t size() const { return bytes_.size(); }
  bool valid() const { return device_ != nullptr; }

  /// Releases the reservation early.
  void Reset();

 private:
  friend class Device;
  DeviceBuffer(Device* device, uint64_t size) : device_(device) {
    bytes_.resize(size);
  }

  Device* device_ = nullptr;
  std::vector<uint8_t> bytes_;
};

/// One simulated GPU.
///
/// Thread-safe: the memory accounting is guarded by a mutex.
class Device {
 public:
  Device(int id, uint64_t memory_capacity)
      : id_(id), capacity_(memory_capacity) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int id() const { return id_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t used() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
  }
  uint64_t available() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_ - used_;
  }

  /// Allocates `size` bytes of device memory; OutOfDeviceMemory when the
  /// capacity would be exceeded. `tag` names the buffer in error messages
  /// (e.g. "WABuf", "SPBuf[3]").
  Result<DeviceBuffer> Allocate(uint64_t size, const std::string& tag);

  /// Takes `size` bytes of the capacity without host backing, for callers
  /// that keep their own buffers (the page cache); fails like Allocate.
  Status Reserve(uint64_t size, const std::string& tag);
  /// Returns `size` bytes taken by Reserve (or Allocate).
  void Release(uint64_t size);

 private:

  int id_;
  uint64_t capacity_;
  mutable std::mutex mu_;
  uint64_t used_ = 0;
};

}  // namespace gpu
}  // namespace gts

#endif  // GTS_GPU_DEVICE_H_
