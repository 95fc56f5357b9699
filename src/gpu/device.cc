#include "gpu/device.h"

#include "common/logging.h"
#include "common/units.h"

namespace gts {
namespace gpu {

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& other) noexcept {
  if (this != &other) {
    Reset();
    device_ = other.device_;
    bytes_ = std::move(other.bytes_);
    other.device_ = nullptr;
    other.bytes_.clear();
  }
  return *this;
}

DeviceBuffer::~DeviceBuffer() { Reset(); }

void DeviceBuffer::Reset() {
  if (device_ != nullptr) {
    device_->Release(bytes_.size());
    device_ = nullptr;
    bytes_.clear();
    bytes_.shrink_to_fit();
  }
}

Result<DeviceBuffer> Device::Allocate(uint64_t size, const std::string& tag) {
  GTS_RETURN_IF_ERROR(Reserve(size, tag));
  // The backing-store resize happens outside the accounting lock.
  return DeviceBuffer(this, size);
}

Status Device::Reserve(uint64_t size, const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  if (used_ + size > capacity_) {
    return Status::OutOfDeviceMemory(
        "GPU" + std::to_string(id_) + ": allocating " + FormatBytes(size) +
        " for " + tag + " exceeds capacity (" + FormatBytes(used_) +
        " of " + FormatBytes(capacity_) + " in use)");
  }
  used_ += size;
  return Status::OK();
}

void Device::Release(uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  GTS_CHECK(used_ >= size);
  used_ -= size;
}

}  // namespace gpu
}  // namespace gts
