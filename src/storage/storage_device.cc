#include "storage/storage_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace gts {

Status MemoryDevice::Write(uint64_t offset, const uint8_t* data,
                           uint64_t len) {
  size_ = std::max(size_, offset + len);
  chunks_.resize(std::max<uint64_t>(
      chunks_.size(), (offset + len + kChunkBytes - 1) / kChunkBytes));
  while (len > 0) {
    const uint64_t within = offset % kChunkBytes;
    const uint64_t n = std::min(len, kChunkBytes - within);
    auto& chunk = chunks_[offset / kChunkBytes];
    if (chunk == nullptr) {
      chunk.reset(static_cast<uint8_t*>(std::calloc(kChunkBytes, 1)));
      if (chunk == nullptr) {
        return Status::ResourceExhausted("out of memory on memory device " +
                                         name());
      }
    }
    std::memcpy(chunk.get() + within, data, n);
    offset += n;
    data += n;
    len -= n;
  }
  return Status::OK();
}

Status MemoryDevice::Read(uint64_t offset, uint8_t* dst, uint64_t len) {
  if (offset + len > size_) {
    return Status::IOError("read past end of memory device " + name());
  }
  while (len > 0) {
    const uint64_t within = offset % kChunkBytes;
    const uint64_t n = std::min(len, kChunkBytes - within);
    const uint8_t* chunk = chunks_[offset / kChunkBytes].get();
    if (chunk == nullptr) {
      std::memset(dst, 0, n);  // never written
    } else {
      std::memcpy(dst, chunk + within, n);
    }
    offset += n;
    dst += n;
    len -= n;
  }
  return Status::OK();
}

Result<std::unique_ptr<FileDevice>> FileDevice::Create(
    const std::string& path, DeviceTimingParams timing) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  return std::unique_ptr<FileDevice>(new FileDevice(path, fd, timing));
}

FileDevice::~FileDevice() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileDevice::Write(uint64_t offset, const uint8_t* data, uint64_t len) {
  uint64_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd_, data + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite(" + path_ + "): " + std::strerror(errno));
    }
    done += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Status FileDevice::Read(uint64_t offset, uint8_t* dst, uint64_t len) {
  uint64_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, dst + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread(" + path_ + "): " + std::strerror(errno));
    }
    if (n == 0) return Status::IOError("short read from " + path_);
    done += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

}  // namespace gts
