// Secondary-storage devices holding slotted pages.
//
// A device really stores and returns bytes (memory- or file-backed), and
// carries a timing model (sequential bandwidth + per-request latency) used
// by the discrete-event scheduler. Presets match the paper's hardware:
// Fusion-io PCI-E SSDs (~2.35 GB/s each) and RAID-0 HDD pairs (~165 MB/s
// each) -- Section 7.5 backs these numbers out of the measured runtimes.
#ifndef GTS_STORAGE_STORAGE_DEVICE_H_
#define GTS_STORAGE_STORAGE_DEVICE_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"
#include "obs/metrics.h"

namespace gts {

/// Timing model of one storage device.
struct DeviceTimingParams {
  double seq_bandwidth = 2.35e9;  ///< bytes/second, sequential read
  double access_latency = 20e-6; ///< seconds per request

  /// Fusion-io-class PCI-E SSD (paper: ~2.35 GB/s effective).
  static DeviceTimingParams PcieSsd() { return {2.35e9, 20e-6}; }
  /// One spindle of the paper's 2x HDD RAID-0 (~165 MB/s each).
  static DeviceTimingParams Hdd() { return {1.65e8, 250e-6}; }
  /// Main-memory resident device: no I/O cost (PCI-E is then the limit).
  static DeviceTimingParams Memory() { return {0.0, 0.0}; }

  /// Divides the latency by `factor` (bandwidth is a rate and stays),
  /// mirroring TimeModel::Scaled for scaled-down page sizes.
  DeviceTimingParams Scaled(double factor) const {
    DeviceTimingParams p = *this;
    p.access_latency /= factor;
    return p;
  }

  /// Simulated seconds to read `bytes` in one request. A zero-bandwidth
  /// device models "already in memory" and costs nothing.
  SimTime ReadCost(uint64_t bytes) const {
    if (seq_bandwidth <= 0.0) return 0.0;
    return access_latency + static_cast<double>(bytes) / seq_bandwidth;
  }

  /// Simulated seconds to write `bytes` in one request. Same shape as
  /// ReadCost (the paper's devices are symmetric enough at page grain);
  /// used by the io engine's write path for WA spill / snapshot requests.
  SimTime WriteCost(uint64_t bytes) const { return ReadCost(bytes); }

  /// ReadCost for a request that continues the previous one: the head is
  /// already positioned, so only the transfer is paid, not the per-request
  /// access latency. Charged by io::IoEngine::Acquire under
  /// io.merge_sequential when a read starts exactly at the device head.
  SimTime SequentialReadCost(uint64_t bytes) const {
    if (seq_bandwidth <= 0.0) return 0.0;
    return static_cast<double>(bytes) / seq_bandwidth;
  }
};

/// Abstract byte store with a timing model.
class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  virtual Status Write(uint64_t offset, const uint8_t* data, uint64_t len) = 0;
  virtual Status Read(uint64_t offset, uint8_t* dst, uint64_t len) = 0;

  const DeviceTimingParams& timing() const { return timing_; }
  const std::string& name() const { return name_; }

  /// Registers this device's page-read counters as
  /// `storage.<name>.reads` / `storage.<name>.bytes_read` in `registry`
  /// (which must outlive the device). Counting happens via NoteRead.
  void BindMetrics(obs::MetricsRegistry* registry) {
    reads_metric_ = &registry->GetCounter("storage." + name_ + ".reads");
    bytes_metric_ = &registry->GetCounter("storage." + name_ + ".bytes_read");
  }

  /// Bumps the bound counters for one page read (no-op when unbound).
  /// Called by PageStore on every buffer-miss fetch, so the counters see
  /// page-granular traffic, not Init()-time bulk writes.
  void NoteRead(uint64_t bytes) {
    if (reads_metric_ == nullptr) return;
    reads_metric_->Add();
    bytes_metric_->Add(bytes);
  }

 protected:
  StorageDevice(std::string name, DeviceTimingParams timing)
      : timing_(timing), name_(std::move(name)) {}

 private:
  DeviceTimingParams timing_;
  std::string name_;
  obs::Counter* reads_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
};

/// RAM-backed device (used for "in-memory" storage-type runs and tests).
///
/// Sparse: the bytes live in fixed 1 MiB chunks, each allocated zeroed
/// (calloc) on its first write, so growing the device never copies it and
/// a range no write touched holds no memory. Such a range inside the
/// written extent reads as zeros; a read past the extent fails.
class MemoryDevice final : public StorageDevice {
 public:
  explicit MemoryDevice(std::string name = "mem",
                        DeviceTimingParams timing = DeviceTimingParams::Memory())
      : StorageDevice(std::move(name), timing) {}

  Status Write(uint64_t offset, const uint8_t* data, uint64_t len) override;
  Status Read(uint64_t offset, uint8_t* dst, uint64_t len) override;

  static constexpr uint64_t kChunkBytes = uint64_t{1} << 20;

 private:
  struct FreeChunk {
    void operator()(uint8_t* chunk) const { std::free(chunk); }
  };

  std::vector<std::unique_ptr<uint8_t, FreeChunk>> chunks_;
  uint64_t size_ = 0;  // written extent: one past the highest written byte
};

/// File-backed device: pages live in a real file on disk, exercising the
/// out-of-core path end to end. The timing model still governs simulated
/// cost (the host filesystem is not what we are measuring).
class FileDevice final : public StorageDevice {
 public:
  /// Creates/truncates `path`.
  static Result<std::unique_ptr<FileDevice>> Create(
      const std::string& path, DeviceTimingParams timing);
  ~FileDevice() override;

  Status Write(uint64_t offset, const uint8_t* data, uint64_t len) override;
  Status Read(uint64_t offset, uint8_t* dst, uint64_t len) override;

 private:
  FileDevice(std::string path, int fd, DeviceTimingParams timing)
      : StorageDevice(path, timing), path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_;
};

}  // namespace gts

#endif  // GTS_STORAGE_STORAGE_DEVICE_H_
