#include "storage/page_store.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace gts {

PageStore::PageStore(const PagedGraph* graph,
                     std::vector<std::unique_ptr<StorageDevice>> devices,
                     uint64_t buffer_capacity)
    : graph_(graph),
      devices_(std::move(devices)),
      buffer_capacity_(buffer_capacity) {
  GTS_CHECK(!devices_.empty()) << "page store needs at least one device";
  const uint64_t num_pages = graph_->num_pages();
  const uint64_t page_size = graph_->config().page_size;
  max_resident_ = static_cast<uint32_t>(std::max<uint64_t>(
      1, std::min(num_pages, buffer_capacity_ / page_size)));
  if (Evicts()) ring_ = std::max<uint32_t>(1, max_resident_ / 4);
  const uint32_t slots = max_resident_ + (Evicts() ? 1 : 0);
  // Uninitialised: a slot is written in full before it is read.
  arena_.reset(new uint8_t[static_cast<uint64_t>(slots) * page_size]);
  slot_of_.assign(num_pages, kNoSlot);
  page_of_.assign(slots, kInvalidPageId);
  free_slots_.reserve(slots);
  for (uint32_t slot = slots; slot-- > 0;) free_slots_.push_back(slot);
}

Status PageStore::Init() {
  const uint64_t page_size = graph_->config().page_size;
  std::vector<uint64_t> device_cursor(devices_.size(), 0);
  for (PageId pid = 0; pid < graph_->num_pages(); ++pid) {
    const size_t d = DeviceOfPage(pid);
    GTS_RETURN_IF_ERROR(devices_[d]->Write(
        device_cursor[d], graph_->page_bytes(pid).data(), page_size));
    device_cursor[d] += page_size;
  }
  initialized_ = true;
  return Status::OK();
}

bool PageStore::GraphFitsInBuffer() const {
  return graph_->TotalTopologyBytes() <= buffer_capacity_;
}

void PageStore::BindMetrics(std::shared_ptr<obs::MetricsRegistry> registry) {
  registry_ = std::move(registry);
  buffer_hits_metric_ = &registry_->GetCounter("store.buffer_hits");
  device_reads_metric_ = &registry_->GetCounter("store.device_reads");
  bytes_read_metric_ = &registry_->GetCounter("store.bytes_read");
  for (auto& device : devices_) device->BindMetrics(registry_.get());
}

Status PageStore::PreloadAll() {
  if (!GraphFitsInBuffer()) {
    return Status::FailedPrecondition(
        "graph (" + std::to_string(graph_->TotalTopologyBytes()) +
        " B) larger than MMBuf (" + std::to_string(buffer_capacity_) + " B)");
  }
  for (PageId pid = 0; pid < graph_->num_pages(); ++pid) {
    GTS_ASSIGN_OR_RETURN(FetchResult unused, Fetch(pid));
    (void)unused;
  }
  return Status::OK();
}

Result<PageStore::FetchResult> PageStore::Fetch(PageId pid) {
  if (!initialized_) {
    return Status::FailedPrecondition("PageStore::Init not called");
  }
  if (pid >= graph_->num_pages()) {
    return Status::InvalidArgument("page id out of range: " +
                                   std::to_string(pid));
  }
  FetchResult result;
  const uint32_t slot = slot_of_[pid];
  if (slot != kNoSlot) {
    ++stats_.buffer_hits;
    if (buffer_hits_metric_ != nullptr) buffer_hits_metric_->Add();
    result.data = SlotBytes(slot);
    result.buffer_hit = true;
    result.slot = slot;
    return result;
  }

  GTS_RETURN_IF_ERROR(StageFromDevice(pid));

  const size_t d = DeviceOfPage(pid);
  const uint64_t page_size = graph_->config().page_size;
  result.slot = slot_of_[pid];
  result.data = SlotBytes(result.slot);
  result.buffer_hit = false;
  result.device_index = d;
  result.io_cost = devices_[d]->timing().ReadCost(page_size);
  return result;
}

Status PageStore::StageFromDevice(PageId pid) {
  if (!initialized_) {
    return Status::FailedPrecondition("PageStore::Init not called");
  }
  if (pid >= graph_->num_pages()) {
    return Status::InvalidArgument("page id out of range: " +
                                   std::to_string(pid));
  }
  if (Resident(pid)) {
    return Status::FailedPrecondition("page " + std::to_string(pid) +
                                      " already resident");
  }
  const uint64_t page_size = graph_->config().page_size;
  const size_t d = DeviceOfPage(pid);

  // A free slot always exists: the arena has a spare whenever MMBuf can
  // fill up before every page is resident.
  const uint32_t slot = free_slots_.back();
  GTS_RETURN_IF_ERROR(
      devices_[d]->Read(OffsetOfPage(pid), SlotBytes(slot), page_size));
  free_slots_.pop_back();
  slot_of_[pid] = slot;
  page_of_[slot] = pid;
  if (pinned_ < max_resident_ - ring_) {
    ++pinned_;
  } else {
    fifo_.push_back(slot);
    // The oldest ring page goes, never the page just read: the caller
    // holds a pointer to it.
    if (fifo_.size() > ring_) {
      FreeSlot(fifo_.front());
      fifo_.pop_front();
    }
  }

  ++stats_.device_reads;
  stats_.bytes_read += page_size;
  if (device_reads_metric_ != nullptr) {
    device_reads_metric_->Add();
    bytes_read_metric_->Add(page_size);
  }
  devices_[d]->NoteRead(page_size);
  return Status::OK();
}

uint64_t PageStore::DevicePageBytes(size_t d) const {
  // Pages are striped pid -> pid % n, so device d holds every pid in
  // {d, d + n, ...} below num_pages, packed contiguously from offset 0.
  const uint64_t num_pages = graph_->num_pages();
  const uint64_t n = devices_.size();
  const uint64_t pages_on_d = num_pages > d ? (num_pages - d - 1) / n + 1 : 0;
  return pages_on_d * graph_->config().page_size;
}

Status PageStore::WriteDevice(size_t d, uint64_t offset, const uint8_t* data,
                              uint64_t len) {
  if (!initialized_) {
    return Status::FailedPrecondition("PageStore::Init not called");
  }
  if (d >= devices_.size()) {
    return Status::InvalidArgument("device index out of range: " +
                                   std::to_string(d));
  }
  if (offset < DevicePageBytes(d)) {
    return Status::InvalidArgument(
        "out-of-band write at offset " + std::to_string(offset) +
        " overlaps the striped page region on device " + std::to_string(d));
  }
  return devices_[d]->Write(offset, data, len);
}

Status PageStore::RewritePage(PageId pid, const uint8_t* data, uint64_t len) {
  if (!initialized_) {
    return Status::FailedPrecondition("PageStore::Init not called");
  }
  if (pid >= graph_->num_pages()) {
    return Status::InvalidArgument("page id out of range: " +
                                   std::to_string(pid));
  }
  const uint64_t page_size = graph_->config().page_size;
  if (len != page_size) {
    return Status::InvalidArgument("page rewrite must cover a whole page");
  }
  GTS_RETURN_IF_ERROR(devices_[DeviceOfPage(pid)]->Write(OffsetOfPage(pid),
                                                         data, len));
  if (Resident(pid)) {
    const uint32_t slot = slot_of_[pid];
    const auto in_ring = std::find(fifo_.begin(), fifo_.end(), slot);
    if (in_ring != fifo_.end()) {
      fifo_.erase(in_ring);
    } else {
      --pinned_;
    }
    FreeSlot(slot);
  }
  return Status::OK();
}

void PageStore::FreeSlot(uint32_t slot) {
  slot_of_[page_of_[slot]] = kNoSlot;
  page_of_[slot] = kInvalidPageId;
  free_slots_.push_back(slot);
}

namespace {
std::unique_ptr<PageStore> MakeUniformStore(const PagedGraph* graph, size_t n,
                                            DeviceTimingParams timing,
                                            const char* prefix,
                                            uint64_t buffer_capacity) {
  std::vector<std::unique_ptr<StorageDevice>> devices;
  devices.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    devices.push_back(std::make_unique<MemoryDevice>(
        std::string(prefix) + std::to_string(i), timing));
  }
  auto store = std::make_unique<PageStore>(graph, std::move(devices),
                                           buffer_capacity);
  GTS_CHECK_OK(store->Init());
  return store;
}
}  // namespace

std::unique_ptr<PageStore> MakeInMemoryStore(const PagedGraph* graph) {
  return MakeUniformStore(graph, 1, DeviceTimingParams::Memory(), "mem",
                          /*buffer_capacity=*/~uint64_t{0});
}

std::unique_ptr<PageStore> MakeSsdStore(const PagedGraph* graph, size_t n,
                                        uint64_t buffer_capacity) {
  // Latency scaled like the rest of the repro machine (DESIGN.md Sec. 2).
  return MakeUniformStore(graph, n,
                          DeviceTimingParams::PcieSsd().Scaled(1024.0), "ssd",
                          buffer_capacity);
}

std::unique_ptr<PageStore> MakeHddStore(const PagedGraph* graph, size_t n,
                                        uint64_t buffer_capacity) {
  return MakeUniformStore(graph, n,
                          DeviceTimingParams::Hdd().Scaled(1024.0), "hdd",
                          buffer_capacity);
}

}  // namespace gts
