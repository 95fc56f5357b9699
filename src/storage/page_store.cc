#include "storage/page_store.h"

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
  auto it = buffer_.find(pid);
  if (it != buffer_.end()) {
    TouchLru(pid);
    ++stats_.buffer_hits;
    if (buffer_hits_metric_ != nullptr) buffer_hits_metric_->Add();
    result.data = it->second.bytes.data();
    result.buffer_hit = true;
    return result;
  }

  GTS_RETURN_IF_ERROR(StageFromDevice(pid));

  const size_t d = DeviceOfPage(pid);
  const uint64_t page_size = graph_->config().page_size;
  result.data = buffer_.at(pid).bytes.data();
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
  if (buffer_.count(pid) > 0) {
    return Status::FailedPrecondition("page " + std::to_string(pid) +
                                      " already resident");
  }
  const uint64_t page_size = graph_->config().page_size;
  const size_t d = DeviceOfPage(pid);

  BufferedPage entry;
  entry.bytes.resize(page_size);
  GTS_RETURN_IF_ERROR(
      devices_[d]->Read(OffsetOfPage(pid), entry.bytes.data(), page_size));

  lru_.push_front(pid);
  entry.lru_it = lru_.begin();
  auto [ins, ok] = buffer_.emplace(pid, std::move(entry));
  GTS_CHECK(ok);
  (void)ins;
  buffered_bytes_ += page_size;
  EvictIfNeeded();

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
  auto it = buffer_.find(pid);
  if (it != buffer_.end()) {
    lru_.erase(it->second.lru_it);
    buffer_.erase(it);
    buffered_bytes_ -= page_size;
  }
  return Status::OK();
}

void PageStore::TouchLru(PageId pid) {
  auto it = buffer_.find(pid);
  lru_.erase(it->second.lru_it);
  lru_.push_front(pid);
  it->second.lru_it = lru_.begin();
}

void PageStore::EvictIfNeeded() {
  const uint64_t page_size = graph_->config().page_size;
  while (buffered_bytes_ > buffer_capacity_ && lru_.size() > 1) {
    // Never evict the most recent page: the caller holds a pointer to it.
    const PageId victim = lru_.back();
    lru_.pop_back();
    buffer_.erase(victim);
    buffered_bytes_ -= page_size;
  }
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
