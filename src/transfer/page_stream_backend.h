// The paper's transfer path: whole slotted pages at the c2 streaming
// bandwidth. This backend is the extracted-but-unchanged pre-refactor
// code; its kH2DStream ops are byte-identical to the inline engine sites
// it replaced (the fig4 golden-trace cmp and the dispatch bit-identity
// suite hold across the extraction).
#ifndef GTS_TRANSFER_PAGE_STREAM_BACKEND_H_
#define GTS_TRANSFER_PAGE_STREAM_BACKEND_H_

#include <utility>

#include "transfer/transfer_backend.h"

namespace gts {
namespace transfer {

class PageStreamBackend : public TransferBackend {
 public:
  explicit PageStreamBackend(Env env);

  std::string_view name() const override { return "page_stream"; }
  TransferMode mode() const override { return TransferMode::kPageStream; }
  TransferMode pass_mode() const override {
    return TransferMode::kPageStream;
  }

  /// Every pass streams whole pages: nothing to resolve.
  void BeginPass(const PassInfo&) override {}
  Result<StagedPage> Stage(const StageRequest& req) override;

 protected:
  /// The pre-refactor staging body: Acquire + one kH2DStream page op.
  Result<StagedPage> StagePageStream(const StageRequest& req);

  Env env_;
  obs::Counter* pages_counter_ = nullptr;  ///< transfer.pages
  obs::Counter* bytes_counter_ = nullptr;  ///< transfer.bytes
};

}  // namespace transfer
}  // namespace gts

#endif  // GTS_TRANSFER_PAGE_STREAM_BACKEND_H_
