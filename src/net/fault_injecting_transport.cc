#include "net/fault_injecting_transport.h"

#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

namespace ppanns {

namespace {

void InterruptibleDelay(int delay_ms, SearchContext* ctx) {
  for (int slice = 0; slice < delay_ms; ++slice) {
    if (ctx != nullptr && ctx->ShouldStop(ctx->stats.nodes_visited)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Applies one slot's FaultCell, then forwards to the slot's own transport.
class FaultInjectingTransport final : public ShardTransport {
 public:
  FaultInjectingTransport(std::unique_ptr<ShardTransport> inner,
                          std::shared_ptr<const FaultCell> cell)
      : inner_(std::move(inner)), cell_(std::move(cell)) {}

  Status Filter(const QueryToken& token, const ShardFilterOptions& options,
                SearchContext* ctx, ShardFilterResult* out) const override {
    InterruptibleDelay(cell_->delay_ms.load(std::memory_order_acquire), ctx);
    if (cell_->fail.load(std::memory_order_acquire)) {
      return Status::IOError("injected dispatch failure");
    }
    return inner_->Filter(token, options, ctx, out);
  }
  bool Healthy() const override { return inner_->Healthy(); }
  bool remote() const override { return inner_->remote(); }

 private:
  std::unique_ptr<ShardTransport> inner_;
  std::shared_ptr<const FaultCell> cell_;
};

}  // namespace

struct FaultPlan::Cells {
  std::mutex mu;
  std::map<std::pair<std::size_t, std::size_t>, std::shared_ptr<FaultCell>>
      by_slot;  // guarded by mu
};

FaultPlan::FaultPlan() : cells_(std::make_shared<Cells>()) {}

std::shared_ptr<FaultCell> FaultPlan::Cell(std::size_t shard,
                                           std::size_t replica) {
  std::lock_guard<std::mutex> lock(cells_->mu);
  std::shared_ptr<FaultCell>& cell = cells_->by_slot[{shard, replica}];
  if (cell == nullptr) cell = std::make_shared<FaultCell>();
  return cell;
}

TransportDecorator FaultPlan::Decorator() const {
  return [plan = *this](std::size_t shard, std::size_t replica,
                        std::unique_ptr<ShardTransport> inner) mutable
             -> std::unique_ptr<ShardTransport> {
    return std::make_unique<FaultInjectingTransport>(std::move(inner),
                                                     plan.Cell(shard, replica));
  };
}

}  // namespace ppanns
