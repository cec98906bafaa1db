// Fault injection for tests and benches, kept out of the serving classes: a
// FaultPlan holds one FaultCell (a cancellable delay and a forced failure)
// per (shard, replica) slot, and its Decorator() wraps each slot transport
// in a fault-injecting transport that reads the slot's cell.
//
//   FaultPlan faults;
//   ShardedCloudServer cluster(std::move(db), faults.Decorator());
//   faults.Cell(0, 0)->delay_ms = 50;  // replica (0,0) straggles
//   faults.Cell(2, 1)->fail = true;    // replica (2,1) fails every dispatch
//
// Cells are keyed by slot, not by transport object, so a fault on (s, r)
// survives CompactShard(s), and a shard that a split appends starts clean.

#ifndef PPANNS_NET_FAULT_INJECTING_TRANSPORT_H_
#define PPANNS_NET_FAULT_INJECTING_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <memory>

#include "net/shard_transport.h"

namespace ppanns {

/// The injected faults of one slot; atomic, so they may change mid-run.
struct FaultCell {
  /// Slept before every dispatch in 1 ms slices; a lost hedge, a CANCEL
  /// frame or an expired deadline wakes the dispatch at the next slice.
  std::atomic<int> delay_ms{0};
  /// Every dispatch fails with IOError (after the delay) while Healthy()
  /// stays true — the case the scatter engine fails over.
  std::atomic<bool> fail{false};
};

/// One FaultCell per slot, created on first use. Copies of a plan and the
/// decorators it made share the cells, so it may die before its servers.
class FaultPlan {
 public:
  FaultPlan();
  std::shared_ptr<FaultCell> Cell(std::size_t shard, std::size_t replica);
  TransportDecorator Decorator() const;

 private:
  struct Cells;
  std::shared_ptr<Cells> cells_;
};

}  // namespace ppanns

#endif  // PPANNS_NET_FAULT_INJECTING_TRANSPORT_H_
