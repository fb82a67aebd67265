// The finish pass: every kind read once, its canonical row stream fanned
// out to every output that wants it (DESIGN §11).
//
// A fleet run ends with up to four outputs that each read every kind in
// canonical order: the fleet summary, the public and the full-fidelity CSV
// export, and the v3 column snapshot. On a spilled repository each read is
// a one-level k-way merge of all the kind's sections, so one read per
// output would pay the merge once per output.
// A FinishPass reads each kind once and hands its rows, in order and in
// RowReader batches of at most kReadBatchRows, to every consumer
// registered for it. The one-output entry points (SummarizeFleet(repo),
// ExportPublicDatasets, ExportAllDatasets, SaveColumnSnapshot) are passes
// with one output.
//
// Scheduling. Each kind is a small dataflow: one producer (the kind's
// RowReader, collect/repository.h: the spill merge, a walk over resident
// rows or a stripe decode) filling a ring of kQueueBatches batch slots, and
// one sequential consumer per output. A step
// handles one batch. `workers` threads — the calling thread included, so
// `workers` 1 runs the pass inline — take ready steps, larger kinds first
// and consumers before producers, so at most `workers` threads are busy. A
// producer runs at most kQueueBatches batches ahead of its slowest
// consumer, and at most `workers` kinds are open at once: an open spilled
// kind holds one cursor per section, splitting 4 MiB of read-ahead up to
// 4096 sections, and shares the segment files' read descriptors with every
// other open kind.
//
// Determinism. A consumer sees every row of its kind once, in canonical
// order, one batch at a time and never concurrently with itself, so a
// sketch fed by one consumer is bit-identical at any worker count.
// Different consumers run concurrently and must not share mutable state.
//
// Failure. The first exception a step throws stops the pass: no new step
// starts, running ones finish, and run() rethrows it after every thread
// has stopped. A step only starts when its slot is ready, so no producer
// ever blocks on a full queue and a failure strands no thread.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "collect/repository.h"

namespace bismark::collect {

class FinishPass {
 public:
  /// Batches a producer may run ahead of its slowest consumer.
  static constexpr std::size_t kQueueBatches = 4;

  template <typename T>
  using BatchFn = std::function<void(std::span<const T>)>;

  /// `repo` must be finalised (finalize_deterministic_order) and outlive
  /// the pass. `workers` 0 is treated as 1.
  FinishPass(const DataRepository& repo, std::size_t workers);
  ~FinishPass();
  FinishPass(const FinishPass&) = delete;
  FinishPass& operator=(const FinishPass&) = delete;

  [[nodiscard]] const DataRepository& repository() const { return repo_; }

  /// Register one sequential consumer of kind T: `on_batch` sees every row
  /// in canonical order; `on_end`, if set, runs once after the last batch
  /// (also for a kind without rows). Register before run().
  template <typename T>
  void add(BatchFn<T> on_batch, std::function<void()> on_end = {});

  /// Read every kind that has a consumer exactly once and feed its
  /// consumers. Rethrows the first exception a step threw. Call once.
  void run();

 private:
  struct Stream;
  template <typename T>
  struct KindStream;
  class Scheduler;

  const DataRepository& repo_;
  std::size_t workers_;
  std::array<std::unique_ptr<Stream>, kRecordKinds> streams_;
};

}  // namespace bismark::collect
