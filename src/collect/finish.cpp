#include "collect/finish.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>
#include <vector>

#include "core/thread_pool.h"

namespace bismark::collect {

/// One kind's producer and consumers, type-erased for the scheduler.
struct FinishPass::Stream {
  virtual ~Stream() = default;
  [[nodiscard]] virtual std::uint64_t rows() const = 0;
  [[nodiscard]] virtual std::size_t consumers() const = 0;
  /// Open the kind's RowReader; for a spilled kind: flush the logs and
  /// open one cursor per section.
  virtual void open() = 0;
  /// Fill batch slot `slot` with the next rows and return how many. Fewer
  /// than kReadBatchRows means the source is exhausted (and released).
  virtual std::size_t produce(std::size_t slot) = 0;
  virtual void consume(std::size_t consumer, std::size_t slot) = 0;
  virtual void end(std::size_t consumer) = 0;
};

template <typename T>
struct FinishPass::KindStream final : Stream {
  struct Consumer {
    BatchFn<T> on_batch;
    std::function<void()> on_end;
  };

  explicit KindStream(const DataRepository& r) : repo(r) {}

  [[nodiscard]] std::uint64_t rows() const override { return repo.row_count<T>(); }
  [[nodiscard]] std::size_t consumers() const override { return sinks.size(); }

  void open() override { reader = std::make_unique<RowReader<T>>(repo); }

  std::size_t produce(std::size_t slot) override {
    batches[slot] = reader->read(storage[slot]);
    const std::size_t n = batches[slot].size();
    if (n < kReadBatchRows) reader.reset();  // close a spilled kind's cursors early
    return n;
  }

  void consume(std::size_t consumer, std::size_t slot) override {
    sinks[consumer].on_batch(batches[slot]);
  }

  void end(std::size_t consumer) override {
    if (sinks[consumer].on_end) sinks[consumer].on_end();
  }

  const DataRepository& repo;
  std::vector<Consumer> sinks;
  std::unique_ptr<RowReader<T>> reader;
  std::array<std::vector<T>, kQueueBatches> storage;  // decoded rows, per slot
  std::array<std::span<const T>, kQueueBatches> batches;
};

/// Hands ready steps to worker threads (see finish.h). Every field below
/// is guarded by mu_; a step itself runs unlocked, and the slot it touches
/// is owned by that step until it completes.
class FinishPass::Scheduler {
 public:
  Scheduler(std::vector<Stream*> streams, std::size_t max_open) : max_open_(max_open) {
    for (Stream* s : streams) {
      State st;
      st.stream = s;
      st.next.assign(s->consumers(), 0);
      st.busy.assign(s->consumers(), false);
      st.ended.assign(s->consumers(), false);
      states_.push_back(std::move(st));
    }
  }

  Scheduler(const Scheduler&) = delete;  // worker threads hold `this`
  Scheduler& operator=(const Scheduler&) = delete;

  /// Run steps until the pass is done or has failed. Never throws: a
  /// step's exception is recorded for rethrow().
  void work() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      Step step;
      cv_.wait(lock, [&] { return stopped() || pick(&step); });
      if (stopped()) return;
      lock.unlock();
      std::size_t rows = 0;
      std::exception_ptr failure;
      try {
        rows = run(step);
      } catch (...) {
        failure = std::current_exception();
      }
      lock.lock();
      if (failure != nullptr) {
        if (error_ == nullptr) error_ = failure;
      } else {
        complete(step, rows);
      }
      cv_.notify_all();
    }
  }

  void rethrow() const {
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

 private:
  struct State {
    Stream* stream{nullptr};
    bool opening{false};
    bool opened{false};
    bool producing{false};
    bool exhausted{false};
    std::size_t produced{0};  // batches published
    std::vector<std::size_t> next;  // per consumer: next batch to take
    std::vector<bool> busy;
    std::vector<bool> ended;
    std::size_t ended_count{0};
  };

  enum class Op { kOpen, kProduce, kConsume, kEnd };
  struct Step {
    Op op{Op::kOpen};
    State* state{nullptr};
    std::size_t consumer{0};
    std::size_t slot{0};  // batch slot a produce or consume step owns
  };

  /// Choose the next ready step and mark it taken. States are ordered
  /// largest kind first; within a kind, consumers drain before the
  /// producer refills.
  bool pick(Step* step) {
    for (State& st : states_) {
      if (!st.opened || st.ended_count == st.next.size()) continue;
      std::size_t slowest = st.produced;
      for (std::size_t c = 0; c < st.next.size(); ++c) {
        slowest = std::min(slowest, st.next[c]);
        if (st.busy[c] || st.ended[c]) continue;
        if (st.next[c] < st.produced || st.exhausted) {
          st.busy[c] = true;
          *step = {st.next[c] < st.produced ? Op::kConsume : Op::kEnd, &st, c,
                   st.next[c] % kQueueBatches};
          return true;
        }
      }
      if (!st.exhausted && !st.producing && st.produced - slowest < kQueueBatches) {
        st.producing = true;
        *step = {Op::kProduce, &st, 0, st.produced % kQueueBatches};
        return true;
      }
    }
    if (open_ >= max_open_) return false;
    for (State& st : states_) {
      if (st.opened || st.opening) continue;
      st.opening = true;
      ++open_;
      *step = {Op::kOpen, &st, 0, 0};
      return true;
    }
    return false;
  }

  bool stopped() const { return error_ != nullptr || finished_ == states_.size(); }

  static std::size_t run(const Step& step) {
    Stream& stream = *step.state->stream;
    switch (step.op) {
      case Op::kOpen:
        stream.open();
        return 0;
      case Op::kProduce:
        return stream.produce(step.slot);
      case Op::kConsume:
        stream.consume(step.consumer, step.slot);
        return 0;
      case Op::kEnd:
        stream.end(step.consumer);
        return 0;
    }
    return 0;
  }

  void complete(const Step& step, std::size_t rows) {
    State& st = *step.state;
    switch (step.op) {
      case Op::kOpen:
        st.opening = false;
        st.opened = true;
        break;
      case Op::kProduce:
        st.producing = false;
        if (rows > 0) ++st.produced;
        if (rows < kReadBatchRows) st.exhausted = true;
        break;
      case Op::kConsume:
        st.busy[step.consumer] = false;
        ++st.next[step.consumer];
        break;
      case Op::kEnd:
        st.busy[step.consumer] = false;
        st.ended[step.consumer] = true;
        if (++st.ended_count == st.next.size()) {
          --open_;
          ++finished_;
        }
        break;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<State> states_;
  std::size_t max_open_;
  std::size_t open_{0};  // kinds opening or open and not yet finished
  std::size_t finished_{0};
  std::exception_ptr error_;
};

FinishPass::FinishPass(const DataRepository& repo, std::size_t workers)
    : repo_(repo), workers_(workers > 0 ? workers : 1) {}

FinishPass::~FinishPass() = default;

template <typename T>
void FinishPass::add(BatchFn<T> on_batch, std::function<void()> on_end) {
  std::unique_ptr<Stream>& slot = streams_[kRecordIndexOf<T>];
  if (slot == nullptr) slot = std::make_unique<KindStream<T>>(repo_);
  static_cast<KindStream<T>&>(*slot).sinks.push_back({std::move(on_batch), std::move(on_end)});
}

void FinishPass::run() {
  std::vector<Stream*> order;
  std::size_t steps_in_parallel = 0;  // producers plus consumers
  for (const auto& s : streams_) {
    if (s == nullptr) continue;
    order.push_back(s.get());
    steps_in_parallel += 1 + s->consumers();
  }
  // Largest kind first: it is the critical path. stable_sort keeps kind
  // order among equals.
  std::stable_sort(order.begin(), order.end(),
                   [](const Stream* a, const Stream* b) { return a->rows() > b->rows(); });
  Scheduler scheduler(order, workers_);
  const std::size_t threads = std::max<std::size_t>(1, std::min(workers_, steps_in_parallel));
  ThreadPool pool(static_cast<int>(threads));
  pool.parallel_for(threads, [&scheduler](std::size_t, int) { scheduler.work(); });
  scheduler.rethrow();
}

#define BISMARK_FINISH_INSTANTIATE(T) \
  template void FinishPass::add<T>(BatchFn<T>, std::function<void()>);
BISMARK_FOR_EACH_RECORD_KIND(BISMARK_FINISH_INSTANTIATE)
#undef BISMARK_FINISH_INSTANTIATE

}  // namespace bismark::collect
