// Benchmark-side tracing: every span is recorded from the benchmark's own
// code around calls into the program's public interfaces, never from
// inside src/.
//
//   - TracingConnector decorates a CloudConnector and records one span per
//     Upload / Download / List / Delete, tagged with the client operation
//     that was in progress when the call started.
//   - TimedSelector wraps the client's OptimalDownloadSelector and records
//     one span per Select.
//   - Op spans (one per CyrusClient call) are recorded by the harness.
//
// Spans live in memory (SpanLog) and are written out once, when the run
// ends. Recording is switched per operation so that traced and untraced
// calls can alternate within one run; a disabled log records nothing.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cloud/connector.h"
#include "src/opt/download_selector.h"

namespace perfbench {

// Milliseconds on the steady clock since the first call in this process.
double NowMs();

enum class SpanKind { kOp, kUpload, kDownload, kList, kDelete, kSelect };

const char* SpanKindName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kOp;
  std::string name;      // op spans: "put", "get", ...; others: kind name
  uint64_t op = 0;       // op id (op spans: their own id)
  uint64_t parent = 0;   // causing op id (0 for op spans, which are roots)
  int csp = -1;          // connector index for cloud spans
  double start_ms = 0.0;
  double end_ms = 0.0;
  uint64_t bytes = 0;    // payload moved (upload/download)
  uint64_t listed = 0;   // objects returned (list)
  bool ok = true;
};

class SpanLog {
 public:
  // Recording switch, read by connector calls on pool threads.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // The op id later spans are attributed to (0 = none in progress).
  void set_current_op(uint64_t op) { current_op_.store(op, std::memory_order_relaxed); }
  uint64_t current_op() const { return current_op_.load(std::memory_order_relaxed); }

  void Add(Span span);
  std::vector<Span> Snapshot() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> current_op_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Writes one tab-separated line per span:
//   op  parent  name  csp  start_ms  end_ms  bytes  listed  ok
bool WriteSpansTsv(const std::string& path, const std::vector<Span>& spans);

class TracingConnector : public cyrus::CloudConnector {
 public:
  TracingConnector(std::shared_ptr<cyrus::CloudConnector> inner, int index, SpanLog* log)
      : inner_(std::move(inner)), index_(index), log_(log) {}

  std::string_view id() const override { return inner_->id(); }
  cyrus::Status Authenticate(const cyrus::Credentials& credentials) override;
  cyrus::Result<std::vector<cyrus::ObjectInfo>> List(std::string_view prefix) override;
  cyrus::Status Upload(std::string_view name, cyrus::ByteSpan data) override;
  cyrus::Result<cyrus::Bytes> Download(std::string_view name) override;
  cyrus::Status Delete(std::string_view name) override;

 private:
  void Record(SpanKind kind, uint64_t op, double start_ms, uint64_t bytes,
              uint64_t listed, bool ok);

  std::shared_ptr<cyrus::CloudConnector> inner_;
  int index_;
  SpanLog* log_;
};

class TimedSelector : public cyrus::DownloadSelector {
 public:
  explicit TimedSelector(SpanLog* log) : log_(log) {}

  std::string_view name() const override { return inner_.name(); }
  cyrus::Result<cyrus::DownloadAssignment> Select(
      const cyrus::DownloadProblem& problem) override;

 private:
  cyrus::OptimalDownloadSelector inner_;
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
