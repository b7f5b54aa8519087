#include "perfbench/src/trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

double NowMs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   epoch)
      .count();
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:
      return "op";
    case SpanKind::kUpload:
      return "cloud.upload";
    case SpanKind::kDownload:
      return "cloud.download";
    case SpanKind::kList:
      return "cloud.list";
    case SpanKind::kDelete:
      return "cloud.delete";
    case SpanKind::kSelect:
      return "opt.select";
  }
  return "?";
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool WriteSpansTsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "op\tparent\tname\tcsp\tstart_ms\tend_ms\tbytes\tlisted\tok\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%s\t%d\t%.6f\t%.6f\t%llu\t%llu\t%d\n",
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(), s.csp,
                 s.start_ms, s.end_ms, static_cast<unsigned long long>(s.bytes),
                 static_cast<unsigned long long>(s.listed), s.ok ? 1 : 0);
  }
  return std::fclose(f) == 0;
}

void TracingConnector::Record(SpanKind kind, uint64_t op, double start_ms,
                              uint64_t bytes, uint64_t listed, bool ok) {
  Span span;
  span.kind = kind;
  span.name = SpanKindName(kind);
  span.op = op;
  span.parent = op;
  span.csp = index_;
  span.start_ms = start_ms;
  span.end_ms = NowMs();
  span.bytes = bytes;
  span.listed = listed;
  span.ok = ok;
  log_->Add(std::move(span));
}

cyrus::Status TracingConnector::Authenticate(const cyrus::Credentials& credentials) {
  return inner_->Authenticate(credentials);
}

cyrus::Result<std::vector<cyrus::ObjectInfo>> TracingConnector::List(
    std::string_view prefix) {
  if (!log_->enabled()) {
    return inner_->List(prefix);
  }
  const uint64_t op = log_->current_op();
  const double start = NowMs();
  auto result = inner_->List(prefix);
  Record(SpanKind::kList, op, start, 0, result.ok() ? result->size() : 0, result.ok());
  return result;
}

cyrus::Status TracingConnector::Upload(std::string_view name, cyrus::ByteSpan data) {
  if (!log_->enabled()) {
    return inner_->Upload(name, data);
  }
  const uint64_t op = log_->current_op();
  const double start = NowMs();
  cyrus::Status status = inner_->Upload(name, data);
  Record(SpanKind::kUpload, op, start, data.size(), 0, status.ok());
  return status;
}

cyrus::Result<cyrus::Bytes> TracingConnector::Download(std::string_view name) {
  if (!log_->enabled()) {
    return inner_->Download(name);
  }
  const uint64_t op = log_->current_op();
  const double start = NowMs();
  auto result = inner_->Download(name);
  Record(SpanKind::kDownload, op, start, result.ok() ? result->size() : 0, 0,
         result.ok());
  return result;
}

cyrus::Status TracingConnector::Delete(std::string_view name) {
  if (!log_->enabled()) {
    return inner_->Delete(name);
  }
  const uint64_t op = log_->current_op();
  const double start = NowMs();
  cyrus::Status status = inner_->Delete(name);
  Record(SpanKind::kDelete, op, start, 0, 0, status.ok());
  return status;
}

cyrus::Result<cyrus::DownloadAssignment> TimedSelector::Select(
    const cyrus::DownloadProblem& problem) {
  if (!log_->enabled()) {
    return inner_.Select(problem);
  }
  const uint64_t op = log_->current_op();
  const double start = NowMs();
  auto result = inner_.Select(problem);
  Span span;
  span.kind = SpanKind::kSelect;
  span.name = SpanKindName(SpanKind::kSelect);
  span.op = op;
  span.parent = op;
  span.start_ms = start;
  span.end_ms = NowMs();
  span.ok = result.ok();
  log_->Add(std::move(span));
  return result;
}

}  // namespace perfbench
