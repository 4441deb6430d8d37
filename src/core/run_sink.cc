#include "core/run_sink.h"

#include <algorithm>

#include "io/range_writable_file.h"

namespace twrs {

namespace {

bool StreamIsReverse(RunStream stream) {
  return stream == kStream2 || stream == kStream4;
}

const char* StreamSuffix(RunStream stream) {
  switch (stream) {
    case kStream1:
      return "s1";
    case kStream2:
      return "s2";
    case kStream3:
      return "s3";
    case kStream4:
      return "s4";
  }
  return "s?";
}

}  // namespace

// ---------------------------------------------------------------- Counting

Status CountingRunSink::BeginRun() {
  if (in_run_) return Status::InvalidArgument("BeginRun inside a run");
  in_run_ = true;
  current_length_ = 0;
  have_bounds_ = false;
  return Status::OK();
}

void CountingRunSink::NoteBounds(Key lo, Key hi) {
  if (!have_bounds_) {
    min_key_ = lo;
    max_key_ = hi;
    have_bounds_ = true;
  } else {
    min_key_ = std::min(min_key_, lo);
    max_key_ = std::max(max_key_, hi);
  }
}

Status CountingRunSink::AppendSorted(RunStream stream, const Key* keys,
                                     size_t n) {
  if (!in_run_) return Status::InvalidArgument("Append outside a run");
  if (n == 0) return Status::OK();
  current_length_ += n;
  const Key first = keys[0];
  const Key last = keys[n - 1];
  if (StreamIsReverse(stream)) {
    NoteBounds(last, first);
  } else {
    NoteBounds(first, last);
  }
  return Status::OK();
}

Status CountingRunSink::EndRun() {
  if (!in_run_) return Status::InvalidArgument("EndRun outside a run");
  in_run_ = false;
  if (current_length_ == 0) return Status::OK();  // empty runs are dropped
  RunInfo info;
  info.length = current_length_;
  info.min_key = min_key_;
  info.max_key = max_key_;
  runs_.push_back(std::move(info));
  return Status::OK();
}

Status CountingRunSink::Finish() { return Status::OK(); }

// -------------------------------------------------------------- Collecting

Status CollectingRunSink::BeginRun() {
  if (in_run_) return Status::InvalidArgument("BeginRun inside a run");
  in_run_ = true;
  for (auto& s : streams_) s.clear();
  return Status::OK();
}

Status CollectingRunSink::AppendSorted(RunStream stream, const Key* keys,
                                       size_t n) {
  if (!in_run_) return Status::InvalidArgument("Append outside a run");
  if (n == 0) return Status::OK();
  std::vector<Key>& s = streams_[stream];
  const bool decreasing = StreamIsReverse(stream);
  Key prev = s.empty() ? keys[0] : s.back();
  for (size_t i = 0; i < n; ++i) {
    if (decreasing ? keys[i] > prev : keys[i] < prev) {
      return Status::InvalidArgument(std::string("stream ordering violated: ") +
                                     StreamSuffix(stream));
    }
    prev = keys[i];
  }
  s.insert(s.end(), keys, keys + n);
  return Status::OK();
}

Status CollectingRunSink::EndRun() {
  if (!in_run_) return Status::InvalidArgument("EndRun outside a run");
  in_run_ = false;
  // Assemble ascending: reverse(stream4) + stream3 + reverse(stream2) +
  // stream1 (§4.1 / conference paper §3).
  std::vector<Key> run;
  run.insert(run.end(), streams_[kStream4].rbegin(), streams_[kStream4].rend());
  run.insert(run.end(), streams_[kStream3].begin(), streams_[kStream3].end());
  run.insert(run.end(), streams_[kStream2].rbegin(), streams_[kStream2].rend());
  run.insert(run.end(), streams_[kStream1].begin(), streams_[kStream1].end());
  if (run.empty()) return Status::OK();
  RunInfo info;
  info.length = run.size();
  info.min_key = run.front();
  info.max_key = run.back();
  runs_.push_back(std::move(info));
  collected_.push_back(std::move(run));
  return Status::OK();
}

Status CollectingRunSink::Finish() { return Status::OK(); }

// -------------------------------------------------------------------- File

FileRunSink::FileRunSink(Env* env, std::string dir, std::string prefix,
                         FileRunSinkOptions options)
    : env_(env),
      dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      options_(options) {}

std::string FileRunSink::StreamPath(uint64_t run, RunStream stream) const {
  return dir_ + "/" + prefix_ + "_run" + std::to_string(run) + "_" +
         StreamSuffix(stream);
}

Status FileRunSink::BeginRun() {
  if (in_run_) return Status::InvalidArgument("BeginRun inside a run");
  in_run_ = true;
  have_bounds_ = false;
  return Status::OK();
}

void FileRunSink::NoteBounds(Key lo, Key hi) {
  if (!have_bounds_) {
    min_key_ = lo;
    max_key_ = hi;
    have_bounds_ = true;
  } else {
    min_key_ = std::min(min_key_, lo);
    max_key_ = std::max(max_key_, hi);
  }
}

Status FileRunSink::OpenWriter(RunStream stream) {
  if (StreamIsReverse(stream)) {
    auto& writer = reverse_[stream];
    if (writer != nullptr) return Status::OK();
    writer = std::make_unique<ReverseRunWriter>(
        env_, StreamPath(run_index_, stream), options_.reverse);
    return writer->status();
  }
  if (forward_[stream] != nullptr) return Status::OK();
  return MakeRecordWriter(env_, StreamPath(run_index_, stream),
                          options_.block_bytes, &forward_[stream],
                          options_.flush_histogram);
}

Status FileRunSink::AppendSorted(RunStream stream, const Key* keys,
                                 size_t n) {
  if (!in_run_) return Status::InvalidArgument("Append outside a run");
  if (n == 0) return Status::OK();
  TWRS_RETURN_IF_ERROR(OpenWriter(stream));
  if (StreamIsReverse(stream)) {
    TWRS_RETURN_IF_ERROR(reverse_[stream]->AppendBatch(keys, n));
    NoteBounds(keys[n - 1], keys[0]);
    return Status::OK();
  }
  NoteBounds(keys[0], keys[n - 1]);
  return forward_[stream]->AppendBatch(keys, n);
}

Status FileRunSink::EndRun() {
  if (!in_run_) return Status::InvalidArgument("EndRun outside a run");
  in_run_ = false;
  RunInfo info;
  // Ascending read order: 4, 3, 2, 1.
  for (RunStream stream : {kStream4, kStream3, kStream2, kStream1}) {
    if (StreamIsReverse(stream)) {
      auto& writer = reverse_[stream];
      if (writer == nullptr) continue;
      TWRS_RETURN_IF_ERROR(writer->Finish());
      RunSegment seg;
      seg.path = StreamPath(run_index_, stream);
      seg.reverse = true;
      seg.count = writer->count();
      seg.num_files = writer->num_files();
      info.length += seg.count;
      info.segments.push_back(std::move(seg));
      writer.reset();
    } else {
      auto& writer = forward_[stream];
      if (writer == nullptr) continue;
      TWRS_RETURN_IF_ERROR(writer->Finish());
      RunSegment seg;
      seg.path = StreamPath(run_index_, stream);
      seg.reverse = false;
      seg.count = writer->count();
      info.length += seg.count;
      info.segments.push_back(std::move(seg));
      writer.reset();
    }
  }
  ++run_index_;
  if (info.length == 0) return Status::OK();
  info.min_key = min_key_;
  info.max_key = max_key_;
  runs_.push_back(std::move(info));
  return Status::OK();
}

Status FileRunSink::Finish() {
  if (in_run_) return Status::InvalidArgument("Finish inside a run");
  return Status::OK();
}

}  // namespace twrs
