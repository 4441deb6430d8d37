#include "workload/generators.h"

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace twrs {

namespace {

// Adds the paper's per-record +U[1,1000] noise to a base sequence (§5.2).
class NoisySource : public RecordSource {
 public:
  NoisySource(std::unique_ptr<RecordSource> base, uint64_t seed)
      : base_(std::move(base)), rng_(seed) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    const Status s = base_->Read(out, cap, n);
    for (size_t i = 0; i < *n; ++i) {
      out[i] += static_cast<Key>(1 + rng_.Uniform(1000));
    }
    return s;
  }

 private:
  std::unique_ptr<RecordSource> base_;
  Random rng_;
};

class SortedSource : public RecordSource {
 public:
  SortedSource(uint64_t n, Key stride) : n_(n), stride_(stride) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    *n = std::min<uint64_t>(cap, n_ - i_);
    for (size_t j = 0; j < *n; ++j) out[j] = static_cast<Key>(i_++) * stride_;
    return Status::OK();
  }

 private:
  uint64_t n_;
  Key stride_;
  uint64_t i_ = 0;
};

class ReverseSortedSource : public RecordSource {
 public:
  ReverseSortedSource(uint64_t n, Key stride) : n_(n), stride_(stride) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    *n = std::min<uint64_t>(cap, n_ - i_);
    for (size_t j = 0; j < *n; ++j, ++i_) {
      out[j] = static_cast<Key>(n_ - 1 - i_) * stride_;
    }
    return Status::OK();
  }

 private:
  uint64_t n_;
  Key stride_;
  uint64_t i_ = 0;
};

// Triangle wave (Fig 5.1c): `sections` alternating ascending and descending
// ramps, each spanning the full key range.
class AlternatingSource : public RecordSource {
 public:
  AlternatingSource(uint64_t n, uint64_t sections, Key stride)
      : n_(n),
        section_len_(std::max<uint64_t>(1, n / std::max<uint64_t>(1, sections))),
        stride_(stride) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    *n = std::min<uint64_t>(cap, n_ - i_);
    // Scale the in-section position onto the full [0, n) key span.
    const uint64_t denominator = std::max<uint64_t>(1, section_len_ - 1);
    for (size_t j = 0; j < *n; ++j, ++i_) {
      const uint64_t section = i_ / section_len_;
      const uint64_t pos = i_ % section_len_;
      uint64_t level = pos * (n_ - 1) / denominator;
      if (section % 2 == 1) level = (n_ - 1) - level;  // descending section
      out[j] = static_cast<Key>(level) * stride_;
    }
    return Status::OK();
  }

 private:
  uint64_t n_;
  uint64_t section_len_;
  Key stride_;
  uint64_t i_ = 0;
};

class RandomSource : public RecordSource {
 public:
  RandomSource(uint64_t n, Key stride, uint64_t seed)
      : n_(n), range_(n * static_cast<uint64_t>(stride)), rng_(seed) {}

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    *n = std::min<uint64_t>(cap, n_ - i_);
    const uint64_t range = std::max<uint64_t>(1, range_);
    for (size_t j = 0; j < *n; ++j) {
      out[j] = static_cast<Key>(rng_.Uniform(range));
    }
    i_ += *n;
    return Status::OK();
  }

 private:
  uint64_t n_;
  uint64_t range_;
  Random rng_;
  uint64_t i_ = 0;
};

// Interleaves a rising trend and a falling trend that *diverge* from a
// common split point (Fig 5.1e/f and the worked example of §4.5): the
// rising records walk up from the split, the falling ones walk down. With
// `up_every` = 2 the interleave is 1:1 (mixed balanced); with 4 it is 1:3
// (mixed imbalanced).
class MixedSource : public RecordSource {
 public:
  MixedSource(uint64_t n, uint64_t up_every, Key stride)
      : n_(n), up_every_(up_every), stride_(stride) {
    // The falling branch owns (up_every-1)/up_every of the records, hence
    // of the key span below the split; the rising branch covers the rest.
    const uint64_t down_records = n - n / up_every_;
    split_ = static_cast<Key>(down_records) * stride_;
  }

 protected:
  Status ReadSome(Key* out, size_t cap, size_t* n) override {
    *n = std::min<uint64_t>(cap, n_ - i_);
    for (size_t j = 0; j < *n; ++j, ++i_) {
      if (i_ % up_every_ == 0) {
        out[j] = split_ + static_cast<Key>(up_count_++) * stride_;
      } else {
        out[j] = split_ - static_cast<Key>(++down_count_) * stride_;
      }
    }
    return Status::OK();
  }

 private:
  uint64_t n_;
  uint64_t up_every_;
  Key stride_;
  Key split_ = 0;
  uint64_t i_ = 0;
  uint64_t up_count_ = 0;
  uint64_t down_count_ = 0;
};

}  // namespace

const char* DatasetName(Dataset dataset) {
  switch (dataset) {
    case Dataset::kSorted:
      return "sorted";
    case Dataset::kReverseSorted:
      return "reverse-sorted";
    case Dataset::kAlternating:
      return "alternating";
    case Dataset::kRandom:
      return "random";
    case Dataset::kMixed:
      return "mixed";
    case Dataset::kMixedImbalanced:
      return "mixed-imbalanced";
  }
  return "?";
}

std::unique_ptr<RecordSource> MakeWorkload(Dataset dataset,
                                           const WorkloadOptions& options) {
  std::unique_ptr<RecordSource> base;
  switch (dataset) {
    case Dataset::kSorted:
      base = std::make_unique<SortedSource>(options.num_records,
                                            options.stride);
      break;
    case Dataset::kReverseSorted:
      base = std::make_unique<ReverseSortedSource>(options.num_records,
                                                   options.stride);
      break;
    case Dataset::kAlternating:
      base = std::make_unique<AlternatingSource>(
          options.num_records, options.sections, options.stride);
      break;
    case Dataset::kRandom:
      base = std::make_unique<RandomSource>(options.num_records,
                                            options.stride, options.seed);
      break;
    case Dataset::kMixed:
      base = std::make_unique<MixedSource>(options.num_records, 2,
                                           options.stride);
      break;
    case Dataset::kMixedImbalanced:
      base = std::make_unique<MixedSource>(options.num_records, 4,
                                           options.stride);
      break;
  }
  if (options.add_noise) {
    // Different seed stream than RandomSource so random data and its noise
    // are not correlated.
    base = std::make_unique<NoisySource>(std::move(base),
                                         options.seed ^ 0x5851f42d4c957f2dULL);
  }
  return base;
}

FileRecordSource::FileRecordSource(Env* env, const std::string& path,
                                   size_t block_bytes)
    : reader_(env, path, block_bytes) {}

Status WriteWorkloadToFile(Env* env, Dataset dataset,
                           const WorkloadOptions& options,
                           const std::string& path) {
  std::unique_ptr<RecordSource> source = MakeWorkload(dataset, options);
  RecordWriter writer(env, path);
  TWRS_RETURN_IF_ERROR(writer.status());
  std::vector<Key> batch(RecordSource::kReadBatch);
  for (size_t n = batch.size(); n == batch.size();) {
    TWRS_RETURN_IF_ERROR(source->Read(batch.data(), batch.size(), &n));
    TWRS_RETURN_IF_ERROR(writer.AppendBatch(batch.data(), n));
  }
  return writer.Finish();
}

}  // namespace twrs
