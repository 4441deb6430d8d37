#include "timing_env.h"

#include <utility>

namespace twrs {
namespace perfbench {

namespace {

class TimedWritableFile : public WritableFile {
 public:
  TimedWritableFile(TimingEnv* env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(const void* data, size_t n) override {
    env_->CountWrite();
    return env_->Timed(TimingEnv::kWrite,
                       [&] { return base_->Append(data, n); });
  }
  Status Sync() override {
    return env_->Timed(TimingEnv::kSync, [&] { return base_->Sync(); });
  }
  Status Close() override {
    return env_->Timed(TimingEnv::kWrite, [&] { return base_->Close(); });
  }

 private:
  TimingEnv* const env_;
  std::unique_ptr<WritableFile> base_;
};

class TimedSequentialFile : public SequentialFile {
 public:
  TimedSequentialFile(TimingEnv* env, std::unique_ptr<SequentialFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Read(void* out, size_t n, size_t* bytes_read) override {
    env_->CountRead();
    return env_->Timed(TimingEnv::kRead,
                       [&] { return base_->Read(out, n, bytes_read); });
  }
  Status Skip(uint64_t n) override {
    return env_->Timed(TimingEnv::kRead, [&] { return base_->Skip(n); });
  }

 private:
  TimingEnv* const env_;
  std::unique_ptr<SequentialFile> base_;
};

class TimedRandomRWFile : public RandomRWFile {
 public:
  TimedRandomRWFile(TimingEnv* env, std::unique_ptr<RandomRWFile> base)
      : env_(env), base_(std::move(base)) {}

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    env_->CountWrite();
    return env_->Timed(TimingEnv::kWrite,
                       [&] { return base_->WriteAt(offset, data, n); });
  }
  Status ReadAt(uint64_t offset, void* out, size_t n) override {
    env_->CountRead();
    return env_->Timed(TimingEnv::kRead,
                       [&] { return base_->ReadAt(offset, out, n); });
  }
  Status Sync() override {
    return env_->Timed(TimingEnv::kSync, [&] { return base_->Sync(); });
  }
  Status Close() override {
    return env_->Timed(TimingEnv::kWrite, [&] { return base_->Close(); });
  }

 private:
  TimingEnv* const env_;
  std::unique_ptr<RandomRWFile> base_;
};

}  // namespace

Status TimingEnv::NewWritableFile(const std::string& path,
                                  std::unique_ptr<WritableFile>* out) {
  std::unique_ptr<WritableFile> file;
  TWRS_RETURN_IF_ERROR(
      Timed(kWrite, [&] { return base_->NewWritableFile(path, &file); }));
  files_opened_.fetch_add(1, std::memory_order_relaxed);
  *out = std::make_unique<TimedWritableFile>(this, std::move(file));
  return Status::OK();
}

Status TimingEnv::NewSequentialFile(const std::string& path,
                                    std::unique_ptr<SequentialFile>* out) {
  std::unique_ptr<SequentialFile> file;
  TWRS_RETURN_IF_ERROR(
      Timed(kRead, [&] { return base_->NewSequentialFile(path, &file); }));
  files_opened_.fetch_add(1, std::memory_order_relaxed);
  *out = std::make_unique<TimedSequentialFile>(this, std::move(file));
  return Status::OK();
}

Status TimingEnv::OpenRandom(Kind kind, OpenRandomFn open,
                             const std::string& path,
                             std::unique_ptr<RandomRWFile>* out) {
  std::unique_ptr<RandomRWFile> file;
  TWRS_RETURN_IF_ERROR(
      Timed(kind, [&] { return (base_->*open)(path, &file); }));
  files_opened_.fetch_add(1, std::memory_order_relaxed);
  *out = std::make_unique<TimedRandomRWFile>(this, std::move(file));
  return Status::OK();
}

Status TimingEnv::NewRandomRWFile(const std::string& path,
                                  std::unique_ptr<RandomRWFile>* out) {
  return OpenRandom(kWrite, &Env::NewRandomRWFile, path, out);
}

Status TimingEnv::ReopenRandomRWFile(const std::string& path,
                                     std::unique_ptr<RandomRWFile>* out) {
  return OpenRandom(kWrite, &Env::ReopenRandomRWFile, path, out);
}

Status TimingEnv::NewRandomReadFile(const std::string& path,
                                    std::unique_ptr<RandomRWFile>* out) {
  return OpenRandom(kRead, &Env::NewRandomReadFile, path, out);
}

bool TimingEnv::FileExists(const std::string& path) {
  return Timed(kRead, [&] { return base_->FileExists(path); });
}

Status TimingEnv::RemoveFile(const std::string& path) {
  return Timed(kWrite, [&] { return base_->RemoveFile(path); });
}

Status TimingEnv::GetFileSize(const std::string& path, uint64_t* size) {
  return Timed(kRead, [&] { return base_->GetFileSize(path, size); });
}

Status TimingEnv::CreateDirIfMissing(const std::string& path) {
  return Timed(kWrite, [&] { return base_->CreateDirIfMissing(path); });
}

Status TimingEnv::RemoveDir(const std::string& path) {
  return Timed(kWrite, [&] { return base_->RemoveDir(path); });
}

Status TimingEnv::ListDir(const std::string& path,
                          std::vector<std::string>* names) {
  return Timed(kRead, [&] { return base_->ListDir(path, names); });
}

}  // namespace perfbench
}  // namespace twrs
