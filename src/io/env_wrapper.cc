#include "io/env_wrapper.h"

#include <utility>

namespace twrs {

namespace {

/// What each handle wrapper knows of its handle: the Env whose hooks it
/// calls, how the handle was opened, and whether its close has fired.
class Hooks {
 public:
  Hooks(EnvWrapper* env, OpenMethod opened_by, const std::string& path)
      : env_(env), opened_by_(opened_by), path_(path) {}

  /// Runs one operation between the hooks. `base_call(&op)` is the base
  /// handle's call; a read sets op->bytes to the bytes it actually read.
  template <typename BaseCall>
  Status Run(IoOpKind kind, uint64_t offset, uint64_t bytes,
             BaseCall&& base_call) {
    IoOp op{kind, opened_by_, path_, offset, bytes};
    Status s = env_->Before(op);
    if (s.ok()) s = base_call(&op);
    env_->After(op, s);
    return s;
  }

  /// Close(): the first call fires the close; later calls go straight to
  /// the base, whose Close is idempotent.
  template <typename File>
  Status Close(File* base, uint64_t offset) {
    if (closed_) return base->Close();
    closed_ = true;
    return Run(IoOpKind::kClose, offset, 0,
               [base](IoOp*) { return base->Close(); });
  }

  /// Destroys the base handle, firing the close unless Close() did.
  template <typename File>
  void Destroy(std::unique_ptr<File>* base, uint64_t offset) {
    if (closed_) return;
    closed_ = true;
    const IoOp op{IoOpKind::kClose, opened_by_, path_, offset, 0};
    // A destroyed handle closes whatever Before answers.
    TWRS_IGNORE_STATUS(env_->Before(op));
    base->reset();
    env_->After(op, Status::OK());
  }

 private:
  EnvWrapper* env_;
  OpenMethod opened_by_;
  std::string path_;
  bool closed_ = false;
};

class HookedWritableFile : public WritableFile {
 public:
  HookedWritableFile(std::unique_ptr<WritableFile> base, Hooks hooks)
      : base_(std::move(base)), hooks_(std::move(hooks)) {}
  ~HookedWritableFile() override { hooks_.Destroy(&base_, offset_); }

  Status Append(const void* data, size_t n) override {
    TWRS_RETURN_IF_ERROR(hooks_.Run(IoOpKind::kWrite, offset_, n, [&](IoOp*) {
      return base_->Append(data, n);
    }));
    offset_ += n;
    return Status::OK();
  }

  Status Sync() override {
    return hooks_.Run(IoOpKind::kSync, offset_, 0,
                      [&](IoOp*) { return base_->Sync(); });
  }

  Status StartWriteback(uint64_t offset, uint64_t n) override {
    return hooks_.Run(IoOpKind::kWriteback, offset, n, [&](IoOp*) {
      return base_->StartWriteback(offset, n);
    });
  }

  Status Close() override { return hooks_.Close(base_.get(), offset_); }

 private:
  std::unique_ptr<WritableFile> base_;
  Hooks hooks_;
  uint64_t offset_ = 0;
};

class HookedSequentialFile : public SequentialFile {
 public:
  HookedSequentialFile(std::unique_ptr<SequentialFile> base, Hooks hooks)
      : base_(std::move(base)), hooks_(std::move(hooks)) {}
  ~HookedSequentialFile() override { hooks_.Destroy(&base_, offset_); }

  Status Read(void* out, size_t n, size_t* bytes_read) override {
    TWRS_RETURN_IF_ERROR(
        hooks_.Run(IoOpKind::kRead, offset_, n, [&](IoOp* op) {
          Status s = base_->Read(out, n, bytes_read);
          op->bytes = s.ok() ? *bytes_read : 0;
          return s;
        }));
    offset_ += *bytes_read;
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    TWRS_RETURN_IF_ERROR(base_->Skip(n));
    offset_ += n;
    return Status::OK();
  }

 private:
  std::unique_ptr<SequentialFile> base_;
  Hooks hooks_;
  uint64_t offset_ = 0;
};

class HookedRandomRWFile : public RandomRWFile {
 public:
  HookedRandomRWFile(std::unique_ptr<RandomRWFile> base, Hooks hooks)
      : base_(std::move(base)), hooks_(std::move(hooks)) {}
  ~HookedRandomRWFile() override { hooks_.Destroy(&base_, 0); }

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    return hooks_.Run(IoOpKind::kWrite, offset, n, [&](IoOp*) {
      return base_->WriteAt(offset, data, n);
    });
  }

  Status ReadAt(uint64_t offset, void* out, size_t n) override {
    return hooks_.Run(IoOpKind::kRead, offset, n, [&](IoOp*) {
      return base_->ReadAt(offset, out, n);
    });
  }

  Status Sync() override {
    return hooks_.Run(IoOpKind::kSync, 0, 0,
                      [&](IoOp*) { return base_->Sync(); });
  }

  Status StartWriteback(uint64_t offset, uint64_t n) override {
    return hooks_.Run(IoOpKind::kWriteback, offset, n, [&](IoOp*) {
      return base_->StartWriteback(offset, n);
    });
  }

  Status Close() override { return hooks_.Close(base_.get(), 0); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  Hooks hooks_;
};

/// Opens `path` through the base's `open` between the open hooks and
/// wraps the handle in a `Hooked`.
template <typename Hooked, typename File>
Status Open(EnvWrapper* env, OpenMethod method, const std::string& path,
            Status (Env::*open)(const std::string&, std::unique_ptr<File>*),
            std::unique_ptr<File>* out) {
  Hooks hooks(env, method, path);
  std::unique_ptr<File> file;
  TWRS_RETURN_IF_ERROR(hooks.Run(IoOpKind::kOpen, 0, 0, [&](IoOp*) {
    return (env->base()->*open)(path, &file);
  }));
  *out = std::make_unique<Hooked>(std::move(file), std::move(hooks));
  return Status::OK();
}

}  // namespace

Status EnvWrapper::NewWritableFile(const std::string& path,
                                   std::unique_ptr<WritableFile>* out) {
  return Open<HookedWritableFile>(this, OpenMethod::kNewWritableFile, path,
                                  &Env::NewWritableFile, out);
}

Status EnvWrapper::NewSequentialFile(const std::string& path,
                                     std::unique_ptr<SequentialFile>* out) {
  return Open<HookedSequentialFile>(this, OpenMethod::kNewSequentialFile,
                                    path, &Env::NewSequentialFile, out);
}

Status EnvWrapper::NewRandomRWFile(const std::string& path,
                                   std::unique_ptr<RandomRWFile>* out) {
  return Open<HookedRandomRWFile>(this, OpenMethod::kNewRandomRWFile, path,
                                  &Env::NewRandomRWFile, out);
}

Status EnvWrapper::ReopenRandomRWFile(const std::string& path,
                                      std::unique_ptr<RandomRWFile>* out) {
  return Open<HookedRandomRWFile>(this, OpenMethod::kReopenRandomRWFile, path,
                                  &Env::ReopenRandomRWFile, out);
}

Status EnvWrapper::NewRandomReadFile(const std::string& path,
                                     std::unique_ptr<RandomRWFile>* out) {
  return Open<HookedRandomRWFile>(this, OpenMethod::kNewRandomReadFile, path,
                                  &Env::NewRandomReadFile, out);
}

bool EnvWrapper::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status EnvWrapper::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

Status EnvWrapper::GetFileSize(const std::string& path, uint64_t* size) {
  return base_->GetFileSize(path, size);
}

Status EnvWrapper::CreateDirIfMissing(const std::string& path) {
  return base_->CreateDirIfMissing(path);
}

Status EnvWrapper::RemoveDir(const std::string& path) {
  return base_->RemoveDir(path);
}

Status EnvWrapper::ListDir(const std::string& path,
                           std::vector<std::string>* names) {
  return base_->ListDir(path, names);
}

}  // namespace twrs
