#include "io/posix_env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace twrs {

namespace {

// strerror_r comes in two flavors: the POSIX variant returns int and fills
// `buf`, while glibc's _GNU_SOURCE variant returns the message directly and
// may ignore `buf`. Overload resolution on the return value picks the right
// interpretation for whichever the platform declared.
inline const char* StrerrorResult(int /*ret*/, const char* buf) { return buf; }
inline const char* StrerrorResult(const char* ret, const char* /*buf*/) {
  return ret;
}

Status ErrnoStatus(const std::string& context) {
  // strerror_r instead of strerror: pool workers and background flushers
  // hit I/O errors concurrently, and strerror may reuse a static buffer
  // (clang-tidy concurrency-mt-unsafe).
  char buf[128];
  buf[0] = '\0';
  const char* msg = StrerrorResult(::strerror_r(errno, buf, sizeof(buf)), buf);
  return Status::IOError(context + ": " + msg);
}

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t n) override {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write " + path_);
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    // fdatasync, not fsync: the sort's durability point cares about the
    // output bytes (and the size needed to read them), not about mtime.
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int r = ::close(fd_);
    fd_ = -1;
    if (r != 0) return ErrnoStatus("close " + path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixSequentialFile : public SequentialFile {
 public:
  explicit PosixSequentialFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixSequentialFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(void* out, size_t n, size_t* bytes_read) override {
    char* p = static_cast<char*>(out);
    size_t total = 0;
    while (total < n) {
      ssize_t r = ::read(fd_, p + total, n - total);
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("read " + path_);
      }
      if (r == 0) break;  // end of file
      total += static_cast<size_t>(r);
    }
    *bytes_read = total;
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) < 0) {
      return ErrnoStatus("lseek " + path_);
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixRandomRWFile : public RandomRWFile {
 public:
  explicit PosixRandomRWFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixRandomRWFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      ssize_t w = ::pwrite(fd_, p, n, static_cast<off_t>(offset));
      if (w < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pwrite " + path_);
      }
      p += w;
      offset += static_cast<uint64_t>(w);
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status ReadAt(uint64_t offset, void* out, size_t n) override {
    char* p = static_cast<char*>(out);
    size_t total = 0;
    while (total < n) {
      ssize_t r = ::pread(fd_, p + total, n - total,
                          static_cast<off_t>(offset + total));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread " + path_);
      }
      if (r == 0) {
        return Status::IOError("short read at offset in " + path_);
      }
      total += static_cast<size_t>(r);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int r = ::close(fd_);
    fd_ = -1;
    if (r != 0) return ErrnoStatus("close " + path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

Status PosixEnv::NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* out) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  out->reset(new PosixWritableFile(fd, path));
  return Status::OK();
}

Status PosixEnv::NewSequentialFile(const std::string& path,
                                   std::unique_ptr<SequentialFile>* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open " + path);
  out->reset(new PosixSequentialFile(fd, path));
  return Status::OK();
}

Status PosixEnv::NewRandomRWFile(const std::string& path,
                                 std::unique_ptr<RandomRWFile>* out) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  out->reset(new PosixRandomRWFile(fd, path));
  return Status::OK();
}

Status PosixEnv::ReopenRandomRWFile(const std::string& path,
                                    std::unique_ptr<RandomRWFile>* out) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return ErrnoStatus("open " + path);
  out->reset(new PosixRandomRWFile(fd, path));
  return Status::OK();
}

Status PosixEnv::NewRandomReadFile(const std::string& path,
                                   std::unique_ptr<RandomRWFile>* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open " + path);
  out->reset(new PosixRandomRWFile(fd, path));
  return Status::OK();
}

bool PosixEnv::FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

Status PosixEnv::RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink " + path);
  return Status::OK();
}

Status PosixEnv::GetFileSize(const std::string& path, uint64_t* size) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat " + path);
  *size = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status PosixEnv::CreateDirIfMissing(const std::string& path) {
  // Create each component of the path in turn.
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      partial = path.substr(0, i == path.size() ? i : i + 1);
      if (partial.empty() || partial == "/") continue;
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return ErrnoStatus("mkdir " + partial);
      }
    }
  }
  return Status::OK();
}

Status PosixEnv::RemoveDir(const std::string& path) {
  if (::rmdir(path.c_str()) != 0) {
    // Best-effort semantics: a directory that is already gone or still has
    // entries (e.g. files another process left in a shared dir) is fine.
    if (errno == ENOENT || errno == ENOTEMPTY || errno == EEXIST) {
      return Status::OK();
    }
    return ErrnoStatus("rmdir " + path);
  }
  return Status::OK();
}

Status PosixEnv::ListDir(const std::string& path,
                         std::vector<std::string>* names) {
  names->clear();
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return ErrnoStatus("opendir " + path);
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names->push_back(name);
  }
  ::closedir(dir);
  return Status::OK();
}

}  // namespace twrs
