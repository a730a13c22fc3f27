#include "util/durable_file.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "util/fault_injection.h"

namespace geopriv {

namespace {

// RAII for a POSIX fd.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path + "': " + std::strerror(errno));
}

Status WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t k = ::write(fd, data.data(), data.size());
    if (k < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write failed: ") +
                              std::strerror(errno));
    }
    data.remove_prefix(static_cast<size_t>(k));
  }
  return Status::OK();
}

Status SyncDirectory(const std::string& dir) {
  Fd d;
  d.fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (d.fd < 0) return Errno("cannot open directory", dir);
  if (::fsync(d.fd) != 0) return Errno("cannot fsync directory", dir);
  return Status::OK();
}

Status ReplaceFileDurably(const std::string& path, std::string_view head,
                          std::string_view tail, const char* write_fault,
                          const char* rename_fault) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create '" + dir + "': " + ec.message());
  }
  const std::string tmp = path + ".tmp";
  // Any error below unlinks the tmp: only a crash leaves one behind, for
  // the loaders' sweep.
  const auto fail = [&tmp](Status status) {
    ::unlink(tmp.c_str());
    return status;
  };
  {
    Fd out;
    out.fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (out.fd < 0) {
      return Status::NotFound("cannot open '" + tmp + "' for write");
    }
    Status written = WriteAll(out.fd, head);
    if (written.ok() && fault_injection::Armed()) {
      written = fault_injection::Fire(write_fault);
      if (!written.ok()) return fail(std::move(written));
    }
    if (written.ok()) written = WriteAll(out.fd, tail);
    if (!written.ok()) {
      return fail(Status::Internal("write to '" + tmp + "' failed: " +
                                   written.message()));
    }
    if (::fsync(out.fd) != 0) return fail(Errno("cannot fsync", tmp));
  }
  if (fault_injection::Armed()) {
    Status renamed = fault_injection::Fire(rename_fault);
    if (!renamed.ok()) return fail(std::move(renamed));
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return fail(
        Status::Internal("cannot rename '" + tmp + "': " + ec.message()));
  }
  return SyncDirectory(dir);
}

}  // namespace geopriv
