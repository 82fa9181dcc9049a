#include "src/common/fileio.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace msprint {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

// write(2) the whole buffer, riding out partial writes and EINTR.
void WriteAll(int fd, std::string_view contents, const std::string& path) {
  const char* data = contents.data();
  size_t left = contents.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ThrowErrno("cannot write", path);
    }
    data += n;
    left -= static_cast<size_t>(n);
  }
}

// Best-effort fsync of the directory containing `path`, so the rename that
// just happened inside it survives power loss. Some filesystems refuse
// directory fsync; that only weakens durability, not atomicity, so errors
// here are ignored.
void SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
}

}  // namespace

void AtomicWriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    ThrowErrno("cannot open for writing", tmp);
  }
  try {
    WriteAll(fd, contents, tmp);
    if (::fsync(fd) != 0) {
      ThrowErrno("cannot fsync", tmp);
    }
  } catch (...) {
    (void)::close(fd);
    (void)::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    (void)::unlink(tmp.c_str());
    ThrowErrno("cannot close", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)::unlink(tmp.c_str());
    ThrowErrno("cannot rename over", path);
  }
  SyncParentDirectory(path);
}

std::string ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    ThrowErrno("cannot open for reading", path);
  }
  std::string out;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      (void)::close(fd);
      ThrowErrno("cannot read", path);
    }
    if (n == 0) {
      break;
    }
    out.append(buffer, static_cast<size_t>(n));
  }
  (void)::close(fd);
  return out;
}

}  // namespace msprint
