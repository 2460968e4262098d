#include "store/sync.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "store/format.h"

namespace qrn::store {

namespace detail {

namespace {
std::function<void(SyncKind, const std::string&)> g_sync_hook;
}  // namespace

void set_sync_hook_for_test(std::function<void(SyncKind, const std::string&)> hook) {
    g_sync_hook = std::move(hook);
}

}  // namespace detail

namespace {

[[noreturn]] void throw_io(const std::string& action, const std::string& path) {
    throw StoreError(StoreErrorKind::Io,
                     action + " failed for " + path + ": " + std::strerror(errno));
}

void sync_fd_path(SyncKind kind, const std::string& path, int open_flags) {
    if (detail::g_sync_hook) detail::g_sync_hook(kind, path);
    const int fd = ::open(path.c_str(), open_flags);
    if (fd < 0) throw_io("open for sync", path);
    if (::fsync(fd) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_io("fsync", path);
    }
    if (::close(fd) != 0) throw_io("close after sync", path);
}

}  // namespace

void sync_file(const std::string& path) {
    sync_fd_path(SyncKind::File, path, O_RDONLY | O_CLOEXEC);
}

void sync_directory(const std::string& path) {
    sync_fd_path(SyncKind::Directory, path, O_RDONLY | O_DIRECTORY | O_CLOEXEC);
}

std::optional<std::string> read_whole_file(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (errno == ENOENT) return std::nullopt;
        throw_io("open", path);
    }
    std::string text;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n == 0) break;
        if (n < 0) {
            if (errno == EINTR) continue;
            const int saved = errno;
            ::close(fd);
            errno = saved;
            throw_io("read", path);
        }
        text.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return text;
}

}  // namespace qrn::store
