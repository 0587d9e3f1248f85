#include "common/file_util.h"

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault_injection.h"
#include "common/metrics.h"

namespace treevqa {

namespace {

/** The cost of durability, visible in `--metrics`: every fsync that
 * reached the disk (file or directory) and every byte handed to
 * write(2). */
struct FileMetrics
{
    Counter &fsyncs;
    Counter &bytesWritten;
};

FileMetrics &
fileMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static FileMetrics m{reg.counter("file.fsyncs"),
                         reg.counter("file.bytes_written")};
    return m;
}

/** Bounded exponential backoff for transient errnos: EINTR retries
 * immediately, the rest wait 1, 2, 4, ... ms up to six retries (~63 ms
 * worst case) — long enough to ride out a busy network filesystem,
 * short enough that a genuinely broken path fails promptly. */
constexpr int kMaxTransientRetries = 6;

bool
backoffRetry(int err, int &attempt)
{
    if (!isTransientErrno(err) || attempt >= kMaxTransientRetries)
        return false;
    if (err != EINTR)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1ll << attempt));
    ++attempt;
    return true;
}

[[noreturn]] void
throwErrno(const std::string &what, int err)
{
    throw std::runtime_error(what + ": " + std::strerror(err));
}

/** open(2) with fault injection, EINTR retry and transient backoff.
 * Returns -1 with errno set once the retry budget is exhausted. */
int
openRetry(const char *site, const std::string &path, int flags,
          mode_t mode = 0644)
{
    int attempt = 0;
    for (;;) {
        int fd;
        if (const FaultHit hit = FAULT_POINT(site);
            hit.action == FaultAction::FailErrno) {
            errno = hit.err;
            fd = -1;
        } else {
            fd = ::open(path.c_str(), flags, mode);
        }
        if (fd >= 0)
            return fd;
        if (!backoffRetry(errno, attempt))
            return -1;
    }
}

/** Full write loop (EINTR-retried). Throws on failure, leaving the fd
 * open for the caller's cleanup. */
void
writeFully(int fd, const std::string &path, const char *data,
           std::size_t size)
{
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::write(fd, data + written, size - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("file: write to " + path + " failed", errno);
        }
        written += static_cast<std::size_t>(n);
    }
    fileMetrics().bytesWritten.inc(size);
}

/** fsync(2) with fault injection and transient backoff. */
void
fsyncRetry(const char *site, int fd, const std::string &path)
{
    int attempt = 0;
    for (;;) {
        int rc;
        if (const FaultHit hit = FAULT_POINT(site);
            hit.action == FaultAction::FailErrno) {
            errno = hit.err;
            rc = -1;
        } else {
            rc = ::fsync(fd);
        }
        if (rc == 0) {
            fileMetrics().fsyncs.inc();
            return;
        }
        if (!backoffRetry(errno, attempt))
            throwErrno("file: fsync of " + path + " failed", errno);
    }
}

} // namespace

bool
isTransientErrno(int err)
{
    switch (err) {
      case EINTR:
      case EAGAIN:
      case EBUSY:
      case ENFILE:
      case EMFILE:
      case ESTALE:
        return true;
      default:
        return false;
    }
}

bool
readTextFile(const std::string &path, std::string &out)
{
    const int fd = openRetry("file.read", path, O_RDONLY);
    if (fd < 0)
        return false;
    std::string buffer;
    std::array<char, 65536> chunk;
    for (;;) {
        const ssize_t n = ::read(fd, chunk.data(), chunk.size());
        if (n > 0) {
            buffer.append(chunk.data(),
                          static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            break;
        if (errno == EINTR)
            continue;
        const int err = errno;
        ::close(fd);
        throwErrno("file: read failed: " + path, err);
    }
    ::close(fd);
    out = std::move(buffer);
    return true;
}

void
writeTextFileAtomic(const std::string &path, const std::string &content)
{
    // The temp name is unique per writer — pid across processes, a
    // counter across threads of one process (concurrent in-process
    // daemons can compact the same store) — so staging copies never
    // clobber each other; the rename at the end is the single atomic
    // commit point.
    static std::atomic<unsigned long> stage_counter{0};
    const std::string tmp = path + ".tmp."
        + std::to_string(static_cast<long>(::getpid())) + "."
        + std::to_string(stage_counter.fetch_add(1));

    const char *stage_data = content.data();
    std::size_t stage_size = content.size();
    if (const FaultHit hit = FAULT_POINT("file.write_atomic.stage")) {
        if (hit.action == FaultAction::FailErrno)
            throwErrno("file: cannot write " + tmp, hit.err);
        if (hit.action == FaultAction::TornWrite)
            stage_size = hit.tornPrefix(stage_size);
    }

    const int fd =
        openRetry("file.write_atomic.open", tmp,
                  O_CREAT | O_TRUNC | O_WRONLY);
    if (fd < 0)
        throwErrno("file: cannot write " + tmp, errno);
    try {
        writeFully(fd, tmp, stage_data, stage_size);
        // fsync before rename: the rename must never make visible a
        // file whose bytes are still only in the page cache.
        fsyncRetry("file.write_atomic.fsync", fd, tmp);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    ::close(fd);

    int attempt = 0;
    for (;;) {
        int rc;
        if (const FaultHit hit =
                FAULT_POINT("file.write_atomic.rename");
            hit.action == FaultAction::FailErrno) {
            errno = hit.err;
            rc = -1;
        } else {
            rc = std::rename(tmp.c_str(), path.c_str());
        }
        if (rc == 0)
            break;
        if (!backoffRetry(errno, attempt)) {
            const int err = errno;
            ::unlink(tmp.c_str());
            throwErrno("file: rename to " + path + " failed", err);
        }
    }

    // fsync the parent directory after rename so the new directory
    // entry (and the unlink of the replaced file) is durable.
    fsyncDirectory(
        std::filesystem::path(path).parent_path().string());
}

void
appendTextDurable(const std::string &path, const std::string &data)
{
    // O_RDWR (not O_WRONLY) so the torn-line probe below can pread the
    // current last byte through the same descriptor.
    const int fd = openRetry("file.append", path,
                             O_RDWR | O_CREAT | O_APPEND);
    if (fd < 0)
        throwErrno("file: cannot append to " + path, errno);
    try {
        // A kill mid-append leaves a torn fragment without a newline;
        // sealing it first keeps the new record on its own line
        // instead of merging with (and corrupting) the fragment.
        const off_t size = ::lseek(fd, 0, SEEK_END);
        if (size > 0) {
            char last = '\n';
            if (::pread(fd, &last, 1, size - 1) == 1 && last != '\n')
                writeFully(fd, path, "\n", 1);
        }
        writeFully(fd, path, data.data(), data.size());
        fsyncRetry("file.append.fsync", fd, path);
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
}

bool
tryCreateExclusiveText(const std::string &path,
                       const std::string &content)
{
    const char *data = content.data();
    std::size_t size = content.size();
    int fd;
    {
        int attempt = 0;
        for (;;) {
            if (const FaultHit hit =
                    FAULT_POINT("file.create_exclusive");
                hit.action == FaultAction::FailErrno) {
                errno = hit.err;
                fd = -1;
            } else if (hit.action == FaultAction::TornWrite) {
                size = hit.tornPrefix(size);
                fd = ::open(path.c_str(),
                            O_CREAT | O_EXCL | O_WRONLY, 0644);
            } else {
                fd = ::open(path.c_str(),
                            O_CREAT | O_EXCL | O_WRONLY, 0644);
            }
            if (fd >= 0)
                break;
            if (errno == EEXIST)
                return false;
            if (!backoffRetry(errno, attempt))
                throwErrno("file: exclusive create of " + path
                               + " failed",
                           errno);
        }
    }
    // One write() call: the only observable intermediate state is the
    // empty just-created file, and only for the instant before this.
    try {
        writeFully(fd, path, data, size);
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    return true;
}

void
fsyncDirectory(const std::string &dirPath)
{
    const std::string dir = dirPath.empty() ? "." : dirPath;
    const int fd =
        openRetry("file.write_atomic.diropen", dir,
                  O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        // A directory we just successfully renamed into but cannot
        // re-open read-only is exotic enough to surface.
        throwErrno("file: cannot open directory " + dir, errno);
    }
    int attempt = 0;
    for (;;) {
        int rc;
        if (const FaultHit hit =
                FAULT_POINT("file.write_atomic.dirsync");
            hit.action == FaultAction::FailErrno) {
            errno = hit.err;
            rc = -1;
        } else {
            rc = ::fsync(fd);
        }
        if (rc == 0) {
            fileMetrics().fsyncs.inc();
            break;
        }
        // Filesystems without directory fsync answer EINVAL/ENOTSUP;
        // durability there is whatever the mount offers.
        if (errno == EINVAL || errno == ENOTSUP || errno == EBADF)
            break;
        if (!backoffRetry(errno, attempt)) {
            const int err = errno;
            ::close(fd);
            throwErrno("file: fsync of directory " + dir + " failed",
                       err);
        }
    }
    ::close(fd);
}

namespace {

/** CRC-32 lookup table for the reflected IEEE 802.3 polynomial
 * 0xedb88320 (the zlib CRC), built once. */
const std::array<std::uint32_t, 256> &
crc32Table()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

} // namespace

std::uint32_t
crc32(const std::string &data)
{
    const auto &table = crc32Table();
    std::uint32_t crc = 0xffffffffu;
    for (const char ch : data)
        crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu]
            ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::string
crc32Hex(const std::string &data)
{
    char out[9];
    std::snprintf(out, sizeof(out), "%08x", crc32(data));
    return std::string(out);
}

std::int64_t
unixTimeMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

std::string
localWorkerId()
{
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) != 0)
        std::snprintf(host, sizeof(host), "host");
    return sanitizeFileToken(std::string(host)) + "-"
        + std::to_string(static_cast<long>(::getpid()));
}

std::string
sanitizeFileToken(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '.' || c == '_'
            || c == '-';
        if (!ok)
            c = '_';
    }
    return out;
}

} // namespace treevqa
