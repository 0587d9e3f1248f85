/**
 * @file
 * Shared filesystem primitives for the persistence and distribution
 * layers: whole-file text I/O, atomic (tmp + rename) replacement,
 * durable appends, exclusive creation — the POSIX building block of
 * the work-claim lock protocol (src/dist/work_claim.h) — and the CRC32
 * used to checksum store records and checkpoints.
 *
 * Every syscall loop retries EINTR immediately and other transient
 * errnos (EAGAIN, EBUSY, ENFILE, EMFILE, ESTALE) with bounded
 * exponential backoff, so a flaky or briefly-overloaded filesystem
 * degrades to latency, not to a crashed worker. Durable writes fsync
 * the file before rename and the parent directory after, so a
 * power-loss cannot roll a committed checkpoint or store back to an
 * empty file. All of these paths carry named fault sites
 * (common/fault_injection.h): `file.read`, `file.write_atomic.stage`,
 * `file.write_atomic.fsync`, `file.write_atomic.rename`,
 * `file.write_atomic.dirsync`, `file.create_exclusive`, `file.append`.
 * They also count what durability costs in the metrics registry:
 * `file.fsyncs` (file and directory fsyncs that succeeded) and
 * `file.bytes_written`.
 *
 * All paths are plain std::string; errors surface as std::runtime_error
 * except where a boolean outcome is part of the protocol (a lost
 * O_EXCL race is an answer, not an error).
 */

#ifndef TREEVQA_COMMON_FILE_UTIL_H
#define TREEVQA_COMMON_FILE_UTIL_H

#include <cstdint>
#include <string>

namespace treevqa {

/** True for errnos worth retrying with backoff (EINTR, EAGAIN, EBUSY,
 * ENFILE, EMFILE, ESTALE). */
bool isTransientErrno(int err);

/** Read a whole file into `out`. Returns false (out untouched) when
 * the file cannot be opened (after transient-errno retries); throws
 * on a read error mid-stream. */
bool readTextFile(const std::string &path, std::string &out);

/**
 * Replace `path` atomically and durably: write a writer-unique sibling
 * temp file (`path.tmp.<pid>.<n>`, unique across processes and across
 * threads of one process), fsync it, rename over `path`, then fsync
 * the parent directory so the rename itself survives a crash. Readers
 * see either the old or the new content, never a torn mix — the write
 * discipline behind checkpoints, claim renewals and store compaction.
 * Throws std::runtime_error on any I/O failure that survives the
 * transient-errno retry loop.
 */
void writeTextFileAtomic(const std::string &path,
                         const std::string &content);

/**
 * Append `data` to `path` (creating it if needed), sealing a torn
 * trailing line first — when the existing content does not end in a
 * newline (a previous writer died mid-append), a '\n' is written
 * before `data` so the fragment cannot merge with the new record —
 * then fsync. The JSONL append discipline of ResultStore shards.
 */
void appendTextDurable(const std::string &path,
                       const std::string &data);

/**
 * Create `path` exclusively (O_CREAT|O_EXCL) and write `content`.
 * Returns true when this call created the file — at most one caller
 * across all processes sharing the filesystem wins — and false when
 * the file already existed. Throws on unexpected I/O errors (e.g. a
 * missing parent directory). Not fsynced: claim files are leases, and
 * a lease lost to a crash is exactly what the expiry protocol covers.
 */
bool tryCreateExclusiveText(const std::string &path,
                            const std::string &content);

/**
 * fsync the directory itself so a rename or unlink inside it is
 * durable. Filesystems that cannot fsync directories (EINVAL /
 * ENOTSUP) are silently tolerated; real I/O errors throw after the
 * transient retry loop.
 */
void fsyncDirectory(const std::string &dirPath);

/** CRC-32 (IEEE 802.3, the zlib polynomial) of `data`. */
std::uint32_t crc32(const std::string &data);

/** crc32() as 8 lower-case hex chars — the checksum field format of
 * store records and checkpoints. */
std::string crc32Hex(const std::string &data);

/** Milliseconds since the Unix epoch (system clock). Lease deadlines
 * use this because wall time is the only clock hosts sharing a
 * filesystem have in common; the lease protocol assumes skew is small
 * relative to the lease duration. */
std::int64_t unixTimeMs();

/** "<hostname>-<pid>": a worker identity unique per process on a
 * shared filesystem (the default --worker-id). */
std::string localWorkerId();

/** Copy of `name` with every character outside [A-Za-z0-9._-]
 * replaced by '_' — worker ids and fingerprints become path
 * components, so they must not smuggle separators. */
std::string sanitizeFileToken(const std::string &name);

} // namespace treevqa

#endif // TREEVQA_COMMON_FILE_UTIL_H
