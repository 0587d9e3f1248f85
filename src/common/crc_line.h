/**
 * @file
 * The CRC line codec: one implementation of the "JSON + CRC +
 * quarantine once" discipline behind every durable record this
 * project reads back — result-store lines (svc/result_store.h), event
 * journal lines (common/event_log.h) and checkpoints
 * (svc/scenario_runner.cpp).
 *
 * - **Stamp.** A record is a JSON object carrying a trailing "crc"
 *   member: the CRC32 (file_util.h crc32Hex) of the record's compact
 *   serialization without the member. JsonValue keeps member order,
 *   so erasing the member at read time restores the exact checksummed
 *   bytes whatever indentation the writer chose.
 * - **Check.** The member is required: a line without one is as
 *   malformed as a torn one.
 * - **Quarantine once.** A rejected line is copied, with provenance,
 *   into a quarantine file — once per (file, line, content) per
 *   process, because scan loops revisit a corrupt line many times.
 * - **Numbered line loop.** Lines are numbered from 1 per file in
 *   every reader, full or incremental, so the quarantine gate sees
 *   the same key from each.
 */

#ifndef TREEVQA_COMMON_CRC_LINE_H
#define TREEVQA_COMMON_CRC_LINE_H

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.h"

namespace treevqa {

/** Stamp `record` (a JSON object) with its trailing "crc" member. */
void stampCrc(JsonValue &record);

/** `record` stamped and serialized compactly (no newline): the form
 * of one JSONL line. */
std::string crcStampedLine(JsonValue record);

/** Verdict of decodeCrcJson. */
enum class CrcStatus
{
    Ok,
    /** Not JSON, not an object, or no string "crc" member. */
    Unparseable,
    /** The "crc" member contradicts the content. */
    CrcMismatch
};

/** Parse `text` as a CRC-stamped JSON object, verify the stamp and
 * return the object without its "crc" member in `out`. Never throws;
 * on failure `reason` (when non-null) receives why. */
CrcStatus decodeCrcJson(const std::string &text, JsonValue &out,
                        std::string *reason = nullptr);

/**
 * Append one rejected line of `sourcePath`, wrapped in a provenance
 * envelope ({"source", "line", "reason", "data"}), to
 * `quarantinePath`, and say so on stderr. Once per (source, line,
 * content) per process; best effort — a quarantine that cannot be
 * written must not turn a tolerated corruption into a crash. Returns
 * true when this call was the first for its key.
 */
bool quarantineLineOnce(const std::string &sourcePath,
                        const std::string &quarantinePath,
                        std::size_t lineNumber, const std::string &line,
                        const std::string &reason);

/** The `*.jsonl` regular files directly under `dir`, sorted (empty
 * when `dir` is missing): the file set of a sharded log. */
std::vector<std::string> sortedJsonlFiles(const std::string &dir);

/**
 * Walk the lines of `text` (bytes of one file from a line boundary
 * on). Each line, terminated or not, advances `lineNumber`; `fn(number,
 * line)` runs for the non-empty ones. With `completeOnly` an
 * unterminated trailing fragment — an append in flight — is neither
 * counted nor passed. Returns the bytes walked.
 */
template <class Fn>
std::size_t
forEachLine(const std::string &text, std::size_t &lineNumber,
            bool completeOnly, Fn &&fn)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos) {
            if (completeOnly)
                break;
            end = text.size();
        }
        ++lineNumber;
        if (end > pos)
            fn(lineNumber, text.substr(pos, end - pos));
        pos = end < text.size() ? end + 1 : end;
    }
    return pos;
}

} // namespace treevqa

#endif // TREEVQA_COMMON_CRC_LINE_H
