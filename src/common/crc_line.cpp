#include "common/crc_line.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>

#include "common/file_util.h"

namespace treevqa {

void
stampCrc(JsonValue &record)
{
    record.set("crc", JsonValue(crc32Hex(record.dump())));
}

std::string
crcStampedLine(JsonValue record)
{
    stampCrc(record);
    return record.dump();
}

CrcStatus
decodeCrcJson(const std::string &text, JsonValue &out,
              std::string *reason)
{
    const auto reject = [&](CrcStatus status, const std::string &why) {
        if (reason)
            *reason = why;
        return status;
    };
    JsonValue json;
    try {
        json = JsonValue::parse(text);
    } catch (const std::exception &e) {
        // Most likely the torn final line of a killed writer.
        return reject(CrcStatus::Unparseable,
                      std::string("unparseable: ") + e.what());
    }
    if (!json.isObject())
        return reject(CrcStatus::Unparseable,
                      "unparseable: not an object");
    if (!json.contains("crc") || !json.at("crc").isString())
        return reject(CrcStatus::Unparseable, "unparseable: no crc");
    const std::string expected = json.at("crc").asString();
    json.erase("crc");
    if (crc32Hex(json.dump()) != expected)
        return reject(CrcStatus::CrcMismatch, "crc mismatch");
    out = std::move(json);
    return CrcStatus::Ok;
}

bool
quarantineLineOnce(const std::string &sourcePath,
                   const std::string &quarantinePath,
                   std::size_t lineNumber, const std::string &line,
                   const std::string &reason)
{
    static std::mutex mutex;
    static std::set<std::string> seen;
    const std::string key = sourcePath + ":"
        + std::to_string(lineNumber) + ":" + crc32Hex(line);
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!seen.insert(key).second)
            return false;
    }
    std::fprintf(stderr, "treevqa: quarantining corrupt line %s:%zu (%s)\n",
                 sourcePath.c_str(), lineNumber, reason.c_str());
    try {
        std::filesystem::create_directories(
            std::filesystem::path(quarantinePath).parent_path());
        JsonValue envelope = JsonValue::object();
        envelope.set("source", JsonValue(sourcePath));
        envelope.set("line",
                     JsonValue(static_cast<std::int64_t>(lineNumber)));
        envelope.set("reason", JsonValue(reason));
        envelope.set("data", JsonValue(line));
        appendTextDurable(quarantinePath, envelope.dump() + "\n");
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "treevqa: quarantine of %s:%zu failed (%s)\n",
                     sourcePath.c_str(), lineNumber, e.what());
    }
    return true;
}

std::vector<std::string>
sortedJsonlFiles(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec))
        if (entry.is_regular_file()
            && entry.path().extension() == ".jsonl")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace treevqa
