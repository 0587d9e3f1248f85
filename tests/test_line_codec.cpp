/**
 * @file
 * Tests for the CRC line codec (common/crc_line.h) and deterministic
 * mutation fuzzing of every decoder built on it: stored result lines
 * (decodeStoredLine), event journal lines (decodeEventLine) and
 * checkpoint restore. Each fuzz case starts from valid input and
 * applies seeded byte flips, truncations and duplicated or deleted
 * spans; every mutant must either be rejected without an exception
 * escaping the decoder, or be a CRC-valid input that re-encodes to a
 * line the decoder accepts again.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc_line.h"
#include "common/event_log.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "svc/result_store.h"
#include "svc/scenario_runner.h"

namespace treevqa {
namespace {

constexpr int kMutantsPerParser = 2000;

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("codec_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

ScenarioSpec
tinySpec(const std::string &name)
{
    ScenarioSpec spec;
    spec.name = name;
    spec.problem = "tfim";
    spec.size = 2;
    spec.field = 0.8;
    spec.ansatz = "hea";
    spec.layers = 1;
    spec.engine.shotsPerTerm = 64;
    spec.maxIterations = 8;
    spec.seed = 5;
    spec.checkpointInterval = 4;
    return spec;
}

/** One to three seeded edits: a byte flip or overwrite, a truncation,
 * a duplicated span or a deleted span. */
std::string
mutate(const std::string &valid, Rng &rng)
{
    std::string m = valid;
    const int edits = 1 + static_cast<int>(rng.uniformInt(3));
    for (int e = 0; e < edits && !m.empty(); ++e) {
        const std::size_t pos =
            static_cast<std::size_t>(rng.uniformInt(m.size()));
        const std::size_t span = 1
            + static_cast<std::size_t>(
                rng.uniformInt(std::min<std::size_t>(16, m.size() - pos)));
        switch (rng.uniformInt(5)) {
        case 0:
            m[pos] = static_cast<char>(
                m[pos] ^ static_cast<char>(1u << rng.uniformInt(8)));
            break;
        case 1:
            m[pos] = static_cast<char>(rng.uniformInt(256));
            break;
        case 2:
            m.resize(pos);
            break;
        case 3:
            m.insert(pos, m.substr(pos, span));
            break;
        default:
            m.erase(pos, span);
            break;
        }
    }
    return m;
}

// ------------------------------------------------------------- codec

TEST(CrcLine, StampedLinesRoundTripAndTheStampIsRequired)
{
    JsonValue record = JsonValue::object();
    record.set("a", JsonValue(1.5));
    record.set("b", JsonValue(std::string("text")));
    const std::string line = crcStampedLine(record);

    JsonValue decoded;
    ASSERT_EQ(decodeCrcJson(line, decoded), CrcStatus::Ok);
    EXPECT_EQ(decoded.dump(), record.dump());

    // The stamp survives pretty-printing (checkpoints are indented).
    JsonValue stamped = record;
    stampCrc(stamped);
    EXPECT_EQ(decodeCrcJson(stamped.dump(2), decoded), CrcStatus::Ok);

    std::string reason;
    EXPECT_EQ(decodeCrcJson(record.dump(), decoded, &reason),
              CrcStatus::Unparseable);
    EXPECT_NE(reason.find("no crc"), std::string::npos);
    EXPECT_EQ(decodeCrcJson("[1,2]", decoded), CrcStatus::Unparseable);
    EXPECT_EQ(decodeCrcJson("{\"a\":", decoded), CrcStatus::Unparseable);
    std::string tampered = line;
    tampered[tampered.find("1.5") + 2] = '6';
    EXPECT_EQ(decodeCrcJson(tampered, decoded), CrcStatus::CrcMismatch);
}

TEST(CrcLine, LineLoopNumbersEveryLineAndHoldsBackAnOpenTail)
{
    const std::string text = "a\n\nb\nc";
    std::vector<std::pair<std::size_t, std::string>> seen;
    std::size_t number = 0;
    const auto collect = [&](std::size_t n, const std::string &line) {
        seen.emplace_back(n, line);
    };
    EXPECT_EQ(forEachLine(text, number, true, collect), 5u);
    EXPECT_EQ(number, 3u);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1], std::make_pair(std::size_t{3}, std::string("b")));

    seen.clear();
    number = 0;
    EXPECT_EQ(forEachLine(text, number, false, collect), text.size());
    EXPECT_EQ(number, 4u);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[2], std::make_pair(std::size_t{4}, std::string("c")));
}

// -------------------------------------------------------- fuzzing

TEST(LineCodecFuzz, StoredLinesFailClosed)
{
    JobResult done;
    done.spec = tinySpec("fuzz_done");
    done.fingerprint = scenarioFingerprint(done.spec);
    done.completed = true;
    done.iterations = 3;
    done.trajectory = {1.0, 0.5, 0.25};
    done.bestParams = {0.1, -0.2};
    done.bestLoss = 0.25;
    done.finalEnergy = -1.25;
    done.shotsUsed = 4096;
    done.backend = "statevector";
    JobResult failed;
    failed.spec = tinySpec("fuzz_failed");
    failed.fingerprint = scenarioFingerprint(failed.spec);
    failed.failed = true;
    failed.attempts = 2;
    failed.timedOut = true;
    failed.errorMessage = "boom";
    const std::string seeds[] = {jobResultToStoredLine(done),
                                 jobResultToStoredLine(failed)};

    Rng rng(0x5eed0001);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerParser; ++i) {
        const std::string mutant = mutate(seeds[i % 2], rng);
        JobResult record;
        std::string reason;
        StoredLineStatus status = StoredLineStatus::ParseFailure;
        ASSERT_NO_THROW(status = decodeStoredLine(mutant, record, &reason))
            << "mutant " << i;
        if (status != StoredLineStatus::Ok) {
            EXPECT_FALSE(reason.empty()) << "mutant " << i;
            continue;
        }
        ++accepted;
        JobResult again;
        EXPECT_EQ(decodeStoredLine(jobResultToStoredLine(record), again),
                  StoredLineStatus::Ok)
            << "mutant " << i;
    }
    EXPECT_LT(accepted, kMutantsPerParser / 100);
}

TEST(LineCodecFuzz, EventLinesFailClosed)
{
    SweepEvent event;
    event.hlc = Hlc{1700000000123, 7, "w0-p42"};
    event.type = event_type::kLeaseReaped;
    event.worker = "w0";
    event.job = "0123456789abcdef";
    event.detail.set("deadOwner", JsonValue(std::string("w1")));
    event.detail.set("stalledMs", JsonValue(std::int64_t{2500}));
    const std::string valid = crcStampedLine(eventToJson(event));

    Rng rng(0x5eed0002);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerParser; ++i) {
        const std::string mutant = mutate(valid, rng);
        SweepEvent decoded;
        std::string reason;
        bool ok = false;
        ASSERT_NO_THROW(ok = decodeEventLine(mutant, decoded, &reason))
            << "mutant " << i;
        if (!ok) {
            EXPECT_FALSE(reason.empty()) << "mutant " << i;
            continue;
        }
        ++accepted;
        SweepEvent again;
        EXPECT_TRUE(decodeEventLine(crcStampedLine(eventToJson(decoded)),
                                    again))
            << "mutant " << i;
    }
    EXPECT_LT(accepted, kMutantsPerParser / 100);
}

TEST(LineCodecFuzz, CheckpointRestoreFailsClosed)
{
    // A valid checkpoint at iteration 4: halt after 5 iterations with
    // a checkpoint every 4.
    const auto dir = scratchDir("checkpoint");
    const std::string path = (dir / "job.json").string();
    const ScenarioSpec spec = tinySpec("fuzz_ckpt");
    ScenarioRunOptions seed_run;
    seed_run.checkpointPath = path;
    seed_run.haltAfterIterations = 5;
    ASSERT_FALSE(runScenario(spec, seed_run).completed);
    std::string valid;
    ASSERT_TRUE(readTextFile(path, valid));
    std::filesystem::remove(path + ".prev");

    // Each mutant runs one iteration from wherever restore lands: 5
    // when the checkpoint was accepted, 1 after a fresh start. Neither
    // crosses a checkpoint boundary, so nothing is written back.
    ScenarioRunOptions options;
    options.checkpointPath = path;
    options.haltAfterIterations = 1;
    Rng rng(0x5eed0003);
    int accepted = 0;
    ::testing::internal::CaptureStderr(); // one rejection line each
    for (int i = 0; i < kMutantsPerParser; ++i) {
        const std::string mutant = mutate(valid, rng);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << mutant;
        }
        JobResult result;
        ASSERT_NO_THROW(result = runScenario(spec, options))
            << "mutant " << i;
        if (!result.resumed) {
            EXPECT_EQ(result.iterations, 1) << "mutant " << i;
            continue;
        }
        ++accepted;
        EXPECT_EQ(result.iterations, 5) << "mutant " << i;
        JsonValue checkpoint, again;
        ASSERT_EQ(decodeCrcJson(mutant, checkpoint), CrcStatus::Ok)
            << "mutant " << i;
        stampCrc(checkpoint);
        EXPECT_EQ(decodeCrcJson(checkpoint.dump(2), again), CrcStatus::Ok)
            << "mutant " << i;
    }
    ::testing::internal::GetCapturedStderr();
    // Indentation whitespace is the only slack in a stamped document,
    // so some mutants land there and exercise the accepting path.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutantsPerParser / 4);
    RecordProperty("accepted", accepted);
}

} // namespace
} // namespace treevqa
