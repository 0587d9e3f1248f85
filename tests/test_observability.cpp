/**
 * @file
 * Tests for the observability layer: the metrics registry (sharded
 * counters, mergeable log2 histograms, deterministic dumps) and the
 * flight-recorder tracer (ring-buffer wraparound, Chrome-trace
 * export on clean and crashing exits, fault-site coverage of the
 * flush path).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dist/health.h"
#include "svc/sweep_dir.h"

namespace treevqa {
namespace {

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("obs_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Registry, recorder and fault injection are process-wide: every
 * test restores all three on the way out, pass or fail. */
class ObservabilityTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        FaultInjection::instance().disarm();
        TraceRecorder::instance().disarm();
        TraceRecorder::instance().clear();
        TraceRecorder::instance().setExportPath("");
        MetricsRegistry::instance().reset();
    }
};

// ------------------------------------------------------------ counters

TEST_F(ObservabilityTest, ShardedCounterTotalsAreExactUnderThreads)
{
    Counter counter;
    constexpr int kThreads = 8;
    constexpr int kIncs = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&counter] {
            for (int i = 0; i < kIncs; ++i)
                counter.inc();
            counter.inc(5);
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counter.total(),
              static_cast<std::uint64_t>(kThreads) * (kIncs + 5));

    counter.reset();
    EXPECT_EQ(counter.total(), 0u);
}

TEST_F(ObservabilityTest, RegistryReturnsStableInstruments)
{
    Counter &a = MetricsRegistry::instance().counter("obs.test_a");
    Counter &again = MetricsRegistry::instance().counter("obs.test_a");
    EXPECT_EQ(&a, &again);
    a.inc(7);
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("obs.test_a"), 7u);

    MetricsRegistry::instance().reset();
    // reset() zeroes in place; the cached reference stays live.
    a.inc(2);
    EXPECT_EQ(a.total(), 2u);
}

// ---------------------------------------------------------- histograms

HistogramSnapshot
observed(std::initializer_list<std::uint64_t> values)
{
    Histogram hist;
    for (const std::uint64_t v : values)
        hist.observe(v);
    return hist.snapshot();
}

TEST_F(ObservabilityTest, HistogramBucketsFollowBitWidth)
{
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), 63u);
}

TEST_F(ObservabilityTest, HistogramMergeIsAssociative)
{
    const HistogramSnapshot a = observed({1, 5, 9, 100});
    const HistogramSnapshot b = observed({0, 0, 3, 4096});
    const HistogramSnapshot c = observed({7, 1u << 20});

    HistogramSnapshot ab = a;
    ab.merge(b);
    HistogramSnapshot ab_c = ab;
    ab_c.merge(c);

    HistogramSnapshot bc = b;
    bc.merge(c);
    HistogramSnapshot a_bc = a;
    a_bc.merge(bc);

    EXPECT_EQ(ab_c.count, a_bc.count);
    EXPECT_EQ(ab_c.sum, a_bc.sum);
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
        EXPECT_EQ(ab_c.buckets[i], a_bc.buckets[i]) << "bucket " << i;
    EXPECT_EQ(ab_c.count, 10u);
    EXPECT_DOUBLE_EQ(ab_c.quantile(0.5), a_bc.quantile(0.5));
    EXPECT_DOUBLE_EQ(ab_c.quantile(0.99), a_bc.quantile(0.99));
}

TEST_F(ObservabilityTest, QuantilesAreDeterministicBucketMidpoints)
{
    const HistogramSnapshot snap = observed({0, 1, 2, 3, 4});
    // Ranks: bucket 0 holds {0}, bucket 1 {1}, bucket 2 {2,3},
    // bucket 3 {4}. p50 -> rank 3 -> bucket 2 midpoint 3.0.
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 6.0); // bucket 3 mid
    EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

// ------------------------------------------------- snapshots and dumps

MetricsSnapshot
fixedSnapshot(std::uint64_t completed, std::int64_t expansions)
{
    MetricsSnapshot snap;
    snap.counters["worker.jobs_completed"] = completed;
    snap.counters["worker.scan_rounds"] = completed * 2;
    snap.gauges["worker.spec_expansions"] = expansions;
    snap.histograms["runner.step_ns"] = observed({1000, 2000, 4000});
    return snap;
}

TEST_F(ObservabilityTest, SnapshotJsonIsDeterministicAndRoundTrips)
{
    const MetricsSnapshot snap = fixedSnapshot(3, 12);
    const std::string once = snap.toJson().dump(2);
    const std::string twice = snap.toJson().dump(2);
    EXPECT_EQ(once, twice);

    const MetricsSnapshot back =
        MetricsSnapshot::fromJson(JsonValue::parse(once));
    EXPECT_EQ(back.toJson().dump(2), once);
    EXPECT_EQ(back.counters.at("worker.jobs_completed"), 3u);
    EXPECT_EQ(back.gauges.at("worker.spec_expansions"), 12);
    EXPECT_EQ(back.histograms.at("runner.step_ns").count, 3u);
    EXPECT_EQ(back.histograms.at("runner.step_ns").sum, 7000u);
}

TEST_F(ObservabilityTest, AggregationIsByteStableAndOrderIndependent)
{
    std::vector<std::pair<std::string, JsonValue>> dumps;
    dumps.emplace_back("w0-p100", fixedSnapshot(3, 12).toJson());
    dumps.emplace_back("w1-p200", fixedSnapshot(4, 9).toJson());
    const std::string forward = aggregateMetricsJson(dumps).dump(2);
    EXPECT_EQ(forward, aggregateMetricsJson(dumps).dump(2));

    std::vector<std::pair<std::string, JsonValue>> reversed(
        dumps.rbegin(), dumps.rend());
    EXPECT_EQ(forward, aggregateMetricsJson(reversed).dump(2));

    const JsonValue merged = JsonValue::parse(forward);
    EXPECT_EQ(merged.at("processes").asUint(), 2u);
    EXPECT_EQ(merged.at("counters")
                  .at("worker.jobs_completed")
                  .asUint(),
              7u);
    // Gauges max-merge; counters sum.
    EXPECT_EQ(merged.at("gauges")
                  .at("worker.spec_expansions")
                  .asInt(),
              12);
    EXPECT_EQ(merged.at("phases").at("runner.step_ns").at("count")
                  .asUint(),
              6u);
}

TEST_F(ObservabilityTest, WriteAndReadDumpsThroughSweepDir)
{
    const auto dir = scratchDir("dumps");
    MetricsRegistry::instance().counter("obs.sweep_total").inc(11);
    WorkerHealth first;
    first.id = "w0";
    first.pid = 1;
    WorkerHealth second = first;
    second.pid = 2;
    EXPECT_TRUE(writeTelemetrySnapshot(dir.string(), first));
    EXPECT_TRUE(writeTelemetrySnapshot(dir.string(), second));

    const auto dumps = readMetricsDumps(dir.string());
    ASSERT_EQ(dumps.size(), 2u);
    EXPECT_EQ(dumps[0].first, "w0-p1");
    EXPECT_EQ(dumps[1].first, "w0-p2");
    // Both incarnations carry the full total; the aggregate sums
    // them (that is the point of per-incarnation files: a replaced
    // worker's history is never erased).
    const JsonValue merged = aggregateMetricsJson(dumps);
    EXPECT_EQ(merged.at("counters").at("obs.sweep_total").asUint(),
              22u);

    FaultInjection::instance().arm(
        R"({"faults": [{"site": "health.write",
        "action": "fail-errno", "errno": "EIO", "hit": 1}]})");
    WorkerHealth third = first;
    third.pid = 3;
    EXPECT_FALSE(writeTelemetrySnapshot(dir.string(), third));
}

// -------------------------------------------------------------- traces

TEST_F(ObservabilityTest, RingBufferKeepsNewestEventsInOrder)
{
    auto &recorder = TraceRecorder::instance();
    recorder.arm(/*capacity=*/8);

    // Stable names: the recorder stores the pointer until flush.
    static const char *names[20] = {
        "s00", "s01", "s02", "s03", "s04", "s05", "s06",
        "s07", "s08", "s09", "s10", "s11", "s12", "s13",
        "s14", "s15", "s16", "s17", "s18", "s19",
    };
    const std::int64_t base = TraceRecorder::nowSteadyNs();
    for (int i = 0; i < 20; ++i)
        recorder.record(names[i], base + i * 10000, 5000);
    EXPECT_EQ(recorder.bufferedEvents(), 8u);

    const auto path = scratchDir("ring") / "ring.trace.json";
    ASSERT_TRUE(recorder.flushTo(path.string()));

    std::string text;
    ASSERT_TRUE(readTextFile(path.string(), text));
    const JsonValue doc = JsonValue::parse(text);
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_EQ(events.asArray().size(), 8u);
    std::int64_t last_ts = -1;
    for (int i = 0; i < 8; ++i) {
        const JsonValue &event = events.asArray()[i];
        // Oldest-first within the surviving window: exactly the last
        // 8 of the 20 recorded spans, wraparound resolved.
        EXPECT_EQ(event.at("name").asString(),
                  names[12 + i]);
        EXPECT_EQ(event.at("ph").asString(), "X");
        EXPECT_GT(event.at("ts").asInt(), last_ts);
        last_ts = event.at("ts").asInt();
    }
}

TEST_F(ObservabilityTest, DisarmedSpanStillFeedsItsHistogram)
{
    auto &recorder = TraceRecorder::instance();
    recorder.disarm();
    Histogram hist;
    {
        TRACE_SPAN_TIMED("obs.timed", hist);
    }
    EXPECT_EQ(hist.snapshot().count, 1u);
    EXPECT_EQ(recorder.bufferedEvents(), 0u);

    // Plain spans are free while disarmed: nothing is buffered.
    {
        TRACE_SPAN("obs.plain");
    }
    EXPECT_EQ(recorder.bufferedEvents(), 0u);
}

TEST_F(ObservabilityTest, FlushFaultSiteFailsClosed)
{
    auto &recorder = TraceRecorder::instance();
    recorder.arm(16);
    recorder.record("obs.fault", TraceRecorder::nowSteadyNs(), 100);

    FaultInjection::instance().arm(
        R"({"faults": [{"site": "trace.flush",
        "action": "fail-errno", "errno": "EIO", "hit": 1}]})");
    const auto path = scratchDir("flt") / "flt.trace.json";
    EXPECT_FALSE(recorder.flushTo(path.string()));
    EXPECT_FALSE(std::filesystem::exists(path));
    // The buffer is untouched: the next (unfaulted) flush succeeds.
    EXPECT_TRUE(recorder.flushTo(path.string()));
    EXPECT_TRUE(std::filesystem::exists(path));
}

TEST_F(ObservabilityTest, EmptyExportPathIsANoOp)
{
    auto &recorder = TraceRecorder::instance();
    recorder.arm(16);
    recorder.setExportPath("");
    recorder.record("obs.nopath", TraceRecorder::nowSteadyNs(), 100);
    EXPECT_TRUE(recorder.flush());
}

TEST_F(ObservabilityTest, FatalSignalExportsTraceFromCrashedChild)
{
    const auto dir = scratchDir("crash");
    const std::string path =
        sweepTracePath(dir.string(), "crashed");

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: arm, record some work, install the crash hooks,
        // then die the way a wild pointer would. The handler must
        // flush the flight recorder before the default disposition
        // takes the process down.
        auto &recorder = TraceRecorder::instance();
        recorder.arm(64);
        recorder.setExportPath(path);
        recorder.installExitHandlers();
        {
            TRACE_SPAN("child.work");
        }
        std::raise(SIGABRT);
        ::_exit(97); // not reached
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGABRT);

    std::string text;
    ASSERT_TRUE(readTextFile(path, text));
    const JsonValue doc = JsonValue::parse(text);
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_GE(events.asArray().size(), 1u);
    bool found = false;
    for (const JsonValue &event : events.asArray())
        if (event.at("name").asString() == "child.work")
            found = true;
    EXPECT_TRUE(found);
}

} // namespace
} // namespace treevqa
