#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/file_util.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

/** Lower bound of histogram bucket i (see HistogramSnapshot). */
double
bucketLow(std::size_t i)
{
    if (i == 0)
        return 0.0;
    return std::ldexp(1.0, static_cast<int>(i) - 1);
}

/** Deterministic representative value for bucket i: 0 for the zero
 * bucket, otherwise the midpoint of [2^(i-1), 2^i). */
double
bucketMid(std::size_t i)
{
    if (i == 0)
        return 0.0;
    return 1.5 * bucketLow(i);
}

} // namespace

std::size_t
Counter::shardIndex()
{
    // One shard per thread, assigned round-robin at first use. A
    // fleet of pool threads lands on distinct cachelines; collisions
    // beyond kShards threads only cost contention, never correctness.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shard;
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot out;
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
        out.buckets[i] =
            buckets_[i].load(std::memory_order_relaxed);
        out.count += out.buckets[i];
    }
    out.sum = sum_.load(std::memory_order_relaxed);
    return out;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    sum += other.sum;
    for (std::size_t i = 0; i < kBuckets; ++i)
        buckets[i] += other.buckets[i];
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Rank of the target observation, 1-based; integer arithmetic so
    // the bucket pick is exact and platform-independent.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += buckets[i];
        if (seen >= rank)
            return bucketMid(i);
    }
    return bucketMid(kBuckets - 1);
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
    for (const auto &[name, value] : other.gauges) {
        auto it = gauges.find(name);
        if (it == gauges.end())
            gauges[name] = value;
        else
            it->second = std::max(it->second, value);
    }
    for (const auto &[name, hist] : other.histograms)
        histograms[name].merge(hist);
}

JsonValue
MetricsSnapshot::toJson() const
{
    JsonValue out = JsonValue::object();
    JsonValue cs = JsonValue::object();
    for (const auto &[name, value] : counters)
        cs.set(name, JsonValue(value));
    out.set("counters", std::move(cs));
    JsonValue gs = JsonValue::object();
    for (const auto &[name, value] : gauges)
        gs.set(name, JsonValue(value));
    out.set("gauges", std::move(gs));
    JsonValue hs = JsonValue::object();
    for (const auto &[name, hist] : histograms) {
        JsonValue h = JsonValue::object();
        h.set("count", JsonValue(hist.count));
        h.set("sum", JsonValue(hist.sum));
        // Sparse encoding: only non-zero buckets, as [index, count]
        // pairs, so idle histograms stay one line.
        JsonValue buckets = JsonValue::array();
        for (std::size_t i = 0; i < HistogramSnapshot::kBuckets;
             ++i) {
            if (hist.buckets[i] == 0)
                continue;
            JsonValue pair = JsonValue::array();
            pair.push_back(JsonValue(static_cast<std::uint64_t>(i)));
            pair.push_back(JsonValue(hist.buckets[i]));
            buckets.push_back(std::move(pair));
        }
        h.set("buckets", std::move(buckets));
        hs.set(name, std::move(h));
    }
    out.set("histograms", std::move(hs));
    return out;
}

MetricsSnapshot
MetricsSnapshot::fromJson(const JsonValue &v)
{
    MetricsSnapshot out;
    jsonMaybe(v, "counters", [&](const JsonValue &cs) {
        for (const auto &[name, value] : cs.asObject())
            out.counters[name] = value.asUint();
    });
    jsonMaybe(v, "gauges", [&](const JsonValue &gs) {
        for (const auto &[name, value] : gs.asObject())
            out.gauges[name] = value.asInt();
    });
    jsonMaybe(v, "histograms", [&](const JsonValue &hs) {
        for (const auto &[name, h] : hs.asObject()) {
            HistogramSnapshot hist;
            hist.count = h.at("count").asUint();
            hist.sum = h.at("sum").asUint();
            for (const JsonValue &pair :
                 h.at("buckets").asArray()) {
                const std::size_t i = static_cast<std::size_t>(
                    pair.asArray().at(0).asUint());
                if (i < HistogramSnapshot::kBuckets)
                    hist.buckets[i] =
                        pair.asArray().at(1).asUint();
            }
            out.histograms[name] = hist;
        }
    });
    return out;
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot out;
    for (const auto &[name, counter] : counters_)
        out.counters[name] = counter->total();
    for (const auto &[name, gauge] : gauges_)
        out.gauges[name] = gauge->value();
    for (const auto &[name, hist] : histograms_)
        out.histograms[name] = hist->snapshot();
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Zero contents in place: cached references must stay valid.
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, gauge] : gauges_)
        gauge->set(0);
    for (auto &[name, hist] : histograms_)
        hist->reset();
}

std::vector<std::pair<std::string, JsonValue>>
readMetricsDumps(const std::string &sweepDir)
{
    std::vector<std::pair<std::string, JsonValue>> dumps;
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             sweepMetricsDir(sweepDir), ec)) {
        if (entry.is_regular_file()
            && entry.path().extension() == ".json")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string &path : files) {
        std::string text;
        if (!readTextFile(path, text))
            continue;
        try {
            dumps.emplace_back(
                std::filesystem::path(path).stem().string(),
                JsonValue::parse(text));
        } catch (const std::exception &) {
            // A torn or in-flight dump is skipped, not fatal.
        }
    }
    return dumps;
}

JsonValue
aggregateMetricsJson(
    const std::vector<std::pair<std::string, JsonValue>> &dumps)
{
    MetricsSnapshot merged;
    std::vector<std::string> sources;
    std::int64_t as_of_ms = 0;
    for (const auto &[token, dump] : dumps) {
        try {
            merged.merge(MetricsSnapshot::fromJson(dump));
            sources.push_back(token);
            jsonMaybe(dump, "updatedMs", [&](const JsonValue &v) {
                as_of_ms = std::max(as_of_ms, v.asInt());
            });
        } catch (const std::exception &) {
            // Skip malformed dumps; the view stays advisory.
        }
    }
    std::sort(sources.begin(), sources.end());

    JsonValue out = JsonValue::object();
    out.set("schemaVersion", JsonValue(std::int64_t{1}));
    // Newest input dump's wall stamp (still a pure function of the
    // dumps); 0 when no dump carries one.
    out.set("asOfMs", JsonValue(as_of_ms));
    out.set("processes", JsonValue(static_cast<std::uint64_t>(
                             sources.size())));
    JsonValue src = JsonValue::array();
    for (const std::string &token : sources)
        src.push_back(JsonValue(token));
    out.set("sources", std::move(src));

    JsonValue cs = JsonValue::object();
    for (const auto &[name, value] : merged.counters)
        cs.set(name, JsonValue(value));
    out.set("counters", std::move(cs));
    JsonValue gs = JsonValue::object();
    for (const auto &[name, value] : merged.gauges)
        gs.set(name, JsonValue(value));
    out.set("gauges", std::move(gs));

    // Histograms surface as per-phase latency rows: counts plus
    // total/mean/percentile milliseconds derived from the merged
    // log2 buckets (midpoint estimate, deterministic).
    JsonValue phases = JsonValue::object();
    for (const auto &[name, hist] : merged.histograms) {
        JsonValue row = JsonValue::object();
        row.set("count", JsonValue(hist.count));
        const double totalMs =
            static_cast<double>(hist.sum) / 1e6;
        row.set("totalMs", JsonValue(totalMs));
        row.set("meanMs",
                JsonValue(hist.count == 0
                              ? 0.0
                              : totalMs
                                  / static_cast<double>(hist.count)));
        row.set("p50Ms", JsonValue(hist.quantile(0.50) / 1e6));
        row.set("p90Ms", JsonValue(hist.quantile(0.90) / 1e6));
        row.set("p99Ms", JsonValue(hist.quantile(0.99) / 1e6));
        phases.set(name, std::move(row));
    }
    out.set("phases", std::move(phases));
    return out;
}

} // namespace treevqa
