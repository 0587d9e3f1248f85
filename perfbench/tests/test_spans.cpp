/**
 * @file
 * Self-time arithmetic over hand-built spans: nested children,
 * children overlapping across threads, and zero-length spans.
 */

#include <gtest/gtest.h>

#include <thread>

#include "spans.h"

using perfbench::layerSelfTimesNs;
using perfbench::Span;
using perfbench::SpanRecorder;

namespace {

Span
span(const char *name, std::int64_t id, std::int64_t parent,
     std::int64_t start, std::int64_t end, int thread = 0)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    s.thread = thread;
    return s;
}

std::int64_t
total(const std::map<std::string, std::int64_t> &parts)
{
    std::int64_t sum = 0;
    for (const auto &[name, ns] : parts)
        sum += ns;
    return sum;
}

} // namespace

TEST(SelfTime, NestedChildren)
{
    // root [0,100) > step [10,60) > objective [20,50); step [70,90).
    const std::vector<Span> spans = {
        span("root", 1, 0, 0, 100),
        span("step", 2, 1, 10, 60),
        span("objective", 3, 2, 20, 50),
        span("step", 4, 1, 70, 90),
    };
    const auto self = layerSelfTimesNs(spans, 1);
    EXPECT_EQ(self.at("root"), 100 - 50 - 20);
    EXPECT_EQ(self.at("step"), (50 - 30) + 20);
    EXPECT_EQ(self.at("objective"), 30);
    EXPECT_EQ(total(self), 100);

    // A subtree root sees only its own descendants.
    const auto step = layerSelfTimesNs(spans, 2);
    EXPECT_EQ(step.at("step"), 20);
    EXPECT_EQ(step.at("objective"), 30);
    EXPECT_EQ(step.count("root"), 0u);
}

TEST(SelfTime, ChildrenOverlappingAcrossThreads)
{
    // A parallel round: three steps of one root on three lanes, each
    // with an objective call; they overlap in time.
    const std::vector<Span> spans = {
        span("run", 1, 0, 0, 100, 0),
        span("step", 2, 1, 10, 50, 0),
        span("step", 3, 1, 20, 60, 1),
        span("step", 4, 1, 40, 80, 2),
        span("objective", 5, 2, 15, 45, 0),
        span("objective", 6, 3, 25, 55, 1),
        span("objective", 7, 4, 70, 75, 2),
    };
    // The run's children cover [10,80): their union, not their sum.
    // Objectives cover [15,55) and [70,75) = 45; the steps' share is
    // the rest of [10,80) = 25. The shares sum to the root's wall.
    const auto self = layerSelfTimesNs(spans, 1);
    EXPECT_EQ(self.at("run"), 100 - 70);
    EXPECT_EQ(self.at("step"), 25);
    EXPECT_EQ(self.at("objective"), 45);
    EXPECT_EQ(total(self), 100);
}

TEST(SelfTime, ZeroLengthSpans)
{
    const std::vector<Span> spans = {
        span("root", 1, 0, 0, 50),
        span("step", 2, 1, 10, 10),
        span("objective", 3, 2, 10, 10),
        span("empty_root", 4, 0, 60, 60),
    };
    const auto self = layerSelfTimesNs(spans, 1);
    EXPECT_EQ(self.at("root"), 50);
    EXPECT_EQ(self.count("step"), 0u);
    EXPECT_EQ(self.count("objective"), 0u);
    EXPECT_EQ(total(self), 50);
    EXPECT_TRUE(layerSelfTimesNs(spans, 4).empty());
    EXPECT_TRUE(layerSelfTimesNs(spans, 99).empty());
}

TEST(SelfTime, ChildrenClippedToRoot)
{
    // A child that outlives its root counts only inside it.
    const std::vector<Span> spans = {
        span("root", 1, 0, 0, 40),
        span("step", 2, 1, 30, 70),
    };
    const auto self = layerSelfTimesNs(spans, 1);
    EXPECT_EQ(self.at("root"), 30);
    EXPECT_EQ(self.at("step"), 10);
    EXPECT_EQ(total(self), 40);
}

TEST(SpanRecorder, ParentsFromStackAndRoot)
{
    SpanRecorder::enable(true);
    std::int64_t root = 0;
    {
        const perfbench::ScopedSpan outer("outer");
        root = outer.id();
        const perfbench::ScopedSpan inner("inner", 7);
        SpanRecorder::setRoot(root);
        std::thread([] { const perfbench::ScopedSpan lane("lane"); }).join();
        SpanRecorder::setRoot(0);
    }
    SpanRecorder::enable(false);
    { const perfbench::ScopedSpan off("off"); }

    const std::vector<Span> spans = SpanRecorder::drain();
    ASSERT_EQ(spans.size(), 3u);
    std::map<std::string, Span> byName;
    for (const Span &s : spans)
        byName[s.name] = s;
    EXPECT_EQ(byName.at("outer").parent, 0);
    EXPECT_EQ(byName.at("inner").parent, root);
    EXPECT_EQ(byName.at("inner").count, 7);
    EXPECT_EQ(byName.at("lane").parent, root);
    EXPECT_NE(byName.at("lane").thread, byName.at("outer").thread);
    EXPECT_TRUE(SpanRecorder::drain().empty());
}
