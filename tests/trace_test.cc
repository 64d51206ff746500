#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace youtopia {
namespace obs {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

TEST(TraceTest, DisabledRecordsNothing) {
  Tracer& t = Tracer::Global();
  t.SetEnabled(false);
  t.Clear();
  {
    TraceSpan span(TraceName::kChase, 1);
    TraceInstant(TraceName::kAbort, 2);
    TraceCommit(3);
  }
  EXPECT_EQ(t.EventCountForTest(), 0u);
}

TEST(TraceTest, SpanInstantAndCommitRecordWhenEnabled) {
  Tracer& t = Tracer::Global();
  t.SetEnabled(true);
  t.Clear();
  {
    TraceSpan span(TraceName::kChase, 7);
    TraceInstant(TraceName::kAbort, 8);
  }
  TraceCommit(9);
  t.SetEnabled(false);
  EXPECT_EQ(t.EventCountForTest(), 3u);
}

TEST(TraceTest, SpanArmsAtConstructionNotDestruction) {
  // A span constructed while tracing is off must stay a no-op even if
  // tracing turns on before it ends (its start timestamp was never taken).
  Tracer& t = Tracer::Global();
  t.SetEnabled(false);
  t.Clear();
  {
    TraceSpan span(TraceName::kOp, 1);
    t.SetEnabled(true);
  }
  t.SetEnabled(false);
  EXPECT_EQ(t.EventCountForTest(), 0u);
}

TEST(TraceTest, RingWrapsAndCountsDrops) {
  Tracer& t = Tracer::Global();
  t.SetEnabled(true);
  t.Clear();
  t.SetRingCapacity(4);
  // Capacity applies to rings created after the call: record on a fresh
  // thread so its ring is born with the shrunken capacity.
  std::thread recorder([&t] {
    for (uint64_t i = 0; i < 10; ++i) t.RecordInstant(TraceName::kEscape, i);
  });
  recorder.join();
  t.SetEnabled(false);
  t.SetRingCapacity(1u << 15);
  EXPECT_EQ(t.EventCountForTest(), 4u);
  EXPECT_EQ(t.DroppedCountForTest(), 6u);
  // The ring keeps the NEWEST window: args 6..9 survive.
  const std::string path = TempPath("youtopia_trace_wrap.json");
  ASSERT_TRUE(t.DumpJson(path));
  const std::string json = ReadAll(path);
  EXPECT_NE(json.find("{\"op\":9}"), std::string::npos);
  EXPECT_EQ(json.find("{\"op\":0}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceTest, DumpMergesThreadsIntoWellFormedJson) {
  Tracer& t = Tracer::Global();
  t.SetEnabled(true);
  t.Clear();
  TraceCommit(100);  // this thread's ring
  std::thread other([&t] {
    TraceSpan span(TraceName::kChase, 200);
  });
  other.join();
  t.SetEnabled(false);
  const std::string path = TempPath("youtopia_trace_merge.json");
  ASSERT_TRUE(t.DumpJson(path));
  const std::string json = ReadAll(path);
  // Chrome trace-event envelope with both threads' events present.
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"chase\""), std::string::npos);
  EXPECT_NE(json.find("{\"op\":100}"), std::string::npos);
  EXPECT_NE(json.find("{\"op\":200}"), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness check without a JSON
  // parser (tools/check_trace.py does the real validation in CI).
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(path.c_str());
}

TEST(TraceTest, DumpTimestampsAreRebasedAndOrdered) {
  Tracer& t = Tracer::Global();
  t.SetEnabled(true);
  t.Clear();
  const uint64_t now = MonotonicNs();
  // An enclosing span and a child at the same start: the parent (longer
  // duration) must come first so viewers nest them correctly.
  t.RecordSpan(TraceName::kOp, now, now + 5000, 1);
  t.RecordSpan(TraceName::kChase, now, now + 1000, 1);
  t.SetEnabled(false);
  const std::string path = TempPath("youtopia_trace_order.json");
  ASSERT_TRUE(t.DumpJson(path));
  const std::string json = ReadAll(path);
  // First event is rebased to ts 0.000.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_LT(json.find("\"name\":\"op\""), json.find("\"name\":\"chase\""));
  std::remove(path.c_str());
}

TEST(TraceTest, DumpFailsOnUnwritablePath) {
  EXPECT_FALSE(Tracer::Global().DumpJson("/nonexistent-dir/trace.json"));
}

TEST(TraceTest, DisabledPathIsCheap) {
  // The deterministic disabled-path overhead gate backing the CI trace
  // steps: a span while tracing is off must stay one relaxed atomic load
  // and a branch — no lock, no clock read, no ring write. The 1us/span
  // bound is ~500x the real cost, so scheduler noise and sanitizer
  // instrumentation cannot trip it, while an accidental always-record
  // regression (say, every span taking the registration mutex) lands far
  // above it.
  Tracer& t = Tracer::Global();
  t.SetEnabled(false);
  t.Clear();
  constexpr uint64_t kIters = 200000;
  const uint64_t start = MonotonicNs();
  for (uint64_t i = 0; i < kIters; ++i) {
    TraceSpan span(TraceName::kChase, i);
  }
  const uint64_t per_span_ns = (MonotonicNs() - start) / kIters;
  EXPECT_EQ(t.EventCountForTest(), 0u);
  EXPECT_LT(per_span_ns, 1000u)
      << "disabled TraceSpan costs " << per_span_ns << " ns";
}

}  // namespace
}  // namespace obs
}  // namespace youtopia
