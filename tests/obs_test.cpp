// Tests for the tracing layer (src/obs/): span lifecycle, nesting, thread
// attribution, disabled-mode no-op behavior, and the exported Chrome-trace
// JSON schema (golden).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "serve/streaming.hpp"
#include "sim/dataset.hpp"

namespace earsonar::obs {
namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ span basics

TEST(TraceTest, SpanRecordsNameCategoryAndDuration) {
  TraceRecorder recorder;
  recorder.enable();
  {
    Span span("stage_a", "testing", recorder);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "stage_a");
  EXPECT_EQ(events[0].category, "testing");
  EXPECT_GE(events[0].dur_us, 1000u);
  EXPECT_GT(events[0].tid, 0u);
}

TEST(TraceTest, SpanArgIsRecorded) {
  TraceRecorder recorder;
  recorder.enable();
  {
    Span span("chirp", "testing", recorder);
    span.set_arg("index", 7);
  }
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].arg_name, "index");
  EXPECT_EQ(events[0].arg_value, 7);
}

TEST(TraceTest, EndIsIdempotentAndFreezesElapsed) {
  TraceRecorder recorder;
  recorder.enable();
  Span span("once", "testing", recorder);
  span.end();
  const double frozen = span.elapsed_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  span.end();
  EXPECT_DOUBLE_EQ(span.elapsed_ms(), frozen);
  EXPECT_EQ(recorder.size(), 1u);
}

// ------------------------------------------------------------------ nesting

TEST(TraceTest, NestedSpansLieInsideTheirParent) {
  TraceRecorder recorder;
  recorder.enable();
  {
    Span outer("outer", "testing", recorder);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    {
      Span inner("inner", "testing", recorder);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes (and records) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_EQ(inner.tid, outer.tid);  // same thread, same viewer row
}

// -------------------------------------------------------- thread attribution

TEST(TraceTest, SpansFromDifferentThreadsGetDistinctTids) {
  TraceRecorder recorder;
  recorder.enable();
  auto emit = [&recorder](const char* name) {
    Span span(name, "testing", recorder);
  };
  std::thread a(emit, "thread_a");
  std::thread b(emit, "thread_b");
  a.join();
  b.join();
  emit("main_thread");
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 3u);
}

TEST(TraceTest, SameThreadKeepsItsTid) {
  TraceRecorder recorder;
  recorder.enable();
  { Span s("first", "testing", recorder); }
  { Span s("second", "testing", recorder); }
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

// ------------------------------------------------------------- disabled mode

TEST(TraceTest, DisabledRecorderStoresNothing) {
  TraceRecorder recorder;  // disabled by default
  {
    Span span("ghost", "testing", recorder);
    span.set_arg("x", 1);
  }
  recorder.record_complete("ghost2", "testing", Clock::now(), Clock::now());
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceTest, DisabledSpanStillMeasuresElapsed) {
  TraceRecorder recorder;
  Span span("timer", "testing", recorder);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  span.end();
  EXPECT_GE(span.elapsed_ms(), 1.0);
}

TEST(TraceTest, SpanArmedAtConstructionNotAtEnd) {
  // Enabling mid-span must not record a half-observed interval.
  TraceRecorder recorder;
  {
    Span span("late", "testing", recorder);
    recorder.enable();
  }
  EXPECT_EQ(recorder.size(), 0u);
}

// ------------------------------------------- explicit (cross-thread) records

TEST(TraceTest, RecordCompleteUsesExplicitEndpoints) {
  TraceRecorder recorder;
  recorder.enable();
  const auto start = Clock::now();
  const auto end = start + std::chrono::milliseconds(5);
  recorder.record_complete("queue_wait", "serve", start, end, "depth", 3);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "queue_wait");
  EXPECT_EQ(events[0].dur_us, 5000u);
  EXPECT_EQ(events[0].arg_name, "depth");
  EXPECT_EQ(events[0].arg_value, 3);
}

TEST(TraceTest, ClearEmptiesTheRecorder) {
  TraceRecorder recorder;
  recorder.enable();
  { Span s("x", "testing", recorder); }
  EXPECT_EQ(recorder.size(), 1u);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
}

// ----------------------------------------------------- Chrome JSON schema

TEST(TraceJsonTest, GoldenExportMatchesExactly) {
  TraceRecorder recorder;
  recorder.enable();
  TraceEvent a;
  a.name = "filter";
  a.category = "pipeline";
  a.ts_us = 100;
  a.dur_us = 40;
  a.tid = 1;
  recorder.record(a);
  TraceEvent b;
  b.name = "segment_chirp";
  b.category = "pipeline";
  b.ts_us = 150;
  b.dur_us = 8;
  b.tid = 2;
  b.arg_name = "chirp";
  b.arg_value = 4;
  recorder.record(b);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"earsonar\"}},\n"
      "{\"name\":\"filter\",\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":100,"
      "\"dur\":40,\"pid\":1,\"tid\":1},\n"
      "{\"name\":\"segment_chirp\",\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":150,"
      "\"dur\":8,\"pid\":1,\"tid\":2,\"args\":{\"chirp\":4}}\n"
      "]}\n";
  EXPECT_EQ(recorder.chrome_json(), expected);
}

TEST(TraceJsonTest, EscapesQuotesAndBackslashes) {
  TraceRecorder recorder;
  recorder.enable();
  TraceEvent e;
  e.name = "odd\"name\\here";
  e.category = "testing";
  recorder.record(e);
  const std::string json = recorder.chrome_json();
  EXPECT_NE(json.find("odd\\\"name\\\\here"), std::string::npos);
}

TEST(TraceJsonTest, WriteChromeJsonRoundTripsThroughDisk) {
  TraceRecorder recorder;
  recorder.enable();
  { Span s("disk_span", "testing", recorder); }
  const std::string path =
      (std::filesystem::temp_directory_path() / "earsonar_trace_test.json").string();
  recorder.write_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, recorder.chrome_json());
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("disk_span"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TraceJsonTest, WriteToUnwritablePathThrows) {
  TraceRecorder recorder;
  EXPECT_THROW(recorder.write_chrome_json("/nonexistent_dir_xyz/trace.json"),
               std::runtime_error);
}

// ------------------------------------------- pipeline instrumentation (e2e)

TEST(TracePipelineTest, AnalyzeEmitsOneSpanPerStageAndPerChirp) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.clear();
  recorder.enable();

  sim::CohortConfig cfg;
  cfg.subject_count = 1;
  cfg.sessions_per_state = 1;
  cfg.probe.chirp_count = 10;
  const auto recordings = sim::CohortGenerator(cfg).generate();
  core::EarSonar pipeline;
  const core::EchoAnalysis analysis = pipeline.analyze(recordings.front().waveform);

  recorder.disable();
  const auto events = recorder.snapshot();
  recorder.clear();

  auto count = [&events](std::string_view name) {
    std::size_t n = 0;
    for (const TraceEvent& e : events)
      if (e.name == name) ++n;
    return n;
  };
  EXPECT_EQ(count("analyze"), 1u);
  EXPECT_EQ(count("filter"), 1u);
  EXPECT_EQ(count("event_detect"), 1u);
  EXPECT_EQ(count("segment"), 1u);
  EXPECT_EQ(count("features"), 1u);
  EXPECT_EQ(count("segment_chirp"), analysis.events.size());
  EXPECT_GT(analysis.events.size(), 0u);

  // The aggregate StageTimings view is derived from the same spans.
  EXPECT_GT(analysis.timings[pipeline::StageId::kFilter], 0.0);
  EXPECT_GT(analysis.timings[pipeline::StageId::kEventDetect], 0.0);
}

// Streaming ingest: one `stream_feed` span per chunk, carrying its sample
// count, while tracing; none while the recorder is off.
TEST(TracePipelineTest, StreamFeedSpansOnlyWhileTracing) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.clear();
  serve::StreamingConfig sc;
  sc.pipeline.preprocess.zero_phase = false;
  serve::StreamingSession session(sc);
  session.feed(std::vector<double>(480, 0.25));
  recorder.enable();
  session.feed(std::vector<double>(480, 0.25));
  session.feed(std::vector<double>(100, 0.5));
  recorder.disable();
  const auto events = recorder.snapshot();
  recorder.clear();

  std::vector<std::int64_t> fed;
  for (const TraceEvent& e : events)
    if (e.name == "stream_feed") {
      EXPECT_EQ(e.arg_name, "samples");
      fed.push_back(e.arg_value);
    }
  EXPECT_EQ(fed, (std::vector<std::int64_t>{480, 100}));
}

}  // namespace
}  // namespace earsonar::obs
