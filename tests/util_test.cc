#include <gtest/gtest.h>

#include <condition_variable>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "census/census.h"
#include "util/bucket_queue.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace egocensus {
namespace {

// ---- annotated mutex wrappers (util/mutex.h) ----------------------------
// Behavioral smoke only: the annotations themselves are checked by clang's
// -Wthread-safety in CI and by egolint's lock-discipline check. Under TSan
// these tests double as a data-race probe for the wrappers.

TEST(MutexTest, MutexLockExcludesConcurrentWriters) {
  Mutex mu;
  long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, 4 * 10000);
}

TEST(MutexTest, EarlyUnlockReleases) {
  Mutex mu;
  MutexLock lock(mu);
  lock.Unlock();
  EXPECT_TRUE(mu.TryLock());  // released: reacquirable
  mu.Unlock();
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  mu.Lock();
  std::thread other([&] { EXPECT_FALSE(mu.TryLock()); });
  other.join();
  mu.Unlock();
}

TEST(MutexTest, WaitReacquiresAndSeesNotify) {
  Mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(mu);
    while (!ready) lock.Wait(cv);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(MutexTest, WaitForTimesOutWithoutNotify) {
  Mutex mu;
  std::condition_variable cv;
  MutexLock lock(mu);
  lock.WaitFor(cv, std::chrono::milliseconds(5));  // must not deadlock
}

TEST(SharedMutexTest, SharedReadersOverlapExclusiveWriterExcludes) {
  SharedMutex mu;
  int value = 0;
  {
    SharedMutexLock r1(mu);
    SharedMutexLock r2(mu);  // two shared holders at once: fine
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        SharedMutexExclusiveLock lock(mu);
        ++value;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 5000; ++i) {
      SharedMutexLock lock(mu);
      EXPECT_GE(value, 0);
    }
  });
  for (auto& thread : threads) thread.join();
  SharedMutexLock lock(mu);
  EXPECT_EQ(value, 2 * 5000);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "PARSE_ERROR: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "hello");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    std::int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoolRespectsProbabilityRoughly) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_GT(hits, 2500);
  EXPECT_LT(hits, 3500);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  auto sample = rng.SampleWithoutReplacement(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::uint32_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 20u);
  for (auto v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleRequestLargerThanUniverse) {
  Rng rng(21);
  auto sample = rng.SampleWithoutReplacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(BucketQueueTest, PopsInScoreOrder) {
  BucketQueue<int> q(10);
  q.Push(1, 5);
  q.Push(2, 3);
  q.Push(3, 7);
  q.Push(4, 3);
  std::size_t score;
  std::set<int> first_two;
  first_two.insert(q.PopMin(&score));
  EXPECT_EQ(score, 3u);
  first_two.insert(q.PopMin(&score));
  EXPECT_EQ(score, 3u);
  EXPECT_EQ(first_two, (std::set<int>{2, 4}));
  EXPECT_EQ(q.PopMin(&score), 1);
  EXPECT_EQ(score, 5u);
  EXPECT_EQ(q.PopMin(&score), 3);
  EXPECT_TRUE(q.Empty());
}

TEST(BucketQueueTest, CursorRewindsOnLowerPush) {
  BucketQueue<int> q(10);
  q.Push(1, 8);
  std::size_t score;
  EXPECT_EQ(q.PopMin(&score), 1);
  q.Push(2, 2);  // below the cursor position
  EXPECT_EQ(q.PopMin(&score), 2);
  EXPECT_EQ(score, 2u);
}

TEST(BucketQueueTest, SizeAndClear) {
  BucketQueue<int> q(4);
  q.Push(1, 0);
  q.Push(2, 4);
  EXPECT_EQ(q.Size(), 2u);
  q.Clear();
  EXPECT_TRUE(q.Empty());
  q.Push(3, 1);
  EXPECT_EQ(q.PopMin(), 3);
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  abc \t\n"), "abc");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, Split) {
  auto parts = Split("a, b ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(Split("", ',').size(), 1u);
  EXPECT_EQ(Split("a,,b", ',').size(), 3u);
}

TEST(StringsTest, ParseUintIsStrict) {
  auto code = [](std::string_view text, std::uint64_t max) {
    auto value = ParseUint(text, max);
    return value.ok() ? StatusCode::kOk : value.status().code();
  };
  EXPECT_EQ(code("", 10), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("-1", 10), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("+1", 10), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(" 1", 10), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("1 ", 10), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("10x", 100), StatusCode::kInvalidArgument);
  // 20 digits: past 2^64 - 1, which must not wrap into range.
  EXPECT_EQ(code("99999999999999999999", ~0ull), StatusCode::kOutOfRange);
  EXPECT_EQ(code("18446744073709551616", ~0ull), StatusCode::kOutOfRange);
  auto max64 = ParseUint("18446744073709551615", ~0ull);
  ASSERT_TRUE(max64.ok());
  EXPECT_EQ(*max64, ~0ull);
  // Exactly max parses; max + 1 is out of range.
  auto at_max = ParseUint("256", 256);
  ASSERT_TRUE(at_max.ok());
  EXPECT_EQ(*at_max, 256u);
  EXPECT_EQ(code("257", 256), StatusCode::kOutOfRange);
  auto zero = ParseUint("007", 10);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, 7u);
}

TEST(StringsTest, ParseDoubleIsStrict) {
  auto half = ParseDouble("0.5");
  ASSERT_TRUE(half.ok());
  EXPECT_EQ(*half, 0.5);
  for (const char* bad : {"", "abc", "0.5x", " 0.5", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(ParseDouble(bad).ok()) << bad;
  }
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToUpper("aBc"), "ABC");
  EXPECT_EQ(ToLower("aBc"), "abc");
  EXPECT_TRUE(EqualsIgnoreCase("Select", "SELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("Select", "SELECTS"));
  EXPECT_TRUE(StartsWith("SUBGRAPH(", "SUBGRAPH"));
  EXPECT_FALSE(StartsWith("SUB", "SUBGRAPH"));
}

TEST(TablePrinterTest, AlignedText) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  std::ostringstream os;
  t.PrintText(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, Csv) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, FormatDouble) {
  EXPECT_EQ(TablePrinter::FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FormatDouble(2.0, 0), "2");
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"1"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b,c\n1,,\n");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds() * 1e3 - 1e3);
}

TEST(TimerTest, MicrosConsistentWithSeconds) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  double micros = t.ElapsedMicros();
  double seconds = t.ElapsedSeconds();
  EXPECT_GE(micros, 0.0);
  // ElapsedMicros is the same reading scaled; a later ElapsedSeconds can
  // only be larger.
  EXPECT_LE(micros, seconds * 1e6 + 1.0);
}

TEST(TimerTest, NowMicrosMonotone) {
  std::uint64_t a = Timer::NowMicros();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  std::uint64_t b = Timer::NowMicros();
  EXPECT_GE(b, a);
}

TEST(StringsTest, EndsWith) {
  EXPECT_TRUE(EndsWith("metrics.csv", ".csv"));
  EXPECT_TRUE(EndsWith("x", ""));
  EXPECT_FALSE(EndsWith("metrics.json", ".csv"));
  EXPECT_FALSE(EndsWith("sv", ".csv"));
}

TEST(CensusStatsTest, MergeSumsCountersAndTimes) {
  CensusStats a;
  a.num_matches = 3;
  a.match_seconds = 0.5;
  a.index_seconds = 0.25;
  a.census_seconds = 1.0;
  a.nodes_expanded = 100;
  a.reinsertions = 7;
  a.containment_checks = 40;
  CensusStats b;
  b.num_matches = 2;
  b.match_seconds = 0.5;
  b.index_seconds = 0.75;
  b.census_seconds = 2.0;
  b.nodes_expanded = 50;
  b.reinsertions = 3;
  b.containment_checks = 10;
  a.Merge(b);
  EXPECT_EQ(a.num_matches, 5u);
  EXPECT_DOUBLE_EQ(a.match_seconds, 1.0);
  EXPECT_DOUBLE_EQ(a.index_seconds, 1.0);
  EXPECT_DOUBLE_EQ(a.census_seconds, 3.0);
  EXPECT_EQ(a.nodes_expanded, 150u);
  EXPECT_EQ(a.reinsertions, 10u);
  EXPECT_EQ(a.containment_checks, 50u);
  EXPECT_DOUBLE_EQ(a.TotalSeconds(), 5.0);
}

TEST(CensusStatsTest, MergeMaxesPeakMetrics) {
  CensusStats a;
  a.threads_used = 2;
  a.peak_neighborhood = 10;
  CensusStats b;
  b.threads_used = 8;
  b.peak_neighborhood = 4;
  a.Merge(b);
  EXPECT_EQ(a.threads_used, 8u);
  EXPECT_EQ(a.peak_neighborhood, 10u);
  // Max-merge is order-insensitive: merging the other way agrees.
  CensusStats c;
  c.threads_used = 8;
  c.peak_neighborhood = 4;
  CensusStats d;
  d.threads_used = 2;
  d.peak_neighborhood = 10;
  c.Merge(d);
  EXPECT_EQ(c.threads_used, a.threads_used);
  EXPECT_EQ(c.peak_neighborhood, a.peak_neighborhood);
}

}  // namespace
}  // namespace egocensus
