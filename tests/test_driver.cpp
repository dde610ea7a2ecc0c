// Unit tests: driver — tables, experiment configs, latency/throughput
// measurement, recall-over-time reconstruction.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "corpus/datasets.h"
#include "driver/bench_driver.h"
#include "driver/experiment.h"
#include "driver/table.h"
#include "test_helpers.h"

namespace sparta::driver {
namespace {

TEST(TableTest, PrintAndCsv) {
  Table table("Test Table 1", {"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"beta", "22"});
  std::ostringstream oss;
  table.Print(oss);
  const auto text = oss.str();
  EXPECT_NE(text.find("Test Table 1"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);

  const std::string dir = "/tmp/sparta_table_test";
  ASSERT_TRUE(table.WriteCsv(dir));
  std::ifstream csv(dir + "/test_table_1.csv");
  ASSERT_TRUE(csv.good());
  std::string line;
  std::getline(csv, line);
  EXPECT_EQ(line, "name,value");
  std::getline(csv, line);
  EXPECT_EQ(line, "alpha,1");
  std::filesystem::remove_all(dir);
}

TEST(FormatTest, Helpers) {
  EXPECT_EQ(FormatMs(1'500'000), "1.5");
  EXPECT_EQ(FormatPct(0.975), "97.5%");
  EXPECT_EQ(FormatF(3.14159, 2), "3.14");
}

TEST(ExperimentTest, VariantCatalogs) {
  const auto exact = ExactVariants();
  EXPECT_EQ(exact.size(), 6u);
  for (const auto& v : exact) {
    EXPECT_EQ(v.params.delta, exec::kNever);
    EXPECT_EQ(v.params.f, 1.0);
    EXPECT_EQ(v.params.p, 1.0);
    EXPECT_NE(algos::MakeAlgorithm(v.algorithm), nullptr) << v.label;
  }
  const auto high = HighRecallVariants();
  EXPECT_EQ(high.size(), 6u);
  const auto low = LowRecallVariants();
  EXPECT_EQ(low.size(), 2u);
  EXPECT_EQ(WorkersFor(3), 3);
  EXPECT_EQ(WorkersFor(40), kMachineWorkers);
}

class DriverTest : public ::testing::Test {
 protected:
  DriverTest()
      : dataset_(corpus::GetDataset(corpus::TinySpec(2500, 31),
                                    "/tmp/sparta_test_data")) {}

  const corpus::Dataset& dataset_;
};

TEST_F(DriverTest, MeasureLatencyBasics) {
  BenchDriver bench(dataset_);
  const auto algo = algos::MakeAlgorithm("Sparta");
  topk::SearchParams params;
  params.k = 10;
  const auto& queries = dataset_.queries().OfLength(4);
  const auto res = bench.MeasureLatency(
      *algo, {queries.data(), 5}, params, 4);
  EXPECT_EQ(res.queries, 5u);
  EXPECT_EQ(res.oom, 0u);
  EXPECT_EQ(res.latency_ns.count(), 5u);
  EXPECT_GT(res.MeanMs(), 0.0);
  EXPECT_GE(res.P95Ms(), res.MeanMs() * 0.5);
  EXPECT_DOUBLE_EQ(res.mean_recall, 1.0);  // exact mode
}

TEST_F(DriverTest, OracleIsCached) {
  BenchDriver bench(dataset_);
  const auto& q = dataset_.queries().OfLength(3)[0];
  const auto& a = bench.Oracle(q, 10);
  const auto& b = bench.Oracle(q, 10);
  EXPECT_EQ(&a, &b);  // same object
  const auto& c = bench.Oracle(q, 5);
  EXPECT_NE(&a, &c);  // different k
}

TEST_F(DriverTest, ThroughputProcessesAllQueries) {
  BenchDriver bench(dataset_);
  const auto algo = algos::MakeAlgorithm("Sparta");
  topk::SearchParams params;
  params.k = 10;
  const auto& queries = dataset_.queries().OfLength(3);
  const auto res = bench.MeasureThroughput(
      *algo, {queries.data(), 10}, params, 4);
  EXPECT_EQ(res.queries, 10u);
  EXPECT_EQ(res.oom, 0u);
  EXPECT_GT(res.qps, 0.0);
  EXPECT_DOUBLE_EQ(res.mean_recall, 1.0);
}

TEST_F(DriverTest, ThroughputFreesEachFinishedQuery) {
  // Warm-up and measured queries alike are harvested as they finish, so
  // the runs alive at once stay near the queries in flight.
  BenchDriver bench(dataset_);
  const auto algo = algos::MakeAlgorithm("Sparta");
  const test::CountingAlgorithm counting(*algo);
  topk::SearchParams params;
  params.k = 10;
  std::vector<corpus::Query> queries;
  for (int len = 2; len <= 4; ++len) {
    const auto& bucket = dataset_.queries().OfLength(len);
    queries.insert(queries.end(), bucket.begin(), bucket.begin() + 20);
  }
  const auto res = bench.MeasureThroughput(counting, queries, params, 4,
                                           /*warmup=*/20);
  EXPECT_EQ(res.queries, 40u);
  EXPECT_DOUBLE_EQ(res.mean_recall, 1.0);
  EXPECT_EQ(counting.prepared(), 60u);
  EXPECT_LE(counting.peak_live(), 8u);
  EXPECT_EQ(counting.live(), 0u);
}

TEST_F(DriverTest, ThroughputBeatsOneByOneLatency) {
  // A shared pool processing short queries FCFS must finish faster than
  // running them strictly one after another at full width.
  BenchDriver bench(dataset_);
  const auto algo = algos::MakeAlgorithm("Sparta");
  topk::SearchParams params;
  params.k = 10;
  const auto& queries = dataset_.queries().OfLength(2);
  const std::span<const corpus::Query> span{queries.data(), 12};

  const auto latency = bench.MeasureLatency(*algo, span, params, 12,
                                            /*measure_recall=*/false);
  const auto throughput = bench.MeasureThroughput(*algo, span, params, 12);
  double serial_ns = 0;
  for (const auto s : latency.latency_ns.samples()) {
    serial_ns += static_cast<double>(s);
  }
  const double fcfs_ns = 12.0 / throughput.qps * 1e9;
  EXPECT_LT(fcfs_ns, serial_ns * 1.05);
}

TEST(RecallOverTimeTest, ReconstructsKnownTrace) {
  TraceRecorder trace;
  // Events: doc 1 enters at t=10 with 100; doc 2 at t=20 with 90;
  // doc 3 at t=30 with 80 displacing nothing (k=2 keeps top 2).
  trace.OnHeapUpdate(10, 1, 100);
  trace.OnHeapUpdate(20, 2, 90);
  trace.OnHeapUpdate(30, 3, 80);

  topk::ExactTopK exact;
  exact.topk = {{1, 100}, {2, 90}};
  exact.kth_score = 90;

  const std::vector<exec::VirtualTime> offsets{5, 15, 25, 35};
  const auto recalls = RecallOverTime(trace, 0, exact, offsets);
  ASSERT_EQ(recalls.size(), 4u);
  EXPECT_DOUBLE_EQ(recalls[0], 0.0);
  EXPECT_DOUBLE_EQ(recalls[1], 0.5);
  EXPECT_DOUBLE_EQ(recalls[2], 1.0);
  EXPECT_DOUBLE_EQ(recalls[3], 1.0);  // doc 3 cannot displace the top 2
}

TEST(RecallOverTimeTest, LaterValueOverridesEarlier) {
  TraceRecorder trace;
  trace.OnHeapUpdate(10, 7, 10);   // enters low
  trace.OnHeapUpdate(20, 8, 50);
  trace.OnHeapUpdate(30, 7, 100);  // doc 7's bound grows

  topk::ExactTopK exact;
  exact.topk = {{7, 100}};
  exact.kth_score = 100;
  const std::vector<exec::VirtualTime> offsets{25, 35};
  const auto recalls = RecallOverTime(trace, 0, exact, offsets);
  // At t=25 doc 8 (50) outranks doc 7 (10): recall 0. At t=35, doc 7
  // leads again.
  EXPECT_DOUBLE_EQ(recalls[0], 0.0);
  EXPECT_DOUBLE_EQ(recalls[1], 1.0);
}

TEST(DatasetTest, TinyDatasetWellFormedAndCached) {
  const auto spec = corpus::TinySpec(1800, 37);
  const auto& ds = corpus::GetDataset(spec, "/tmp/sparta_test_data");
  EXPECT_EQ(ds.index().num_docs(), 1800u);
  EXPECT_GT(ds.PageCacheBytes(), 0u);
  EXPECT_EQ(&corpus::GetDataset(spec, "/tmp/sparta_test_data"), &ds);
  // The cache file exists on disk for the next process.
  bool found = false;
  for (const auto& entry :
       std::filesystem::directory_iterator("/tmp/sparta_test_data")) {
    if (entry.path().string().find(spec.name) != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RecallOverTimeTest, EventOrderInvariantWithTiedScores) {
  // Golden-stability regression: the reconstruction used to rebuild the
  // sample heap from an unordered_map, so reported curves could depend
  // on hash iteration order when tied scores straddle the k boundary.
  // The same event set delivered in any order must now yield the same
  // curve (the best-score map iterates in doc-id order).
  topk::ExactTopK exact;
  exact.topk = {{0, 90}, {1, 90}};
  exact.kth_score = 90;
  const std::vector<exec::VirtualTime> offsets{50, 200};

  auto reconstruct = [&](const std::vector<DocId>& order) {
    TraceRecorder trace;
    for (const DocId doc : order) trace.OnHeapUpdate(10, doc, 90);
    return RecallOverTime(trace, 0, exact, offsets);
  };

  std::vector<DocId> forward, reversed, shuffled;
  for (DocId d = 0; d < 32; ++d) forward.push_back(d);
  reversed.assign(forward.rbegin(), forward.rend());
  for (DocId d = 0; d < 32; ++d) shuffled.push_back((d * 13) % 32);

  const auto base = reconstruct(forward);
  EXPECT_EQ(base, reconstruct(reversed));
  EXPECT_EQ(base, reconstruct(shuffled));
}

}  // namespace
}  // namespace sparta::driver
