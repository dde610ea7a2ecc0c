// perfbench: the repository benchmark binary (driven by run.py).
//
//   perfbench prepare --data DIR
//       Builds or re-validates the dataset cache. Untimed; never part of
//       a measured run.
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1 --data DIR
//       Runs one workload on the warm cache and prints one JSON line:
//       {"correct", "attempted", "failed", "metrics", "problems",
//        "datasets"}. Exits 2 when the cache is missing.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "common.h"
#include "workloads.h"

namespace sparta::perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintOutcome(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    line += first ? "" : ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}, \"problems\": [";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    line += (i > 0 ? ", " : "") + JsonString(out.problems[i]);
  }
  line += "], \"datasets\": [";
  for (std::size_t i = 0; i < out.datasets.size(); ++i) {
    line += (i > 0 ? ", " : "") + JsonString(out.datasets[i]);
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
}

using WorkloadFn = Outcome (*)(const RunOptions&);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "paper_cw") return RunPaperCw;
  if (name == "serve_cw") return RunServeCw;
  if (name == "live_ingest") return RunLiveIngest;
  if (name == "cluster_hedged") return RunClusterHedged;
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare --data DIR\n"
               "       perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --data DIR\n");
  return 64;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if (flags.count("data") == 0) return Usage();

  if (command == "prepare") {
    PrepareDatasets(flags["data"]);
    return 0;
  }
  if (command != "run") return Usage();
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (flags.count(required) == 0) return Usage();
  }
  RunOptions opt;
  opt.workload = flags["workload"];
  opt.seed = std::stoull(flags["seed"]);
  opt.seconds = std::stod(flags["seconds"]);
  opt.trace = flags["trace"] == "1";
  opt.data_dir = flags["data"];

  const WorkloadFn run = FindWorkload(opt.workload);
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 64;
  }
  Outcome out = run(opt);
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (const auto& [name, m] : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.Problem("metric " + name + " is not finite");
    }
  }
  PrintOutcome(out);
  return 0;
}

}  // namespace
}  // namespace sparta::perfbench

int main(int argc, char** argv) {
  try {
    return sparta::perfbench::Main(argc, argv);
  } catch (const sparta::perfbench::SetupError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
