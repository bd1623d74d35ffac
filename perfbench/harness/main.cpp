// perfbench: runs one seeded workload of the benchmark and prints its result.
//
//   perfbench --workload <ckks_helr|ckks_client|tfhe_gates|sim_serve>
//             --seed <n> --seconds <s> --trace <0|1>
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "values": {name: number},
//    "record": {name: string}}
// run.py turns it into the benchmark's result line (units from BENCHMARK.json).
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate traced
// run that reports the per-layer split.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "harness.h"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ckks_helr|ckks_client|tfhe_gates|"
               "sim_serve> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_report(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"values\": {",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  bool first = true;
  for (const auto& [name, value] : rep.metrics) {
    if (!first) std::printf(", ");
    first = false;
    print_json_string(name);
    // Non-finite values are not JSON; they are reported as a failure below.
    std::printf(": %.17g", std::isfinite(value) ? value : 0.0);
  }
  std::printf("}, \"record\": {");
  first = true;
  for (const auto& [name, value] : rep.record) {
    if (!first) std::printf(", ");
    first = false;
    print_json_string(name);
    std::printf(": ");
    print_json_string(value);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        opt.trace = value == "1";
        have_trace = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) return usage();

  Report rep;
  rep.record["workload"] = opt.workload;
  rep.record["seed"] = std::to_string(opt.seed);
  rep.record["trace"] = opt.trace ? "1" : "0";
  try {
    if (opt.workload == "ckks_helr") perfbench::run_ckks_helr(opt, rep);
    else if (opt.workload == "ckks_client") perfbench::run_ckks_client(opt, rep);
    else if (opt.workload == "tfhe_gates") perfbench::run_tfhe_gates(opt, rep);
    else if (opt.workload == "sim_serve") perfbench::run_sim_serve(opt, rep);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (rep.attempted == 0) rep.fail("no op attempted");
  rep.metrics["failed_frac"] =
      static_cast<double>(rep.failed) / static_cast<double>(std::max<std::uint64_t>(rep.attempted, 1));
  for (const auto& [name, value] : rep.metrics) {
    if (!std::isfinite(value)) rep.fail("non-finite metric " + name);
  }
  perfbench::fingerprint(rep);
  rep.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();
  print_report(rep);
  return 0;
}
