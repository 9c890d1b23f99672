// latbench — measurement engine of the simulator benchmark.
//
//   latbench run      --workload W --seed N --seconds S --out FILE
//                     [--filter F] [--jobs J] [--min-reps R]
//                     [--setup-reps K] [--artifact FILE]
//   latbench trace    --workload W --seed N --out FILE [--spans FILE]
//                     [--filter F]
//   latbench straight --seed N --out FILE [--jobs J]
//
// Each mode writes one raw JSON document to --out; perfbench/run.py
// derives the benchmark metrics from it and checks the outputs.  Exit
// codes: 0 ok, 1 the run failed, 2 usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "latbench: %s\n"
               "usage: latbench run|trace|straight --workload W --seed N "
               "--out FILE [options]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing mode");
  const std::string mode = argv[1];
  std::string workload, out, spans;
  latbench::RunArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    const auto number = [&]() {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || v < 0) {
        throw std::invalid_argument("bad number for " + flag + ": " + value);
      }
      return v;
    };
    try {
      if (flag == "--workload") workload = value;
      else if (flag == "--out") out = value;
      else if (flag == "--spans") spans = value;
      else if (flag == "--filter") args.filter = value;
      else if (flag == "--artifact") args.artifact = value;
      else if (flag == "--seed") args.seed = static_cast<std::uint64_t>(number());
      else if (flag == "--seconds") args.seconds = number();
      else if (flag == "--jobs") args.jobs = static_cast<unsigned>(number());
      else if (flag == "--min-reps") args.min_reps = static_cast<int>(number());
      else if (flag == "--setup-reps") args.setup_reps = static_cast<int>(number());
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::invalid_argument& e) {
      return usage(e.what());
    }
  }
  if (out.empty()) return usage("--out is required");

  latdiv::exp::JsonValue doc;
  try {
    if (mode == "straight") {
      doc = latbench::straight_ipcs(args.seed, args.jobs != 0 ? args.jobs : 4);
    } else {
      const latbench::WorkloadDef* w = latbench::find_workload(workload);
      if (w == nullptr) {
        return usage(("unknown workload '" + workload + "'").c_str());
      }
      if (mode == "run") {
        doc = latbench::run_workload(*w, args);
      } else if (mode == "trace") {
        doc = latbench::trace_workload(*w, args, spans);
      } else {
        return usage(("unknown mode " + mode).c_str());
      }
      doc.set("provenance", latbench::provenance());
    }
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latbench: %s\n", e.what());
    return 1;
  }
  std::ofstream f(out, std::ios::binary);
  f << doc.dump();
  if (!f) {
    std::fprintf(stderr, "latbench: cannot write '%s'\n", out.c_str());
    return 2;
  }
  return 0;
}
