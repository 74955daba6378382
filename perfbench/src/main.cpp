// provbench: the end-to-end benchmark's driver. Runs one workload
// through the public ProvenanceDb / ProvenanceService APIs on real
// files, checks every answer against the simulator's ground truth, and
// prints a table followed by one JSON line that run.py turns into the
// benchmark result. With --trace 1 it also writes the span dump that
// trace_report.py reads.
//
//   provbench --workload capture --seed 2009 --seconds 15 --trace 0
//             --dir <fresh directory> [--dump spans.json]
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: provbench --workload capture|recall|forensics|profiles"
               " --seed N --seconds S --trace 0|1 --dir DIR [--dump FILE]\n");
}

// Metric names and span names are plain identifiers; escape anyway so a
// stray character can never break the line run.py parses.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

void PrintResult(const pb::Result& r) {
  std::printf("\n%s  seed %" PRIu64 "\n", r.workload.c_str(), r.seed);
  std::printf("%-26s %14s  %-9s %s\n", "metric", "value", "unit", "samples");
  for (const pb::EndToEnd& m : r.e2e) {
    std::string samples;
    if (m.samples > 0) samples = "n=" + std::to_string(m.samples);
    if (m.beyond > 0) samples += ", " + std::to_string(m.beyond) + " beyond";
    std::printf("%-26s %14.4f  %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), samples.c_str());
  }
  for (const std::string& e : r.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }

  // The last line: everything run.py needs, values with all digits. A
  // ratio over nothing (every op failed) is written as 0, which JSON
  // can carry and `correct` already marks.
  auto number = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return std::string(buf);
  };
  std::string line = "{\"workload\": " + Quote(r.workload) +
                     ", \"seed\": " + std::to_string(r.seed) +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"checks_ok\": " + (r.checks_ok ? "true" : "false") +
                     ", \"e2e\": {";
  for (size_t i = 0; i < r.e2e.size(); ++i) {
    const pb::EndToEnd& m = r.e2e[i];
    line += (i ? ", " : "") + Quote(m.name) +
            ": {\"value\": " + number(m.value) +
            ", \"unit\": " + Quote(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  line += "}, \"layers\": {";
  size_t i = 0;
  for (const auto& [name, value] : r.layers.Metrics()) {
    line += (i++ ? ", " : "") + Quote(name) + ": " + number(value);
  }
  std::printf("%s}}\n", line.c_str());
}

bool WriteDump(const std::string& path, const pb::Result& r,
               const pb::Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": %s, \"seed\": %" PRIu64 ",\n \"spans\": [",
               Quote(r.workload).c_str(), r.seed);
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const pb::Span& s = spans[i];
    std::fprintf(f, "%s\n  [%u, %u, %u, %s, %" PRId64 ", %" PRId64 ", %d]",
                 i ? "," : "", s.id, s.parent, s.op, Quote(s.name).c_str(),
                 s.start_ns, s.end_ns, s.traced ? 1 : 0);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  std::string dump;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--dump") {
      dump = value;
    } else {
      PrintUsage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      args.dir.empty()) {
    PrintUsage();
    return 2;
  }

  pb::Tracer tracer(args.trace);
  pb::Result r;
  if (args.workload == "capture") {
    r = pb::RunCapture(args, tracer);
  } else if (args.workload == "recall") {
    r = pb::RunRecall(args, tracer);
  } else if (args.workload == "forensics") {
    r = pb::RunForensics(args, tracer);
  } else if (args.workload == "profiles") {
    r = pb::RunProfiles(args, tracer);
  } else {
    PrintUsage();
    return 2;
  }
  r.workload = args.workload;
  r.seed = args.seed;
  r.Add("ops_ok_pct",
        r.attempted ? 100.0 * static_cast<double>(r.attempted - r.failed) /
                          static_cast<double>(r.attempted)
                    : 0,
        "%", r.attempted);
  r.Add("peak_rss_mb", pb::PeakRssMb(), "MiB");
  if (args.trace && !dump.empty() && !WriteDump(dump, r, tracer)) {
    std::fprintf(stderr, "cannot write %s\n", dump.c_str());
    return 1;
  }
  PrintResult(r);
  return 0;
}
