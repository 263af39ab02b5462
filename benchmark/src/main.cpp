// nocbench: runs one workload for a measuring window and prints every
// metric by name with its unit, then one JSON summary line.
//
//   nocbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-file PATH] [--golden-dir DIR] [--tmp-dir DIR]
//   nocbench --workload NAME [--seed N] --golden-out FILE
//
// Paths default to the layout benchmark/run.sh runs it in, from the
// repository root: goldens in benchmark/golden, temporary files and traces
// (build-bench/trace/NAME.seedN.jsonl) under build-bench/.
//
// Untraced runs report the end-to-end metrics; traced runs alternate
// untraced and traced jobs and report the per-layer metrics. Every job's
// canonical output is compared with the committed golden for its seed (or,
// for seeds without one, with the run's first job).
#include <sys/resource.h>

#include <charconv>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace nocbench {
namespace {

/// Set-up is repeated before every job (the last repetition builds what the
/// job uses), so setup_s is a median of samples spread over the whole run,
/// like the job timings, rather than over its first moments.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupSeconds = 0.05;

void sample_setups(Workload& w, Samples& setup_s) {
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0; n < kMinSetups || (n < kMaxSetups &&
                                             seconds_since(start) < kSetupSeconds);
       ++n) {
    const Clock::time_point t0 = Clock::now();
    w.prepare();
    setup_s.add(seconds_since(t0));
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  std::string golden_dir = "benchmark/golden";
  std::string tmp_dir = "build-bench/tmp";
  std::string golden_out;
};

bool parse_u64(const std::string& s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "nocbench: %s needs a value\n", key.c_str());
      return false;
    }
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      if (!parse_u64(value, n) || n == 0) {
        std::fprintf(stderr,
                     "nocbench: --seed must be a positive integer, got '%s'\n",
                     value.c_str());
        return false;
      }
      opt.seed = n;
    } else if (key == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 3600) {
        std::fprintf(stderr,
                     "nocbench: --seconds must be an integer in [1, 3600], "
                     "got '%s'\n",
                     value.c_str());
        return false;
      }
      opt.seconds = static_cast<double>(n);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "nocbench: --trace must be 0 or 1, got '%s'\n",
                     value.c_str());
        return false;
      }
      opt.trace = value == "1";
    } else if (key == "--trace-file") {
      opt.trace_file = value;
    } else if (key == "--golden-dir") {
      opt.golden_dir = value;
    } else if (key == "--tmp-dir") {
      opt.tmp_dir = value;
    } else if (key == "--golden-out") {
      opt.golden_out = value;
    } else {
      std::fprintf(stderr, "nocbench: unknown option '%s'\n", key.c_str());
      return false;
    }
  }
  bool known = false;
  for (const char* name : kWorkloadNames) known |= opt.workload == name;
  if (!known) {
    std::fprintf(stderr, "nocbench: --workload must be one of");
    for (const char* name : kWorkloadNames) std::fprintf(stderr, " %s", name);
    std::fprintf(stderr, "; got '%s'\n", opt.workload.c_str());
    return false;
  }
  return true;
}

// ---- goldens ----------------------------------------------------------------

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Number of lines of `got` that differ from `want` (by position), plus
/// any length difference.
std::uint64_t line_diffs(const std::string& got, const std::string& want) {
  if (got == want) return 0;
  const std::vector<std::string> a = split_lines(got);
  const std::vector<std::string> b = split_lines(want);
  std::uint64_t diffs = a.size() > b.size() ? a.size() - b.size()
                                            : b.size() - a.size();
  bool shown = false;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] == b[i]) continue;
    if (!shown) {
      std::fprintf(stderr, "nocbench: first difference at line %zu:\n"
                           "  got:  %s\n  want: %s\n",
                   i + 1, a[i].c_str(), b[i].c_str());
      shown = true;
    }
    ++diffs;
  }
  if (!shown) {
    std::fprintf(stderr, "nocbench: output has %zu lines, expected %zu\n",
                 a.size(), b.size());
  }
  return diffs;
}

/// The committed expectation for (workload, seed): the full text for the
/// seeds that have a file, otherwise an FNV-1a digest from digests.txt.
struct Golden {
  bool has_text = false;
  std::string text;
  bool has_digest = false;
  std::uint64_t digest = 0;
};

Golden load_golden(const Options& opt) {
  Golden g;
  const std::string path = opt.golden_dir + "/" + opt.workload + ".seed" +
                           std::to_string(opt.seed) + ".txt";
  if (std::ifstream f(path); f) {
    std::ostringstream ss;
    ss << f.rdbuf();
    g.has_text = true;
    g.text = ss.str();
  }
  std::ifstream digests(opt.golden_dir + "/digests.txt");
  std::string name, seed, hex;
  while (digests >> name >> seed >> hex) {
    if (name != opt.workload || seed != std::to_string(opt.seed)) continue;
    const auto [ptr, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), g.digest, 16);
    g.has_digest = ec == std::errc() && ptr == hex.data() + hex.size();
    if (!g.has_digest) {
      std::fprintf(stderr, "nocbench: malformed digest '%s' in %s/digests.txt\n",
                   hex.c_str(), opt.golden_dir.c_str());
      std::exit(2);
    }
  }
  return g;
}

int write_golden(Workload& w, const Options& opt) {
  w.prepare();
  const JobOutput out = w.run(nullptr, nullptr);
  if (out.check_failures != 0) {
    std::fprintf(stderr, "nocbench: %llu in-job checks failed\n",
                 static_cast<unsigned long long>(out.check_failures));
    return 1;
  }
  const std::string ref = w.reference();
  if (!ref.empty() && line_diffs(out.text, ref) != 0) {
    std::fprintf(stderr, "nocbench: job output differs from its reference "
                         "entry point\n");
    return 1;
  }
  std::ofstream f(opt.golden_out);
  f << out.text;
  if (!f) {
    std::fprintf(stderr, "nocbench: cannot write %s\n", opt.golden_out.c_str());
    return 1;
  }
  std::printf("%s %llu %016llx\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(fnv1a(out.text)));
  return 0;
}

// ---- report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  std::uint64_t n = 0;  // samples behind the value
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> layer_metrics(const Layers& L, double overhead) {
  const double jobs = static_cast<double>(std::max<std::size_t>(L.jobs, 1));
  const std::uint64_t curves = L.curve_s.size();
  const NetCounters& net = L.net;
  std::vector<Metric> m = {
      {"sweep.curve_s_p50", L.curve_s.quantile(0.5), "s", curves},
      {"sweep.curve_s_max", L.curve_s.max(), "s", curves},
      {"sweep.pool_busy_frac", ratio(L.curve_s.sum(), 4.0 * L.sweep_wall_s),
       "frac", curves},
      {"sweep.points_run", static_cast<double>(L.points_run) / jobs, "count",
       L.jobs},
      {"sweep.points_saturated", static_cast<double>(L.points_saturated) / jobs,
       "count", L.jobs},
      {"sweep_cache.lookup_us_p50", L.lookup_ns.quantile(0.5) / 1e3, "us",
       L.lookups},
      {"sweep_cache.lookup_us_p99", L.lookup_ns.quantile(0.99) / 1e3, "us",
       L.lookups},
      {"sweep_cache.hit_ratio",
       ratio(static_cast<double>(L.hits), static_cast<double>(L.lookups)),
       "frac", L.lookups},
      {"sweep_cache.store_us_p50", L.store_us.quantile(0.5), "us",
       L.store_us.size()},
      {"sweep_cache.snapshot_mb", L.snapshot_bytes / jobs / 1e6, "MB", L.jobs},
      {"noc.warmup_s_sum", L.warmup_s / jobs, "s", L.jobs},
      {"noc.fork_warmup_s_sum", L.fork_warmup_s / jobs, "s", L.jobs},
      {"noc.measure_drain_s_sum", L.measure_drain_s / jobs, "s", L.jobs},
      {"noc.snapshot_ms_p50", L.snapshot_ms.quantile(0.5), "ms",
       L.snapshot_ms.size()},
      {"noc.restore_ms_p50", L.restore_ms.quantile(0.5), "ms",
       L.restore_ms.size()},
      {"noc.step_us_p50", L.step_ns.quantile(0.5) / 1e3, "us",
       L.step_ns.count()},
      {"noc.step_us_p99", L.step_ns.quantile(0.99) / 1e3, "us",
       L.step_ns.count()},
      {"noc.active_router_frac",
       net.router_steps == 0
           ? 0.0
           : 1.0 - ratio(static_cast<double>(net.router_steps_skipped),
                         static_cast<double>(net.router_steps)),
       "frac", net.router_steps},
      {"noc.flits_per_cycle",
       ratio(static_cast<double>(net.flits_ejected),
             static_cast<double>(net.cycles)),
       "flits/cycle", net.cycles},
      {"noc.arena_high_water", static_cast<double>(net.arena_high_water),
       "count", L.jobs},
      {"router.flits_routed_per_cycle",
       ratio(static_cast<double>(net.flits_routed),
             static_cast<double>(net.cycles)),
       "flits/cycle", net.cycles},
      {"router.vc_allocs_per_cycle",
       ratio(static_cast<double>(net.vc_allocs),
             static_cast<double>(net.cycles)),
       "1/cycle", net.cycles},
      {"router.spec_success_ratio",
       ratio(static_cast<double>(net.spec_used),
             static_cast<double>(net.spec_used + net.misspeculations)),
       "frac", net.spec_used + net.misspeculations},
  };

  // Allocator call times at the smallest and the largest design point.
  constexpr std::size_t kReported[] = {0, 5};
  const char* const protos[] = {"vc", "sa"};
  for (int proto = 0; proto < 2; ++proto) {
    for (const double q : {0.5, 0.99}) {
      for (std::size_t f = 0; f < kFamilyLabels.size(); ++f) {
        for (std::size_t d : kReported) {
          const LogHistogram& h = L.alloc[proto][f][d].ns;
          m.push_back({std::string(protos[proto]) + ".allocate_ns_" +
                           (q == 0.5 ? "p50" : "p99") + "." + kFamilyLabels[f] +
                           "." + kDesignPointLabels[d],
                       h.quantile(q), "ns", h.count()});
        }
      }
    }
  }
  for (int proto = 0; proto < 2; ++proto) {
    double alloc_s = 0.0;
    for (const auto& family : L.alloc[proto]) {
      for (const AllocProbe& p : family) alloc_s += p.seconds;
    }
    const double matrices = static_cast<double>(L.matrices[proto]);
    m.push_back({std::string("quality.alloc_frac.") + protos[proto],
                 ratio(alloc_s, L.measure_s[proto]), "frac", L.matrices[proto]});
    m.push_back({std::string("quality.self_us_per_matrix.") + protos[proto],
                 ratio(L.measure_s[proto] - alloc_s, matrices) * 1e6, "us",
                 L.matrices[proto]});
  }
  m.push_back({"trace_overhead_frac", overhead, "frac", L.jobs});
  return m;
}

/// Peak resident set of this process image. VmHWM rather than getrusage:
/// ru_maxrss survives exec, so it would include the launching shell.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int run(const Options& opt) {
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed, opt.tmp_dir);
  if (!opt.golden_out.empty()) return write_golden(*w, opt);

  const Golden golden = load_golden(opt);
  if (!golden.has_text && !golden.has_digest) {
    std::fprintf(stderr,
                 "nocbench: no golden for %s seed %llu; checking only that "
                 "every job repeats the first\n",
                 opt.workload.c_str(), static_cast<unsigned long long>(opt.seed));
  }

  Samples setup_s;
  Tracer tracer;
  const auto layers_owner = std::make_unique<Layers>();  // ~0.6 MB
  Layers& layers = *layers_owner;
  Samples job_s, traced_job_s, steps_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::string expected = golden.text;
  bool golden_ok = true;
  const Clock::time_point start = Clock::now();
  for (std::size_t job = 0;; ++job) {
    const bool traced = opt.trace && job % 2 == 1;
    sample_setups(*w, setup_s);
    if (traced) {
      tracer.set_run(job);
      ++layers.jobs;
    }
    const JobOutput out =
        w->run(traced ? &tracer : nullptr, traced ? &layers : nullptr);
    (traced ? traced_job_s : job_s).add(out.seconds);
    std::fprintf(stderr, "nocbench: job %zu%s %.4f s\n", job,
                 traced ? " (traced)" : "", out.seconds);
    if (!traced) steps_ms.add_all(out.steps_ms);

    if (job == 0 && !golden.has_text) {
      expected = out.text;
      golden_ok = !golden.has_digest || fnv1a(out.text) == golden.digest;
      if (!golden_ok) {
        std::fprintf(stderr, "nocbench: output digest %016llx differs from "
                             "golden %016llx\n",
                     static_cast<unsigned long long>(fnv1a(out.text)),
                     static_cast<unsigned long long>(golden.digest));
      }
    }
    const std::uint64_t records = split_lines(out.text).size();
    attempted += records + out.checks;
    failed += (golden_ok ? line_diffs(out.text, expected) : records) +
              out.check_failures;

    // Stop when another job would end nearer the window's far side than
    // this side, so a run holds about seconds / job_s jobs.
    const bool window_done =
        seconds_since(start) + out.seconds / 2 >= opt.seconds;
    if (window_done && (!opt.trace || layers.jobs > 0)) break;
  }

  std::vector<Metric> metrics;
  if (opt.trace) {
    const double overhead =
        ratio(traced_job_s.quantile(0.5), job_s.quantile(0.5)) - 1.0;
    metrics = layer_metrics(layers, overhead);
    std::string path = opt.trace_file;
    if (path.empty()) {
      std::filesystem::create_directories("build-bench/trace");
      path = "build-bench/trace/" + opt.workload + ".seed" +
             std::to_string(opt.seed) + ".jsonl";
    }
    if (!tracer.write_jsonl(path)) {
      std::fprintf(stderr, "nocbench: cannot write %s\n", path.c_str());
      return 1;
    }
  } else {
    metrics = {
        {"job_s", job_s.quantile(0.5), "s", job_s.size()},
        {"step_ms_p50", steps_ms.quantile(0.5), "ms", steps_ms.size()},
        {"setup_s", setup_s.quantile(0.5), "s", setup_s.size()},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
    };
  }

  std::printf("# nocbench workload=%s seed=%llu seconds=%g trace=%d build=%s "
              "jobs=%zu spans=%zu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, NOCBENCH_BUILD_TYPE,
              job_s.size() + traced_job_s.size(), tracer.size());
  for (const Metric& m : metrics) {
    std::printf("%-44s %14.6g %-12s n=%llu\n", m.name.c_str(), m.value, m.unit,
                static_cast<unsigned long long>(m.n));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace nocbench

int main(int argc, char** argv) {
  nocbench::Options opt;
  if (!nocbench::parse_options(argc, argv, opt)) return 2;
  if (std::strcmp(NOCBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "nocbench: built as %s; timings need a Release build\n",
                 NOCBENCH_BUILD_TYPE);
    return 2;
  }
  return nocbench::run(opt);
}
