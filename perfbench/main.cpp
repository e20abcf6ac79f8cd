// bfc_perfbench: the repository benchmark program. perfbench/run.py builds
// it and calls it as
//
//   bfc_perfbench --workload serve-single|serve-sharded --seed N
//                 --seconds S --trace 0|1 [--quick] [--out-dir D]
//                 [--source-id ID] [--corrupt count|serve]
//
// Every workload runs the konect-count phase (offline analytics) and then
// the serve phase (svc::ButterflyService with 1 or 4 shards). Set-up is
// repeated and reported as a median. --trace 0 prints the end-to-end
// metrics; --trace 1 measures once untraced and once with the benchmark's
// spans on (each on half of --seconds), and prints the per-layer metrics of
// the traced run, each layer's self time and the tracing overhead on every
// end-to-end metric.
// Spans are written to <out-dir>/spans-<workload>-seed<N>.json.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every output was correct.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "phases.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

#ifndef BFC_BUILD_TYPE
#define BFC_BUILD_TYPE "unknown"
#endif
#ifndef BFC_COMPILER
#define BFC_COMPILER "unknown"
#endif

#if defined(BFC_CHECKED_ENABLED) && BFC_CHECKED_ENABLED
constexpr bool kChecked = true;
#else
constexpr bool kChecked = false;
#endif

/// Span name prefixes: the library layers the benchmark calls into, plus
/// its own load generator ("load") and pass/set-up bookkeeping ("bench").
constexpr const char* kLayers[] = {"gen",   "la",   "count", "peel",
                                   "svc",   "shard", "load", "bench"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "bfc_perfbench: " << why
            << "\nusage: bfc_perfbench --workload serve-single|serve-sharded "
               "--seed N --seconds S --trace 0|1 [--quick] [--out-dir D] "
               "[--source-id ID] [--corrupt count|serve]\n";
  std::exit(2);
}

struct Args {
  Config cfg;
  std::string source_id = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  a.cfg.out_dir = ".bench_build/perfbench-out";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      a.cfg.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.cfg.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.cfg.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.cfg.seconds = std::stod(v);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.cfg.trace = v == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        a.cfg.out_dir = v;
      } else if (flag == "--source-id") {
        a.source_id = v;
      } else if (flag == "--corrupt") {
        if (v != "count" && v != "serve")
          usage("--corrupt takes count or serve");
        a.cfg.corrupt = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (a.cfg.workload == "serve-single") {
    a.cfg.shards = 1;
  } else if (a.cfg.workload == "serve-sharded") {
    a.cfg.shards = 4;
  } else {
    usage("unknown workload " + a.cfg.workload);
  }
  if (!(a.cfg.seconds > 0.0)) usage("--seconds must be positive");
  a.cfg.nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return a;
}

struct Measurement {
  Metrics e2e;
  Metrics layer;
  ExactCounts exact;
};

/// One full measurement: repeated set-up, konect-count phase, serve phase,
/// sharing `seconds` half and half.
Measurement measure(const Config& cfg, bool traced, double seconds,
                    Gates& gates) {
  Spans::clear();
  Spans::set_enabled(traced);
  Measurement m;
  Reference ref;
  // Reference samples are taken before each set-up; the medians are scaled
  // by the median of all of them (see reference.hpp).
  const int setups = cfg.quick ? 1 : 7;
  std::vector<double> setup_s, gen_s, ref_ms;
  KonectInputs konect;
  ServeInputs serve;
  for (int i = 0; i < setups; ++i) {
    serve = {};  // release the previous repetition's service first
    {
      const ScopedSpan r("bench.reference");
      for (int k = 0; k < 5; ++k) ref_ms.push_back(ref.sample_ms());
    }
    const ScopedSpan s("bench.setup");
    const Clock::time_point t0 = Clock::now();
    konect = make_konect_inputs(cfg);
    gen_s.push_back(seconds_since(t0));
    serve = make_serve_inputs(cfg);
    setup_s.push_back(seconds_since(t0));
  }
  const double speed = Reference::kNominalMs / median(ref_ms);
  m.e2e["setup_s"] = {median(setup_s) * speed, "s"};
  m.layer["gen.konect_s"] = {median(gen_s) * speed, "s"};
  m.layer["host.setup_ref_ms"] = {median(ref_ms), "ms"};
  m.exact["graph.edges"] = konect.edges + serve.initial.edge_count();
  m.layer["graph.edges"] = {static_cast<double>(m.exact["graph.edges"]),
                            "count"};

  prepare_konect_oracles(konect);
  const PhaseResult k = run_konect(cfg, konect, ref, 0.5 * seconds, gates);
  const PhaseResult s = run_serve(cfg, serve, ref, 0.5 * seconds, gates);
  gates.check(ref.consistent(), "the reference kernel's count changed");
  for (const PhaseResult* r : {&k, &s}) {
    m.e2e.insert(r->e2e.begin(), r->e2e.end());
    m.layer.insert(r->layer.begin(), r->layer.end());
    m.exact.insert(r->exact.begin(), r->exact.end());
  }
  Spans::set_enabled(false);
  return m;
}

/// Exact counts must also repeat across runs with the same seed and the
/// same source: the first run records them, later runs compare.
void check_ledger(const Config& cfg, const std::string& source_id,
                  const ExactCounts& exact, Gates& gates) {
  std::string id = source_id;
  for (char& c : id)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  const std::filesystem::path path =
      std::filesystem::path(cfg.out_dir) /
      ("exact-" + id + "-seed" + std::to_string(cfg.seed) +
       (cfg.quick ? "-quick" : "") + ".txt");
  std::ostringstream now;
  for (const auto& [name, v] : exact) now << name << ' ' << v << '\n';
  std::ifstream in(path);
  if (in) {
    std::ostringstream before;
    before << in.rdbuf();
    gates.check(before.str() == now.str(),
                "exact counts differ from an earlier run with seed " +
                    std::to_string(cfg.seed) + " (" + path.string() + ")");
    return;
  }
  std::ofstream out(path);
  out << now.str();
}

std::string number(double v) {
  // A read that got no answer has infinite latency; JSON has no infinity.
  if (!std::isfinite(v)) v = 1e12;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const Config& cfg = args.cfg;
  // The library's own tracing stays off: only the benchmark's spans record.
  bfc::obs::Tracer::set_enabled(false);
  bfc::obs::SpanLog::set_enabled(false);

  Gates gates;
  Metrics printed;
  try {
    std::filesystem::create_directories(cfg.out_dir);
    // A traced run measures twice, untraced then traced, each on half the
    // budget, so it takes as long as an untraced run.
    const double share = cfg.trace ? 0.5 : 1.0;
    const Measurement plain = measure(cfg, false, share * cfg.seconds, gates);
    const ExactCounts& exact = plain.exact;
    if (!cfg.trace) {
      printed = plain.e2e;
    } else {
      const Measurement traced =
          measure(cfg, true, share * cfg.seconds, gates);
      gates.check(traced.exact == plain.exact,
                  "traced run's exact counts differ from the untraced run's");
      // Counter-derived metrics are only ever added when the counters are
      // compiled in: with BFC_METRICS=OFF they are absent, never 0.
      printed = traced.layer;
      for (const auto& [name, e] : plain.e2e)
        printed["trace.overhead." + name] = {
            traced.e2e.at(name).value / e.value - 1.0, "frac"};
      const std::vector<SpanRecord> spans = Spans::collect();
      const std::map<std::string, double> self = layer_self_seconds(spans);
      for (const char* layer : kLayers) {
        const auto it = self.find(layer);
        printed[std::string("self.") + layer + "_s"] = {
            it == self.end() ? 0.0 : it->second, "s"};
      }
      write_chrome_trace(spans, cfg.out_dir + "/spans-" + cfg.workload +
                                    "-seed" + std::to_string(cfg.seed) +
                                    ".json");
    }
    check_ledger(cfg, args.source_id, exact, gates);
  } catch (const std::exception& e) {
    std::cerr << "bfc_perfbench: " << e.what() << '\n';
    return 1;
  }

  std::cout << "{\"stamp\":{\"source\":" << json_string(args.source_id)
            << ",\"workload\":" << json_string(cfg.workload)
            << ",\"seed\":" << cfg.seed
            << ",\"seconds\":" << number(cfg.seconds)
            << ",\"trace\":" << (cfg.trace ? 1 : 0)
            << ",\"quick\":" << (cfg.quick ? "true" : "false")
            << ",\"nproc\":" << cfg.nproc
            << ",\"compiler\":" << json_string(BFC_COMPILER)
            << ",\"build_type\":" << json_string(BFC_BUILD_TYPE)
            << ",\"BFC_METRICS\":" << (kCountersPresent ? "true" : "false")
            << ",\"BFC_CHECKED\":" << (kChecked ? "true" : "false") << "}}\n";
  for (const auto& [name, m] : printed)
    std::cout << "  " << name << " = " << number(m.value) << ' ' << m.unit
              << '\n';
  for (const std::string& msg : gates.messages)
    std::cerr << "WRONG OUTPUT: " << msg << '\n';

  std::cout << "{\"correct\":" << (gates.wrong == 0 ? "true" : "false")
            << ",\"attempted\":" << gates.attempted
            << ",\"failed\":" << gates.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : printed) {
    std::cout << (first ? "" : ",") << json_string(name) << ":{\"value\":"
              << number(m.value) << ",\"unit\":" << json_string(m.unit) << '}';
    first = false;
  }
  std::cout << "}}" << std::endl;
  return gates.wrong == 0 ? 0 : 1;
}
