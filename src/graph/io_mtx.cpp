#include "graph/io_mtx.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "chk/validate.hpp"
#include "sparse/coo.hpp"
#include "util/timer.hpp"

namespace bfc::graph {
namespace {

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

BipartiteGraph read_mtx(std::istream& in, const std::string& source) {
  const obs::Span phase("graph.read_mtx");
  const Timer parse_timer;
  const auto fail = [&source](const std::string& what) {
    return std::runtime_error("mtx " + source + ": " + what);
  };
  std::string line;
  if (!std::getline(in, line)) throw fail("empty stream");

  std::istringstream banner(lowercase(line));
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  if (tag != "%%matrixmarket" || object != "matrix")
    throw fail("missing %%MatrixMarket matrix banner");
  if (format != "coordinate")
    throw fail("only coordinate format supported");
  if (field != "pattern" && field != "integer" && field != "real")
    throw fail("unsupported field: " + field);
  if (symmetry != "general")
    throw fail(
        "biadjacency matrices are rectangular; symmetry must be general");
  const bool has_value = field != "pattern";

  // Skip comments up to the size line.
  do {
    if (!std::getline(in, line)) throw fail("no size line");
  } while (!line.empty() && line[0] == '%');

  std::istringstream size_line(line);
  long long rows = 0, cols = 0, entries = 0;
  if (!(size_line >> rows >> cols >> entries) || rows < 0 || cols < 0 ||
      entries < 0)
    throw fail("malformed size line: " + line);

  sparse::CooBuilder builder(static_cast<vidx_t>(rows),
                             static_cast<vidx_t>(cols));
  builder.reserve(static_cast<std::size_t>(entries));
  for (long long k = 0; k < entries; ++k) {
    // The entry section is free-form whitespace, so errors report the
    // 1-based entry index rather than a line number.
    const auto at_entry = [&](const std::string& what) {
      return fail("entry " + std::to_string(k + 1) + " of " +
                  std::to_string(entries) + ": " + what);
    };
    long long r = 0, c = 0;
    double value = 1.0;
    if (!(in >> r >> c)) throw at_entry("truncated entries");
    if (has_value && !(in >> value)) throw at_entry("entry missing value");
    if (r < 1 || r > rows || c < 1 || c > cols)
      throw at_entry("entry out of range");
    if (value != 0.0)
      builder.add(static_cast<vidx_t>(r - 1), static_cast<vidx_t>(c - 1));
  }
  BFC_COUNT_ADD("graph.io.edges_read", static_cast<std::int64_t>(entries));
  BFC_GAUGE_SET("graph.io.parse_seconds", parse_timer.seconds());
  BipartiteGraph g(builder.build());
  BFC_VALIDATE(g);
  return g;
}

BipartiteGraph load_mtx(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open mtx file: " + path);
  return read_mtx(in, path);
}

void write_mtx(std::ostream& out, const BipartiteGraph& g) {
  out << "%%MatrixMarket matrix coordinate pattern general\n";
  out << g.n1() << ' ' << g.n2() << ' ' << g.edge_count() << '\n';
  const auto& a = g.csr();
  for (vidx_t u = 0; u < a.rows(); ++u)
    for (const vidx_t v : a.row(u)) out << (u + 1) << ' ' << (v + 1) << '\n';
}

void save_mtx(const std::string& path, const BipartiteGraph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write mtx file: " + path);
  write_mtx(out, g);
}

}  // namespace bfc::graph
