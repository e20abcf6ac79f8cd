#include "graph/io_edgelist.hpp"

#include <algorithm>
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

BipartiteGraph read_edgelist(std::istream& in, vidx_t n1, vidx_t n2,
                             const std::string& source) {
  const obs::Span phase("graph.read_edgelist");
  const Timer parse_timer;
  std::vector<std::pair<vidx_t, vidx_t>> edges;
  vidx_t max_u = 0;
  vidx_t max_v = 0;

  std::string line;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& what) {
    return std::runtime_error("edgelist " + source + ":" +
                              std::to_string(lineno) + ": " + what);
  };
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '%' || line[first] == '#') continue;

    std::istringstream fields(line);
    long long u = 0, v = 0;
    if (!(fields >> u >> v)) throw fail("malformed line: " + line);
    if (u < 1 || v < 1) throw fail("ids must be 1-based positive");
    const auto u0 = static_cast<vidx_t>(u - 1);
    const auto v0 = static_cast<vidx_t>(v - 1);
    max_u = std::max(max_u, static_cast<vidx_t>(u0 + 1));
    max_v = std::max(max_v, static_cast<vidx_t>(v0 + 1));
    edges.emplace_back(u0, v0);
  }

  const vidx_t rows = n1 > 0 ? n1 : max_u;
  const vidx_t cols = n2 > 0 ? n2 : max_v;
  require(rows >= max_u && cols >= max_v,
          "edgelist " + source + ": forced dimensions smaller than ids present");
  BFC_COUNT_ADD("graph.io.lines_read", static_cast<std::int64_t>(lineno));
  BFC_COUNT_ADD("graph.io.edges_read", static_cast<std::int64_t>(edges.size()));
  BFC_GAUGE_SET("graph.io.parse_seconds", parse_timer.seconds());
  BipartiteGraph g = BipartiteGraph::from_edges(rows, cols, edges);
  BFC_VALIDATE(g);
  return g;
}

BipartiteGraph load_edgelist(const std::string& path, vidx_t n1, vidx_t n2) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open edge list: " + path);
  return read_edgelist(in, n1, n2, path);
}

void write_edgelist(std::ostream& out, const BipartiteGraph& g) {
  out << "% bip " << g.n1() << ' ' << g.n2() << ' ' << g.edge_count() << '\n';
  const auto& a = g.csr();
  for (vidx_t u = 0; u < a.rows(); ++u)
    for (const vidx_t v : a.row(u)) out << (u + 1) << ' ' << (v + 1) << '\n';
}

void save_edgelist(const std::string& path, const BipartiteGraph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write edge list: " + path);
  write_edgelist(out, g);
}

}  // namespace bfc::graph
