// docs/OBSERVABILITY.md's counter tables against the counter lists they
// describe: each table must name exactly its list's counters, with the
// same units, in list order. A counter added to a list without a doc row
// (or a doc row left behind by a deleted counter) fails here.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "net/tcp_transport.h"

namespace ritas {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;  // name, unit

std::string trim(std::string s) {
  const auto b = s.find_first_not_of(" `");
  const auto e = s.find_last_not_of(" `");
  return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

/// The (name, unit) columns of the first table after `heading`; empty when
/// the heading is missing.
Rows doc_table(const std::string& doc, const std::string& heading) {
  Rows rows;
  std::istringstream in(doc);
  std::string line;
  bool found = false;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (!found) {
      found = line == heading;
      continue;
    }
    if (line.rfind('|', 0) != 0) {
      if (in_table) break;  // the table ended
      continue;
    }
    in_table = true;
    std::vector<std::string> cells;
    std::istringstream row(line.substr(1));
    for (std::string cell; std::getline(row, cell, '|');) {
      cells.push_back(trim(cell));
    }
    if (cells.size() < 2 || cells[0] == "name" || cells[0].rfind("---", 0) == 0) {
      continue;  // header or separator
    }
    rows.emplace_back(cells[0], cells[1]);
  }
  return rows;
}

template <typename Counters>
Rows list_rows(const Counters& counters) {
  Rows rows;
  counters.for_each([&rows](const CounterInfo& c, std::uint64_t) {
    rows.emplace_back(c.name, c.unit);
  });
  return rows;
}

std::string render(const Rows& rows) {
  std::string out;
  for (const auto& [name, unit] : rows) out += name + " (" + unit + ")\n";
  return out;
}

TEST(CounterDocs, ObservabilityTablesMatchCounterLists) {
  std::ifstream f(RITAS_DOCS_DIR "/OBSERVABILITY.md");
  ASSERT_TRUE(f.good()) << "cannot open docs/OBSERVABILITY.md";
  std::stringstream doc;
  doc << f.rdbuf();
  EXPECT_EQ(render(doc_table(doc.str(), "### `Metrics` counters")),
            render(list_rows(Metrics{})))
      << "docs/OBSERVABILITY.md `Metrics` table vs RITAS_METRICS_COUNTERS";
  EXPECT_EQ(render(doc_table(doc.str(), "### Transport counters")),
            render(list_rows(net::TcpTransport::Stats{})))
      << "docs/OBSERVABILITY.md transport table vs RITAS_TRANSPORT_COUNTERS";
}

}  // namespace
}  // namespace ritas
