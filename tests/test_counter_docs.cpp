// docs/OBSERVABILITY.md's counter tables against the counter lists they
// describe: each table must name exactly its list's counters, with the
// same units, in list order. A counter added to a list without a doc row
// (or a doc row left behind by a deleted counter) fails here, and so does
// a counter that nothing under src/ ever writes.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "net/tcp_transport.h"
#include "smr/sharded_service.h"

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
  EXPECT_EQ(render(doc_table(doc.str(), "### Service counters")),
            render(list_rows(smr::ShardedService::Stats{})))
      << "docs/OBSERVABILITY.md service table vs RITAS_SERVICE_COUNTERS";
}

/// Every .h/.cpp under src/ as one string, line comments stripped.
std::string source_text() {
  std::string all;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(RITAS_SRC_DIR)) {
    const auto ext = e.path().extension();
    if (ext != ".h" && ext != ".cpp") continue;
    std::ifstream f(e.path());
    for (std::string line; std::getline(f, line);) {
      all += line.substr(0, line.find("//"));
      all += '\n';
    }
  }
  return all;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// A write site of `name`: the name followed within its statement by `++`,
/// `+=` or `.fetch_add(`, or preceded by `++` and a member-access chain
/// (`++stack_.metrics().name`).
bool has_write_site(const std::string& src, const std::string& name) {
  for (std::size_t pos = src.find(name); pos != std::string::npos;
       pos = src.find(name, pos + 1)) {
    const std::size_t end = pos + name.size();
    if ((pos > 0 && ident_char(src[pos - 1])) ||
        (end < src.size() && ident_char(src[end]))) {
      continue;  // part of a longer identifier
    }
    const std::string rest = src.substr(end, src.find(';', end) - end);
    if (rest.find("++") != std::string::npos ||
        rest.find("+=") != std::string::npos ||
        rest.find(".fetch_add(") != std::string::npos) {
      return true;
    }
    std::size_t b = pos;
    while (b > 0 && (ident_char(src[b - 1]) ||
                     std::string_view(".->()").find(src[b - 1]) !=
                         std::string_view::npos)) {
      --b;
    }
    if (b >= 2 && src.compare(b - 2, 2, "++") == 0) return true;
  }
  return false;
}

TEST(CounterDocs, EveryCounterHasAWriteSite) {
  const std::string src = source_text();
  ASSERT_FALSE(src.empty()) << "cannot read " RITAS_SRC_DIR;
  std::string unwritten;
  for (const Rows& rows :
       {list_rows(Metrics{}), list_rows(net::TcpTransport::Stats{}),
        list_rows(smr::ShardedService::Stats{})}) {
    for (const auto& [name, unit] : rows) {
      if (!has_write_site(src, name)) unwritten += name + "\n";
    }
  }
  EXPECT_EQ(unwritten, "") << "counters with no write site under src/";
}

}  // namespace
}  // namespace ritas
