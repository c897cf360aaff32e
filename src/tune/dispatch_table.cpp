#include "tune/dispatch_table.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "tune/options.hpp"

namespace cmpi::tune {

DispatchTable::DispatchTable(std::vector<DispatchEntry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const DispatchEntry& a, const DispatchEntry& b) {
              return a.max_bytes < b.max_bytes;
            });
}

const DispatchEntry* DispatchTable::lookup(
    std::size_t max_bytes, std::size_t cell_payload) const noexcept {
  for (const DispatchEntry& e : entries_) {
    if (e.max_bytes == max_bytes && e.cell_payload == cell_payload) {
      return &e;
    }
  }
  return nullptr;
}

namespace {

/// Minimal scanner for the exact document save() writes (the same
/// approach as the perf-smoke baseline reader): a stream of quoted keys,
/// with numbers bound to the most recent key. Object nesting is tracked
/// only to split "provenance" strings from "classes" numbers.
struct Scanner {
  std::istream& in;

  void skip_space() {
    while (in.good() &&
           std::isspace(static_cast<unsigned char>(in.peek())) != 0) {
      in.get();
    }
  }

  bool next_token(std::string& key, std::string& value, bool& is_string) {
    char c;
    while (in.get(c)) {
      if (c != '"') {
        continue;
      }
      key.clear();
      while (in.get(c) && c != '"') {
        key += c;
      }
      skip_space();
      if (in.peek() != ':') {
        continue;  // a bare string value, not a key
      }
      in.get();  // ':'
      skip_space();
      const int p = in.peek();
      if (p == '"') {
        in.get();
        value.clear();
        while (in.get(c) && c != '"') {
          value += c;
        }
        is_string = true;
        return true;
      }
      if ((p >= '0' && p <= '9') || p == '-' || p == '.') {
        value.clear();
        while (in.good()) {
          const int d = in.peek();
          if ((d >= '0' && d <= '9') || d == '.' || d == 'e' || d == '-' ||
              d == '+') {
            value += static_cast<char>(in.get());
          } else {
            break;
          }
        }
        is_string = false;
        return true;
      }
      // '{', '[' etc: the key opened a container; report it valueless.
      value.clear();
      is_string = false;
      return true;
    }
    return false;
  }
};

/// The integral fields a class object must carry besides max_bytes.
struct RowField {
  const char* name;
  std::size_t DispatchEntry::*field;
};
constexpr std::array<RowField, 4> kRowFields{{
    {"cell_payload", &DispatchEntry::cell_payload},
    {"rendezvous_threshold", &DispatchEntry::rendezvous_threshold},
    {"pipeline_quantum", &DispatchEntry::pipeline_quantum},
    {"inflight_depth", &DispatchEntry::inflight_depth},
}};

struct ParsedRow {
  DispatchEntry entry;
  unsigned seen = 0;  // bit f set: kRowFields[f] was present
};

/// Why a row cannot drive sends, or empty when it can. A missing field
/// would read as 0: an inflight depth of 0 blocks every rendezvous send
/// and a threshold of 0 sends every non-empty message by rendezvous.
std::string row_defect(const ParsedRow& row) {
  for (std::size_t f = 0; f < kRowFields.size(); ++f) {
    if ((row.seen & (1u << f)) == 0) {
      return std::string(kRowFields[f].name) + " missing";
    }
  }
  const DispatchEntry& e = row.entry;
  if (e.rendezvous_threshold != ~std::size_t{0} &&
      e.rendezvous_threshold < kRendezvousThresholdMin) {
    return "rendezvous_threshold " + std::to_string(e.rendezvous_threshold) +
           " below " + std::to_string(kRendezvousThresholdMin);
  }
  if (e.pipeline_quantum < kRendezvousQuantumMin ||
      e.pipeline_quantum > kRendezvousQuantumMax) {
    return "pipeline_quantum " + std::to_string(e.pipeline_quantum) +
           " outside [" + std::to_string(kRendezvousQuantumMin) + ", " +
           std::to_string(kRendezvousQuantumMax) + "]";
  }
  if (e.inflight_depth == 0 || e.inflight_depth > kRendezvousInflightMax) {
    return "inflight_depth " + std::to_string(e.inflight_depth) +
           " outside [1, " + std::to_string(kRendezvousInflightMax) + "]";
  }
  return {};
}

}  // namespace

Result<DispatchTable> DispatchTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return status::invalid_argument("dispatch table: cannot open " + path);
  }
  std::vector<ParsedRow> rows;
  std::vector<std::pair<std::string, std::string>> provenance;
  Scanner scan{in};
  std::string key;
  std::string value;
  bool is_string = false;
  enum class Section { kNone, kProvenance, kClasses } section = Section::kNone;
  // Integral fields must round-trip exactly: SIZE_MAX (an "always eager"
  // threshold) overflows a double, so take the strtoull path unless the
  // literal really is floating-point.
  const auto as_size = [](const std::string& v) -> std::size_t {
    if (v.find_first_of(".eE") == std::string::npos) {
      return static_cast<std::size_t>(std::strtoull(v.c_str(), nullptr, 10));
    }
    return static_cast<std::size_t>(std::atof(v.c_str()));
  };
  while (scan.next_token(key, value, is_string)) {
    if (key == "provenance") {
      section = Section::kProvenance;
      continue;
    }
    if (key == "classes") {
      section = Section::kClasses;
      continue;
    }
    if (section == Section::kProvenance && !value.empty()) {
      provenance.emplace_back(key, value);
      continue;
    }
    if (section != Section::kClasses || value.empty()) {
      continue;
    }
    if (key == "max_bytes") {
      rows.emplace_back();  // max_bytes leads every class object
      rows.back().entry.max_bytes = as_size(value);
      continue;
    }
    if (rows.empty()) {
      continue;
    }
    ParsedRow& row = rows.back();
    if (key == "mbps") {
      row.entry.mbps = std::atof(value.c_str());
      continue;
    }
    for (std::size_t f = 0; f < kRowFields.size(); ++f) {
      if (key == kRowFields[f].name) {
        row.entry.*kRowFields[f].field = as_size(value);
        row.seen |= 1u << f;
      }
    }
  }
  if (rows.empty()) {
    return status::invalid_argument("dispatch table: no classes in " + path);
  }
  std::vector<DispatchEntry> entries;
  for (const ParsedRow& row : rows) {
    const std::string defect = row_defect(row);
    if (!defect.empty()) {
      return status::invalid_argument(
          "dispatch table " + path + ": class " +
          std::to_string(row.entry.max_bytes) + " @ cell " +
          std::to_string(row.entry.cell_payload) + ": " + defect);
    }
    entries.push_back(row.entry);
  }
  DispatchTable table(std::move(entries));
  table.set_provenance(std::move(provenance));
  return table;
}

void DispatchTable::save(std::ostream& os) const {
  os << "{\n  \"provenance\": {";
  bool first = true;
  for (const auto& [k, v] : provenance_) {
    os << (first ? "\n    " : ",\n    ") << '"' << k << "\": \"" << v << '"';
    first = false;
  }
  os << (first ? "}" : "\n  }") << ",\n  \"classes\": [";
  first = true;
  for (const DispatchEntry& e : entries_) {
    char mbps[32];
    std::snprintf(mbps, sizeof mbps, "%.1f", e.mbps);
    os << (first ? "\n" : ",\n")
       << "    {\"max_bytes\": " << e.max_bytes
       << ", \"cell_payload\": " << e.cell_payload
       << ", \"rendezvous_threshold\": " << e.rendezvous_threshold
       << ", \"pipeline_quantum\": " << e.pipeline_quantum
       << ", \"inflight_depth\": " << e.inflight_depth << ", \"mbps\": " << mbps
       << "}";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace cmpi::tune
