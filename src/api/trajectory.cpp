#include "api/trajectory.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <variant>

namespace nav::api {

namespace {

/// Wall-clock-dependent metric names: listed as "loose_metrics" in the
/// trajectory document so golden tests mask them and compare_bench.py
/// thresholds them loosely (or ignores them) instead of strictly.
const char* const kLooseMetrics[] = {
    "seconds",         "sec",
    "routes_per_sec",  "pairs_per_sec",
    "speedup",         "sojourn_ms_p50",
    "sojourn_ms_p95",  "sojourn_ms_p99",
    "peak_queued_pairs", "blocked_submits",
    "real_time_ns",    "cpu_time_ns",
    "items_per_second", "bytes_per_second",
    "nodes_per_sec",   "speedup_vs_scalar",
    "ns_per_hop",      "us_per_call",
    "wave_ms_p50",     "wave_ms_p90",
};

/// Numeric fields that identify a cell (grid coordinates) rather than
/// measure it; string-valued fields are always keys.
const char* const kNumericKeyFields[] = {
    "n",     "n_requested", "side",    "pairs",      "targets",
    "eps",   "k",           "alpha",   "batches",    "batch_size",
    "cache_capacity", "workers",
    // dynamic subsystem grid axes (bench_e13_dynamic, sweep_cli):
    "fail_frac", "round",
    // oracle-backend grid axes (bench_micro M4, sweep_cli --oracle; the
    // "oracle" spec itself is a string field, hence a key already):
    "landmarks",
    // fan-out width (bench_micro M6):
    "indices",
};

bool contains(const char* const* first, const char* const* last,
              const std::string& name) {
  return std::find_if(first, last, [&](const char* s) {
           return name == s;
         }) != last;
}

bool is_key_field(const Field& field) {
  if (std::holds_alternative<std::string>(field.value)) return true;
  return is_numeric_key_field(field.key);
}

void push_unique(std::vector<std::string>& names, const std::string& name) {
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    names.push_back(name);
  }
}

std::string json_string_array(const std::vector<std::string>& names) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << (i ? ", " : "") << '"' << names[i] << '"';
  }
  out << "]";
  return out.str();
}

}  // namespace

bool is_loose_metric_name(const std::string& name) {
  // Scraped observability-registry values (Harness::add_metrics_cell embeds
  // them under an obs_ prefix) are runtime observations — queue depths, shed
  // counts, timing histograms — never a deterministic surface to gate on.
  if (name.starts_with("obs_")) return true;
  return contains(std::begin(kLooseMetrics), std::end(kLooseMetrics), name);
}

bool is_numeric_key_field(const std::string& name) {
  return contains(std::begin(kNumericKeyFields), std::end(kNumericKeyFields),
                  name);
}

TrajectoryWriter::TrajectoryWriter(std::string id, std::string name,
                                   bool quick, std::string out_dir)
    : id_(std::move(id)),
      name_(std::move(name)),
      quick_(quick),
      out_dir_(std::move(out_dir)) {}

void TrajectoryWriter::add_cell(Record cell, const std::string& section) {
  Record traj;
  traj.reserve(cell.size() + 1);
  if (!section.empty()) traj.push_back({"section", section});
  for (auto& field : cell) traj.push_back(std::move(field));
  cells_.push_back(std::move(traj));
}

void TrajectoryWriter::group_by(std::vector<std::string> fields) {
  group_by_ = std::move(fields);
}

std::string TrajectoryWriter::out_path(const std::string& file_name) const {
  // The default directory keeps bare file names (they appear inside
  // golden-pinned records, e.g. E12's trace:<path> workload spec).
  if (out_dir_.empty() || out_dir_ == ".") return file_name;
  return (std::filesystem::path(out_dir_) / file_name).string();
}

bool TrajectoryWriter::write_document() {
  // Classify every field seen across the recorded cells, preserving
  // first-seen order: string-valued fields and grid-coordinate numerics are
  // keys; every other numeric is a metric, loose when wall-clock-dependent.
  std::vector<std::string> key_fields, metrics, loose;
  std::vector<std::string> string_keys;
  for (const auto& cell : cells_) {
    for (const auto& field : cell) {
      if (is_key_field(field)) {
        push_unique(key_fields, field.key);
        if (std::holds_alternative<std::string>(field.value) &&
            field.key != "section") {
          push_unique(string_keys, field.key);
        }
      } else if (is_loose_metric_name(field.key)) {
        push_unique(loose, field.key);
      } else {
        push_unique(metrics, field.key);
      }
    }
  }
  auto group_by = group_by_;
  if (group_by.empty()) {
    for (const auto& key : string_keys) {
      if (group_by.size() < 2) group_by.push_back(key);
    }
  }

  const std::string path = out_path("BENCH_" + id_ + ".json");
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot open " << path
              << " — skipping trajectory output\n";
    return false;
  }
  out << "{\n"
      << "  \"schema\": \"nav-bench-trajectory-v1\",\n"
      << "  \"bench\": \"" << name_ << "\",\n"
      << "  \"id\": \"" << id_ << "\",\n"
      << "  \"quick\": " << (quick_ ? "true" : "false") << ",\n"
      << "  \"group_by\": " << json_string_array(group_by) << ",\n"
      << "  \"key_fields\": " << json_string_array(key_fields) << ",\n"
      << "  \"metrics\": " << json_string_array(metrics) << ",\n"
      << "  \"loose_metrics\": " << json_string_array(loose) << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    out << "    " << to_json_line(cells_[i])
        << (i + 1 < cells_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "trajectory written: BENCH_" << id_ << ".json\n";
  return true;
}

void TrajectoryWriter::write_merged() {
  // Re-merge every per-bench document present in the output directory, so
  // running the bench suite in one directory accumulates BENCH_all.json
  // incrementally (each binary refreshes it on exit).
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(out_dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) != 0 || file.size() < 11 ||
        file.substr(file.size() - 5) != ".json" || file == "BENCH_all.json") {
      continue;
    }
    names.push_back(file);
  }
  if (ec) {
    std::cerr << "warning: cannot scan " << out_dir_ << ": " << ec.message()
              << "\n";
    return;
  }
  std::sort(names.begin(), names.end());

  std::vector<std::string> documents;
  for (const auto& file : names) {
    std::ifstream in(out_path(file));
    std::ostringstream text;
    text << in.rdbuf();
    std::string doc = text.str();
    // Only fold in documents this schema wrote (a stray BENCH_*.json from
    // another tool must not corrupt the merge).
    if (doc.find("\"schema\": \"nav-bench-trajectory-v1\"") ==
            std::string::npos ||
        doc.find("\"merged\": true") != std::string::npos) {
      continue;
    }
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
    documents.push_back(std::move(doc));
  }
  if (documents.empty()) return;

  const std::string path = out_path("BENCH_all.json");
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot open " << path << " — skipping merge\n";
    return;
  }
  out << "{\n"
      << "  \"schema\": \"nav-bench-trajectory-v1\",\n"
      << "  \"merged\": true,\n"
      << "  \"benches\": [\n";
  for (std::size_t i = 0; i < documents.size(); ++i) {
    out << documents[i] << (i + 1 < documents.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "merged trajectory written: BENCH_all.json ("
            << documents.size() << " benches)\n";
}

}  // namespace nav::api
