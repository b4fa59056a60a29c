#include "bench_json.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "util/json.hpp"

namespace dmm::benchjson {

std::string to_json(const Record& record) {
  std::ostringstream out;
  out << "{\"instance\":\"" << util::json_escape(record.instance) << "\",\"engine\":\""
      << util::json_escape(record.engine) << "\",\"threads\":" << record.threads
      << ",\"n\":" << record.n << ",\"m\":" << record.m << ",\"k\":" << record.k
      << ",\"metrics\":{";
  const char* separator = "";
  for (const auto& [name, value] : record.metrics) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument("bench_json: metric '" + name + "' must be finite (instance '" +
                                  record.instance + "')");
    }
    char number[32];
    std::snprintf(number, sizeof number, "%.17g", value);
    out << separator << '"' << util::json_escape(name) << "\":" << number;
    separator = ",";
  }
  out << "}}";
  return out.str();
}

Harness::Harness(std::string experiment, const std::vector<std::string>& args,
                 util::Flags flags)
    : experiment_(std::move(experiment)) {
  if (const char* env = std::getenv("DMM_BENCH_JSON_DIR")) directory_ = env;
  flags.flag("--smoke", smoke_)
      .flag("--scale", scale_)
      .option("--json-dir", directory_)
      .forward("--benchmark_", benchmark_args_);
  flags.parse(args);
}

long long peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is KiB on Linux, bytes on macOS.
#if defined(__APPLE__)
  return static_cast<long long>(usage.ru_maxrss);
#else
  return static_cast<long long>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

void Harness::add(Record record) {
  (void)to_json(record);  // validates (finite metrics) before storing
  records_.push_back(std::move(record));
}

double Harness::time_ns(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
}

std::string Harness::path() const {
  std::string dir = directory_.empty() ? "." : directory_;
  if (dir.back() != '/') dir += '/';
  return dir + "BENCH_" + experiment_ + ".json";
}

int Harness::write() const {
  std::ofstream out(path());
  if (!out) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path().c_str());
    return 2;
  }
  out << "{\"schema\":\"dmm-bench-9\",\"experiment\":\"" << util::json_escape(experiment_)
      << "\",\"records\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (i) out << ",";
    out << "\n  " << to_json(records_[i]);
  }
  out << "\n]}\n";
  out.close();
  std::printf("bench_json: wrote %s (%zu record%s)\n", path().c_str(), records_.size(),
              records_.size() == 1 ? "" : "s");
  return out ? 0 : 2;
}

}  // namespace dmm::benchjson
