#include "e2e_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "ecocloud/dc/monitor_kernel.hpp"
#include "ecocloud/metrics/event_log_binary.hpp"

namespace ecocloud::perfbench {

namespace {

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto first = line.find_first_not_of(" \t", colon + 1);
    return first == std::string::npos ? "unknown" : line.substr(first);
  }
  return "unknown";
}

}  // namespace

std::uint64_t digest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  DigestStream digest;
  digest << in.rdbuf();
  return digest.digest();
}

std::uint64_t digest_binary_event_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  DigestStream digest;
  const metrics::BinaryReadResult read =
      metrics::convert_binary_events_to_csv(in, digest);
  if (read.truncated_tail) {
    throw std::runtime_error("event log " + path + " ends inside a record");
  }
  return digest.digest();
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

bool same_bytes(const std::string& a, const std::string& b) {
  std::ifstream in_a(a, std::ios::binary);
  std::ifstream in_b(b, std::ios::binary);
  if (!in_a || !in_b) return false;
  return std::equal(std::istreambuf_iterator<char>(in_a),
                    std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(in_b),
                    std::istreambuf_iterator<char>());
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

int Spans::begin(std::string name, int parent, std::uint64_t run) {
  const std::int64_t now = to_ns(Clock::now());
  spans_.push_back(Span{std::move(name), now, now, parent, run});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns = to_ns(Clock::now());
}

int Spans::add(std::string name, Clock::time_point start, Clock::time_point end,
               int parent, std::uint64_t run) {
  spans_.push_back(Span{std::move(name), to_ns(start), to_ns(end), parent, run});
  return static_cast<int>(spans_.size() - 1);
}

double Spans::seconds(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

double Spans::children_seconds(int parent) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == parent) sum += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return sum;
}

void Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<unsigned long long>(s.run),
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name) << "\","
        << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void Result::key(const std::string& key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + json_escape(key) + "\":";
}

void Result::num(const std::string& k, double value) {
  key(k);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  body_ += buf;
}

void Result::count(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void Result::text(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"' + json_escape(value) + '"';
}

void Result::flag(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
}

void Result::digest(const std::string& k, std::uint64_t value) {
  text(k, std::to_string(value));
}

void add_host(Result& out) {
  out.text("host.cpu_model", cpu_model());
  out.count("host.nproc", std::thread::hardware_concurrency());
  out.text("host.monitor_kernel", dc::monitor_kernel_name());
}

}  // namespace ecocloud::perfbench
