#pragma once

/// \file e2e_common.hpp
/// \brief Pieces shared by the bench_e2e workloads: options, clocks, output
/// digests, memory probes, benchmark-side spans and the one-line result.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

namespace ecocloud::perfbench {

/// Seed of the golden event-stream pins; reference.json records every
/// workload's digests at this seed.
inline constexpr std::uint64_t kDefaultSeed = 20130520;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// "run": one timed rep; "setup": construction only (extra setup_s
  /// samples); "config": print the workload's daily config text;
  /// "capacity": the campaign server's closed-loop capacity.
  std::string mode = "run";
  bool traced = false;
  std::string trace_out;  ///< Chrome trace file of a traced rep
  std::string workdir = ".";
  bool smoke = false;
  /// campaign_server: seconds of offered load (the arrival window, or the
  /// closed loop of "capacity").
  double load_seconds = 20.0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Global operator-new calls so far (the counter lives in bench_e2e.cpp).
std::uint64_t allocation_count();

/// FNV-1a 64 of every byte written through it — the hash the golden
/// event-stream pins use — without holding the output in memory.
class DigestStream : public std::ostream {
 public:
  DigestStream() : std::ostream(&buf_) {}
  [[nodiscard]] std::uint64_t digest() const { return buf_.hash; }
  [[nodiscard]] std::uint64_t bytes() const { return buf_.bytes; }

 private:
  struct Buf : std::streambuf {
    std::uint64_t hash = 1469598103934665603ULL;
    std::uint64_t bytes = 0;
    void add(const char* s, std::streamsize n) {
      for (std::streamsize i = 0; i < n; ++i) {
        hash ^= static_cast<unsigned char>(s[i]);
        hash *= 1099511628211ULL;
      }
      bytes += static_cast<std::uint64_t>(n);
    }
    int_type overflow(int_type ch) override {
      if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        const char c = traits_type::to_char_type(ch);
        add(&c, 1);
      }
      return traits_type::not_eof(ch);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      add(s, n);
      return n;
    }
  };
  Buf buf_;
};

/// FNV-1a 64 of a file's bytes.
[[nodiscard]] std::uint64_t digest_file(const std::string& path);

/// FNV-1a 64 of the CSV that eventlog2csv makes of a binary event log: the
/// digest the golden pins are written in. Throws on a malformed log.
[[nodiscard]] std::uint64_t digest_binary_event_log(const std::string& path);

/// Size of a file in bytes (0 when it cannot be read).
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);

/// True when two files hold the same bytes.
[[nodiscard]] bool same_bytes(const std::string& a, const std::string& b);

/// Reset VmHWM to the current RSS (writes 5 to /proc/self/clear_refs), so
/// the next obs::peak_rss_mb() covers only what follows. A no-op where
/// that file is absent.
void reset_peak_rss();

/// Linear-interpolation quantile (q in [0, 1]) of \p values; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Spans recorded by the benchmark around its calls into each layer (the
/// program itself is not instrumented). Kept in memory, written at exit.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t run = 0;  ///< spans of one campaign or rep share this id
  };

  /// Open a span and return its index.
  int begin(std::string name, int parent = -1, std::uint64_t run = 0);
  void end(int id);
  /// A span whose interval was measured elsewhere.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::uint64_t run = 0);

  [[nodiscard]] double seconds(int id) const;
  /// Durations in seconds of every span called \p name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Sum of the durations of \p parent's direct children.
  [[nodiscard]] double children_seconds(int parent) const;

  /// Chrome trace-event JSON (open in ui.perfetto.dev).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on close() or destruction.
/// With a null recorder it records nothing (the untraced reps).
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name, int parent = -1)
      : spans_(spans), id_(spans ? spans->begin(std::move(name), parent) : -1) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

  /// Close the span now; returns its duration in seconds.
  double close() {
    if (spans_ == nullptr) return 0.0;
    if (!closed_) spans_->end(id_);
    closed_ = true;
    return spans_->seconds(id_);
  }

 private:
  Spans* spans_;
  int id_;
  bool closed_ = false;
};

/// The one JSON line a rep prints: a flat object of numbers and strings.
/// Digests are strings because a double cannot hold 64 bits.
class Result {
 public:
  void num(const std::string& key, double value);
  void count(const std::string& key, std::uint64_t value);
  void text(const std::string& key, const std::string& value);
  void flag(const std::string& key, bool value);
  void digest(const std::string& key, std::uint64_t value);
  [[nodiscard]] std::string line() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& key);
  std::string body_;
};

/// Host fingerprint fields (CPU model, nproc, monitor kernel).
void add_host(Result& out);

}  // namespace ecocloud::perfbench
