#pragma once

/// \file logger.hpp
/// \brief Leveled structured logger emitting JSONL with sim-time context.
///
/// Every record is one JSON object per line:
///
///   {"ts_sim":1234.5,"level":"info","component":"controller",
///    "msg":"server crashed","server":17}
///
/// ts_sim is simulation time in seconds, read from an injected clock (the
/// simulator's now()) so log lines line up with trace events and metric
/// flushes. A default-constructed logger is off: no sink, level kOff, and
/// the enabled(level) check is a two-comparison fast path, so instrumented
/// code can log unconditionally without measurable cost in silent runs.
///
/// The logger never touches simulation state — pure observer, like the
/// rest of the obs layer.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace ecocloud::obs {

enum class LogLevel : std::uint8_t { kTrace, kDebug, kInfo, kWarn, kError, kOff };

[[nodiscard]] const char* to_string(LogLevel level);

/// Parse "trace"/"debug"/"info"/"warn"/"error"/"off" (case-sensitive);
/// empty optional on anything else.
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view text);

/// One structured field of a log record. Cheap to construct at the call
/// site; referenced strings must outlive the log() call (they are copied
/// into the output immediately).
struct LogField {
  enum class Kind : std::uint8_t { kInt, kUint, kDouble, kBool, kString };

  LogField(std::string_view k, std::int64_t v)
      : key(k), kind(Kind::kInt), i(v) {}
  LogField(std::string_view k, std::uint64_t v)
      : key(k), kind(Kind::kUint), u(v) {}
  LogField(std::string_view k, int v)
      : key(k), kind(Kind::kInt), i(v) {}
  LogField(std::string_view k, double v)
      : key(k), kind(Kind::kDouble), d(v) {}
  LogField(std::string_view k, bool v)
      : key(k), kind(Kind::kBool), b(v) {}
  LogField(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), s(v) {}
  LogField(std::string_view k, const char* v)
      : key(k), kind(Kind::kString), s(v) {}

  std::string_view key;
  Kind kind;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
  std::string_view s;
};

class Logger {
 public:
  /// Off by default: no sink, threshold kOff.
  Logger() = default;

  /// \p out receives one JSON object per line; nullptr silences the
  /// logger. Not owned; must outlive the logger while attached.
  void set_sink(std::ostream* out) { sink_ = out; }

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  /// Sim-time source for the ts_sim field; unset logs ts_sim 0.
  void set_clock(std::function<double()> now) { now_ = std::move(now); }

  /// Bind one field that is appended to every record (after msg, before
  /// the call-site fields). Sharded runs bind {"shard": k} so the merged
  /// JSONL stream keeps its provenance. Empty key (default) emits nothing.
  void bind_field(std::string key, std::uint64_t value) {
    bound_key_ = std::move(key);
    bound_value_ = value;
  }

  /// Fast gate for call sites that build expensive fields.
  [[nodiscard]] bool enabled(LogLevel level) const {
    return sink_ != nullptr && level >= level_ && level_ != LogLevel::kOff;
  }

  void log(LogLevel level, std::string_view component, std::string_view msg,
           std::initializer_list<LogField> fields = {});

  void trace(std::string_view component, std::string_view msg,
             std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kTrace, component, msg, fields);
  }
  void debug(std::string_view component, std::string_view msg,
             std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kDebug, component, msg, fields);
  }
  void info(std::string_view component, std::string_view msg,
            std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kInfo, component, msg, fields);
  }
  void warn(std::string_view component, std::string_view msg,
            std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kWarn, component, msg, fields);
  }
  void error(std::string_view component, std::string_view msg,
             std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kError, component, msg, fields);
  }

  /// Flush the sink (at every safe point; long runs stay tail -f-able).
  void flush();

  /// Records written since construction (tests, flush diagnostics).
  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  std::ostream* sink_ = nullptr;
  LogLevel level_ = LogLevel::kOff;
  std::function<double()> now_;
  std::string bound_key_;
  std::uint64_t bound_value_ = 0;
  std::uint64_t lines_ = 0;
};

/// Append \p text to \p out as a JSON string literal (with quotes),
/// escaping per RFC 8259. Shared with the exporters.
void append_json_string(std::string& out, std::string_view text);

}  // namespace ecocloud::obs
