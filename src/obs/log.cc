#include "obs/log.h"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "util/mutex.h"
#include "util/strings.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace egocensus::obs {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

LogLevel LogLevelFromName(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  return LogLevel::kInfo;
}

LogEvent::LogEvent(std::string_view event_name) {
  fields_ = "\"event\":\"" + JsonEscape(event_name) + "\"";
}

LogEvent& LogEvent::Str(std::string_view key, std::string_view value) {
  fields_ += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  return *this;
}

LogEvent& LogEvent::Int(std::string_view key, std::uint64_t value) {
  fields_ += ",\"" + JsonEscape(key) + "\":" + std::to_string(value);
  return *this;
}

LogEvent& LogEvent::Float(std::string_view key, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  fields_ += ",\"" + JsonEscape(key) + "\":" + buffer;
  return *this;
}

LogEvent& LogEvent::Bool(std::string_view key, bool value) {
  fields_ += ",\"" + JsonEscape(key) + "\":" + (value ? "true" : "false");
  return *this;
}

LogEvent& LogEvent::Raw(std::string_view key, std::string_view json) {
  fields_ += ",\"" + JsonEscape(key) + "\":";
  fields_ += json;
  return *this;
}

/// Sink + rate-limiter state, all guarded by one mutex. Lines are short
/// (one request each) and requests are milliseconds-plus, so a single
/// writer lock never becomes the bottleneck the metric shards avoid.
struct Logger::Impl {
  Mutex mutex;
  std::ofstream file EGO_GUARDED_BY(mutex);
  bool use_stderr EGO_GUARDED_BY(mutex) = false;
  // Lines per second; 0 = unlimited.
  std::uint64_t rate_limit EGO_GUARDED_BY(mutex) = 0;
  // Current 1s rate window.
  std::uint64_t window_start_us EGO_GUARDED_BY(mutex) = 0;
  std::uint64_t window_count EGO_GUARDED_BY(mutex) = 0;
};

Logger& Logger::Global() {
  static Logger* logger = new Logger();  // leaked, like obs::Registry
  return *logger;
}

Logger::Impl& Logger::impl() {
  static Impl* impl = new Impl();  // leaked with its owner
  return *impl;
}

Status Logger::OpenFile(const std::string& path) {
  Impl& i = impl();
  MutexLock lock(i.mutex);
  if (i.file.is_open()) i.file.close();
  i.file.open(path, std::ios::out | std::ios::app);
  if (!i.file.is_open()) {
    enabled_.store(false, std::memory_order_relaxed);
    return Status::InvalidArgument("cannot open log file: " + path);
  }
  i.use_stderr = false;
  enabled_.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

void Logger::UseStderr() {
  Impl& i = impl();
  MutexLock lock(i.mutex);
  if (i.file.is_open()) i.file.close();
  i.use_stderr = true;
  enabled_.store(true, std::memory_order_relaxed);
}

void Logger::SetMinLevel(LogLevel level) {
  min_level_.store(static_cast<std::uint8_t>(level),
                   std::memory_order_relaxed);
}

void Logger::SetRateLimit(std::uint64_t max_per_sec) {
  Impl& i = impl();
  MutexLock lock(i.mutex);
  i.rate_limit = max_per_sec;
  i.window_start_us = 0;
  i.window_count = 0;
}

void Logger::Write(LogLevel level, const LogEvent& event) {
  if (!ShouldLog(level)) return;
  // Compose off-lock; only the sink write serializes.
  std::string line = "{\"ts_us\":" + std::to_string(Timer::NowMicros()) +
                     ",\"level\":\"" + LogLevelName(level) + "\"," +
                     event.fields() + "}\n";
  Impl& i = impl();
  MutexLock lock(i.mutex);
  if (i.rate_limit > 0) {
    std::uint64_t now = Timer::NowMicros();
    if (now - i.window_start_us >= 1'000'000) {
      i.window_start_us = now;
      i.window_count = 0;
    }
    if (i.window_count >= i.rate_limit) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ++i.window_count;
  }
  if (i.file.is_open()) {
    i.file << line;
    i.file.flush();
  } else if (i.use_stderr) {
    std::cerr << line;  // unbuffered enough: cerr flushes per insertion
  } else {
    return;  // sink raced away (ResetForTest)
  }
  written_.fetch_add(1, std::memory_order_relaxed);
}

void Logger::ResetForTest() {
  Impl& i = impl();
  MutexLock lock(i.mutex);
  if (i.file.is_open()) i.file.close();
  i.use_stderr = false;
  i.rate_limit = 0;
  i.window_start_us = 0;
  i.window_count = 0;
  enabled_.store(false, std::memory_order_relaxed);
  min_level_.store(static_cast<std::uint8_t>(LogLevel::kInfo),
                   std::memory_order_relaxed);
  written_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace egocensus::obs
