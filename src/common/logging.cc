#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mfg::common {
namespace {

std::atomic<LogLevel> g_threshold{LogLevel::kInfo};

// Trims a path down to its basename for compact log prefixes.
const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

std::string_view LogLevelToString(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

bool ParseLogLevel(std::string_view text, LogLevel& out) {
  std::string lower(text.size(), '\0');
  for (std::size_t i = 0; i < text.size(); ++i) {
    lower[i] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(text[i])));
  }
  if (lower == "debug") {
    out = LogLevel::kDebug;
  } else if (lower == "info") {
    out = LogLevel::kInfo;
  } else if (lower == "warning" || lower == "warn") {
    out = LogLevel::kWarning;
  } else if (lower == "error") {
    out = LogLevel::kError;
  } else if (lower == "fatal") {
    out = LogLevel::kFatal;
  } else {
    return false;
  }
  return true;
}

void SetLogThreshold(LogLevel level) { g_threshold.store(level); }
LogLevel GetLogThreshold() { return g_threshold.load(); }

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LogLevelToString(level) << " " << Basename(file) << ":"
          << line << "] ";
}

std::string_view LineBuffer::Finish() {
  *pptr() = '\n';
  return {pbase(), static_cast<std::size_t>(pptr() - pbase()) + 1};
}

namespace {

// One fwrite per line, so concurrent loggers never interleave mid-line.
void WriteLine(LineBuffer& buffer) {
  const std::string_view line = buffer.Finish();
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace

LogMessage::~LogMessage() {
  if (level_ < GetLogThreshold()) return;
  WriteLine(buffer_);
}

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  stream_ << "[FATAL " << Basename(file) << ":" << line << "] Check failed: "
          << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  WriteLine(buffer_);
  std::abort();
}

}  // namespace internal_logging
}  // namespace mfg::common
