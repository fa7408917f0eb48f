#ifndef MFGCP_COMMON_LOGGING_H_
#define MFGCP_COMMON_LOGGING_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>

// Lightweight leveled logging plus CHECK macros.
//
// Usage:
//   MFG_LOG(INFO) << "solved in " << iters << " iterations";
//   MFG_CHECK(dt > 0) << "time step must be positive";
//   MFG_DCHECK_LE(i, n);
//
// CHECK failures abort the process: they guard *internal invariants*, not
// user input (user input errors are reported via Status, see status.h).

namespace mfg::common {

enum class LogLevel : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

std::string_view LogLevelToString(LogLevel level);

// Parses "debug" / "info" / "warning" (or "warn") / "error" / "fatal"
// (case-insensitive) into `out`. Returns false on any other input and
// leaves `out` untouched.
bool ParseLogLevel(std::string_view text, LogLevel& out);

// Global log threshold; messages below it are discarded. Default: kInfo.
void SetLogThreshold(LogLevel level);
LogLevel GetLogThreshold();

namespace internal_logging {

// The stream buffer behind a log line: a fixed array inside the message,
// so formatting a line never touches the heap (the recovery ladder logs
// from inside epochs that must stay allocation-free). A line longer than
// the array is truncated.
class LineBuffer : public std::streambuf {
 public:
  LineBuffer() { setp(data_, data_ + kCapacity - 1); }

  // Terminates the line with '\n' (room for it is always kept) and
  // returns it.
  std::string_view Finish();

 protected:
  int_type overflow(int_type ch) override {
    return traits_type::not_eof(ch);  // Full: drop the character.
  }

 private:
  static constexpr std::size_t kCapacity = 1024;
  char data_[kCapacity];
};

// Accumulates one log line and emits it (to stderr) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  LineBuffer buffer_;
  std::ostream stream_{&buffer_};
};

// Like LogMessage but aborts the process after emitting.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LineBuffer buffer_;
  std::ostream stream_{&buffer_};
};

// Swallows streamed-in values when a log statement is compiled out.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

// Lower-precedence-than-<< adapter so `MFG_CHECK(x) << "msg"` parses: the
// message is streamed first, then Voidify & turns the expression void.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace mfg::common

#define MFG_LOG_DEBUG ::mfg::common::LogLevel::kDebug
#define MFG_LOG_INFO ::mfg::common::LogLevel::kInfo
#define MFG_LOG_WARNING ::mfg::common::LogLevel::kWarning
#define MFG_LOG_ERROR ::mfg::common::LogLevel::kError

#define MFG_LOG(severity)                                              \
  ::mfg::common::internal_logging::LogMessage(MFG_LOG_##severity,      \
                                              __FILE__, __LINE__)      \
      .stream()

// Aborting invariant check, always on. Supports streaming extra context:
//   MFG_CHECK(dt > 0) << "dt=" << dt;
#define MFG_CHECK(condition)                                           \
  (condition)                                                          \
      ? (void)0                                                        \
      : ::mfg::common::internal_logging::Voidify() &                   \
            ::mfg::common::internal_logging::FatalLogMessage(          \
                __FILE__, __LINE__, #condition)                        \
                .stream()

#define MFG_CHECK_OP_(op, a, b) MFG_CHECK((a)op(b))
#define MFG_CHECK_EQ(a, b) MFG_CHECK_OP_(==, a, b)
#define MFG_CHECK_NE(a, b) MFG_CHECK_OP_(!=, a, b)
#define MFG_CHECK_LT(a, b) MFG_CHECK_OP_(<, a, b)
#define MFG_CHECK_LE(a, b) MFG_CHECK_OP_(<=, a, b)
#define MFG_CHECK_GT(a, b) MFG_CHECK_OP_(>, a, b)
#define MFG_CHECK_GE(a, b) MFG_CHECK_OP_(>=, a, b)

// Checks that a Status-returning expression succeeded.
#define MFG_CHECK_OK(expr)                                             \
  do {                                                                 \
    ::mfg::common::Status _mfg_check_status = (expr);                  \
    MFG_CHECK(_mfg_check_status.ok()) << _mfg_check_status.ToString(); \
  } while (false)

#ifdef NDEBUG
#define MFG_DCHECK(condition) \
  while (false) ::mfg::common::internal_logging::NullStream()
#else
#define MFG_DCHECK(condition) MFG_CHECK(condition)
#endif
#define MFG_DCHECK_EQ(a, b) MFG_DCHECK((a) == (b))
#define MFG_DCHECK_LE(a, b) MFG_DCHECK((a) <= (b))
#define MFG_DCHECK_LT(a, b) MFG_DCHECK((a) < (b))
#define MFG_DCHECK_GE(a, b) MFG_DCHECK((a) >= (b))
#define MFG_DCHECK_GT(a, b) MFG_DCHECK((a) > (b))

#endif  // MFGCP_COMMON_LOGGING_H_
