#ifndef TWRS_UTIL_CANCEL_H_
#define TWRS_UTIL_CANCEL_H_

#include <atomic>

namespace twrs {

/// Cooperative cancellation flag shared between a job's owner and the code
/// running it. The owner calls Cancel(); the running code polls cancelled()
/// at loop granularity (per input read or per merge block) and unwinds with
/// Status::Cancelled. One-way: a fired token never resets, so a token must
/// not be reused across jobs.
///
/// Polling is a relaxed atomic load — cheap enough for per-record loops —
/// and cancellation needs no stronger ordering: the only thing the flag
/// publishes is itself.
class CancelToken {
 public:
  CancelToken() = default;

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Idempotent and thread-safe.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() has been called.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// True when `token` is non-null and fired — the poll every cancellation
/// point uses, so "no token" and "token not fired" read the same way.
inline bool IsCancelled(const CancelToken* token) {
  return token != nullptr && token->cancelled();
}

}  // namespace twrs

#endif  // TWRS_UTIL_CANCEL_H_
