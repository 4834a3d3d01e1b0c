// Shared transient-failure retry policy: exponential backoff with jitter.
//
// Every client-side retry loop in SOFYA (RetryingEndpoint, PagedSelect)
// drives its re-issues through RetryWhileTransient so retry semantics cannot
// drift between layers: only Unavailable is retried, every re-issue waits an
// exponentially growing, jittered delay first. A zero-delay retry loop turns
// one struggling server into a hammered one — the pause is the point.

#ifndef SOFYA_ENDPOINT_RETRY_POLICY_H_
#define SOFYA_ENDPOINT_RETRY_POLICY_H_

#include <cstdint>
#include <functional>

#include "util/random.h"
#include "util/status.h"

namespace sofya {

/// Retry policy.
struct RetryOptions {
  int max_retries = 3;  ///< Additional attempts after the first failure.

  /// Delay before the first re-issue; each further re-issue multiplies it by
  /// `backoff_multiplier`, capped at `max_backoff_ms`. Set to 0 to disable
  /// waiting (tests that hammer a deterministic fault injector).
  double initial_backoff_ms = 100.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 5000.0;

  /// Uniform jitter as a fraction of the computed delay: the actual wait is
  /// delay * (1 ± jitter). Decorrelates clients that failed together so
  /// they do not re-converge on the server in one synchronized burst.
  double jitter = 0.2;

  /// Jitter seed; 0 draws a nondeterministic seed per retry sequence.
  uint64_t seed = 0;

  /// Honor a server-supplied Retry-After hint riding the failure Status
  /// (Status::retry_after_ms, attached by HttpSparqlEndpoint from the HTTP
  /// header): the wait becomes max(computed backoff, hint), so a client
  /// never re-knocks before the server said it would be ready, and never
  /// waits *less* than its own escalating schedule demands.
  bool honor_retry_after = true;

  /// Clamp on the honored hint — a confused (or hostile) server cannot
  /// stall the pipeline arbitrarily long.
  double max_retry_after_ms = 30000.0;

  /// Sleep override. Tests inject a collector to assert the backoff
  /// schedule without waiting; unset means a real sleep_for.
  std::function<void(double delay_ms)> sleeper;
};

/// Computes the backoff delay (ms, jitter applied) before re-issue number
/// `attempt` (1-based). Exposed for tests; `rng` supplies the jitter draw.
double RetryBackoffMs(const RetryOptions& options, int attempt, Rng& rng);

/// Like above, but also honoring a Retry-After hint on `last_failure` (the
/// status that triggered this re-issue) per options.honor_retry_after:
/// returns max(computed backoff, min(hint, max_retry_after_ms)).
double RetryBackoffMs(const RetryOptions& options, int attempt, Rng& rng,
                      const Status& last_failure);

/// Waits `delay_ms` via options.sleeper (or a real sleep). No-op for <= 0.
void RetrySleep(const RetryOptions& options, double delay_ms);

/// Seeds the jitter RNG: options.seed when set, otherwise nondeterministic.
uint64_t RetrySeed(const RetryOptions& options);

/// The schedule itself, for any kind of result: while `failure(result)`
/// names a transient failure (a `const Status*`, null when nothing is left
/// to retry), sleeps the backoff delay — honoring that failure's
/// Retry-After — and lets `reissue(result)` send the next attempt and fold
/// its outcome into `result`, up to options.max_retries re-issues.
/// `result` is the outcome of an attempt that already ran (attempt 1).
template <typename R, typename Failure, typename Reissue>
void RetryWhileTransient(R& result, Failure&& failure, Reissue&& reissue,
                         const RetryOptions& options) {
  const Status* last = failure(result);
  if (last == nullptr || options.max_retries <= 0) return;
  Rng rng(RetrySeed(options));
  for (int attempt = 1; last != nullptr && attempt <= options.max_retries;
       ++attempt) {
    RetrySleep(options, RetryBackoffMs(options, attempt, rng, *last));
    reissue(result);
    last = failure(result);
  }
}

/// Runs `attempt` (returning a StatusOr) and re-runs it while it reports
/// Unavailable, on the schedule above.
template <typename Fn>
auto RetryTransient(Fn&& attempt, const RetryOptions& options)
    -> decltype(attempt()) {
  auto result = attempt();
  RetryWhileTransient(
      result,
      [](const decltype(result)& r) -> const Status* {
        return !r.ok() && r.status().IsUnavailable() ? &r.status() : nullptr;
      },
      [&](decltype(result)& r) { r = attempt(); }, options);
  return result;
}

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_RETRY_POLICY_H_
