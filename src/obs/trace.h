// Request tracing: per-request span timelines for the dfkyd daemon.
//
// Design (DESIGN.md Sect. 13):
//
//   * A TraceContext carries a 64-bit trace id plus a vector of
//     monotonic-clock spans. Spans *tile*: the context keeps a cursor at
//     the end of the last closed span, and `mark(kind)` closes
//     [cursor, now] under that name. By construction spans are monotone,
//     non-overlapping and gap-free, so their durations sum exactly to the
//     traced total — the property the span-sum acceptance test checks.
//   * The active trace is a thread-local pointer installed by ScopedTrace
//     (RAII over one request inside RequestHandler::handle). Code below
//     the handler (ShardRouter, GroupCommit's committer thread) reaches it
//     via current_trace(), or via the TraceContext* that rides each queued
//     group-commit ticket; the committer stamps wal_append / fsync /
//     repl_ack into blocked submitters' contexts. The submitter only reads
//     its context after the ticket's done-flag hand-off (mutex + condvar),
//     which gives the required happens-before edge.
//   * Completed traces land in a lock-striped bounded ring (8 stripes x 64
//     entries, striped by trace id, one mutex per stripe) and — when the
//     total exceeds the slow threshold — in a slow-request log retaining
//     the K slowest traces per verb over a sliding window (two rotating
//     half-windows, so an old burst ages out after at most 2x the window).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dfky::obs {

/// Span taxonomy. The request path emits accept -> parse -> route ->
/// queue_wait -> wal_append -> fsync -> repl_ack -> respond; the
/// cross-shard new-period barrier replaces the commit quartet with
/// barrier_prepare / barrier_commit, and a read verb (encrypt) with
/// lock_wait -> crypto (DESIGN.md Sect. 13.2). New kinds are appended so
/// existing values never move.
enum class SpanKind : std::uint8_t {
  kAccept = 0,
  kParse,
  kRoute,
  kQueueWait,
  kWalAppend,
  kFsync,
  kReplAck,
  kRespond,
  kBarrierPrepare,
  kBarrierCommit,
  kLockWait,
  kCrypto,
};

inline constexpr std::string_view span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kAccept: return "accept";
    case SpanKind::kParse: return "parse";
    case SpanKind::kRoute: return "route";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kWalAppend: return "wal_append";
    case SpanKind::kFsync: return "fsync";
    case SpanKind::kReplAck: return "repl_ack";
    case SpanKind::kRespond: return "respond";
    case SpanKind::kBarrierPrepare: return "barrier_prepare";
    case SpanKind::kBarrierCommit: return "barrier_commit";
    case SpanKind::kLockWait: return "lock_wait";
    case SpanKind::kCrypto: return "crypto";
  }
  return "unknown";
}

/// One closed span: [start_ns, end_ns] on the steady clock. `label`
/// qualifies the kind when one name isn't enough — a repl_ack span
/// carries the follower names that held the batch at ack time.
struct TraceSpan {
  SpanKind kind = SpanKind::kAccept;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::string label;
};

/// The timeline of one request. Cheap to move; owned by ScopedTrace on
/// the handling thread for the request's whole lifetime.
struct TraceContext {
  std::uint64_t id = 0;
  std::string verb = "unknown";
  bool ok = true;
  std::uint64_t start_ns = 0;   // steady-clock ns when the trace began
  std::uint64_t cursor_ns = 0;  // end of the last closed span
  std::uint64_t total_ns = 0;   // stamped when the trace completes
  std::vector<TraceSpan> spans;

  static std::uint64_t now_ns();

  /// Closes [cursor, max(t, cursor)] as `k` and advances the cursor.
  /// Timestamps from the past are clamped to a zero-length span rather
  /// than producing overlap. A non-empty `label` is rendered alongside
  /// the span name in the JSONL.
  void mark_at(SpanKind k, std::uint64_t t, std::string_view label = {});
  /// mark_at(k, now).
  void mark(SpanKind k);
};

/// The thread's active trace, or nullptr outside a traced request (and
/// always nullptr while tracing is runtime-disabled).
TraceContext* current_trace();

/// RAII over one request: allocates a trace id, starts the clock and
/// installs the context as the thread's current trace. At scope exit it
/// closes the final `respond` span, stamps the total and files the trace
/// into the ring and (if slow enough) the slow-request log. Inactive —
/// near-zero cost, current_trace() stays null — when set_tracing(false).
class ScopedTrace {
 public:
  ScopedTrace();
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  bool active() const { return active_; }
  void set_verb(std::string_view verb);
  void set_outcome(bool ok);

 private:
  TraceContext ctx_;
  TraceContext* prev_ = nullptr;
  bool active_ = false;
};

/// Convenience: close a span on the thread's current trace (no-op when
/// there is none).
void trace_mark(SpanKind k);

/// Replaces the current trace's id (no-op without one). Replication uses
/// it to JOIN timelines: a follower applying a repl-append that carries
/// `trace=<id>` adopts the primary's id, so the same id indexes the
/// mutation's spans on the primary AND its apply spans on the follower
/// (DESIGN.md Sect. 13/14).
void trace_adopt_id(std::uint64_t id);

/// Runtime switches. Tracing defaults to on; the slow threshold defaults
/// to 10ms and 0 disables the slow log (the ring still fills).
void set_tracing(bool on);
bool tracing_enabled();
void set_slow_threshold_ns(std::uint64_t ns);
std::uint64_t slow_threshold_ns();

constexpr std::size_t kTraceRingStripes = 8;
constexpr std::size_t kTraceRingPerStripe = 64;
constexpr std::size_t kSlowTracesPerVerb = 8;
constexpr std::uint64_t kSlowWindowNs = 60ull * 1000 * 1000 * 1000;

/// Files a completed trace (total_ns already stamped) into the ring and
/// slow log. ScopedTrace calls this; tests call it directly to inject
/// synthetic timelines.
void trace_record(const TraceContext& t);

/// Ring contents, oldest-to-newest per stripe, sorted by id across
/// stripes; `max` > 0 keeps only the `max` newest.
std::vector<TraceContext> recent_traces(std::size_t max = 0);
/// Slow-log contents (both half-windows), sorted slowest-first.
std::vector<TraceContext> slow_traces();

/// One deterministic JSON object for a trace:
///   {"kind":"trace","id":7,"verb":"add-user","outcome":"ok",
///    "total_ns":N,"spans":[{"span":"accept","start_ns":0,"dur_ns":D},..]}
/// Span starts are relative to the trace start so goldens are stable.
std::string trace_json_line(const TraceContext& t,
                            std::string_view kind = "trace");
/// JSONL dump: one meta line, then ring traces (id order, newest `max`
/// if max > 0), then slow-log traces as "slow_trace" lines.
std::string trace_jsonl(std::size_t max = 0);

/// Clears the ring, the slow log and the id counter (tests only).
void trace_reset();

}  // namespace dfky::obs
