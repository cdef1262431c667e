#include "daemon/feed.h"

#include <fcntl.h>
#include <unistd.h>

#include <utility>

#include "obs/metrics.h"

namespace dfky::daemon {

namespace {

// Broadcast-to-all-current latency buckets: 10us .. 1s.
const std::vector<std::uint64_t> kBroadcastBoundsNs = {
    10'000,      50'000,      100'000,       500'000,     1'000'000,
    5'000'000,   10'000'000,  50'000'000,    100'000'000, 500'000'000,
    1'000'000'000};

}  // namespace

FeedFrame::~FeedFrame() {
  // The last subscriber write queue to finish with (or shed) this frame
  // destroys it — that instant is "every current subscriber has it".
  if (published == std::chrono::steady_clock::time_point{}) return;
  const auto dt = std::chrono::steady_clock::now() - published;
  obs::histogram("dfkyd_feed_broadcast_ns", {}, kBroadcastBoundsNs)
      .observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
}

FeedHub::FeedHub() {
  if (::pipe2(pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    pipe_[0] = pipe_[1] = -1;
  }
}

FeedHub::~FeedHub() {
  for (int fd : pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void FeedHub::publish(std::string line, std::uint64_t period) {
  auto frame = std::make_shared<FeedFrame>();
  frame->line = std::move(line);
  frame->line += '\n';
  frame->period = period;
  frame->published = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    pending_.push_back(std::move(frame));
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  obs::counter("dfkyd_feed_frames_total").inc();
  if (pipe_[1] >= 0) {
    const char b = 'f';
    [[maybe_unused]] const ssize_t n = ::write(pipe_[1], &b, 1);
    // EAGAIN (pipe full) is fine: the reactor is already signalled.
  }
}

std::vector<FeedFramePtr> FeedHub::take_pending() {
  std::vector<FeedFramePtr> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.swap(pending_);
  return out;
}

void FeedHub::set_replay(FeedReplayFn fn) {
  std::lock_guard<std::mutex> lk(mu_);
  replay_ = std::move(fn);
}

FeedReplay FeedHub::replay(std::optional<std::uint64_t> from) const {
  FeedReplayFn fn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fn = replay_;
  }
  return fn ? fn(from) : FeedReplay{};  // no history wired: nothing to replay
}

}  // namespace dfky::daemon
