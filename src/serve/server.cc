#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <system_error>
#include <unistd.h>
#include <utility>

#include "repl/digest.h"
#include "repl/snapshot_provider.h"

namespace recpriv::serve {

namespace {

using Clock = std::chrono::steady_clock;

bool IsBlank(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

Result<Server::WakePipe> Server::WakePipe::Make() {
  int fds[2];
  if (::pipe(fds) < 0) {
    return Status::IOError("pipe: failed to create wake pipe");
  }
  WakePipe pipe;
  pipe.read = net::UniqueFd(fds[0]);
  pipe.write = net::UniqueFd(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  return pipe;
}

void Server::WakePipe::Notify() const {
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  (void)!::write(write.get(), &byte, 1);
}

void Server::WakePipe::Drain() const {
  char buf[64];
  while (::read(read.get(), buf, sizeof(buf)) > 0) {
  }
}

Server::Server(std::shared_ptr<QueryEngine> engine, ServerOptions options)
    : engine_(std::move(engine)), options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(
    std::shared_ptr<QueryEngine> engine, ServerOptions options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("server needs an engine");
  }
  if (options.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (options.poll_tick_ms <= 0) options.poll_tick_ms = 50;

  // unique_ptr: the server threads capture `this`, so the server must not
  // move after Start.
  std::unique_ptr<Server> server(
      new Server(std::move(engine), std::move(options)));
  RECPRIV_ASSIGN_OR_RETURN(
      server->listener_,
      net::Listener::Bind(server->options_.host, server->options_.port));
  server->port_ = server->listener_.port();
  RECPRIV_ASSIGN_OR_RETURN(server->wake_, WakePipe::Make());

  if (server->options_.snapshot_provider != nullptr) {
    // Registered before the accept thread starts, so no session can
    // subscribe before events flow. Fan-out only touches the locked push
    // queues, so it is safe from any publishing thread.
    server->store_listener_token_ = server->engine_->store().AddListener(
        [s = server.get()](const StoreEvent& event) { s->OnStoreEvent(event); });
  }

  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopping_.exchange(true)) return;
  // Detach from the store first: RemoveListener blocks until in-flight
  // fan-out finishes, so no event touches a session once teardown starts.
  if (store_listener_token_ != 0) {
    engine_->store().RemoveListener(store_listener_token_);
    store_listener_token_ = 0;
  }
  wake_.Notify();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Closed only after the join: no thread may poll a recycled fd.
  listener_.Close();
  // No session starts after the join. Wake them all at once, then join.
  std::vector<SessionPtr> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (const SessionPtr& s : sessions) s->wake.Notify();
  for (const SessionPtr& s : sessions) s->thread.join();
}

client::TransportStats Server::Metrics() const {
  client::TransportStats t;
  t.connections_active = active_.load();
  t.connections_accepted = accepted_.load();
  t.connections_rejected = rejected_.load();
  t.sessions_v2 = sessions_v2_.load();
  t.requests = requests_.load();
  t.errors = errors_.load();
  t.malformed_lines = malformed_.load();
  t.oversized_lines = oversized_.load();
  t.idle_disconnects = idle_disconnects_.load();
  t.epoch_pins = epoch_pins_.load();
  for (size_t i = 0; i < ops_.size(); ++i) {
    const uint64_t n = ops_[i].load();
    if (n == 0) continue;
    t.ops[i < kKnownOps.size() ? std::string(kKnownOps[i]) : "(other)"] = n;
  }
  return t;
}

std::map<std::string, uint64_t> Server::ErrorCodeCounts() const {
  std::map<std::string, uint64_t> counts;
  for (size_t i = 0; i < error_codes_.size(); ++i) {
    const uint64_t n = error_codes_[i].load();
    if (n == 0) continue;
    counts[std::string(client::ErrorCodeName(client::ErrorCode(i)))] = n;
  }
  return counts;
}

void Server::CountError(client::ErrorCode code) {
  error_codes_[size_t(code)].fetch_add(1);
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    ReapSessions();
    struct pollfd fds[2] = {{wake_.read.get(), POLLIN, 0},
                            {listener_.fd(), POLLIN, 0}};
    const int rc = ::poll(fds, 2, options_.poll_tick_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // cannot accept any more; Stop() still drains the sessions
    }
    if (fds[0].revents != 0) wake_.Drain();
    if (fds[1].revents == 0) continue;

    auto accepted = listener_.Accept(/*timeout_ms=*/0);
    if (!accepted.ok()) break;  // the listening socket itself is broken
    if (accepted->timed_out) {
      // A vanished connection or transient exhaustion (Accept maps both
      // to a quiet tick). The listener may still be readable, so sleep
      // one tick rather than re-polling into a busy loop while e.g. fd
      // limits are exhausted.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.poll_tick_ms));
      continue;
    }
    Admit(std::move(accepted->fd));
  }
}

void Server::Admit(net::UniqueFd fd) {
  net::LineChannelOptions channel_options;
  channel_options.max_line_bytes = options_.max_line_bytes;
  net::LineChannel channel(std::move(fd), channel_options);

  // Only this thread admits, so the check and the increment cannot race.
  auto wake = WakePipe::Make();
  if (active_.load() >= options_.max_connections || !wake.ok()) {
    rejected_.fetch_add(1);
    CountError(client::ErrorCode::kUnavailable);
    // Best effort: tell the peer why before closing. Bounded write, so a
    // deaf peer costs at most the timeout.
    (void)channel.WriteLine(
        ErrorResponseLine(client::ErrorCode::kUnavailable,
                          "server at max_connections (" +
                              std::to_string(options_.max_connections) +
                              "); retry later"),
        /*timeout_ms=*/1000);
    return;
  }
  active_.fetch_add(1);
  accepted_.fetch_add(1);
  auto session =
      std::make_shared<Session>(std::move(channel), std::move(*wake));
  try {
    session->thread = std::thread([this, session] { RunSession(session); });
  } catch (const std::system_error&) {
    // No thread to serve it: close the connection, free the slot.
    session->channel.Close();
    active_.fetch_sub(1);
    return;
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.push_back(std::move(session));
}

void Server::ReapSessions() {
  std::vector<SessionPtr> finished;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto live = std::partition(
        sessions_.begin(), sessions_.end(),
        [](const SessionPtr& s) { return !s->done.load(); });
    finished.assign(std::make_move_iterator(live),
                    std::make_move_iterator(sessions_.end()));
    sessions_.erase(live, sessions_.end());
  }
  for (const SessionPtr& s : finished) s->thread.join();
}

bool Server::WaitForInput(Session& session) {
  int timeout_ms = -1;
  // Subscribed sessions are exempt from the idle timeout: a caught-up
  // follower is legitimately silent for as long as no publish happens; a
  // dead one fails the push write.
  if (options_.idle_timeout_ms > 0 && !session.subscribed) {
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(
            session.last_activity +
            std::chrono::milliseconds(options_.idle_timeout_ms) -
            Clock::now())
            .count();
    if (left <= 0) {
      idle_disconnects_.fetch_add(1);
      return false;
    }
    timeout_ms = int(left);
  }
  struct pollfd fds[2] = {{session.channel.fd(), POLLIN, 0},
                          {session.wake.read.get(), POLLIN, 0}};
  // An error is treated as a wakeup: the read that follows reports it.
  (void)::poll(fds, 2, timeout_ms);
  if (fds[1].revents != 0) session.wake.Drain();
  return true;
}

void Server::RunSession(const SessionPtr& session) {
  RequestContext context;
  context.transport_stats = [this] { return Metrics(); };
  context.snapshots = options_.snapshot_provider;
  context.replication_stats = options_.replication_stats;
  context.allow_binary_frame = true;
  if (options_.snapshot_provider != nullptr) {
    context.on_subscribe = [this, &session] {
      if (session->subscribed) return true;  // re-subscribe is idempotent
      session->subscribed = true;
      std::lock_guard<std::mutex> lock(subs_mu_);
      subscribers_.push_back(session);
      return true;
    };
  }
  while (!stopping_.load()) {
    // Queued push lines go out before the next request is read, so events
    // never interleave into the middle of a response.
    if (!FlushPushes(*session)) break;
    // Wait only when no complete request is buffered; then one
    // non-blocking read takes what the kernel has. A binary session reads
    // frames through the same buffer; the frame's JSON payload then flows
    // through the identical dispatch path a line would.
    const bool buffered = session->binary
                              ? session->channel.HasBufferedFrame()
                              : session->channel.HasBufferedLine();
    if (!buffered && !WaitForInput(*session)) break;
    Result<net::ReadResult> read = net::ReadResult{};
    if (session->binary) {
      auto frame = session->channel.ReadFrame(/*timeout_ms=*/0);
      if (frame.ok()) {
        read = net::ReadResult{frame->event, std::move(frame->payload)};
      } else {
        read = frame.status();
      }
    } else {
      read = session->channel.ReadLine(/*timeout_ms=*/0);
    }
    if (!read.ok()) break;  // hard transport failure (reset, garbled frame)
    if (read->event == net::ReadEvent::kEof) break;
    // Nothing complete yet: a partial request, a push wakeup, or an idle
    // tick (WaitForInput ends the session once the timeout expires).
    if (read->event == net::ReadEvent::kTimeout) continue;
    if (read->event == net::ReadEvent::kOversized) {
      // The response below is an answered ok:false line, so it counts as
      // a request and an error like any other (plus its own counter).
      oversized_.fetch_add(1);
      requests_.fetch_add(1);
      errors_.fetch_add(1);
      CountError(client::ErrorCode::kMalformed);
      session->last_activity = Clock::now();
      if (!WriteToSession(
              *session, ErrorResponseLine(
                            client::ErrorCode::kMalformed,
                            "request line exceeds " +
                                std::to_string(options_.max_line_bytes) +
                                " bytes"))) {
        break;
      }
      continue;
    }
    if (IsBlank(read->line)) continue;
    session->last_activity = Clock::now();
    context.binary_session = session->binary;
    if (!HandleLine(*session, context, read->line)) break;
  }
  session->channel.Close();
  active_.fetch_sub(1);
  session->done.store(true);
  wake_.Notify();  // the accept thread joins this thread on its next tick
}

bool Server::WriteToSession(Session& session, std::string_view json) {
  if (session.binary) {
    return session.channel
        .WriteFrame(json, std::string_view(), options_.write_timeout_ms)
        .ok();
  }
  return session.channel.WriteLine(json, options_.write_timeout_ms).ok();
}

bool Server::HandleLine(Session& session, const RequestContext& context,
                        const std::string& line) {
  RequestInfo info;
  HandleRequestLine(line, *engine_, context, &info, &session.buffers);
  const std::string& response = session.buffers.response;

  requests_.fetch_add(1);
  ops_[KnownOpIndex(info.op)].fetch_add(1);
  if (!info.parsed) malformed_.fetch_add(1);
  if (!info.ok) {
    errors_.fetch_add(1);
    CountError(info.error_code);
  }
  if (info.pinned_epoch) epoch_pins_.fetch_add(1);
  if (info.version > session.version) {
    session.version = info.version;
    if (info.version >= kWireVersionCurrent) sessions_v2_.fetch_add(1);
  }
  bool alive;
  if (session.binary && !info.attachment.empty()) {
    // A bulk response (fetch_snapshot chunk): JSON + raw attachment in one
    // kFrameJsonWithBytes frame.
    alive = session.channel
                .WriteFrame(response, info.attachment,
                            options_.write_timeout_ms)
                .ok();
  } else {
    alive = WriteToSession(session, response);
  }
  // The hello response itself goes out in the old framing (above); the
  // negotiated framing applies from the next request on. Renegotiation is
  // symmetric — hello with "frame":"json" switches a binary session back.
  if (alive && info.ok && info.op == "hello") {
    session.binary = info.negotiated_binary;
  }
  return alive;
}

bool Server::FlushPushes(Session& session) {
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(session.push_mu);
    lines.swap(session.pending_push);
  }
  for (const std::string& line : lines) {
    if (!WriteToSession(session, line)) return false;
  }
  return true;
}

void Server::OnStoreEvent(const StoreEvent& event) {
  client::EpochEvent out;
  out.release = event.release;
  out.epoch = event.epoch;
  switch (event.kind) {
    case StoreEvent::Kind::kInstall: {
      out.kind = client::EpochEvent::Kind::kPublish;
      // Pack from the event's own snapshot (no store re-lookup race) and,
      // on a durable store, the layout it was just persisted from — this
      // also warms the provider cache for the fetches that follow.
      auto image = options_.snapshot_provider->Pack(
          event.release, event.snapshot, event.image);
      if (!image.ok()) return;  // unserializable: followers resync later
      out.digest = repl::FormatDigest((*image)->digest());
      break;
    }
    case StoreEvent::Kind::kRetire:
      out.kind = client::EpochEvent::Kind::kRetire;
      break;
    case StoreEvent::Kind::kDrop:
      out.kind = client::EpochEvent::Kind::kDrop;
      break;
  }
  const std::string line = wire::EncodeEpochEvent(out).ToString();

  std::lock_guard<std::mutex> lock(subs_mu_);
  for (size_t i = 0; i < subscribers_.size();) {
    SessionPtr session = subscribers_[i].lock();
    if (session == nullptr) {  // closed; let the slot expire out
      subscribers_[i] = std::move(subscribers_.back());
      subscribers_.pop_back();
      continue;
    }
    {
      std::lock_guard<std::mutex> push_lock(session->push_mu);
      session->pending_push.push_back(line);
    }
    session->wake.Notify();
    ++i;
  }
}

}  // namespace recpriv::serve
