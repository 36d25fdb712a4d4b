#include "serve/server.h"

#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>
#include <utility>

#include "repl/digest.h"
#include "repl/snapshot_provider.h"
#include "serve/wire.h"

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
  if (options.max_requests_per_slice == 0) options.max_requests_per_slice = 1;

  // unique_ptr: the poller thread and pool slices capture `this`, so the
  // server must not move after Start.
  std::unique_ptr<Server> server(
      new Server(std::move(engine), std::move(options)));
  RECPRIV_ASSIGN_OR_RETURN(
      server->listener_,
      net::Listener::Bind(server->options_.host, server->options_.port));
  server->port_ = server->listener_.port();

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    return Status::IOError("pipe: failed to create poller wake pipe");
  }
  server->wake_read_ = net::UniqueFd(pipe_fds[0]);
  server->wake_write_ = net::UniqueFd(pipe_fds[1]);
  ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(pipe_fds[1], F_SETFL, O_NONBLOCK);

  if (server->options_.snapshot_provider != nullptr) {
    // Registered before the poller starts, so no session can subscribe
    // before events flow. Fan-out only touches the locked push queues, so
    // it is safe from any publishing thread.
    server->store_listener_token_ = server->engine_->store().AddListener(
        [s = server.get()](const StoreEvent& event) { s->OnStoreEvent(event); });
  }

  server->poller_thread_ = std::thread([s = server.get()] { s->PollLoop(); });
  return server;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true)) {
    // Detach from the store first: RemoveListener blocks until in-flight
    // fan-out finishes, so no event touches a session once teardown starts.
    if (store_listener_token_ != 0) {
      engine_->store().RemoveListener(store_listener_token_);
      store_listener_token_ = 0;
    }
    WakePoller();
    if (poller_thread_.joinable()) poller_thread_.join();
    // Closed only after the join: no thread may poll a recycled fd.
    listener_.Close();
  }
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return active_ == 0; });
}

void Server::WakePoller() {
  const char byte = 1;
  if (wake_write_.valid()) {
    // Best effort: a full pipe already guarantees a pending wakeup.
    (void)!::write(wake_write_.get(), &byte, 1);
  }
}

client::TransportStats Server::Metrics() const {
  client::TransportStats t;
  t.connections_accepted = accepted_.load();
  t.connections_rejected = rejected_.load();
  t.sessions_v2 = sessions_v2_.load();
  t.requests = requests_.load();
  t.errors = errors_.load();
  t.malformed_lines = malformed_.load();
  t.oversized_lines = oversized_.load();
  t.idle_disconnects = idle_disconnects_.load();
  t.epoch_pins = epoch_pins_.load();
  {
    std::lock_guard<std::mutex> lock(mu_);
    t.connections_active = active_;
    t.ops = ops_;
  }
  return t;
}

std::map<std::string, uint64_t> Server::ErrorCodeCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_codes_;
}

void Server::PollLoop() {
  std::vector<SessionPtr> idle;
  std::vector<struct pollfd> pollfds;

  while (!stopping_.load()) {
    // Collect sessions the pool slices handed back.
    {
      std::lock_guard<std::mutex> lock(handoff_mu_);
      for (SessionPtr& s : returned_) idle.push_back(std::move(s));
      returned_.clear();
    }

    // A session with queued push lines must not sit waiting for peer
    // traffic — hand it to the pool, whose slice flushes the queue first.
    for (size_t i = 0; i < idle.size();) {
      bool pending;
      {
        std::lock_guard<std::mutex> lock(idle[i]->push_mu);
        pending = !idle[i]->pending_push.empty();
      }
      if (pending) {
        SubmitSlice(std::move(idle[i]));
        idle[i] = std::move(idle.back());
        idle.pop_back();
      } else {
        ++i;
      }
    }

    // Enforce the idle timeout (granularity: poll_tick_ms). Subscribed
    // sessions are exempt — a caught-up follower is legitimately silent
    // for as long as no publish happens; a dead one fails the push write.
    if (options_.idle_timeout_ms > 0) {
      const auto now = Clock::now();
      for (size_t i = 0; i < idle.size();) {
        bool subscribed;
        {
          std::lock_guard<std::mutex> lock(idle[i]->push_mu);
          subscribed = idle[i]->subscribed;
        }
        if (!subscribed &&
            now - idle[i]->last_activity >
                std::chrono::milliseconds(options_.idle_timeout_ms)) {
          idle_disconnects_.fetch_add(1);
          FinishSession(*idle[i]);
          idle[i] = std::move(idle.back());
          idle.pop_back();
        } else {
          ++i;
        }
      }
    }

    pollfds.clear();
    pollfds.push_back({wake_read_.get(), POLLIN, 0});
    pollfds.push_back({listener_.fd(), POLLIN, 0});
    for (const SessionPtr& s : idle) {
      pollfds.push_back({s->channel.fd(), POLLIN, 0});
    }

    const int rc = ::poll(pollfds.data(), nfds_t(pollfds.size()),
                          options_.poll_tick_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // poller cannot continue; Stop() will still drain
    }

    if (pollfds[0].revents != 0) {  // drain wake bytes
      char buf[64];
      while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
      }
    }

    // Hand readable sessions to the pool (reverse order keeps the
    // swap-remove indices valid).
    for (size_t i = pollfds.size(); i-- > 2;) {
      if (pollfds[i].revents == 0) continue;
      const size_t k = i - 2;
      SessionPtr session = std::move(idle[k]);
      idle[k] = std::move(idle.back());
      idle.pop_back();
      SubmitSlice(std::move(session));
    }

    if (pollfds[1].revents != 0) {
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

      net::LineChannelOptions channel_options;
      channel_options.max_line_bytes = options_.max_line_bytes;
      net::LineChannel channel(std::move(accepted->fd), channel_options);

      bool admitted = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (active_ < options_.max_connections) {
          ++active_;
          admitted = true;
        }
      }
      if (!admitted) {
        rejected_.fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++error_codes_[std::string(
              client::ErrorCodeName(client::ErrorCode::kUnavailable))];
        }
        // Best effort: tell the peer why before closing. Bounded write, so
        // a deaf peer costs at most the timeout.
        (void)channel.WriteLine(
            ErrorResponseLine(client::ErrorCode::kUnavailable,
                              "server at max_connections (" +
                                  std::to_string(options_.max_connections) +
                                  "); retry later"),
            /*timeout_ms=*/1000);
        continue;
      }
      accepted_.fetch_add(1);
      idle.push_back(std::make_shared<Session>(std::move(channel)));
    }
  }

  // Shutdown: close every idle session and mark the poller gone so slices
  // finish their sessions instead of handing them back.
  std::vector<SessionPtr> leftover;
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    poller_exited_ = true;
    leftover = std::move(returned_);
    returned_.clear();
  }
  for (const SessionPtr& s : idle) FinishSession(*s);
  for (const SessionPtr& s : leftover) FinishSession(*s);
}

void Server::SubmitSlice(SessionPtr session) {
  engine_->pool().Submit(
      [this, session = std::move(session)] { PumpSession(session); });
}

void Server::ReturnToPoller(const SessionPtr& session) {
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    if (!poller_exited_) {
      returned_.push_back(session);
      WakePoller();
      return;
    }
  }
  FinishSession(*session);
}

void Server::FinishSession(Session& session) {
  session.channel.Close();
  std::lock_guard<std::mutex> lock(mu_);
  --active_;
  drained_cv_.notify_all();
}

bool Server::WriteToSession(Session& session, const std::string& json) {
  if (session.binary) {
    return session.channel
        .WriteFrame(json, std::string_view(), options_.write_timeout_ms)
        .ok();
  }
  return session.channel.WriteLine(json, options_.write_timeout_ms).ok();
}

bool Server::HandleLine(const SessionPtr& session, const std::string& line) {
  RequestContext context;
  context.transport_stats = [this] { return Metrics(); };
  context.snapshots = options_.snapshot_provider;
  context.replication_stats = options_.replication_stats;
  context.allow_binary_frame = true;
  context.binary_session = session->binary;
  if (options_.snapshot_provider != nullptr) {
    context.on_subscribe = [this, &session] {
      {
        std::lock_guard<std::mutex> lock(session->push_mu);
        if (session->subscribed) return true;  // re-subscribe is idempotent
        session->subscribed = true;
      }
      std::lock_guard<std::mutex> lock(subs_mu_);
      subscribers_.push_back(session);
      return true;
    };
  }
  RequestInfo info;
  const std::string response =
      HandleRequestLine(line, *engine_, context, &info);

  requests_.fetch_add(1);
  ++session->requests;
  if (!info.parsed) {
    malformed_.fetch_add(1);
  }
  if (!info.ok) {
    errors_.fetch_add(1);
    ++session->errors;
  }
  if (info.pinned_epoch) {
    epoch_pins_.fetch_add(1);
    ++session->epoch_pins;
  }
  if (info.version > session->version) {
    session->version = info.version;
    if (info.version >= kWireVersionCurrent) sessions_v2_.fetch_add(1);
  }
  {
    // Client-chosen op strings must not become map keys (a peer cycling
    // made-up ops would grow this without bound): unknown ops share one
    // bucket. Error-code keys are already bounded by the enum.
    std::lock_guard<std::mutex> lock(mu_);
    ++ops_[IsKnownOp(info.op) ? info.op : std::string("(other)")];
    if (!info.ok) {
      ++error_codes_[std::string(client::ErrorCodeName(info.error_code))];
    }
  }
  bool alive;
  if (session->binary && !info.attachment.empty()) {
    // A bulk response (fetch_snapshot chunk): JSON + raw attachment in one
    // kFrameJsonWithBytes frame.
    alive = session->channel
                .WriteFrame(response, info.attachment,
                            options_.write_timeout_ms)
                .ok();
  } else {
    alive = WriteToSession(*session, response);
  }
  // The hello response itself goes out in the old framing (above); the
  // negotiated framing applies from the next request on. Renegotiation is
  // symmetric — hello with "frame":"json" switches a binary session back.
  if (alive && info.ok && info.op == "hello") {
    session->binary = info.negotiated_binary;
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
    if (!WriteToSession(session, line)) {
      return false;
    }
    events_pushed_.fetch_add(1);
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

  bool queued = false;
  {
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
      queued = true;
      ++i;
    }
  }
  if (queued) WakePoller();
}

void Server::PumpSession(const SessionPtr& session) {
  for (size_t handled = 0; handled < options_.max_requests_per_slice;
       ++handled) {
    if (stopping_.load()) {
      FinishSession(*session);
      return;
    }
    // Queued push lines go out before the next request is read: a
    // subscribed follower idling between requests still sees epoch events
    // promptly, and events never interleave into the middle of a response.
    if (!FlushPushes(*session)) {
      FinishSession(*session);
      return;
    }
    // Non-blocking: drain only what the kernel already has; the poller
    // watches the fd while we are not here. A binary session reads frames
    // through the same buffer; the frame's JSON payload then flows through
    // the identical dispatch path a line would.
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
    if (!read.ok()) {  // hard transport failure (reset, garbled frame, ...)
      FinishSession(*session);
      return;
    }
    switch (read->event) {
      case net::ReadEvent::kEof:
        FinishSession(*session);
        return;
      case net::ReadEvent::kTimeout:
        ReturnToPoller(session);
        return;
      case net::ReadEvent::kOversized: {
        // The response below is an answered ok:false line, so it counts as
        // a request and an error like any other (plus its own counter).
        oversized_.fetch_add(1);
        requests_.fetch_add(1);
        errors_.fetch_add(1);
        ++session->requests;
        ++session->errors;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++error_codes_[std::string(
              client::ErrorCodeName(client::ErrorCode::kMalformed))];
        }
        session->last_activity = Clock::now();
        const bool alive = WriteToSession(
            *session, ErrorResponseLine(
                          client::ErrorCode::kMalformed,
                          "request line exceeds " +
                              std::to_string(options_.max_line_bytes) +
                              " bytes"));
        if (!alive) {
          FinishSession(*session);
          return;
        }
        continue;
      }
      case net::ReadEvent::kLine: {
        if (IsBlank(read->line)) continue;
        session->last_activity = Clock::now();
        if (!HandleLine(session, read->line)) {
          FinishSession(*session);
          return;
        }
        continue;
      }
    }
  }
  // Slice quantum spent with the peer still chatty: requeue so other
  // sessions get workers.
  SubmitSlice(session);
}

}  // namespace recpriv::serve
