#include "repl/replicator.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "client/tcp_transport.h"
#include "repl/digest.h"
#include "store/snapshot_writer.h"

namespace recpriv::repl {

namespace {

/// Backoff sleeps in slices this long so Stop() is noticed promptly.
constexpr int kStopSliceMs = 20;
/// Backoff attempts are capped here; BackoffDelayMs caps the delay at
/// max_backoff_ms well before this anyway.
constexpr int kMaxBackoffAttempt = 32;

}  // namespace

Result<std::unique_ptr<Replicator>> Replicator::Start(
    serve::ReleaseStore& store, ReplicatorOptions options) {
  if (store.snapshot_dir().empty()) {
    return Status::FailedPrecondition(
        "replicator needs a durable store (snapshot_dir): fetched epochs "
        "are persisted before install");
  }
  if (options.primary_port == 0) {
    return Status::InvalidArgument("replicator: primary_port must be set");
  }
  options.chunk_bytes =
      std::min(std::max<uint64_t>(options.chunk_bytes, 1),
               uint64_t{serve::kMaxFetchChunkBytes});
  auto replicator =
      std::unique_ptr<Replicator>(new Replicator(store, std::move(options)));
  replicator->counters_.primary =
      replicator->options_.primary_host + ":" +
      std::to_string(replicator->options_.primary_port);
  replicator->thread_ = std::thread([r = replicator.get()] { r->Run(); });
  return replicator;
}

Replicator::~Replicator() { Stop(); }

void Replicator::Stop() {
  stopping_.store(true);
  if (thread_.joinable()) thread_.join();
  // The thread is gone, so nothing resumes the kept transfers any more.
  for (const auto& [key, partial] : partials_) {
    std::remove(partial.temp_path.c_str());
  }
  partials_.clear();
}

void Replicator::Run() {
  int attempt = 0;
  uint64_t connections = 0;
  while (!stopping_.load()) {
    client::TcpTransportOptions transport_options;
    transport_options.response_timeout_ms = options_.response_timeout_ms;
    transport_options.max_line_bytes = options_.max_line_bytes;
    // Snapshot chunks arrive as multi-hundred-KB lines; page-sized recv()s
    // would turn each into dozens of syscalls.
    transport_options.read_chunk_bytes = 64 * 1024;
    transport_options.fault_injector = options_.fault_injector;
    auto transport = client::TcpTransport::Connect(
        options_.primary_host, options_.primary_port, transport_options);
    if (!transport.ok()) {
      Backoff(attempt);
      attempt = std::min(attempt + 1, kMaxBackoffAttempt);
      continue;
    }
    ++connections;
    if (connections > 1) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.reconnects;
    }
    client::LineProtocolClient client(std::move(*transport));
    const Status session = RunSession(client, &attempt);
    {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.connected = false;
    }
    if (stopping_.load()) break;
    if (session.code() == StatusCode::kNotImplemented) {
      // The primary does not speak replication; retrying cannot fix that.
      break;
    }
    Backoff(attempt);
    attempt = std::min(attempt + 1, kMaxBackoffAttempt);
  }
  std::lock_guard<std::mutex> lock(mu_);
  counters_.connected = false;
}

Status Replicator::RunSession(client::LineProtocolClient& client,
                              int* attempt) {
  // Always offer binary frames, so snapshot chunks skip base64 and JSON
  // string escaping. Best effort: a primary that answers "frame":"json"
  // (or predates "hello" and answers unknown-op) leaves the session
  // line-framed and replication proceeds identically — if the link itself
  // is dead, the Subscribe below fails the session the normal way.
  (void)client.NegotiateBinaryFrame();
  RECPRIV_ASSIGN_OR_RETURN(client::Subscription listing, client.Subscribe());
  *attempt = 0;
  RECPRIV_RETURN_NOT_OK(Resync(client, listing));
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.connected = true;
  }
  while (!stopping_.load()) {
    RECPRIV_ASSIGN_OR_RETURN(std::vector<client::EpochEvent> events,
                             client.PollEvents(options_.idle_poll_ms));
    for (const client::EpochEvent& event : events) {
      if (stopping_.load()) return Status::OK();
      RECPRIV_RETURN_NOT_OK(ApplyEvent(client, event));
    }
  }
  return Status::OK();
}

Status Replicator::Resync(client::LineProtocolClient& client,
                          const client::Subscription& listing) {
  // Mirror drops first: anything we serve that the primary no longer
  // lists was dropped while we were away.
  std::set<std::string> primary_names;
  for (const client::SubscribedRelease& rel : listing.releases) {
    primary_names.insert(rel.name);
  }
  for (const serve::ReleaseInfo& info : store_.List()) {
    if (primary_names.count(info.name) != 0) continue;
    if (store_.Drop(info.name).ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.drops;
    }
    ClearPendingRelease(info.name);
    DiscardPartials(info.name);
  }
  // Fetch what we are missing, oldest epoch first so the local window
  // lands with back() = the served epoch. Epochs beyond our own retention
  // would be evicted the moment newer ones install, so skip them.
  for (const client::SubscribedRelease& rel : listing.releases) {
    const size_t keep = store_.retained_epochs();
    const size_t first =
        rel.epochs.size() > keep ? rel.epochs.size() - keep : 0;
    for (size_t i = first; i < rel.epochs.size(); ++i) {
      if (stopping_.load()) return Status::OK();
      const client::EpochDigest& entry = rel.epochs[i];
      if (HasEpoch(rel.name, entry.epoch)) continue;
      MarkPending(rel.name, entry.epoch);
      const Status fetched =
          FetchEpoch(client, rel.name, entry.epoch, entry.digest);
      if (fetched.code() == StatusCode::kNotFound ||
          fetched.code() == StatusCode::kFailedPrecondition) {
        // Aged out (or dropped) between listing and fetch; the pushed
        // event that says so is already on its way.
        ClearPending(rel.name, entry.epoch);
        continue;
      }
      RECPRIV_RETURN_NOT_OK(fetched);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.resyncs;
  return Status::OK();
}

Status Replicator::ApplyEvent(client::LineProtocolClient& client,
                              const client::EpochEvent& event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.events_seen;
  }
  switch (event.kind) {
    case client::EpochEvent::Kind::kPublish: {
      if (HasEpoch(event.release, event.epoch)) return Status::OK();
      MarkPending(event.release, event.epoch);
      const Status fetched =
          FetchEpoch(client, event.release, event.epoch, event.digest);
      if (fetched.code() == StatusCode::kNotFound ||
          fetched.code() == StatusCode::kFailedPrecondition) {
        ClearPending(event.release, event.epoch);
        return Status::OK();
      }
      return fetched;
    }
    case client::EpochEvent::Kind::kRetire:
      // The local window trims itself on install; an epoch retired before
      // we fetched it just stops being lag (and any half-fetched image of
      // it is dead weight).
      ClearPending(event.release, event.epoch);
      DiscardPartial(std::make_pair(event.release, event.epoch));
      return Status::OK();
    case client::EpochEvent::Kind::kDrop: {
      if (store_.Drop(event.release).ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.drops;
      }
      ClearPendingRelease(event.release);
      DiscardPartials(event.release);
      return Status::OK();
    }
  }
  return Status::OK();
}

Status Replicator::FetchEpoch(client::LineProtocolClient& client,
                              const std::string& release, uint64_t epoch,
                              const std::string& advertised_digest) {
  const auto key = std::make_pair(release, epoch);
  RECPRIV_ASSIGN_OR_RETURN(std::string path,
                           store_.ManagedSnapshotPath(release, epoch));
  // Resume an interrupted transfer of this exact epoch, if any; the map
  // entry comes back on a link failure below, so a given byte is only ever
  // fetched once however many sessions the transfer spans.
  PartialFetch fetch;
  fetch.temp_path = path + std::string(store::kPartialTransferSuffix);
  if (auto partial = partials_.find(key); partial != partials_.end()) {
    fetch = std::move(partial->second);
    partials_.erase(partial);
  }
  // The temp file holds exactly the bytes hashed so far: trim anything a
  // failed write may have left past them, then append.
  std::error_code ec;
  if (fetch.hash.size() > 0) {
    std::filesystem::resize_file(fetch.temp_path, fetch.hash.size(), ec);
  }
  std::ofstream out;
  if (!ec) {
    out.open(fetch.temp_path,
             std::ios::binary |
                 (fetch.hash.size() > 0 ? std::ios::app : std::ios::trunc));
  }
  if (ec || !out) {
    std::remove(fetch.temp_path.c_str());
    return Status::IOError("cannot open partial transfer file " +
                           fetch.temp_path);
  }
  // Every exit that does not keep the transfer for resumption deletes it.
  auto abandon = [&](Status status) {
    out.close();
    std::remove(fetch.temp_path.c_str());
    return status;
  };
  for (;;) {
    if (stopping_.load()) return abandon(Status::OK());
    Result<client::SnapshotChunk> chunk_result = client.FetchSnapshotChunk(
        release, epoch, fetch.hash.size(), options_.chunk_bytes);
    if (!chunk_result.ok()) {
      const StatusCode code = chunk_result.status().code();
      if (code == StatusCode::kDataLoss) {
        // Restart from scratch: a corrupt chunk taints the whole attempt.
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.digest_mismatches;
      } else if (code != StatusCode::kNotFound &&
                 code != StatusCode::kFailedPrecondition &&
                 fetch.hash.size() > 0) {
        // Link failure, not a verdict about the data: keep the progress.
        out.close();
        partials_[key] = std::move(fetch);
        return chunk_result.status();
      }
      return abandon(chunk_result.status());
    }
    const client::SnapshotChunk& chunk = *chunk_result;
    if (fetch.declared_digest.empty()) {
      fetch.declared_digest = chunk.digest;
    } else if (chunk.digest != fetch.declared_digest) {
      // Epochs are immutable, so the declared image digest can never
      // legitimately change between sessions; drop the partial and let the
      // retry start clean.
      return abandon(Status::IOError(
          "fetch_snapshot: image digest changed mid-transfer for '" +
          release + "' epoch " + std::to_string(epoch) + " (" +
          fetch.declared_digest + " -> " + chunk.digest + ")"));
    }
    out.write(reinterpret_cast<const char*>(chunk.data.data()),
              std::streamsize(chunk.data.size()));
    if (!out.flush()) {
      return abandon(
          Status::IOError("short write to " + fetch.temp_path));
    }
    fetch.hash.Update(chunk.data.data(), chunk.data.size());
    {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.bytes_fetched += chunk.data.size();
    }
    if (chunk.eof) break;
    if (chunk.data.empty()) {
      return abandon(Status::DataLoss(
          "fetch_snapshot: empty non-final chunk for '" + release +
          "' epoch " + std::to_string(epoch)));
    }
  }
  out.close();
  if (!out) {
    return abandon(Status::IOError("cannot close " + fetch.temp_path));
  }
  // The decoder verified each chunk; this verifies the reassembly, against
  // both what the fetch declared and what the listing/event advertised.
  // (release, epoch) -> image is immutable, so any disagreement is
  // corruption, never a racing republish.
  const std::string computed = FormatDigest(fetch.hash.Digest());
  if (computed != fetch.declared_digest ||
      (!advertised_digest.empty() && computed != advertised_digest)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.digest_mismatches;
    }
    return abandon(Status::DataLoss(
        "snapshot image digest mismatch for '" + release + "' epoch " +
        std::to_string(epoch) + ": computed " + computed +
        ", fetch declared " + fetch.declared_digest +
        (advertised_digest.empty() ? std::string()
                                   : ", advertised " + advertised_digest)));
  }
  // Persist before install: the verified file is renamed into its managed
  // path first, so a crash here leaves at worst a complete, verified file
  // that RecoverFromDir happily restores.
  if (std::rename(fetch.temp_path.c_str(), path.c_str()) != 0) {
    return abandon(
        Status::IOError("cannot rename snapshot into place: " + path));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.snapshots_fetched;
  }
  Result<serve::ReleaseInfo> installed = store_.OpenSnapshot(path);
  if (installed.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.installs;
  } else if (installed.status().code() != StatusCode::kAlreadyExists) {
    return installed.status();
  }
  ClearPending(release, epoch);
  return Status::OK();
}

void Replicator::DiscardPartial(const std::pair<std::string, uint64_t>& key) {
  auto it = partials_.find(key);
  if (it == partials_.end()) return;
  std::remove(it->second.temp_path.c_str());
  partials_.erase(it);
}

void Replicator::DiscardPartials(const std::string& release) {
  for (auto it = partials_.begin(); it != partials_.end();) {
    if (it->first.first == release) {
      std::remove(it->second.temp_path.c_str());
      it = partials_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Replicator::HasEpoch(const std::string& release, uint64_t epoch) const {
  return store_.Get(release, epoch).ok();
}

void Replicator::MarkPending(const std::string& release, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.emplace(std::make_pair(release, epoch),
                   std::chrono::steady_clock::now());
}

void Replicator::ClearPending(const std::string& release, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.erase(std::make_pair(release, epoch));
}

void Replicator::ClearPendingRelease(const std::string& release) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->first.first == release) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void Replicator::Backoff(int attempt) {
  double delay_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    delay_ms = client::BackoffDelayMs(options_.retry, attempt, backoff_rng_);
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(delay_ms));
  while (!stopping_.load()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto remaining = deadline - now;
    std::this_thread::sleep_for(
        std::min<std::chrono::steady_clock::duration>(
            remaining, std::chrono::milliseconds(kStopSliceMs)));
  }
}

client::ReplicationStats Replicator::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  client::ReplicationStats stats = counters_;
  stats.lag_epochs = pending_.size();
  stats.lag_ms = 0.0;
  if (!pending_.empty()) {
    auto oldest = std::chrono::steady_clock::time_point::max();
    for (const auto& [key, since] : pending_) {
      oldest = std::min(oldest, since);
    }
    stats.lag_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - oldest)
                       .count();
  }
  return stats;
}

bool Replicator::WaitForEpoch(const std::string& release, uint64_t epoch,
                              int timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (HasEpoch(release, epoch)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool Replicator::WaitForConnected(int timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (counters_.connected) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace recpriv::repl
