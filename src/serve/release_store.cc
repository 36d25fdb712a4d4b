#include "serve/release_store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"

namespace recpriv::serve {

using recpriv::analysis::ReleaseBundle;
using recpriv::analysis::SnapshotRelease;

namespace {

/// Filesystem-safe spelling of a release name: alnum, '-' and '_' pass
/// through, everything else (including '%') becomes %XX. The manifest, not
/// the filename, remains the authority on identity at recovery time.
std::string SanitizeName(const std::string& name) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if ((u >= 'a' && u <= 'z') || (u >= 'A' && u <= 'Z') ||
        (u >= '0' && u <= '9') || u == '-' || u == '_') {
      out += c;
    } else {
      out += '%';
      out += kHex[u >> 4];
      out += kHex[u & 0xF];
    }
  }
  return out;
}

}  // namespace

ReleaseStore::ReleaseStore(size_t retained_epochs)
    : ReleaseStore(Options{retained_epochs, /*snapshot_dir=*/""}) {}

ReleaseStore::ReleaseStore(Options options)
    : retained_(std::max<size_t>(options.retained_epochs, 1)),
      snapshot_dir_(std::move(options.snapshot_dir)) {}

std::string ReleaseStore::ManagedPath(const std::string& name,
                                      uint64_t epoch) const {
  return snapshot_dir_ + "/" + SanitizeName(name) + "-e" +
         std::to_string(epoch) + ".rps";
}

std::vector<uint64_t> ReleaseStore::InstallLocked(const std::string& name,
                                                  SnapshotPtr snap) {
  std::vector<SnapshotPtr>& window = releases_[name];
  auto pos = std::upper_bound(
      window.begin(), window.end(), snap->epoch,
      [](uint64_t e, const SnapshotPtr& s) { return e < s->epoch; });
  window.insert(pos, std::move(snap));
  std::vector<uint64_t> evicted;
  if (window.size() > retained_) {
    for (auto it = window.begin(); it != window.end() - retained_; ++it) {
      evicted.push_back((*it)->epoch);
    }
    window.erase(window.begin(), window.end() - retained_);
  }
  return evicted;
}

void ReleaseStore::Notify(const std::vector<StoreEvent>& events) const {
  if (events.empty()) return;
  std::lock_guard<std::mutex> lock(listeners_mu_);
  for (const StoreEvent& event : events) {
    for (const auto& [token, listener] : listeners_) {
      listener(event);
    }
  }
}

uint64_t ReleaseStore::AddListener(
    std::function<void(const StoreEvent&)> listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  const uint64_t token = ++next_listener_token_;
  listeners_.emplace(token, std::move(listener));
  return token;
}

void ReleaseStore::RemoveListener(uint64_t token) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(token);
}

Result<SnapshotPtr> ReleaseStore::Publish(const std::string& name,
                                          ReleaseBundle bundle,
                                          ReleaseInfo* info) {
  return PublishWithSource(name, std::move(bundle),
                           recpriv::analysis::SnapshotSource{}, info);
}

Result<SnapshotPtr> ReleaseStore::PublishWithSource(
    const std::string& name, ReleaseBundle bundle,
    recpriv::analysis::SnapshotSource source, ReleaseInfo* info) {
  if (name.empty()) {
    return Status::InvalidArgument("release name must be non-empty");
  }
  // Reserve a unique, strictly increasing epoch up front, then build the
  // snapshot outside the lock (indexing a large release is the expensive
  // part). Concurrent publishers to the same name each get their own epoch;
  // the window is kept epoch-sorted, so a slow stale publish can never
  // displace a newer snapshot from the served slot and cache keys never
  // repeat.
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = ++next_epoch_[name];
  }
  RECPRIV_ASSIGN_OR_RETURN(
      SnapshotPtr snap,
      SnapshotRelease(std::move(bundle), epoch, std::move(source)));
  return InstallBuilt(name, std::move(snap), info);
}

Result<SnapshotPtr> ReleaseStore::InstallBuilt(const std::string& name,
                                               SnapshotPtr snap,
                                               ReleaseInfo* info) {
  const uint64_t epoch = snap->epoch;
  // A durable store persists before it installs: a publish that is visible
  // to queries but missing from disk would silently vanish on restart.
  std::shared_ptr<const recpriv::store::SnapshotImage> image;
  if (!snapshot_dir_.empty()) {
    RECPRIV_ASSIGN_OR_RETURN(
        image, recpriv::store::SnapshotImage::Make(*snap, name, snap));
    RECPRIV_RETURN_NOT_OK(image->WriteFile(ManagedPath(name, epoch)));
  }
  SnapshotPtr served;
  std::vector<uint64_t> evicted;
  std::vector<StoreEvent> events;
  events.push_back(
      {StoreEvent::Kind::kInstall, name, epoch, snap, std::move(image)});
  {
    std::lock_guard<std::mutex> lock(mu_);
    evicted = InstallLocked(name, std::move(snap));
    const std::vector<SnapshotPtr>& window = releases_[name];
    if (info != nullptr) *info = InfoLocked(name, window);
    served = window.back();
  }
  for (const uint64_t e : evicted) {
    if (!snapshot_dir_.empty()) std::remove(ManagedPath(name, e).c_str());
    events.push_back({StoreEvent::Kind::kRetire, name, e, nullptr, nullptr});
  }
  Notify(events);
  return served;
}

Result<SnapshotPtr> ReleaseStore::PublishFromStreaming(
    const std::string& name,
    const recpriv::core::StreamingPublisher& publisher, Rng& rng) {
  RECPRIV_ASSIGN_OR_RETURN(recpriv::core::SpsTableResult sps,
                           publisher.Publish(rng));
  std::string sensitive = sps.table.schema()->sensitive().name;
  ReleaseBundle bundle{std::move(sps.table), publisher.params(),
                       std::move(sensitive),
                       /*generalization=*/{}};
  return Publish(name, std::move(bundle));
}

Result<SnapshotPtr> ReleaseStore::PublishIncremental(
    const std::string& name, recpriv::core::StreamingPublisher& publisher,
    Rng& rng, bool merge_index,
    recpriv::core::IncrementalPublishStats* stats) {
  if (name.empty()) {
    return Status::InvalidArgument("release name must be non-empty");
  }
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = ++next_epoch_[name];
  }
  // Keepalive across the merge: hold the currently served snapshot (the
  // merge's base level) until the new epoch is fully assembled, so a
  // concurrent Drop or retention trim cannot release base-derived memory
  // while the publish still reads it.
  SnapshotPtr base;
  if (const Result<SnapshotPtr> got = Get(name); got.ok()) base = *got;

  recpriv::analysis::SnapshotSource source;
  source.kind = "incremental";
  WallTimer timer;
  RECPRIV_ASSIGN_OR_RETURN(recpriv::core::IncrementalPublishResult result,
                           publisher.PublishIncremental(rng, merge_index));
  source.build_ms = timer.Millis();
  if (stats != nullptr) *stats = result.stats;

  std::string sensitive = result.table.schema()->sensitive().name;
  ReleaseBundle bundle{std::move(result.table), publisher.params(),
                       std::move(sensitive),
                       /*generalization=*/{}};
  RECPRIV_ASSIGN_OR_RETURN(
      SnapshotPtr snap,
      recpriv::analysis::AssembleSnapshot(std::move(bundle), epoch,
                                          std::move(result.index),
                                          std::move(source)));
  return InstallBuilt(name, std::move(snap), /*info=*/nullptr);
}

Result<SnapshotPtr> ReleaseStore::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = releases_.find(name);
  if (it == releases_.end()) {
    return Status::NotFound("no release named '" + name + "'");
  }
  return it->second.back();
}

Result<SnapshotPtr> ReleaseStore::Get(const std::string& name,
                                      uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = releases_.find(name);
  if (it == releases_.end()) {
    return Status::NotFound("no release named '" + name + "'");
  }
  for (const SnapshotPtr& snap : it->second) {
    if (snap->epoch == epoch) return snap;
  }
  return Status::FailedPrecondition(
      "epoch " + std::to_string(epoch) + " of release '" + name +
      "' is not retained (retained epochs " +
      std::to_string(it->second.front()->epoch) + ".." +
      std::to_string(it->second.back()->epoch) + ")");
}

Result<ReleaseInfo> ReleaseStore::Drop(const std::string& name) {
  ReleaseInfo info;
  std::vector<uint64_t> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = releases_.find(name);
    if (it == releases_.end()) {
      return Status::NotFound("no release named '" + name + "'");
    }
    info = InfoLocked(name, it->second);
    for (const SnapshotPtr& snap : it->second) {
      dropped.push_back(snap->epoch);
    }
    releases_.erase(it);
  }
  // A dropped release's files go too — otherwise recovery would resurrect
  // a release the operator explicitly retired.
  if (!snapshot_dir_.empty()) {
    for (const uint64_t e : dropped) {
      std::remove(ManagedPath(name, e).c_str());
    }
  }
  Notify({{StoreEvent::Kind::kDrop, name, info.epoch, nullptr, nullptr}});
  return info;
}

Status ReleaseStore::SaveSnapshot(const std::string& name,
                                  const std::string& path) const {
  RECPRIV_ASSIGN_OR_RETURN(SnapshotPtr snap, Get(name));
  return recpriv::store::WriteSnapshot(*snap, name, path);
}

Result<ReleaseStore::OpenedFile> ReleaseStore::OpenFile(
    const std::string& path) {
  RECPRIV_ASSIGN_OR_RETURN(recpriv::store::OpenedSnapshot opened,
                           recpriv::store::OpenSnapshot(path));
  if (opened.release.empty()) {
    return Status::DataLoss(path + ": snapshot has an empty release name");
  }
  return OpenedFile{path, std::move(opened.release),
                    std::move(opened.snapshot)};
}

Result<std::vector<ReleaseInfo>> ReleaseStore::InstallOpened(
    std::vector<OpenedFile> files) {
  std::vector<ReleaseInfo> infos;
  std::vector<StoreEvent> events;
  std::vector<std::pair<std::string, uint64_t>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Every check runs before the first install, so a rejected batch
    // leaves the store, its listeners and its directory untouched.
    std::map<std::pair<std::string, uint64_t>, const std::string*> batch;
    for (const OpenedFile& file : files) {
      const uint64_t epoch = file.snapshot->epoch;
      const auto what = [&] {
        return "epoch " + std::to_string(epoch) + " of release '" +
               file.release + "'";
      };
      auto it = releases_.find(file.release);
      if (it != releases_.end()) {
        for (const SnapshotPtr& snap : it->second) {
          if (snap->epoch == epoch) {
            return Status::AlreadyExists(what() + " is already installed");
          }
        }
      }
      const auto [seen, fresh] =
          batch.emplace(std::pair(file.release, epoch), &file.path);
      if (!fresh) {
        return Status::AlreadyExists(what() + " is in both " + *seen->second +
                                     " and " + file.path);
      }
    }
    for (OpenedFile& file : files) {
      const uint64_t epoch = file.snapshot->epoch;
      events.push_back({StoreEvent::Kind::kInstall, file.release, epoch,
                        file.snapshot, nullptr});
      for (const uint64_t e : InstallLocked(file.release,
                                            std::move(file.snapshot))) {
        evicted.emplace_back(file.release, e);
        events.push_back(
            {StoreEvent::Kind::kRetire, file.release, e, nullptr, nullptr});
      }
      uint64_t& next = next_epoch_[file.release];
      next = std::max(next, epoch);
      infos.push_back(InfoLocked(file.release, releases_[file.release]));
    }
  }
  if (!snapshot_dir_.empty()) {
    for (const auto& [name, e] : evicted) {
      std::remove(ManagedPath(name, e).c_str());
    }
  }
  Notify(events);
  return infos;
}

Result<ReleaseInfo> ReleaseStore::OpenSnapshot(const std::string& path) {
  RECPRIV_ASSIGN_OR_RETURN(OpenedFile file, OpenFile(path));
  std::vector<OpenedFile> files;
  files.push_back(std::move(file));
  RECPRIV_ASSIGN_OR_RETURN(std::vector<ReleaseInfo> infos,
                           InstallOpened(std::move(files)));
  return std::move(infos.front());
}

Status ReleaseStore::RecoverFromDir() {
  if (snapshot_dir_.empty()) {
    return Status::FailedPrecondition(
        "RecoverFromDir on a store without a snapshot directory");
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(snapshot_dir_, ec);
  if (ec) {
    return Status::IOError("cannot create snapshot directory " +
                           snapshot_dir_ + ": " + ec.message());
  }
  const std::string stale_tmp =
      ".rps" + std::string(recpriv::store::kAtomicTempSuffix);
  const std::string stale_part =
      ".rps" + std::string(recpriv::store::kPartialTransferSuffix);
  std::vector<std::string> paths;
  std::vector<std::string> stale;
  for (const auto& entry : fs::directory_iterator(snapshot_dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string path = entry.path().string();
    if (entry.path().extension() == ".rps") {
      paths.push_back(std::move(path));
    } else if (path.ends_with(stale_tmp) || path.ends_with(stale_part)) {
      stale.push_back(std::move(path));
    }
  }
  if (ec) {
    return Status::IOError("cannot scan snapshot directory " + snapshot_dir_ +
                           ": " + ec.message());
  }
  // Crash leftovers: nothing resumes from them, so they would only leak.
  for (const std::string& path : stale) std::remove(path.c_str());
  // Deterministic order: errors name the first failing file in path
  // order, and installs (so evictions and listener events) follow it.
  std::sort(paths.begin(), paths.end());
  const auto failed = [](const Status& status) {
    return Status(status.code(),
                  "snapshot recovery failed: " + status.message());
  };

  // Open phase: each file is mapped, checksummed, decoded and indexed on
  // its own thread (at most one per hardware thread; the caller is one of
  // them). Files are claimed in path order, so once one fails every
  // earlier file is already claimed and the rest can be skipped.
  std::vector<Status> statuses(paths.size());
  std::vector<OpenedFile> files(paths.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> any_failed{false};
  const auto drain = [&] {
    while (!any_failed.load()) {
      const size_t i = next++;
      if (i >= paths.size()) return;
      Result<OpenedFile> opened = OpenFile(paths[i]);
      if (opened.ok()) {
        files[i] = std::move(*opened);
      } else {
        statuses[i] = opened.status();
        any_failed = true;
      }
    }
  };
  {
    const size_t threads = std::min<size_t>(
        paths.size(), std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::jthread> helpers;  // joined when the scope ends
    for (size_t t = 1; t < threads; ++t) helpers.emplace_back(drain);
    drain();
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return failed(status);
  }

  // Install phase: all of the files or none of them.
  const auto installed = InstallOpened(std::move(files));
  if (!installed.ok()) return failed(installed.status());
  return Status::OK();
}

Result<ReleaseInfo> ReleaseStore::Info(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = releases_.find(name);
  if (it == releases_.end()) {
    return Status::NotFound("no release named '" + name + "'");
  }
  return InfoLocked(name, it->second);
}

Result<std::vector<SnapshotPtr>> ReleaseStore::Window(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = releases_.find(name);
  if (it == releases_.end()) {
    return Status::NotFound("no release named '" + name + "'");
  }
  return it->second;
}

Result<std::string> ReleaseStore::ManagedSnapshotPath(const std::string& name,
                                                      uint64_t epoch) const {
  if (snapshot_dir_.empty()) {
    return Status::FailedPrecondition(
        "ManagedSnapshotPath on a store without a snapshot directory");
  }
  return ManagedPath(name, epoch);
}

std::vector<ReleaseInfo> ReleaseStore::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReleaseInfo> out;
  out.reserve(releases_.size());
  for (const auto& [name, window] : releases_) {
    out.push_back(InfoLocked(name, window));
  }
  return out;
}

size_t ReleaseStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return releases_.size();
}

ReleaseInfo ReleaseStore::InfoLocked(
    const std::string& name, const std::vector<SnapshotPtr>& window) const {
  const SnapshotPtr& served = window.back();
  ReleaseInfo info;
  info.name = name;
  info.epoch = served->epoch;
  info.num_records = served->index.num_records();
  info.num_groups = served->index.num_groups();
  info.retained_epochs = window.size();
  info.oldest_epoch = window.front()->epoch;
  info.source_kind = served->source.kind;
  info.source_open_ms = served->source.open_ms;
  info.source_parse_ms = served->source.parse_ms;
  info.source_build_ms = served->source.build_ms;
  info.source_bytes_mapped = served->source.bytes_mapped;
  return info;
}

}  // namespace recpriv::serve
