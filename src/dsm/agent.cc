#include "src/dsm/agent.h"

#include <cmath>
#include <limits>
#include <utility>

#include "src/dsm/diff.h"

namespace hmdsm::dsm {

using stats::Ev;
using stats::MsgCat;

Agent::Agent(NodeId node, net::Transport& transport, const DsmConfig& config,
             trace::Trace* trace)
    : node_(node),
      net_(transport),
      recorder_(transport.RecorderFor(node)),
      config_(config),
      trace_(trace),
      policy_(core::MakePolicy(config.policy, config.adaptive)) {
  net_.SetHandler(node_, [this](net::Packet&& p) {
    HandlePacket(std::move(p));
  });
}

// ---------------------------------------------------------------------------
// Messaging plumbing
// ---------------------------------------------------------------------------

void Agent::SendMsg(NodeId dst, MsgCat cat, Buf wire) {
  net_.Send(node_, dst, cat, std::move(wire));
}

void Agent::HandlePacket(net::Packet&& packet) {
  const NodeId src = packet.src;
  proto::AnyMsg msg = proto::Decode(packet.payload);
  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::ObjRequest>) {
          OnObjRequest(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ObjReply>) {
          OnObjReply(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::MigrateReply>) {
          OnMigrateReply(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::Redirect>) {
          OnRedirect(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::DiffMsg>) {
          OnDiff(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::DiffAck>) {
          OnDiffAck(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::LockAcquireMsg>) {
          OnLockAcquire(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::LockGrantMsg>) {
          OnLockGrant(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::LockReleaseMsg>) {
          OnLockRelease(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::BarrierArriveMsg>) {
          OnBarrierArrive(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::BarrierReleaseMsg>) {
          OnBarrierRelease(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::InitObjectMsg>) {
          OnInitObject(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::InitAckMsg>) {
          OnInitAck(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ManagerUpdateMsg>) {
          OnManagerUpdate(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ManagerLookupMsg>) {
          OnManagerLookup(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ManagerReplyMsg>) {
          OnManagerReply(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::HomeBroadcastMsg>) {
          OnHomeBroadcast(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ChainUpdateMsg>) {
          OnChainUpdate(std::move(m));
        }
      },
      std::move(msg));
}

// ---------------------------------------------------------------------------
// Object lifecycle
// ---------------------------------------------------------------------------

void Agent::CreateObject(runtime::Exec& proc, ObjectId obj, ByteSpan initial) {
  const NodeId home = obj.initial_home();
  HMDSM_CHECK_MSG(!homes_.contains(obj) && !cache_.contains(obj),
                  "object created twice");
  Emit(trace::What::kObjectCreated, obj.value, home,
       static_cast<std::int64_t>(initial.size()));
  if (home == node_) {
    HomeEntry entry;
    entry.data = ToBytes(initial);
    homes_.emplace(obj, std::move(entry));
    return;
  }
  // Ship the initial data to the remote home and wait for the installation
  // ack so the object is globally usable when CreateObject returns.
  const std::uint64_t tag = next_ack_tag_++;
  pending_acks_[tag].remaining = 1;
  SendMsg(home, MsgCat::kInit,
          proto::Encode(proto::InitObjectMsg{obj, ToBytes(initial), tag}));
  auto& aw = pending_acks_[tag];
  if (aw.remaining > 0) aw.waiter.Wait(proc);
  pending_acks_.erase(tag);
}

void Agent::OnInitObject(NodeId src, proto::InitObjectMsg msg) {
  HMDSM_CHECK_MSG(!homes_.contains(msg.obj), "init for already-homed object");
  HomeEntry entry;
  entry.data = std::move(msg.data);
  homes_.emplace(msg.obj, std::move(entry));
  SendMsg(src, MsgCat::kInit, proto::Encode(proto::InitAckMsg{msg.ack_tag}));
}

void Agent::OnInitAck(proto::InitAckMsg msg) {
  auto it = pending_acks_.find(msg.ack_tag);
  HMDSM_CHECK_MSG(it != pending_acks_.end(), "stray init ack");
  HMDSM_CHECK(it->second.remaining > 0);
  if (--it->second.remaining == 0 && !it->second.waiter.empty())
    it->second.waiter.NotifyOne();
}

// ---------------------------------------------------------------------------
// Shared-memory access
// ---------------------------------------------------------------------------

void Agent::Read(runtime::Exec& proc, ObjectId obj,
                 const std::function<void(ByteSpan)>& fn) {
  bool faulted = false;
  for (;;) {
    if (auto it = homes_.find(obj); it != homes_.end()) {
      TrapHomeRead(it->second);
      recorder_.Bump(Ev::kHomeAccesses);
      RecordFirstHomeAccess(it->second);
      fn(it->second.data);
      return;
    }
    if (auto it = cache_.find(obj); it != cache_.end()) {
      if (!faulted) recorder_.Bump(Ev::kLocalHits);
      fn(it->second.data);
      if (config_.write_through) {
        // SC emulation: copies are never retained, so the next access
        // fetches the home's latest state again.
        HMDSM_CHECK(!it->second.dirty);
        cache_.erase(it);
      }
      return;
    }
    EnsureValidCopy(proc, obj, /*for_write=*/false);
    faulted = true;
  }
}

void Agent::Write(runtime::Exec& proc, ObjectId obj,
                  const std::function<void(MutByteSpan)>& fn) {
  bool faulted = false;
  for (;;) {
    if (auto it = homes_.find(obj); it != homes_.end()) {
      TrapHomeWrite(it->second);
      recorder_.Bump(Ev::kHomeAccesses);
      RecordFirstHomeAccess(it->second);
      fn(it->second.data);
      return;
    }
    if (auto it = cache_.find(obj); it != cache_.end()) {
      CacheEntry& ce = it->second;
      if (!ce.dirty) {
        // First write in this interval: snapshot the twin (paper §3.1).
        ce.twin = ce.data;
        ce.dirty = true;
        recorder_.Bump(Ev::kTwinsCreated);
      }
      if (!faulted) recorder_.Bump(Ev::kLocalHits);
      fn(ce.data);
      if (config_.write_through) {
        // SC emulation: the write is propagated to (and acknowledged by)
        // the home before the writer proceeds, then the copy is dropped.
        FlushDirty(proc, kNoNode);
        cache_.erase(obj);
      }
      return;
    }
    EnsureValidCopy(proc, obj, /*for_write=*/true);
    faulted = true;
  }
}

void Agent::EnsureValidCopy(runtime::Exec& proc, ObjectId obj, bool for_write) {
  recorder_.Bump(Ev::kFaultIns);
  PendingFetch& pf = pending_fetch_[obj];
  pf.for_write |= for_write;
  if (!pf.request_in_flight) {
    pf.request_in_flight = true;
    pf.hops = 0;
    pf.started_at = net_.Now();
    SendFetchRequest(obj, HintedHome(obj));
  }
  pf.waiters.Wait(proc);
  // The caller re-checks home/cache (the copy may have been migrated away
  // again by a racing foreign request before this process resumed).
}

void Agent::SendFetchRequest(ObjectId obj, NodeId target) {
  HMDSM_CHECK_MSG(target != node_,
                  "fetch request aimed at self — hint corruption");
  const PendingFetch& pf = pending_fetch_.at(obj);
  Emit(trace::What::kFaultIn, obj.value, target, pf.hops);
  SendMsg(target, MsgCat::kObj,
          proto::Encode(proto::ObjRequest{obj, pf.hops, pf.for_write}));
}

NodeId Agent::HintedHome(ObjectId obj) const {
  if (homes_.contains(obj)) return node_;
  if (auto it = hints_.find(obj); it != hints_.end()) return it->second;
  return obj.initial_home();
}

// ---------------------------------------------------------------------------
// Home-side request service & migration
// ---------------------------------------------------------------------------

void Agent::OnObjRequest(NodeId src, proto::ObjRequest msg) {
  if (homes_.contains(msg.obj)) {
    ServeAtHome(src, msg);
    return;
  }
  if (auto fwd = forwards_.find(msg.obj); fwd != forwards_.end()) {
    // Obsolete home: redirect (forwarding-pointer reply, or point at the
    // manager under the home-manager mechanism).
    Emit(trace::What::kRedirected, msg.obj.value, src, fwd->second.to);
    if (config_.notify == NotifyMechanism::kHomeManager) {
      SendMsg(src, MsgCat::kRedir,
              proto::Encode(proto::Redirect{msg.obj, kNoNode, true}));
    } else {
      SendMsg(src, MsgCat::kRedir,
              proto::Encode(proto::Redirect{msg.obj, fwd->second.to, false}));
    }
    return;
  }
  if (auto it = pending_fetch_.find(msg.obj);
      it != pending_fetch_.end() && it->second.request_in_flight) {
    // We are about to become this object's home (migration reply in
    // flight); serve the foreign request after installation.
    it->second.foreign.emplace_back(src, msg);
    return;
  }
  HMDSM_CHECK_MSG(false, "request for object unknown at node " << node_);
}

void Agent::ServeAtHome(NodeId requester, const proto::ObjRequest& msg) {
  auto it = homes_.find(msg.obj);
  HMDSM_CHECK(it != homes_.end());
  HomeEntry& entry = it->second;
  auto& rec = recorder_;

  // Feedback first: redirections suffered by this request count against
  // migration (paper's R with redirection accumulation).
  if (msg.hops > 0) {
    entry.pol.RecordRedirectHops(msg.hops);
    rec.Bump(Ev::kRedirectHops, msg.hops);
  }
  rec.Bump(Ev::kRemoteReads);

  const bool migrate = policy_->ShouldMigrate(entry.pol, requester,
                                              entry.data.size(),
                                              msg.for_write);
  if (!migrate) rec.Bump(Ev::kMigRejections);
  // The audit record captures the exact state ShouldMigrate saw, so it is
  // built here — before RecordRequester/OnMigrated mutate the counters.
  const double threshold =
      policy_->LiveThreshold(entry.pol, entry.data.size());
  stats::Decision d;
  d.obj = msg.obj.value;
  d.epoch = entry.pol.epoch;
  d.home = node_;
  d.requester = requester;
  d.consecutive_writes = entry.pol.consecutive_remote_writes;
  d.consecutive_writer = entry.pol.consecutive_writer;
  d.redirects = entry.pol.redirected_requests;
  d.exclusive_home_writes = entry.pol.exclusive_home_writes;
  d.threshold = threshold;
  d.object_bytes = entry.data.size();
  d.for_write = msg.for_write;
  d.migrate = migrate;
  d.destination = migrate ? requester : node_;
  d.at_ns = net_.Now();
  rec.RecordDecision(d);
  // Trace value: live threshold ×1000, negated for "stay" verdicts
  // (clamped — NoHM reports an infinite threshold).
  const std::int64_t scaled =
      std::isfinite(threshold)
          ? static_cast<std::int64_t>(threshold * 1000)
          : std::numeric_limits<std::int64_t>::max();
  Emit(trace::What::kDecision, msg.obj.value, requester,
       migrate ? scaled : -scaled);
  // Sharing bookkeeping happens after the decision: "was the requester the
  // sole sharer so far" must not include the request being decided.
  entry.pol.RecordRequester(requester);
  Emit(trace::What::kServeRequest, msg.obj.value, requester, msg.hops);
  if (!migrate) {
    SendMsg(requester, MsgCat::kObj,
            proto::Encode(
                proto::ObjReply{msg.obj, entry.data, entry.pol.epoch}));
    return;
  }

  // Home migration: the reply carries the data plus the policy state; we
  // keep a forwarding pointer and notify per the configured mechanism.
  Emit(trace::What::kMigrated, msg.obj.value, requester,
       static_cast<std::int64_t>(
           policy_->LiveThreshold(entry.pol, entry.data.size()) * 1000));
  policy_->OnMigrated(entry.pol, entry.data.size());
  const std::uint32_t new_epoch = entry.pol.epoch;
  rec.Bump(Ev::kMigrations);
  SendMsg(requester, MsgCat::kMig,
          proto::Encode(
              proto::MigrateReply{msg.obj, std::move(entry.data), entry.pol}));
  homes_.erase(it);
  forwards_[msg.obj] = Forward{requester, new_epoch};
  hints_[msg.obj] = requester;

  switch (config_.notify) {
    case NotifyMechanism::kForwardingPointer:
      break;  // the pointer itself is the mechanism
    case NotifyMechanism::kHomeManager:
      SendMsg(ManagerOf(msg.obj), MsgCat::kNotify,
              proto::Encode(proto::ManagerUpdateMsg{msg.obj, requester}));
      break;
    case NotifyMechanism::kBroadcast:
      net_.Broadcast(
          node_, MsgCat::kNotify,
          proto::Encode(proto::HomeBroadcastMsg{msg.obj, requester}));
      break;
  }
}

void Agent::OnObjReply(NodeId src, proto::ObjReply msg) {
  auto it = pending_fetch_.find(msg.obj);
  HMDSM_CHECK_MSG(it != pending_fetch_.end(), "unsolicited object reply");
  PendingFetch pf = std::move(it->second);
  pending_fetch_.erase(it);
  HMDSM_CHECK_MSG(pf.foreign.empty() && pf.foreign_diffs.empty(),
                  "foreign traffic queued on a non-migrating fetch");
  recorder_.RecordRtt(MsgCat::kObj,
                      static_cast<std::uint64_t>(net_.Now() - pf.started_at));
  MaybeCompressChain(pf, msg.obj, src, msg.home_epoch);
  hints_[msg.obj] = src;
  CacheEntry ce;
  ce.data = std::move(msg.data);
  cache_[msg.obj] = std::move(ce);
  pf.waiters.NotifyAll();
}

void Agent::OnMigrateReply(NodeId, proto::MigrateReply msg) {
  auto it = pending_fetch_.find(msg.obj);
  HMDSM_CHECK_MSG(it != pending_fetch_.end(), "unsolicited migrate reply");
  PendingFetch pf = std::move(it->second);
  pending_fetch_.erase(it);
  recorder_.RecordRtt(MsgCat::kMig,
                      static_cast<std::uint64_t>(net_.Now() - pf.started_at));
  // We are the home now; our installed epoch is the chain's newest.
  MaybeCompressChain(pf, msg.obj, node_, msg.policy_state.epoch);

  if (auto c = cache_.find(msg.obj); c != cache_.end()) {
    HMDSM_CHECK_MSG(!c->second.dirty, "migration would clobber dirty cache");
    cache_.erase(c);
  }
  HomeEntry entry;
  entry.data = std::move(msg.data);
  entry.pol = msg.policy_state;
  entry.installed_at = net_.Now();
  homes_.insert_or_assign(msg.obj, std::move(entry));
  hints_[msg.obj] = node_;
  forwards_.erase(msg.obj);  // we may have been on this object's chain before
  Emit(trace::What::kHomeInstalled, msg.obj.value);
  // A migration landing here after a phase marker is the protocol
  // re-homing toward the new access pattern: close the adaptation clock.
  if (phase_pending_) {
    recorder_.RecordLatency(
        stats::Lat::kAdaptation,
        static_cast<std::uint64_t>(net_.Now() - phase_marker_at_));
    phase_pending_ = false;
  }

  // Serve anything that raced the migration: diffs first, then requests.
  for (proto::DiffMsg& dm : pf.foreign_diffs) {
    auto home_it = homes_.find(msg.obj);
    HMDSM_CHECK(home_it != homes_.end());
    ApplyDiffAtHome(home_it->second, msg.obj, dm.writer, dm.diff);
    if (dm.ack_required) {
      SendMsg(dm.writer, MsgCat::kDiff,
              proto::Encode(proto::DiffAck{dm.ack_tag}));
    }
  }
  for (auto& [src, req] : pf.foreign) {
    if (homes_.contains(msg.obj)) {
      ServeAtHome(src, req);
    } else {
      // A previous foreign request already migrated the home away again.
      SendMsg(src, MsgCat::kRedir,
              proto::Encode(proto::Redirect{
                  msg.obj, forwards_.at(msg.obj).to,
                  config_.notify == NotifyMechanism::kHomeManager}));
    }
  }
  pf.waiters.NotifyAll();
}

void Agent::OnRedirect(NodeId src, proto::Redirect msg) {
  auto it = pending_fetch_.find(msg.obj);
  HMDSM_CHECK_MSG(it != pending_fetch_.end(), "unsolicited redirect");
  PendingFetch& pf = it->second;
  ++pf.hops;
  if (pf.first_redirector == kNoNode) pf.first_redirector = src;
  HMDSM_CHECK_MSG(pf.hops < config_.max_redirect_hops,
                  "redirect chain exceeded " << config_.max_redirect_hops
                                             << " hops");
  if (msg.ask_manager) {
    SendMsg(ManagerOf(msg.obj), MsgCat::kRedir,
            proto::Encode(proto::ManagerLookupMsg{msg.obj}));
    return;
  }
  hints_[msg.obj] = msg.new_home;
  SendFetchRequest(msg.obj, msg.new_home);
}

void Agent::OnManagerUpdate(proto::ManagerUpdateMsg msg) {
  manager_locations_[msg.obj] = msg.home;
}

void Agent::OnManagerLookup(NodeId src, proto::ManagerLookupMsg msg) {
  NodeId home;
  if (auto it = manager_locations_.find(msg.obj);
      it != manager_locations_.end()) {
    home = it->second;
  } else if (homes_.contains(msg.obj)) {
    home = node_;
  } else {
    home = msg.obj.initial_home();
  }
  SendMsg(src, MsgCat::kRedir,
          proto::Encode(proto::ManagerReplyMsg{msg.obj, home}));
}

void Agent::OnManagerReply(proto::ManagerReplyMsg msg) {
  auto it = pending_fetch_.find(msg.obj);
  HMDSM_CHECK_MSG(it != pending_fetch_.end(), "unsolicited manager reply");
  PendingFetch& pf = it->second;
  ++pf.hops;  // the manager leg counts toward redirection accumulation
  HMDSM_CHECK(pf.hops < config_.max_redirect_hops);
  hints_[msg.obj] = msg.home;
  SendFetchRequest(msg.obj, msg.home);
}

void Agent::OnHomeBroadcast(proto::HomeBroadcastMsg msg) {
  if (homes_.contains(msg.obj)) return;  // we already are the home
  if (msg.home == node_) return;         // stale broadcast about ourselves
  hints_[msg.obj] = msg.home;
}

void Agent::MaybeCompressChain(const PendingFetch& pf, ObjectId obj,
                               NodeId home, std::uint32_t home_epoch) {
  if (!config_.compress_chains) return;
  if (pf.hops < 2 || pf.first_redirector == kNoNode) return;
  if (pf.first_redirector == home) return;
  SendMsg(pf.first_redirector, MsgCat::kNotify,
          proto::Encode(proto::ChainUpdateMsg{obj, home, home_epoch}));
}

void Agent::OnChainUpdate(proto::ChainUpdateMsg msg) {
  if (homes_.contains(msg.obj)) return;  // the home came back to us since
  if (msg.home == node_) return;
  // Only shorten an existing forwarding pointer, and only forward in
  // migration-epoch order — a stale update must never point a chain
  // backward (that could create a redirect cycle).
  if (auto it = forwards_.find(msg.obj); it != forwards_.end()) {
    if (msg.home_epoch > it->second.epoch)
      it->second = Forward{msg.home, msg.home_epoch};
  }
  hints_[msg.obj] = msg.home;
}

// ---------------------------------------------------------------------------
// Diff propagation
// ---------------------------------------------------------------------------

void Agent::OnDiff(NodeId /*src*/, proto::DiffMsg msg) {
  const NodeId writer = msg.writer;
  if (auto it = homes_.find(msg.obj); it != homes_.end()) {
    ApplyDiffAtHome(it->second, msg.obj, writer, msg.diff);
    if (msg.ack_required) {
      SendMsg(writer, MsgCat::kDiff,
              proto::Encode(proto::DiffAck{msg.ack_tag}));
    }
    return;
  }
  if (forwards_.contains(msg.obj)) {
    ForwardDiff(writer, std::move(msg));
    return;
  }
  if (auto it = pending_fetch_.find(msg.obj);
      it != pending_fetch_.end() && it->second.request_in_flight) {
    // We are about to install this object's home; hold the diff. The ack
    // (if any) is sent on installation.
    it->second.foreign_diffs.push_back(std::move(msg));
    return;
  }
  HMDSM_CHECK_MSG(false, "diff for object unknown at node " << node_);
}

void Agent::ApplyPiggybacked(
    NodeId src, std::vector<std::pair<ObjectId, Bytes>>& diffs) {
  for (auto& [obj, diff] : diffs) {
    recorder_.Bump(Ev::kPiggybackedDiffs);
    if (auto it = homes_.find(obj); it != homes_.end()) {
      ApplyDiffAtHome(it->second, obj, src, diff);
    } else if (forwards_.contains(obj)) {
      // The object's home moved after the sender chose to piggyback;
      // forward as a standalone diff.
      ForwardDiff(src, proto::DiffMsg{obj, std::move(diff), 0, false, src});
    } else {
      HMDSM_CHECK_MSG(false, "piggybacked diff for unknown object");
    }
  }
}

void Agent::ForwardDiff(NodeId writer, proto::DiffMsg&& msg) {
  const NodeId target = forwards_.at(msg.obj).to;
  proto::DiffMsg fwd = std::move(msg);
  fwd.writer = writer;
  SendMsg(target, MsgCat::kDiff, proto::Encode(fwd));
}

void Agent::ApplyDiffAtHome(HomeEntry& entry, ObjectId obj, NodeId writer,
                            ByteSpan diff) {
  Diff::Apply(diff, entry.data);
  const std::size_t payload = Diff::PayloadBytes(diff);
  Emit(trace::What::kDiffApplied, obj.value, writer,
       static_cast<std::int64_t>(payload));
  entry.pol.RecordRemoteWrite(writer);
  entry.pol.RecordEpochWrite(writer, barrier_epoch_);
  entry.pol.RecordDiffSize(payload);
  auto& rec = recorder_;
  rec.Bump(Ev::kDiffsApplied);
  rec.Bump(Ev::kRemoteWrites);
  rec.Bump(Ev::kDiffBytes, payload);
}

void Agent::OnDiffAck(proto::DiffAck msg) {
  auto it = pending_acks_.find(msg.ack_tag);
  HMDSM_CHECK_MSG(it != pending_acks_.end(), "stray diff ack");
  HMDSM_CHECK(it->second.remaining > 0);
  if (--it->second.remaining == 0 && !it->second.waiter.empty())
    it->second.waiter.NotifyOne();
}

// ---------------------------------------------------------------------------
// Synchronization: locks
// ---------------------------------------------------------------------------

void Agent::Acquire(runtime::Exec& proc, LockId lock) {
  recorder_.Bump(Ev::kLockAcquires);
  const NodeId manager = lock.manager();
  // Acquiring is a synchronization point: dirty objects written outside
  // this lock's scope are flushed now (their diffs ride the acquire message
  // when homed at the manager). This is what makes an empty synchronized
  // block a flush point — the paper's synthetic benchmark depends on it.
  auto piggy =
      FlushDirty(proc, config_.piggyback_diffs ? manager : kNoNode);
  SendMsg(manager, MsgCat::kSync,
          proto::Encode(proto::LockAcquireMsg{lock, std::move(piggy)}));
  lock_waiters_[lock].Wait(proc);
  // Acquire semantics (Java memory model / LRC): start a fresh interval and
  // drop cached copies so writes flushed to homes become visible.
  BumpInterval();
  InvalidateCache();
}

void Agent::MarkPhase() {
  phase_marker_at_ = net_.Now();
  phase_pending_ = true;
  Emit(trace::What::kPhaseMark, 0);
}

void Agent::Release(runtime::Exec& proc, LockId lock) {
  const NodeId manager = lock.manager();
  auto piggy =
      FlushDirty(proc, config_.piggyback_diffs ? manager : kNoNode);
  BumpInterval();
  SendMsg(manager, MsgCat::kSync,
          proto::Encode(proto::LockReleaseMsg{lock, std::move(piggy)}));
}

void Agent::OnLockAcquire(NodeId src, proto::LockAcquireMsg msg) {
  ApplyPiggybacked(src, msg.piggybacked_diffs);
  LockState& ls = managed_locks_[msg.lock];
  if (ls.holder == kNoNode) {
    ls.holder = src;
    Emit(trace::What::kLockGranted, msg.lock.value, src);
    SendMsg(src, MsgCat::kSync, proto::Encode(proto::LockGrantMsg{msg.lock}));
  } else {
    ls.queue.push_back(src);
  }
}

void Agent::OnLockGrant(proto::LockGrantMsg msg) {
  auto it = lock_waiters_.find(msg.lock);
  HMDSM_CHECK_MSG(it != lock_waiters_.end() && !it->second.empty(),
                  "lock grant with no local waiter");
  it->second.NotifyOne();
}

void Agent::OnLockRelease(NodeId src, proto::LockReleaseMsg msg) {
  // Apply piggybacked diffs before the handoff so the next holder faults in
  // up-to-date data (the manager is the home of these objects).
  ApplyPiggybacked(src, msg.piggybacked_diffs);
  LockState& ls = managed_locks_[msg.lock];
  HMDSM_CHECK_MSG(ls.holder == src, "release from non-holder");
  if (ls.queue.empty()) {
    ls.holder = kNoNode;
  } else {
    ls.holder = ls.queue.front();
    ls.queue.pop_front();
    recorder_.Bump(Ev::kLockHandoffs);
    Emit(trace::What::kLockGranted, msg.lock.value, ls.holder);
    SendMsg(ls.holder, MsgCat::kSync,
            proto::Encode(proto::LockGrantMsg{msg.lock}));
  }
}

// ---------------------------------------------------------------------------
// Synchronization: barriers
// ---------------------------------------------------------------------------

void Agent::Barrier(runtime::Exec& proc, BarrierId barrier,
                    std::uint32_t expected) {
  recorder_.Bump(Ev::kBarrierWaits);
  const NodeId manager = barrier.manager();
  auto piggy =
      FlushDirty(proc, config_.piggyback_diffs ? manager : kNoNode);
  BumpInterval();
  SendMsg(manager, MsgCat::kSync,
          proto::Encode(
              proto::BarrierArriveMsg{barrier, expected, std::move(piggy)}));
  barrier_waiters_[barrier].Wait(proc);
  // Departure has acquire semantics.
  BumpInterval();
  InvalidateCache();
}

void Agent::OnBarrierArrive(NodeId src, proto::BarrierArriveMsg msg) {
  ApplyPiggybacked(src, msg.piggybacked_diffs);
  BarrierState& bs = managed_barriers_[msg.barrier];
  if (bs.expected == 0) bs.expected = msg.expected;
  HMDSM_CHECK_MSG(bs.expected == msg.expected,
                  "barrier participant-count mismatch");
  bs.arrivals.push_back(src);
  if (bs.arrivals.size() == bs.expected) {
    Emit(trace::What::kBarrierDone, msg.barrier.value, kNoNode,
         static_cast<std::int64_t>(bs.expected));
    for (NodeId dst : bs.arrivals) {
      SendMsg(dst, MsgCat::kSync,
              proto::Encode(proto::BarrierReleaseMsg{msg.barrier}));
    }
    managed_barriers_.erase(msg.barrier);
  }
}

void Agent::OnBarrierRelease(proto::BarrierReleaseMsg msg) {
  auto it = barrier_waiters_.find(msg.barrier);
  HMDSM_CHECK_MSG(it != barrier_waiters_.end() && !it->second.empty(),
                  "barrier release with no local waiter");
  // Advance the local barrier-epoch clock (Jidia-style single-writer
  // detection is scoped to "between two barriers").
  ++barrier_epoch_;
  it->second.NotifyOne();
}

// ---------------------------------------------------------------------------
// Release semantics
// ---------------------------------------------------------------------------

std::vector<std::pair<ObjectId, Bytes>> Agent::FlushDirty(
    runtime::Exec& proc, NodeId sync_manager) {
  std::vector<std::pair<ObjectId, Bytes>> piggy;
  auto& rec = recorder_;
  const std::uint64_t tag = next_ack_tag_;
  std::uint32_t standalone = 0;

  for (auto& [obj, ce] : cache_) {
    if (!ce.dirty) continue;
    Bytes diff = Diff::Encode(ce.twin, ce.data);
    ce.dirty = false;
    ce.twin.clear();
    ce.twin.shrink_to_fit();
    if (Diff::IsEmpty(diff)) continue;  // silent write (same values)
    rec.Bump(Ev::kDiffsCreated);
    const NodeId home = HintedHome(obj);
    HMDSM_CHECK_MSG(home != node_, "dirty cache entry for home object");
    if (home == sync_manager) {
      piggy.emplace_back(obj, std::move(diff));
    } else {
      ++standalone;
      Emit(trace::What::kDiffSent, obj.value, home,
           static_cast<std::int64_t>(diff.size()));
      SendMsg(home, MsgCat::kDiff,
              proto::Encode(
                  proto::DiffMsg{obj, std::move(diff), tag, true, node_}));
    }
  }

  if (standalone > 0) {
    // The release completes only once every standalone diff is applied (and
    // acknowledged); otherwise the next lock holder could fault in a copy
    // that misses these writes.
    ++next_ack_tag_;
    AckWait& aw = pending_acks_[tag];
    aw.remaining += standalone;
    if (aw.remaining > 0) aw.waiter.Wait(proc);
    pending_acks_.erase(tag);
  }
  return piggy;
}

void Agent::InvalidateCache() {
  for (auto& [obj, ce] : cache_) {
    HMDSM_CHECK_MSG(!ce.dirty, "invalidating a dirty copy — missing flush");
  }
  cache_.clear();
}

// ---------------------------------------------------------------------------
// Home access traps
// ---------------------------------------------------------------------------

void Agent::TrapHomeRead(HomeEntry& entry) {
  if (entry.read_trap_interval == interval_seq_) return;
  entry.read_trap_interval = interval_seq_;
  recorder_.Bump(Ev::kHomeReads);
}

void Agent::TrapHomeWrite(HomeEntry& entry) {
  if (entry.write_trap_interval == interval_seq_) return;
  entry.write_trap_interval = interval_seq_;
  recorder_.Bump(Ev::kHomeWrites);
  if (entry.pol.RecordHomeWrite())
    recorder_.Bump(Ev::kExclusiveHomeWrites);
  // A home write disqualifies the epoch from single-remote-writer status.
  entry.pol.RecordEpochWrite(kNoNode, barrier_epoch_);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

const core::ObjPolicyState& Agent::HomeState(ObjectId obj) const {
  auto it = homes_.find(obj);
  HMDSM_CHECK_MSG(it != homes_.end(), "HomeState: node is not the home");
  return it->second.pol;
}

double Agent::HomeLiveThreshold(ObjectId obj) const {
  auto it = homes_.find(obj);
  HMDSM_CHECK_MSG(it != homes_.end(), "threshold: node is not the home");
  return policy_->LiveThreshold(it->second.pol, it->second.data.size());
}

ByteSpan Agent::PeekHomeData(ObjectId obj) const {
  auto it = homes_.find(obj);
  HMDSM_CHECK_MSG(it != homes_.end(), "PeekHomeData: node is not the home");
  return it->second.data;
}

std::optional<NodeId> Agent::ForwardTarget(ObjectId obj) const {
  if (auto it = forwards_.find(obj); it != forwards_.end())
    return it->second.to;
  return std::nullopt;
}

}  // namespace hmdsm::dsm
