// Internal to the gos backends: the Env implementation over a
// runtime::Guest, shared by the threads backend (every node in-process)
// and the sockets backend (the ranks this process hosts). Application code
// never names this type — it only ever sees gos::Env.
#pragma once

#include "src/gos/vm.h"
#include "src/runtime/runtime.h"

namespace hmdsm::gos {

class GuestEnv final : public Env {
 public:
  GuestEnv(Vm& vm, runtime::Guest& guest, Thread* self = nullptr)
      : Env(vm, self), guest_(guest) {}

  NodeId node() const override { return guest_.node(); }
  dsm::Agent& agent() override { return guest_.agent(); }
  runtime::Guest& guest() { return guest_; }

  void Read(ObjectId obj, const std::function<void(ByteSpan)>& fn) override {
    guest_.Read(obj, fn);
  }
  void Write(ObjectId obj,
             const std::function<void(MutByteSpan)>& fn) override {
    guest_.Write(obj, fn);
  }
  void Acquire(LockId lock) override { guest_.Acquire(lock); }
  void Release(LockId lock) override { guest_.Release(lock); }
  void Barrier(BarrierId barrier, std::uint32_t participants) override {
    guest_.Barrier(barrier, participants);
  }
  void Delay(sim::Time ns) override { guest_.Delay(ns); }
  void PhaseMark() override { guest_.MarkPhase(); }

 private:
  runtime::Guest& guest_;
};

}  // namespace hmdsm::gos
