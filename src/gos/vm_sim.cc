// The simulator execution backend behind the gos::Vm facade: distributed
// threads are cooperative sim::Processes inside one dsm::Cluster, time is
// virtual, and scheduling is bit-deterministic (single-baton kernel).
#include <deque>
#include <utility>

#include "src/gos/vm.h"
#include "src/sim/waitqueue.h"

namespace hmdsm::gos {
namespace {

/// Sim Env: a node's agent plus this thread's simulated process.
class SimEnv final : public Env {
 public:
  SimEnv(Vm& vm, dsm::Agent& agent, sim::Process& proc,
         Thread* self = nullptr)
      : Env(vm, self), agent_(agent), proc_(proc) {}

  NodeId node() const override { return agent_.node(); }
  dsm::Agent& agent() override { return agent_; }
  sim::Process& process() { return proc_; }

  void Read(ObjectId obj, const std::function<void(ByteSpan)>& fn) override {
    agent_.Read(proc_, obj, fn);
  }
  void Write(ObjectId obj,
             const std::function<void(MutByteSpan)>& fn) override {
    agent_.Write(proc_, obj, fn);
  }
  void Acquire(LockId lock) override { agent_.Acquire(proc_, lock); }
  void Release(LockId lock) override { agent_.Release(proc_, lock); }
  void Barrier(BarrierId barrier, std::uint32_t participants) override {
    agent_.Barrier(proc_, barrier, participants);
  }
  void Delay(sim::Time ns) override {
    if (ns > 0) proc_.Delay(ns);
  }
  void PhaseMark() override { agent_.MarkPhase(); }

 private:
  dsm::Agent& agent_;
  sim::Process& proc_;
};

class SimThread final : public Thread {
 public:
  bool done() const override { return done_; }

 private:
  friend class SimBackend;
  bool done_ = false;
  sim::WaitQueue joiners_;
};

class SimBackend final : public VmBackend {
 public:
  SimBackend(Vm& vm, const VmOptions& options)
      : vm_(vm),
        options_(options),
        cluster_(dsm::ClusterOptions{options.nodes, options.model,
                                     options.dsm,
                                     options.model_tx_occupancy}) {
    if (!options_.trace_out.empty()) cluster_.trace().Enable();
  }

  ~SimBackend() override {
    // The kernel is quiescent once Run() returned, so the event buffer is
    // stable. Timestamps are virtual nanoseconds — the exported timeline is
    // the modeled one, which is exactly what a sim trace should show.
    if (!options_.trace_out.empty()) {
      const stats::Timeseries series = cluster_.Totals().Series();
      trace::WriteChromeTraceFile(options_.trace_out,
                                  cluster_.trace().events(), /*pid=*/0,
                                  "hmdsm sim", &series);
    }
  }

  std::size_t nodes() const override { return cluster_.nodes(); }
  dsm::Cluster* cluster() override { return &cluster_; }

  void Run(ThreadBody main) override {
    Spawn(options_.start_node, std::move(main), "main");
    if (options_.poll_interval_s > 0) ScheduleSampleTick();
    cluster_.kernel().Run();
  }

  Thread* Spawn(NodeId node, ThreadBody body, std::string name) override {
    HMDSM_CHECK(node < cluster_.nodes());
    threads_.emplace_back();
    SimThread* t = &threads_.back();
    if (name.empty()) name = "thread" + std::to_string(next_thread_idx_);
    ++next_thread_idx_;
    name += "@n" + std::to_string(node);
    cluster_.kernel().Spawn(
        std::move(name),
        [this, t, node, body = std::move(body)](sim::Process& proc) {
          SimEnv env(vm_, cluster_.agent(node), proc, t);
          body(env);
          t->done_ = true;
          if (!t->joiners_.empty()) t->joiners_.NotifyAll();
        });
    return t;
  }

  void Join(Env& env, Thread* thread) override {
    HMDSM_CHECK(thread != nullptr);
    auto* t = static_cast<SimThread*>(thread);
    if (!t->done_) t->joiners_.Wait(AsSim(env).process());
  }

  void Quiesce(Env& env) override {
    sim::WaitQueue idle;
    cluster_.kernel().ScheduleWhenIdle([&idle] { idle.NotifyOne(); });
    // The baton is ours until Park, so the callback cannot fire before the
    // process is enqueued as a waiter.
    idle.Wait(AsSim(env).process());
  }

  ObjectId CreateObject(Env& env, NodeId home, ByteSpan initial) override {
    ObjectId id = cluster_.NewObjectId(home, env.node());
    env.agent().CreateObject(AsSim(env).process(), id, initial);
    return id;
  }

  LockId CreateLock(NodeId manager) override {
    return cluster_.NewLockId(manager);
  }
  BarrierId CreateBarrier(NodeId manager) override {
    return cluster_.NewBarrierId(manager);
  }

  void ResetMeasurement() override {
    cluster_.ResetStats();
    measure_start_ = cluster_.kernel().now();
  }

  double ElapsedSeconds() const override {
    return sim::ToSeconds(cluster_.kernel().now() - measure_start_);
  }

  RunReport Report() override {
    return MakeRunReport(cluster_.Totals(), ElapsedSeconds());
  }

 private:
  /// Every Env this backend hands out is a SimEnv.
  static SimEnv& AsSim(Env& env) { return static_cast<SimEnv&>(env); }

  /// Virtual-time sampler: closes one time-series window per node every
  /// poll interval. The chain must not keep the event queue non-empty
  /// forever (Run() ends when the queue drains), so it re-arms only while
  /// some node's counters moved — the first quiet tick ends it.
  void ScheduleSampleTick() {
    cluster_.kernel().ScheduleAfter(
        sim::FromSeconds(options_.poll_interval_s), [this] {
          bool moved = false;
          const sim::Time now = cluster_.kernel().now();
          for (NodeId n = 0; n < cluster_.nodes(); ++n)
            if (cluster_.recorder(n).SampleTimeseries(n, now)) moved = true;
          if (moved) ScheduleSampleTick();
        });
  }

  Vm& vm_;
  VmOptions options_;
  dsm::Cluster cluster_;
  std::deque<SimThread> threads_;
  sim::Time measure_start_ = 0;
  int next_thread_idx_ = 0;
};

}  // namespace

std::unique_ptr<VmBackend> MakeSimVmBackend(Vm& vm, const VmOptions& options) {
  return std::make_unique<SimBackend>(vm, options);
}

}  // namespace hmdsm::gos
