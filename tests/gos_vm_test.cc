// Tests for the distributed-JVM stand-in: thread dispatch, join, typed
// shared objects, synchronized blocks, barriers, and run reports — plus the
// threads-backend regression suite for Quiesce/Join (all guests joined, no
// in-flight messages, merged recorder totals consistent).
#include "src/gos/vm.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "src/gos/global.h"
#include "src/runtime/runtime.h"

namespace hmdsm::gos {
namespace {

VmOptions Opts(std::size_t nodes, const std::string& policy = "NoHM") {
  VmOptions o;
  o.nodes = nodes;
  o.dsm.policy = policy;
  return o;
}

TEST(Vm, MainRunsOnStartNode) {
  Vm vm(Opts(3));
  NodeId seen = 99;
  vm.Run([&](Env& env) { seen = env.node(); });
  EXPECT_EQ(seen, 0u);
}

TEST(Vm, SpawnDispatchesToRequestedNodes) {
  Vm vm(Opts(4));
  std::vector<NodeId> where;
  vm.Run([&](Env& env) {
    std::vector<Thread*> ts;
    for (NodeId n = 1; n < 4; ++n)
      ts.push_back(vm.Spawn(n, [&, n](Env& child) {
        EXPECT_EQ(child.node(), n);
        where.push_back(child.node());
      }));
    for (Thread* t : ts) vm.Join(env, t);
  });
  EXPECT_EQ(where.size(), 3u);
}

TEST(Vm, JoinWaitsForCompletion) {
  Vm vm(Opts(2));
  bool child_done = false;
  vm.Run([&](Env& env) {
    Thread* t = vm.Spawn(1, [&](Env& child) {
      child.Compute(0.5);  // half a virtual second
      child_done = true;
    });
    vm.Join(env, t);
    EXPECT_TRUE(child_done);
    EXPECT_GE(vm.ElapsedSeconds(), 0.5);
  });
}

TEST(Vm, JoinOnFinishedThreadReturnsImmediately) {
  Vm vm(Opts(2));
  vm.Run([&](Env& env) {
    Thread* t = vm.Spawn(1, [](Env&) {});
    env.Compute(1.0);  // child certainly finished
    vm.Join(env, t);   // must not deadlock
  });
}

TEST(GlobalArray, CreateLoadStoreAcrossNodes) {
  Vm vm(Opts(3));
  vm.Run([&](Env& env) {
    std::vector<double> init(16);
    std::iota(init.begin(), init.end(), 0.0);
    auto arr = GlobalArray<double>::Create(env, init, /*home=*/2);

    Thread* t = vm.Spawn(1, [&](Env& child) {
      std::vector<double> got;
      arr.Load(child, got);
      EXPECT_EQ(got.size(), 16u);
      EXPECT_DOUBLE_EQ(got[7], 7.0);
    });
    vm.Join(env, t);
  });
}

TEST(GlobalArray, ElementAccessors) {
  Vm vm(Opts(2));
  vm.Run([&](Env& env) {
    auto arr = GlobalArray<int>::Create(env, 8, /*home=*/0);
    arr.Set(env, 3, 42);
    EXPECT_EQ(arr.Get(env, 3), 42);
    EXPECT_EQ(arr.Get(env, 0), 0);  // zero-initialized
  });
}

TEST(GlobalScalar, UpdateIsReadModifyWrite) {
  Vm vm(Opts(2));
  vm.Run([&](Env& env) {
    auto counter = GlobalScalar<std::int64_t>::Create(env, 10, 0);
    const auto result = counter.Update(env, [](std::int64_t v) { return v + 5; });
    EXPECT_EQ(result, 15);
    EXPECT_EQ(counter.Get(env), 15);
  });
}

TEST(Vm, SynchronizedCountersAreExact) {
  // The classic distributed counter: every thread increments under a lock;
  // no lost updates despite caching + diffs.
  constexpr int kThreads = 4, kIncrements = 20;
  Vm vm(Opts(5));
  vm.Run([&](Env& env) {
    auto counter = GlobalScalar<std::int64_t>::Create(env, 0, 0);
    LockId lock = vm.CreateLock(0);
    std::vector<Thread*> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.push_back(vm.Spawn(1 + i, [&](Env& child) {
        for (int k = 0; k < kIncrements; ++k) {
          child.Synchronized(lock, [&] {
            counter.Update(child, [](std::int64_t v) { return v + 1; });
          });
        }
      }));
    }
    for (Thread* t : ts) vm.Join(env, t);
    env.Synchronized(lock, [&] {
      EXPECT_EQ(counter.Get(env), kThreads * kIncrements);
    });
  });
}

TEST(Vm, BarrierPhasedProducerConsumer) {
  // Phase 1: producers write their slots. Barrier. Phase 2: everyone reads
  // all slots — must observe every phase-1 write.
  constexpr std::uint32_t kWorkers = 4;
  Vm vm(Opts(kWorkers));
  vm.Run([&](Env& env) {
    auto data = GlobalArray<int>::Create(env, kWorkers, 0);
    BarrierId barrier = vm.CreateBarrier(0);
    std::vector<Thread*> ts;
    for (NodeId n = 0; n < kWorkers; ++n) {
      ts.push_back(vm.Spawn(n, [&, n](Env& child) {
        data.Update(child, [&](std::span<int> s) {
          s[n] = static_cast<int>(100 + n);
        });
        child.Barrier(barrier, kWorkers);
        std::vector<int> all;
        data.Load(child, all);
        for (NodeId k = 0; k < kWorkers; ++k)
          EXPECT_EQ(all[k], static_cast<int>(100 + k)) << "reader " << n;
      }));
    }
    for (Thread* t : ts) vm.Join(env, t);
  });
}

TEST(Vm, MultipleWritersFalseSharingResolvedByDiffs) {
  // Two nodes write disjoint halves of the same object between barriers —
  // the multiple-writer protocol merges both diffs at the home.
  Vm vm(Opts(3));
  vm.Run([&](Env& env) {
    auto arr = GlobalArray<int>::Create(env, 8, 0);
    BarrierId barrier = vm.CreateBarrier(0);
    std::vector<Thread*> ts;
    for (int half = 0; half < 2; ++half) {
      ts.push_back(vm.Spawn(1 + half, [&, half](Env& child) {
        arr.Update(child, [&](std::span<int> s) {
          for (int i = 0; i < 4; ++i) s[half * 4 + i] = half * 10 + i;
        });
        child.Barrier(barrier, 2);
      }));
    }
    for (Thread* t : ts) vm.Join(env, t);
    std::vector<int> final;
    arr.Load(env, final);
    EXPECT_EQ(final, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
  });
}

TEST(Vm, ReportSeparatesMeasurementWindow) {
  Vm vm(Opts(2));
  vm.Run([&](Env& env) {
    auto arr = GlobalArray<int>::Create(env, 1024, 1);  // init messages
    vm.ResetMeasurement();
    Thread* t = vm.Spawn(1, [&](Env& child) {
      arr.Get(child, 0);    // node 1 is the home: free local access
      child.Compute(1e-6);  // modeled computation
    });
    vm.Join(env, t);
    RunReport r = vm.Report();
    EXPECT_EQ(r.cat[static_cast<int>(stats::MsgCat::kInit)].messages, 0u);
    EXPECT_EQ(r.fault_ins, 0u);
    EXPECT_DOUBLE_EQ(r.seconds, 1e-6);
  });
}

TEST(Vm, ElapsedTimeGrowsWithCommunication) {
  auto run = [](bool remote) {
    Vm vm(Opts(2));
    double seconds = 0;
    vm.Run([&](Env& env) {
      auto arr = GlobalArray<int>::Create(env, 4096, remote ? 1 : 0);
      vm.ResetMeasurement();
      arr.Get(env, 0);  // main runs on node 0
      seconds = vm.ElapsedSeconds();
    });
    return seconds;
  };
  const double local = run(false);
  const double remote = run(true);
  EXPECT_EQ(local, 0.0);
  // 16 KB fault-in over Fast Ethernet: request + bulk reply ≈ 1.5 ms.
  EXPECT_GT(remote, 0.001);
  EXPECT_LT(remote, 0.01);
}

TEST(Vm, StartNodeOption) {
  VmOptions o = Opts(3);
  o.start_node = 2;
  Vm vm(o);
  NodeId seen = 99;
  vm.Run([&](Env& env) { seen = env.node(); });
  EXPECT_EQ(seen, 2u);
}

// ---------------------------------------------------------------------------
// Threads backend: the same Vm surface on real OS threads.
// ---------------------------------------------------------------------------

VmOptions ThreadsOpts(std::size_t nodes, const std::string& policy = "AT") {
  VmOptions o = Opts(nodes, policy);
  o.backend = Backend::kThreads;
  return o;
}

TEST(VmThreads, SynchronizedCountersAreExact) {
  // The classic distributed counter, now under genuine concurrency.
  constexpr int kThreads = 4, kIncrements = 20;
  Vm vm(ThreadsOpts(5));
  vm.Run([&](Env& env) {
    auto counter = GlobalScalar<std::int64_t>::Create(env, 0, 0);
    LockId lock = vm.CreateLock(0);
    std::vector<Thread*> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.push_back(vm.Spawn(1 + i, [&](Env& child) {
        for (int k = 0; k < kIncrements; ++k) {
          child.Synchronized(lock, [&] {
            counter.Update(child, [](std::int64_t v) { return v + 1; });
          });
        }
      }));
    }
    for (Thread* t : ts) vm.Join(env, t);
    env.Synchronized(lock, [&] {
      EXPECT_EQ(counter.Get(env), kThreads * kIncrements);
    });
  });
}

// Head-of-line inherited deliveries belong to the measured window like
// every other counter: setup-phase traffic must not leak into a report
// taken right after ResetMeasurement().
TEST(VmThreads, HolInheritedCountsOnlyTheMeasuredWindow) {
  VmOptions o = ThreadsOpts(4);
  o.inject_latency = true;
  Vm vm(o);
  vm.Run([&](Env& env) {
    // Mixed 16 B / 64 KiB objects: a small packet queued behind a large
    // one inherits the large one's delivery deadline.
    std::vector<ObjectId> objs;
    for (std::uint32_t i = 0; i < 32; ++i) {
      objs.push_back(vm.CreateObject(env, static_cast<NodeId>(i % 4),
                                     Bytes(i % 2 == 0 ? 16 : 64 * 1024)));
    }
    std::vector<Thread*> readers;
    for (NodeId n = 1; n < 4; ++n) {
      readers.push_back(vm.Spawn(n, [&](Env& me) {
        for (ObjectId obj : objs) me.Read(obj, [](ByteSpan) {});
      }));
    }
    for (Thread* t : readers) vm.Join(env, t);
    vm.ResetMeasurement();
    EXPECT_EQ(vm.Report().totals.Count(stats::Ev::kHolInherited), 0u);
  });
}

TEST(VmThreads, QuiesceJoinsGuestsDrainsTrafficAndBalancesRecorders) {
  // Regression for the shutdown path: after joining every worker and
  // quiescing, (1) every Thread reports done, (2) the transport has no
  // in-flight messages (enqueued == dispatched), and (3) the merged
  // per-node recorders are internally consistent — every cross-node send
  // was received, and the category totals agree with the per-node tables.
  constexpr NodeId kNodes = 4;
  Vm vm(ThreadsOpts(kNodes));
  vm.Run([&](Env& env) {
    auto arr = GlobalArray<int>::Create(env, 64, 1);
    BarrierId barrier = vm.CreateBarrier(0);
    std::vector<Thread*> ts;
    for (NodeId n = 0; n < kNodes; ++n) {
      ts.push_back(vm.Spawn(n, [&, n](Env& me) {
        for (int k = 0; k < 3; ++k) {
          arr.Update(me, [&](std::span<int> s) { s[n * 4 + k] += 1; });
          me.Barrier(barrier, kNodes);
        }
      }));
    }
    for (Thread* t : ts) vm.Join(env, t);
    for (Thread* t : ts) EXPECT_TRUE(t->done());

    vm.Quiesce(env);

    runtime::ChannelTransport& transport = vm.runtime().transport();
    EXPECT_EQ(transport.enqueued(), transport.dispatched());

    const stats::Recorder totals = vm.runtime().Totals();
    std::uint64_t sent_msgs = 0, recv_msgs = 0;
    std::uint64_t sent_bytes = 0, recv_bytes = 0;
    for (NodeId n = 0; n < kNodes; ++n) {
      sent_msgs += totals.SentBy(n).messages;
      sent_bytes += totals.SentBy(n).bytes;
      recv_msgs += totals.ReceivedBy(n).messages;
      recv_bytes += totals.ReceivedBy(n).bytes;
    }
    EXPECT_GT(sent_msgs, 0u);
    EXPECT_EQ(sent_msgs, recv_msgs);
    EXPECT_EQ(sent_bytes, recv_bytes);
    EXPECT_EQ(totals.TotalMessages(true), sent_msgs);
    EXPECT_EQ(totals.TotalBytes(true), sent_bytes);
  });
}

TEST(VmThreads, JoinOnFinishedThreadAndDoubleJoinAreSafe) {
  Vm vm(ThreadsOpts(2));
  vm.Run([&](Env& env) {
    Thread* t = vm.Spawn(1, [](Env&) {});
    vm.Join(env, t);
    EXPECT_TRUE(t->done());
    vm.Join(env, t);  // second join is a no-op, not a crash
  });
}

TEST(VmThreads, WorkerExceptionPropagatesThroughJoin) {
  Vm vm(ThreadsOpts(2));
  EXPECT_THROW(
      vm.Run([&](Env& env) {
        Thread* t = vm.Spawn(
            1, [](Env&) { throw std::runtime_error("worker failed"); });
        vm.Join(env, t);
      }),
      std::runtime_error);
}

TEST(VmThreads, SynchronizedReleasesTheLockWhenTheBodyThrows) {
  // A throwing synchronized body must not leave the distributed lock held:
  // the peer contending for it would hang forever (and with it the run).
  Vm vm(ThreadsOpts(3));
  int good_ran = 0;
  EXPECT_THROW(
      vm.Run([&](Env& env) {
        auto x = GlobalScalar<int>::Create(env, 0, 0);
        LockId lock = vm.CreateLock(0);
        Thread* bad = vm.Spawn(1, [&](Env& me) {
          me.Synchronized(lock, [] { throw std::runtime_error("boom"); });
        });
        Thread* good = vm.Spawn(2, [&](Env& me) {
          me.Synchronized(lock, [&] {
            good_ran = x.Update(me, [](int v) { return v + 1; });
          });
        });
        vm.Join(env, good);  // must not hang on the orphaned lock
        vm.Join(env, bad);   // rethrows the worker's exception
      }),
      std::runtime_error);
  EXPECT_EQ(good_ran, 1);
}

TEST(VmThreads, RunJoinsStragglersLeftUnjoined) {
  // A body that forgets to Join still leaves the Vm quiescent: Run joins
  // the stragglers before returning. The shared handles live outside Run
  // because stragglers may still use them after the body returns.
  Vm vm(ThreadsOpts(3));
  GlobalScalar<int> x;
  LockId lock{};
  vm.Run([&](Env& env) {
    x = GlobalScalar<int>::Create(env, 0, 0);
    lock = vm.CreateLock(0);
    for (NodeId n = 1; n < 3; ++n)
      vm.Spawn(n, [&](Env& me) {
        me.Synchronized(lock, [&] {
          x.Update(me, [](int v) { return v + 1; });
        });
      });
    // no Join on purpose
  });
  runtime::ChannelTransport& transport = vm.runtime().transport();
  EXPECT_EQ(transport.enqueued(), transport.dispatched());
}

}  // namespace
}  // namespace hmdsm::gos
