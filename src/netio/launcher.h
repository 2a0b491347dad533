// Self-fork launcher for localhost multi-process runs.
//
// `hmdsm_cli --backend=sockets --nodes=N` should "just work" on one
// machine without port bookkeeping: the parent binds one ephemeral
// listening socket per *process* before forking (so concurrent runs can
// never collide on a port), builds the peer list from the kernel-assigned
// ports, and forks one child per process. With --ranks-per-proc=k each
// child hosts k consecutive ranks behind one listener (peers[r] is the
// endpoint of r's hosting process), so `--nodes=128 --ranks-per-proc=16`
// forks 8 processes, not 128. Each child inherits its own pre-bound
// listener, closes the others, runs the supplied body, and _exits with
// its status; the parent reaps everyone and reports the first failure.
//
// Fork is without exec, so call this before creating any threads (the CLI
// and tests call it straight out of main). Multi-host runs skip this
// entirely and pass an explicit --rank/--peers list instead.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/util/bytes.h"

namespace hmdsm::netio {

/// What a forked child needs to build its SocketTransportOptions.
struct LocalRank {
  net::NodeId rank = 0;            // this process's primary (lowest) rank
  std::vector<std::string> peers;  // 127.0.0.1:<port> per rank
  std::size_t ranks_per_proc = 1;  // consecutive ranks this process hosts
  int listen_fd = -1;              // this process's pre-bound listener
};

/// Forks one child per process (`ceil(nodes / ranks_per_proc)` of them,
/// each hosting `ranks_per_proc` consecutive ranks — the last one fewer
/// when it doesn't divide), runs `body` in each, and returns the overall
/// exit status for the parent (0 iff every child exited 0; a signalled
/// child reports 128+signo). Must be called while single-threaded.
int RunLocalMesh(std::size_t nodes, std::size_t ranks_per_proc,
                 const std::function<int(const LocalRank&)>& body);

/// RunLocalMesh plus a pipe back to the parent: `body` runs in every
/// process, and the bytes it returns in the process hosting rank 0 (the
/// lead) land in `*lead`. The parent drains the pipe while the children
/// run, so the payload may be any size. Returns the overall exit status
/// as RunLocalMesh does; a failed pipe write makes the lead exit 3.
int RunLocalMeshForLead(std::size_t nodes, std::size_t ranks_per_proc,
                        const std::function<Bytes(const LocalRank&)>& body,
                        Bytes* lead);

/// One rank per process (the pre-multi-rank-hosting shape).
int RunLocalMesh(std::size_t nodes,
                 const std::function<int(const LocalRank&)>& body);

}  // namespace hmdsm::netio
