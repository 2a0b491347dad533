#include "src/netio/launcher.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/netio/socket.h"
#include "src/util/check.h"

namespace hmdsm::netio {
namespace {

/// Forks the mesh, runs `in_parent` (if any) once every child is forked,
/// then reaps the children.
int ForkMesh(std::size_t nodes, std::size_t ranks_per_proc,
             const std::function<int(const LocalRank&)>& body,
             const std::function<void()>& in_parent) {
  HMDSM_CHECK_MSG(nodes >= 1 && nodes <= 0x10000,
                  "node count out of range");
  HMDSM_CHECK_MSG(ranks_per_proc >= 1 && ranks_per_proc <= nodes,
                  "ranks_per_proc " << ranks_per_proc
                                    << " out of range for " << nodes
                                    << " ranks");
  const std::size_t procs = (nodes + ranks_per_proc - 1) / ranks_per_proc;
  // Bind every process's listener in the parent: ephemeral ports mean two
  // concurrent meshes (parallel test runs) can never collide, and children
  // inherit an already-listening socket so there is no bind/dial race. The
  // peer list stays rank-indexed — every rank of one process shares that
  // process's endpoint.
  std::vector<Fd> listeners;
  std::vector<std::uint16_t> ports;
  listeners.reserve(procs);
  ports.reserve(procs);
  for (std::size_t p = 0; p < procs; ++p) {
    std::uint16_t port = 0;
    std::string error;
    Fd fd = ListenOn("127.0.0.1:0", &port, &error);
    HMDSM_CHECK_MSG(fd.valid() && port != 0,
                    "launcher listen failed: " << error);
    listeners.push_back(std::move(fd));
    ports.push_back(port);
  }
  std::vector<std::string> peers;
  peers.reserve(nodes);
  for (std::size_t r = 0; r < nodes; ++r) {
    peers.push_back("127.0.0.1:" +
                    std::to_string(ports[r / ranks_per_proc]));
  }

  std::vector<pid_t> children;
  children.reserve(procs);
  for (std::size_t p = 0; p < procs; ++p) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    HMDSM_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: keep only process p's listener; the transport adopts its fd.
      LocalRank self;
      self.rank = static_cast<net::NodeId>(p * ranks_per_proc);
      self.peers = peers;
      self.ranks_per_proc = ranks_per_proc;
      for (std::size_t o = 0; o < procs; ++o) {
        if (o != p) listeners[o].Close();
      }
      self.listen_fd = listeners[p].release();
      int status = 1;
      try {
        status = body(self);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "hmdsm sockets: process %zu: %s\n", p, e.what());
        status = 1;
      }
      std::fflush(stdout);
      std::fflush(stderr);
      // _exit, not exit: the child shares the parent's atexit/static state
      // and must not run its teardown.
      ::_exit(status);
    }
    children.push_back(pid);
  }
  for (Fd& fd : listeners) fd.Close();
  if (in_parent) in_parent();

  int overall = 0;
  for (std::size_t p = 0; p < procs; ++p) {
    int status = 0;
    if (::waitpid(children[p], &status, 0) < 0) {
      overall = overall != 0 ? overall : 1;
      continue;
    }
    int proc_status = 0;
    if (WIFEXITED(status)) {
      proc_status = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      proc_status = 128 + WTERMSIG(status);
      std::fprintf(stderr, "hmdsm sockets: process %zu killed by signal %d\n",
                   p, WTERMSIG(status));
    }
    if (overall == 0) overall = proc_status;
  }
  return overall;
}

bool WriteAll(int fd, const Bytes& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int RunLocalMesh(std::size_t nodes, std::size_t ranks_per_proc,
                 const std::function<int(const LocalRank&)>& body) {
  return ForkMesh(nodes, ranks_per_proc, body, {});
}

int RunLocalMeshForLead(std::size_t nodes, std::size_t ranks_per_proc,
                        const std::function<Bytes(const LocalRank&)>& body,
                        Bytes* lead) {
  int fds[2];
  HMDSM_CHECK_MSG(::pipe(fds) == 0, "launcher pipe failed");
  Fd read_end(fds[0]);
  Fd write_end(fds[1]);
  lead->clear();
  return ForkMesh(
      nodes, ranks_per_proc,
      [&](const LocalRank& self) {
        read_end.Close();
        const Bytes out = body(self);
        const bool ok = self.rank != 0 || WriteAll(write_end.get(), out);
        write_end.Close();
        return ok ? 0 : 3;
      },
      [&] {
        // Only the children hold the write end now: EOF means every one
        // of them has exited or closed it.
        write_end.Close();
        Byte buf[4096];
        ssize_t n;
        while ((n = ::read(read_end.get(), buf, sizeof buf)) > 0 ||
               (n < 0 && errno == EINTR)) {
          if (n > 0) lead->insert(lead->end(), buf, buf + n);
        }
      });
}

int RunLocalMesh(std::size_t nodes,
                 const std::function<int(const LocalRank&)>& body) {
  return RunLocalMesh(nodes, 1, body);
}

}  // namespace hmdsm::netio
