#include "speed_probe.h"

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>
#include <vector>

#include "common/random.h"

namespace gtsbench {
namespace {

constexpr int kScale = 18;
constexpr uint32_t kVertices = 1u << kScale;
constexpr uint32_t kEdges = 16 * kVertices;
constexpr uint32_t kUnvisited = ~uint32_t{0};

/// One R-MAT edge (Graph500 quadrant weights) before the id permutation.
std::pair<uint32_t, uint32_t> NextEdge(gts::Xoshiro256& rng) {
  uint32_t u = 0, v = 0;
  for (int bit = 0; bit < kScale; ++bit) {
    const double r = rng.NextDouble();
    u = 2 * u + (r >= 0.76 ? 1 : 0);                   // c + d = 0.24
    v = 2 * v + (r >= 0.57 && r < 0.76) + (r >= 0.95);  // b, d
  }
  return {u, v};
}

/// The probe's graph and BFS state; lives in the probe process only.
class ProbeGraph {
 public:
  ProbeGraph();
  double Bfs();

 private:
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> targets_;
  std::vector<uint32_t> level_;
  std::vector<uint32_t> queue_;
  uint32_t source_ = 0;
};

ProbeGraph::ProbeGraph()
    : offsets_(kVertices + 1, 0),
      targets_(kEdges),
      level_(kVertices),
      queue_(kVertices) {
  // An R-MAT graph with permuted ids, so the probe has the skewed locality
  // of the workloads' own graphs.
  gts::Xoshiro256 rng(0x5eed5eed);
  std::vector<uint32_t> perm(kVertices);
  std::iota(perm.begin(), perm.end(), 0u);
  for (uint32_t i = kVertices - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.NextBounded(i + 1)]);
  }
  // Two passes over one random edge sequence, counting the degrees and
  // then filling the targets, so no edge list is ever held.
  const gts::Xoshiro256 edges_start = rng;
  for (uint32_t e = 0; e < kEdges; ++e) {
    ++offsets_[perm[NextEdge(rng).first] + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  rng = edges_start;
  for (uint32_t e = 0; e < kEdges; ++e) {
    const auto [u, v] = NextEdge(rng);
    targets_[cursor[perm[u]]++] = perm[v];
  }
  const auto degree = [this](uint32_t v) {
    return offsets_[v + 1] - offsets_[v];
  };
  for (uint32_t v = 0; v < kVertices; ++v) {
    if (degree(v) > degree(source_)) source_ = v;
  }
}

double ProbeGraph::Bfs() {
  const auto start = std::chrono::steady_clock::now();
  std::fill(level_.begin(), level_.end(), kUnvisited);
  size_t head = 0, tail = 0;
  queue_[tail++] = source_;
  level_[source_] = 0;
  while (head < tail) {
    const uint32_t v = queue_[head++];
    for (uint32_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      const uint32_t w = targets_[e];
      if (level_[w] != kUnvisited) continue;
      level_[w] = level_[v] + 1;
      queue_[tail++] = w;
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool SendAll(int fd, const void* data, size_t len) {
  const auto* bytes = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = send(fd, bytes, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool RecvAll(int fd, void* data, size_t len) {
  auto* bytes = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = recv(fd, bytes, len, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

/// The probe process: builds the graph, reports ready with one byte, then
/// answers every request byte with the seconds of one BFS until the
/// benchmark closes its end.
[[noreturn]] void Serve(int fd) {
  int code = 1;
  try {
    ProbeGraph graph;
    char byte = 1;
    if (SendAll(fd, &byte, 1)) {
      while (RecvAll(fd, &byte, 1)) {
        const double seconds = graph.Bfs();
        if (!SendAll(fd, &seconds, sizeof(seconds))) break;
      }
      code = 0;
    }
  } catch (...) {
  }
  _exit(code);  // never the parent's exit handlers or stdio buffers
}

}  // namespace

gts::Result<std::unique_ptr<SpeedProbe>> SpeedProbe::Start() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return gts::Status::Internal("speed probe: socketpair failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return gts::Status::Internal("speed probe: fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    Serve(fds[1]);
  }
  close(fds[1]);
  std::unique_ptr<SpeedProbe> probe(new SpeedProbe(pid, fds[0]));
  char ready = 0;
  if (!RecvAll(probe->fd_, &ready, 1)) {
    return gts::Status::Internal("speed probe: the probe process failed");
  }
  return probe;
}

SpeedProbe::~SpeedProbe() {
  close(fd_);  // the probe process sees end of file and exits
  while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
}

double SpeedProbe::Run() {
  const char request = 1;
  double seconds = 0.0;
  if (!SendAll(fd_, &request, 1) || !RecvAll(fd_, &seconds, sizeof(seconds))) {
    std::fprintf(stderr, "gts_bench: the speed probe process is gone\n");
    std::exit(1);
  }
  return seconds;
}

}  // namespace gtsbench
