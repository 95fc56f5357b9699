#include "graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace gts {

namespace {
constexpr char kMagic[4] = {'G', 'T', 'S', 'G'};
constexpr uint32_t kVersion = 1;
}  // namespace

Status WriteEdgeListBinary(const EdgeList& list, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(kMagic, sizeof(kMagic));
  const uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t nv = list.num_vertices();
  const uint64_t ne = list.num_edges();
  out.write(reinterpret_cast<const char*>(&nv), sizeof(nv));
  out.write(reinterpret_cast<const char*>(&ne), sizeof(ne));
  static_assert(sizeof(Edge) == 16, "Edge must be two packed u64s");
  out.write(reinterpret_cast<const char*>(list.edges().data()),
            static_cast<std::streamsize>(ne * sizeof(Edge)));
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<EdgeList> ReadEdgeListBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || version != kVersion) {
    return Status::Corruption("unsupported version in " + path);
  }
  uint64_t nv = 0;
  uint64_t ne = 0;
  in.read(reinterpret_cast<char*>(&nv), sizeof(nv));
  in.read(reinterpret_cast<char*>(&ne), sizeof(ne));
  if (!in) return Status::Corruption("truncated header in " + path);
  if (ne > BytesLeft(in) / sizeof(Edge)) {
    return Status::Corruption("edge count " + std::to_string(ne) +
                              " exceeds the file: " + path);
  }
  std::vector<Edge> edges(ne);
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(ne * sizeof(Edge)));
  if (!in) return Status::Corruption("truncated edges in " + path);
  EdgeList list(nv, std::move(edges));
  GTS_RETURN_IF_ERROR(list.Validate());
  return list;
}

uint64_t BytesLeft(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  return here < 0 || end < here ? 0 : static_cast<uint64_t>(end - here);
}

Status WriteEdgeListText(const EdgeList& list, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << "# GTS edge list: " << list.num_vertices() << " vertices, "
      << list.num_edges() << " edges\n";
  for (const Edge& e : list.edges()) {
    out << e.src << ' ' << e.dst << '\n';
  }
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<EdgeList> ReadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  EdgeList list;
  VertexId max_vertex = 0;
  bool any = false;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    VertexId src;
    VertexId dst;
    if (!(ss >> src >> dst)) {
      return Status::Corruption("bad line " + std::to_string(lineno) + " in " +
                                path);
    }
    list.Add(src, dst);
    max_vertex = std::max({max_vertex, src, dst});
    any = true;
  }
  list.set_num_vertices(any ? max_vertex + 1 : 0);
  return list;
}

}  // namespace gts
