//===- perfbench/src/Inputs.cpp --------------------------------------------===//

#include "Inputs.h"

#include "Common.h"

#include <charconv>
#include <cstdio>
#include <memory>
#include <stdexcept>

using namespace perfbench;

EdgeList perfbench::rmatEdges(unsigned Scale, uint64_t NumEdges,
                              uint64_t Seed) {
  Rng R(Seed);
  EdgeList Edges;
  Edges.reserve(NumEdges);
  for (uint64_t E = 0; E < NumEdges; ++E) {
    uint32_t Src = 0, Dst = 0;
    for (unsigned Bit = 0; Bit < Scale; ++Bit) {
      const double P = R.uniform();
      Src <<= 1;
      Dst <<= 1;
      if (P < 0.57)
        continue;
      if (P < 0.76)
        Dst |= 1;
      else if (P < 0.95)
        Src |= 1;
      else {
        Src |= 1;
        Dst |= 1;
      }
    }
    Edges.emplace_back(Src, Dst);
  }
  return Edges;
}

std::vector<LengthEdge> perfbench::roadGridEdges(uint32_t Rows, uint32_t Cols,
                                                 int64_t MaxLen,
                                                 uint64_t Seed) {
  Rng R(Seed);
  std::vector<LengthEdge> Edges;
  Edges.reserve(4ull * Rows * Cols);
  auto Street = [&](uint32_t A, uint32_t B) {
    const int64_t Len = 1 + int64_t(R.below(uint64_t(MaxLen)));
    Edges.push_back({A, B, Len});
    Edges.push_back({B, A, Len});
  };
  for (uint32_t Row = 0; Row < Rows; ++Row)
    for (uint32_t Col = 0; Col < Cols; ++Col) {
      const uint32_t V = Row * Cols + Col;
      if (Col + 1 < Cols)
        Street(V, V + 1);
      if (Row + 1 < Rows)
        Street(V, V + Cols);
    }
  return Edges;
}

EdgeList perfbench::withoutLengths(const std::vector<LengthEdge> &Edges) {
  EdgeList Out;
  Out.reserve(Edges.size());
  for (const LengthEdge &E : Edges)
    Out.emplace_back(E.Src, E.Dst);
  return Out;
}

namespace {

/// Buffered line writer over stdio; throws on any failed write.
class LineWriter {
public:
  explicit LineWriter(const std::string &Path)
      : Path(Path), F(std::fopen(Path.c_str(), "wb"), &std::fclose) {
    if (!F)
      throw std::runtime_error("cannot write " + Path);
  }
  void num(uint64_t X, char After) {
    if (Buf.size() - Used < 32)
      flush();
    auto [End, Ec] = std::to_chars(Buf.data() + Used, Buf.data() + Buf.size(), X);
    (void)Ec;
    *End = After;
    Used = size_t(End - Buf.data()) + 1;
  }
  void flush() {
    if (Used && std::fwrite(Buf.data(), 1, Used, F.get()) != Used)
      throw std::runtime_error("short write to " + Path);
    Used = 0;
  }

private:
  std::string Path;
  std::unique_ptr<std::FILE, int (*)(std::FILE *)> F;
  std::vector<char> Buf = std::vector<char>(1 << 20);
  size_t Used = 0;
};

} // namespace

void perfbench::writeEdgeListFile(const std::string &Path,
                                  const EdgeList &Edges) {
  LineWriter W(Path);
  for (const auto &[Src, Dst] : Edges) {
    W.num(Src, ' ');
    W.num(Dst, '\n');
  }
  W.flush();
}

void perfbench::writeLengthFile(const std::string &Path,
                                const std::vector<LengthEdge> &Edges) {
  LineWriter W(Path);
  for (const LengthEdge &E : Edges) {
    W.num(E.Src, ' ');
    W.num(E.Dst, ' ');
    W.num(uint64_t(E.Len), '\n');
  }
  W.flush();
}

std::vector<int64_t> perfbench::loadLengths(const std::string &Path,
                                            const gm::Graph &G) {
  const std::string Text = readFile(Path);
  std::vector<int64_t> Len(G.numEdges(), -1);
  const char *P = Text.data();
  const char *End = P + Text.size();
  auto Next = [&](uint64_t &X) {
    while (P < End && (*P == ' ' || *P == '\n'))
      ++P;
    auto [Stop, Ec] = std::from_chars(P, End, X);
    if (Ec != std::errc())
      throw std::runtime_error(Path + ": malformed length line");
    P = Stop;
  };
  while (true) {
    while (P < End && (*P == ' ' || *P == '\n'))
      ++P;
    if (P == End)
      break;
    uint64_t Src, Dst, L;
    Next(Src);
    Next(Dst);
    Next(L);
    if (Src >= G.numNodes())
      throw std::runtime_error(Path + ": length for unknown node");
    bool Found = false;
    const auto Nbrs = G.outNeighbors(gm::NodeId(Src));
    for (size_t I = 0; I < Nbrs.size(); ++I)
      if (Nbrs[I] == Dst) {
        Len[G.outEdgeBegin(gm::NodeId(Src)) + I] = int64_t(L);
        Found = true;
      }
    if (!Found)
      throw std::runtime_error(Path + ": length for an edge the graph lacks");
  }
  for (int64_t L : Len)
    if (L < 0)
      throw std::runtime_error(Path + ": an edge has no length");
  return Len;
}
