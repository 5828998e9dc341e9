#include "graph/io.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "util/strings.h"

namespace egocensus {

[[nodiscard]] Status SaveGraph(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open for write: " + path);
  out << "egocensus-graph 1 " << (graph.directed() ? 1 : 0) << ' '
      << graph.NumNodes() << ' ' << graph.NumEdges() << '\n';
  bool any_label = false;
  for (NodeId n = 0; n < graph.NumNodes(); ++n) {
    if (graph.label(n) != kDefaultLabel) {
      any_label = true;
      break;
    }
  }
  out << (any_label ? 1 : 0) << '\n';
  if (any_label) {
    for (NodeId n = 0; n < graph.NumNodes(); ++n) {
      out << graph.label(n) << (n + 1 == graph.NumNodes() ? '\n' : ' ');
    }
  }
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    auto [u, v] = graph.EdgeEndpoints(e);
    out << u << ' ' << v << '\n';
  }
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

namespace {

/// Line-tracking token reader for the graph format. Every parse error it
/// produces names the 1-based line number and the offending token, so a
/// malformed file reports exactly where it went wrong instead of a generic
/// "bad header" (or, worse, silently mis-reading).
class LineReader {
 public:
  LineReader(std::istream& in, const std::string& source)
      : in_(in), source_(source) {}

  /// Advances to the next line (possibly empty). False at end of input.
  bool NextLine() {
    if (!std::getline(in_, line_)) return false;
    ++line_no_;
    tokens_.clear();
    tokens_.str(line_);
    return true;
  }

  bool NextToken(std::string* out) {
    return static_cast<bool>(tokens_ >> *out);
  }

  [[nodiscard]] Status Error(const std::string& what) const {
    return Status::ParseError(source_ + " line " + std::to_string(line_no_) +
                              ": " + what);
  }

  /// Rejects trailing tokens on the current line, naming the first one.
  [[nodiscard]] Status ExpectEndOfLine() {
    std::string extra;
    if (tokens_ >> extra) {
      return Error("trailing token '" + extra + "'");
    }
    return Status::Ok();
  }

 private:
  std::istream& in_;
  std::string source_;
  std::string line_;
  std::istringstream tokens_;
  std::size_t line_no_ = 0;
};

/// Reads one unsigned decimal token <= max from the current line.
[[nodiscard]] Status ReadUint(LineReader& reader, const std::string& what,
                std::uint64_t max, std::uint64_t* out) {
  std::string token;
  if (!reader.NextToken(&token)) {
    return reader.Error("missing " + what);
  }
  auto value = ParseUint(token, max);
  if (value.ok()) {
    *out = *value;
    return Status::Ok();
  }
  if (value.status().code() == StatusCode::kOutOfRange) {
    return reader.Error(what + " '" + token + "' out of range (max " +
                        std::to_string(max) + ")");
  }
  return reader.Error("bad " + what + " '" + token +
                      "' (expected unsigned integer)");
}

}  // namespace

[[nodiscard]] Result<Graph> ReadGraph(std::istream& in, const std::string& source) {
  LineReader reader(in, source);

  // Header: egocensus-graph 1 <directed> <num_nodes> <num_edges>
  if (!reader.NextLine()) {
    return Status::ParseError(source + ": empty input (missing header)");
  }
  std::string magic;
  if (!reader.NextToken(&magic)) return reader.Error("missing magic");
  if (magic != "egocensus-graph") {
    return reader.Error("bad magic '" + magic +
                        "' (expected 'egocensus-graph')");
  }
  std::uint64_t version = 0, directed = 0, num_nodes = 0, num_edges = 0;
  if (Status s = ReadUint(reader, "format version", 0xFFFFFFFFull, &version);
      !s.ok()) {
    return s;
  }
  if (version != 1) {
    return reader.Error("unsupported format version " +
                        std::to_string(version));
  }
  if (Status s = ReadUint(reader, "directed flag", 1, &directed); !s.ok()) {
    return s;
  }
  if (Status s = ReadUint(reader, "node count", 0xFFFFFFFEull, &num_nodes);
      !s.ok()) {
    return s;
  }
  if (Status s = ReadUint(reader, "edge count", 0xFFFFFFFEull, &num_edges);
      !s.ok()) {
    return s;
  }
  if (Status s = reader.ExpectEndOfLine(); !s.ok()) return s;

  // Has-labels flag line.
  if (!reader.NextLine()) {
    return Status::ParseError(source + ": missing has-labels line");
  }
  std::uint64_t has_labels = 0;
  if (Status s = ReadUint(reader, "has-labels flag", 1, &has_labels);
      !s.ok()) {
    return s;
  }
  if (Status s = reader.ExpectEndOfLine(); !s.ok()) return s;

  Graph graph(directed != 0);
  graph.AddNodes(static_cast<std::uint32_t>(num_nodes));

  // Optional label line: num_nodes integers.
  if (has_labels != 0) {
    if (!reader.NextLine()) {
      return Status::ParseError(source + ": missing label line");
    }
    for (std::uint64_t n = 0; n < num_nodes; ++n) {
      std::uint64_t label = 0;
      if (Status s = ReadUint(reader,
                              "label for node " + std::to_string(n),
                              0xFFFFFFFFull, &label);
          !s.ok()) {
        return s;
      }
      if (Status s =
              graph.SetLabel(static_cast<NodeId>(n), static_cast<Label>(label));
          !s.ok()) {
        return s;
      }
    }
    if (Status s = reader.ExpectEndOfLine(); !s.ok()) return s;
  }

  // One "u v" line per edge.
  for (std::uint64_t e = 0; e < num_edges; ++e) {
    if (!reader.NextLine()) {
      return Status::ParseError(
          source + ": truncated edge list (expected " +
          std::to_string(num_edges) + " edges, got " + std::to_string(e) +
          ")");
    }
    std::uint64_t u = 0, v = 0;
    if (Status s = ReadUint(reader, "edge source", 0xFFFFFFFEull, &u);
        !s.ok()) {
      return s;
    }
    if (Status s = ReadUint(reader, "edge target", 0xFFFFFFFEull, &v);
        !s.ok()) {
      return s;
    }
    if (u >= num_nodes || v >= num_nodes) {
      return reader.Error("edge endpoint out of range: " + std::to_string(u) +
                          " " + std::to_string(v) + " (graph has " +
                          std::to_string(num_nodes) + " nodes)");
    }
    if (Status s = reader.ExpectEndOfLine(); !s.ok()) return s;
    if (graph.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v)) ==
        kInvalidEdge) {
      return reader.Error("invalid edge " + std::to_string(u) + " " +
                          std::to_string(v));
    }
  }

  // Strict trailing-garbage detection: anything but blank lines after the
  // edge list is an error, not silently ignored.
  while (reader.NextLine()) {
    std::string extra;
    if (reader.NextToken(&extra)) {
      return reader.Error("trailing content '" + extra +
                          "' after edge list");
    }
  }

  if (Status s = graph.Finalize(); !s.ok()) return s;
  return graph;
}

[[nodiscard]] Result<Graph> LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  return ReadGraph(in, path);
}

[[nodiscard]] Status WriteDot(const Graph& graph, std::ostream& out,
                std::uint32_t max_nodes) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  const std::uint32_t limit = std::min(max_nodes, graph.NumNodes());
  const bool labeled = graph.NumLabels() > 1;
  const char* edge_op = graph.directed() ? " -> " : " -- ";
  out << (graph.directed() ? "digraph" : "graph") << " g {\n";
  for (NodeId n = 0; n < limit; ++n) {
    out << "  n" << n;
    if (labeled) out << " [label=\"" << n << ":" << graph.label(n) << "\"]";
    out << ";\n";
  }
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    auto [u, v] = graph.EdgeEndpoints(e);
    if (u >= limit || v >= limit) continue;
    out << "  n" << u << edge_op << "n" << v << ";\n";
  }
  out << "}\n";
  if (!out) return Status::Internal("DOT write failed");
  return Status::Ok();
}

}  // namespace egocensus
