#include "dynamic/update_stream.h"

#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace egocensus {
namespace {

[[nodiscard]] Status LineError(std::size_t line_no, const std::string& what) {
  return Status::ParseError("update stream line " + std::to_string(line_no) +
                            ": " + what);
}

bool ParseNodeId(const std::string& token, NodeId* out) {
  auto value = ParseUint(token, 0xFFFFFFFFull);
  if (!value.ok()) return false;
  *out = static_cast<NodeId>(*value);
  return true;
}

}  // namespace

[[nodiscard]] Result<std::vector<GraphUpdate>> ParseUpdateStream(std::istream& in) {
  std::vector<GraphUpdate> updates;
  std::string line;
  std::size_t line_no = 0;
  // egolint: no-checkpoint(I/O-bound parse, constant work per input line)
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string op;
    if (!(tokens >> op) || op[0] == '#' || op[0] == '%') continue;

    // After a valid op and its operands the rest of the line must be empty
    // or an inline comment — a stray token is a malformed stream, not
    // something to skip silently.
    auto end_of_line = [&]() -> Status {
      std::string extra;
      if ((tokens >> extra) && extra[0] != '#' && extra[0] != '%') {
        return LineError(line_no,
                         "trailing token '" + extra + "' after '" + op + "'");
      }
      return Status::Ok();
    };

    auto parse_pair = [&](GraphUpdate (*make)(NodeId, NodeId))
        -> Result<GraphUpdate> {
      std::string a, b;
      NodeId u = 0, v = 0;
      if (!(tokens >> a >> b) || !ParseNodeId(a, &u) || !ParseNodeId(b, &v)) {
        return LineError(line_no, "expected two node ids after '" + op + "'");
      }
      return make(u, v);
    };

    if (op == "ae" || op == "+") {
      auto update = parse_pair(&GraphUpdate::AddEdge);
      if (!update.ok()) return update.status();
      if (Status s = end_of_line(); !s.ok()) return s;
      updates.push_back(*update);
    } else if (op == "re" || op == "-") {
      auto update = parse_pair(&GraphUpdate::RemoveEdge);
      if (!update.ok()) return update.status();
      if (Status s = end_of_line(); !s.ok()) return s;
      updates.push_back(*update);
    } else if (op == "an") {
      std::string token;
      NodeId label = 0;
      if ((tokens >> token) && token[0] != '#' && token[0] != '%') {
        if (!ParseNodeId(token, &label)) {
          return LineError(line_no, "bad label '" + token + "'");
        }
        if (Status s = end_of_line(); !s.ok()) return s;
      }
      updates.push_back(GraphUpdate::AddNode(static_cast<Label>(label)));
    } else if (op == "rn") {
      std::string token;
      NodeId n = 0;
      if (!(tokens >> token) || !ParseNodeId(token, &n)) {
        return LineError(line_no, "expected a node id after 'rn'");
      }
      if (Status s = end_of_line(); !s.ok()) return s;
      updates.push_back(GraphUpdate::RemoveNode(n));
    } else {
      return LineError(line_no, "unknown op '" + op + "'");
    }
  }
  return updates;
}

[[nodiscard]] Result<std::vector<GraphUpdate>> LoadUpdateStream(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open update stream: " + path);
  return ParseUpdateStream(in);
}

}  // namespace egocensus
