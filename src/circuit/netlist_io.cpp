#include "circuit/netlist_io.h"

#include <sstream>
#include <stdexcept>

namespace deepsecure {
namespace {

void write_wire_list(std::ostream& os, const char* tag,
                     const std::vector<Wire>& ws) {
  if (ws.empty()) return;
  os << tag;
  for (Wire w : ws) os << ' ' << w;
  os << '\n';
}

const char* op_token(GateOp op) {
  switch (op) {
    case GateOp::kXor: return "XOR";
    case GateOp::kAnd: return "AND";
    case GateOp::kAndKnown: return "ANDK";
  }
  throw std::logic_error("netlist: unknown gate op");
}

}  // namespace

void write_netlist(std::ostream& os, const Circuit& c) {
  os << "netlist " << (c.name.empty() ? "anonymous" : c.name) << '\n';
  os << "wires " << c.num_wires << '\n';
  write_wire_list(os, "in G", c.garbler_inputs);
  write_wire_list(os, "in E", c.evaluator_inputs);
  write_wire_list(os, "in S", c.state_inputs);
  for (const Gate& g : c.gates) {
    os << "gate " << op_token(g.op) << ' ' << g.a
       << ' ' << g.b << ' ' << g.out << '\n';
  }
  write_wire_list(os, "next", c.state_next);
  write_wire_list(os, "out", c.outputs);
}

std::string netlist_to_string(const Circuit& c) {
  std::ostringstream os;
  write_netlist(os, c);
  return os.str();
}

Circuit read_netlist(std::istream& is) {
  Circuit c;
  std::string line;
  bool have_header = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;
    if (kw == "netlist") {
      ls >> c.name;
      have_header = true;
    } else if (kw == "wires") {
      ls >> c.num_wires;
    } else if (kw == "in") {
      std::string who;
      ls >> who;
      std::vector<Wire>* dst = nullptr;
      if (who == "G")
        dst = &c.garbler_inputs;
      else if (who == "E")
        dst = &c.evaluator_inputs;
      else if (who == "S")
        dst = &c.state_inputs;
      else
        throw std::runtime_error("netlist: unknown input class " + who);
      Wire w;
      while (ls >> w) dst->push_back(w);
    } else if (kw == "gate") {
      std::string op;
      Gate g;
      ls >> op >> g.a >> g.b >> g.out;
      if (!ls) throw std::runtime_error("netlist: malformed gate line");
      if (op == "XOR")
        g.op = GateOp::kXor;
      else if (op == "AND")
        g.op = GateOp::kAnd;
      else if (op == "ANDK")
        g.op = GateOp::kAndKnown;
      else
        throw std::runtime_error("netlist: unknown gate op " + op);
      c.gates.push_back(g);
    } else if (kw == "next") {
      Wire w;
      while (ls >> w) c.state_next.push_back(w);
    } else if (kw == "out") {
      Wire w;
      while (ls >> w) c.outputs.push_back(w);
    } else {
      throw std::runtime_error("netlist: unknown keyword " + kw);
    }
  }
  if (!have_header) throw std::runtime_error("netlist: missing header");
  c.validate();
  return c;
}

Circuit netlist_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_netlist(is);
}

}  // namespace deepsecure
