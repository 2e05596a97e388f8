#include "dacelite/ir.hpp"

#include <algorithm>

namespace dacelite {

namespace {

void add_unique(std::vector<std::string>& out, const std::string& s) {
  if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
}

}  // namespace

std::vector<std::string> State::read_set() const {
  std::vector<std::string> out;
  for (const Node& n : nodes) {
    if (const auto* m = std::get_if<MapNode>(&n)) {
      for (const auto& a : m->reads) add_unique(out, a);
    } else if (const auto* lib = std::get_if<LibraryNode>(&n)) {
      // Sends read their source array.
      if ((lib->kind == LibKind::kMpiIsend ||
           lib->kind == LibKind::kNvshmemPutmemSignal) &&
          !lib->array.empty()) {
        add_unique(out, lib->array);
      }
    }
  }
  return out;
}

std::vector<std::string> State::write_set() const {
  std::vector<std::string> out;
  for (const Node& n : nodes) {
    if (const auto* m = std::get_if<MapNode>(&n)) {
      for (const auto& a : m->writes) add_unique(out, a);
    } else if (const auto* lib = std::get_if<LibraryNode>(&n)) {
      // Remote-memory writes land in the peer's instance of the array; for
      // dependency purposes within the SPMD program the array is written.
      if ((lib->kind == LibKind::kMpiIsend ||
           lib->kind == LibKind::kNvshmemPutmemSignal) &&
          !lib->array.empty()) {
        add_unique(out, lib->array);
      }
    }
  }
  return out;
}

void Sdfg::validate() const {
  auto check_array = [this](const std::string& a, const std::string& where) {
    if (a.empty()) return;
    if (!arrays.contains(a)) {
      throw ValidationError("unknown array '" + a + "' in " + where);
    }
  };
  if (default_iterations < 1) {
    throw ValidationError("default_iterations must be >= 1, got " +
                          std::to_string(default_iterations));
  }
  for (const State& st : body) {
    for (const Node& n : st.nodes) {
      if (const auto* m = std::get_if<MapNode>(&n)) {
        for (const auto& a : m->reads) check_array(a, st.name);
        for (const auto& a : m->writes) check_array(a, st.name);
        if (persistent && m->schedule != Schedule::kGpuDevice) {
          throw ValidationError("persistent SDFG contains a non-GPU map: " +
                                m->name);
        }
      } else if (const auto* lib = std::get_if<LibraryNode>(&n)) {
        check_array(lib->array, st.name);
        if (is_nvshmem(lib->kind) && !lib->array.empty()) {
          const Storage s = arrays.at(lib->array).storage;
          if (s != Storage::kGpuNvshmem) {
            throw ValidationError(
                "NVSHMEM node touches non-symmetric array '" + lib->array +
                "' (storage " + storage_name(s) +
                "); run the NVSHMEMArray transformation");
          }
        }
      }
    }
  }
  if (persistent && !gpu) {
    throw ValidationError("persistent SDFG must be GPU-transformed first");
  }
  if (persistent && barrier_after.size() != body.size()) {
    throw ValidationError("persistent SDFG missing barrier placement");
  }
}

}  // namespace dacelite
