#pragma once
// LaunchConfig: how launch() maps the worker team onto hardware
// (DESIGN.md section 7).
//
// Default (kInProcess): one process, one thread per rank, buffer exchange
// is the matrix swap — the original simulator substrate. kTcp: THIS
// process is exactly one rank of a multi-process team; peers are separate
// processes (same host or not) reached over persistent sockets.
//
// The environment form is what tools/pgch_launch sets for each process it
// spawns, so any existing example or bench becomes distributed without a
// code change:
//
//   PGCH_TRANSPORT  "tcp" (anything else / unset = in-process)
//   PGCH_RANK       this process's rank, 0-based
//   PGCH_WORLD      team size (must equal the partition's worker count)
//   PGCH_PORT_BASE  rank r listens on port PGCH_PORT_BASE + r (default
//                   29500)
//   PGCH_HOSTS      optional comma-separated per-rank "host[:port]" list
//                   for multi-host runs; missing entries default to
//                   127.0.0.1:PGCH_PORT_BASE+r

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/env.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/transport.hpp"

namespace pregel::core {

/// Deterministic fault injection (DESIGN.md section 12): the harness that
/// makes every failure mode of the fault-tolerance stack reproducible in
/// ctest. Parsed from
///
///   PGCH_FAULT=rank=<r>,superstep=<s>,kind=exit|hang|corrupt
///
/// and triggered by EngineBase at the START of superstep <s> on rank <r>
/// only — before that superstep's compute, after the previous superstep's
/// checkpoint, so the last committed epoch is exactly what the superstep
/// numbering implies.
///
///   exit     _Exit(kExitCode) without unwinding — a hard crash. Peers see
///            the socket close and surface a TransportError.
///   hang     stop making progress (interruptible sleep) without dying —
///            a wedged rank. Peers' PGCH_IO_TIMEOUT_MS silence deadline
///            surfaces the TransportError; the supervisor's teardown
///            SIGTERM reaps the sleeper.
///   corrupt  flip a byte in this rank's newest checkpoint file, then
///            _Exit — recovery must reject the damaged epoch and fall
///            back to the previous committed one.
struct FaultSpec {
  enum class Kind { kNone, kExit, kHang, kCorrupt };

  /// Exit status of an injected exit/corrupt fault — recognizably ours,
  /// so pgch_launch tests can assert the propagated code.
  static constexpr int kExitCode = 43;

  int rank = -1;
  int superstep = -1;
  Kind kind = Kind::kNone;

  [[nodiscard]] bool enabled() const noexcept { return kind != Kind::kNone; }
  [[nodiscard]] bool matches(int r, int step) const noexcept {
    return enabled() && r == rank && step == superstep;
  }

  /// PGCH_FAULT; unset or empty = no fault. Malformed values throw — a
  /// fault spec that silently parses to "no fault" would make a failure
  /// test vacuously pass.
  static FaultSpec from_env() {
    const char* text = std::getenv("PGCH_FAULT");
    if (text == nullptr || text[0] == '\0') return {};
    return parse(text);
  }

  static FaultSpec parse(const std::string& text) {
    FaultSpec spec;
    std::string key, value;
    bool in_value = false;
    const auto apply = [&spec](const std::string& k, const std::string& v) {
      if (k == "rank") {
        spec.rank = runtime::parse_int("PGCH_FAULT rank", v.c_str());
      } else if (k == "superstep") {
        spec.superstep =
            runtime::parse_int("PGCH_FAULT superstep", v.c_str());
      } else if (k == "kind") {
        if (v == "exit") {
          spec.kind = Kind::kExit;
        } else if (v == "hang") {
          spec.kind = Kind::kHang;
        } else if (v == "corrupt") {
          spec.kind = Kind::kCorrupt;
        } else {
          throw std::invalid_argument(
              "PGCH_FAULT: kind must be exit|hang|corrupt, got '" + v + "'");
        }
      } else {
        throw std::invalid_argument("PGCH_FAULT: unknown key '" + k + "'");
      }
    };
    for (const char* c = text.c_str();; ++c) {
      if (*c == ',' || *c == '\0') {
        if (!in_value || key.empty()) {
          throw std::invalid_argument(
              "PGCH_FAULT: expected rank=<r>,superstep=<s>,kind=<k>, got '" +
              text + "'");
        }
        apply(key, value);
        key.clear();
        value.clear();
        in_value = false;
        if (*c == '\0') break;
      } else if (*c == '=' && !in_value) {
        in_value = true;
      } else {
        (in_value ? value : key) += *c;
      }
    }
    if (spec.kind == Kind::kNone || spec.rank < 0 || spec.superstep < 1) {
      throw std::invalid_argument(
          "PGCH_FAULT: needs rank>=0, superstep>=1 and a kind, got '" + text +
          "'");
    }
    return spec;
  }
};

struct LaunchConfig {
  runtime::TransportKind transport = runtime::TransportKind::kInProcess;
  int rank = 0;        ///< this process's rank (kTcp only)
  int world_size = 0;  ///< 0 = take the partition's worker count
  int port_base = 29500;
  /// Per-rank "host[:port]" endpoints; empty or short = loopback defaults.
  std::vector<std::string> hosts;
  double connect_timeout_s = 30.0;
  /// How many times launch() rejoins the team after a TransportError
  /// (PGCH_RECOVERY_ATTEMPTS, default 0 = fail fast). Each retry tears
  /// the transport down, re-runs the mesh handshake, and restores the
  /// last committed checkpoint epoch the surviving team agrees on.
  int recovery_attempts = 0;

  /// The PGCH_* environment form above; unset variables leave defaults.
  static LaunchConfig from_env() {
    LaunchConfig cfg;
    if (const char* t = std::getenv("PGCH_TRANSPORT")) {
      const std::string kind(t);
      if (kind == "tcp") {
        cfg.transport = runtime::TransportKind::kTcp;
      } else if (kind != "inprocess" && !kind.empty()) {
        throw std::invalid_argument(
            "PGCH_TRANSPORT must be 'tcp' or 'inprocess', got '" + kind +
            "'");
      }
    }
    cfg.rank = runtime::env_int("PGCH_RANK", cfg.rank);
    cfg.world_size = runtime::env_int("PGCH_WORLD", cfg.world_size);
    cfg.port_base = runtime::env_int("PGCH_PORT_BASE", cfg.port_base);
    const int timeout_ms = runtime::env_int("PGCH_CONNECT_TIMEOUT_MS", 0);
    if (timeout_ms > 0) cfg.connect_timeout_s = timeout_ms / 1000.0;
    cfg.recovery_attempts = runtime::env_int("PGCH_RECOVERY_ATTEMPTS", 0, 0);
    if (const char* h = std::getenv("PGCH_HOSTS")) {
      std::string entry;
      for (const char* c = h;; ++c) {
        if (*c == ',' || *c == '\0') {
          cfg.hosts.push_back(entry);
          entry.clear();
          if (*c == '\0') break;
        } else {
          entry += *c;
        }
      }
    }
    return cfg;
  }

  /// Rank `r`'s listen endpoint under this config: the hosts entry when
  /// present, else loopback at port_base + r. Entry forms: "host",
  /// "host:port", and for IPv6 literals "addr" or "[addr]:port" (a bare
  /// literal with multiple colons is taken as all-host; brackets are
  /// required to attach a port to one).
  [[nodiscard]] runtime::TcpEndpoint endpoint_of(int r) const {
    const int default_port = port_base + r;
    if (default_port <= 0 || default_port > 65535) {
      throw std::invalid_argument(
          "PGCH_PORT_BASE: rank " + std::to_string(r) +
          "'s port " + std::to_string(default_port) +
          " is outside 1..65535");
    }
    runtime::TcpEndpoint ep;
    ep.port = static_cast<std::uint16_t>(default_port);
    // An explicit port is a whole number in 1..65535: "h:", "h:abc" and
    // "h:70000" throw instead of becoming some other port.
    const auto explicit_port = [](const std::string& entry,
                                  const char* text) {
      const int port =
          runtime::parse_int("PGCH_HOSTS port of \"" + entry + "\"", text);
      if (port < 1 || port > 65535) {
        throw std::invalid_argument("PGCH_HOSTS port of \"" + entry +
                                    "\" is outside 1..65535");
      }
      return static_cast<std::uint16_t>(port);
    };
    if (static_cast<std::size_t>(r) >= hosts.size() ||
        hosts[static_cast<std::size_t>(r)].empty()) {
      return ep;
    }
    const std::string& entry = hosts[static_cast<std::size_t>(r)];
    if (entry.front() == '[') {
      const std::size_t close = entry.find(']');
      if (close == std::string::npos) {
        throw std::invalid_argument("PGCH_HOSTS: unterminated '[' in \"" +
                                    entry + "\"");
      }
      ep.host = entry.substr(1, close - 1);
      if (close + 1 < entry.size()) {
        if (entry[close + 1] != ':') {
          throw std::invalid_argument(
              "PGCH_HOSTS: expected ':' after ']' in \"" + entry + "\"");
        }
        ep.port = explicit_port(entry, entry.c_str() + close + 2);
      }
      return ep;
    }
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || entry.find(':', colon + 1) !=
                                          std::string::npos) {
      ep.host = entry;  // no port, or an unbracketed IPv6 literal
    } else {
      ep.host = entry.substr(0, colon);
      ep.port = explicit_port(entry, entry.c_str() + colon + 1);
    }
    return ep;
  }
};

}  // namespace pregel::core
