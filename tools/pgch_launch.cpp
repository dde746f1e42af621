// pgch_launch: run any example or bench binary as a multi-process worker
// team (docs/transport.md).
//
// The driver spawns N copies of the given command, one per rank, with the
// PGCH_* launch environment set (launch_config.hpp): PGCH_TRANSPORT=tcp,
// PGCH_RANK=r, PGCH_WORLD=N, PGCH_PORT_BASE, and optionally PGCH_HOSTS.
// Inside each process, core::launch() reads that environment, connects
// the socket mesh and runs only its own rank — so binaries written for
// the in-process simulator become distributed without a code change.
//
// Usage:
//   pgch_launch -n N [--transport tcp|inprocess] [--port-base P]
//               [--hosts h0[:p0],h1[:p1],...] [--max-restarts R]
//               [--checkpoint-dir D] [--checkpoint-every K]
//               [--print-only] -- command [args...]
//
//   pgch_launch -n 2 --transport tcp -- ./example_quickstart 2000 2
//
// --hosts names where each rank LISTENS; for a multi-host run, start the
// printed per-rank command on its own machine instead of letting this
// driver fork it (the driver always forks locally). --print-only prints
// the per-rank command lines and exits — the copy-paste recipe for
// multi-host runs.
//
// With --max-restarts R the driver is a supervisor (docs/
// fault_tolerance.md): when a rank dies it is respawned up to R times
// with PGCH_RESUME set (the committed epoch from the checkpoint dir's
// LATEST marker when --checkpoint-dir is given, else "auto"), and every
// rank runs with PGCH_RECOVERY_ATTEMPTS=R so survivors rejoin the mesh
// instead of exiting on the broken connection. PGCH_FAULT is cleared for
// respawned ranks — an injected fault fires once, not on every
// incarnation. Without restarts (the default), the first failure tears
// the team down and the failed rank's exit code becomes the driver's.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "runtime/env.hpp"

namespace {

struct Options {
  int world = 2;
  std::string transport = "tcp";
  int port_base = 29500;
  std::string hosts;  // comma-separated, may be empty
  bool print_only = false;
  int max_restarts = 0;         // respawn budget across all ranks
  std::string checkpoint_dir;   // PGCH_CHECKPOINT_DIR, may be empty
  int checkpoint_every = 0;     // PGCH_CHECKPOINT_EVERY when > 0
  std::vector<char*> command;
};

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "pgch_launch: %s\n", error);
  std::fprintf(stderr,
               "usage: %s -n N [--transport tcp|inprocess] [--port-base P]\n"
               "       [--hosts h0[:p0],h1[:p1],...] [--max-restarts R]\n"
               "       [--checkpoint-dir D] [--checkpoint-every K] "
               "[--print-only] -- command [args...]\n",
               argv0);
  std::exit(error != nullptr ? 2 : 0);
}

Options parse(int argc, char** argv) {
  Options opts;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
      return argv[++i];
    };
    // Integer flags are strict: "--checkpoint-every x" must not quietly
    // become 0 and turn checkpointing off.
    auto int_value = [&]() -> int {
      const char* text = value();
      try {
        return pregel::runtime::parse_int(arg, text);
      } catch (const std::invalid_argument& e) {
        usage(argv[0], e.what());
      }
    };
    if (arg == "--") {
      ++i;
      break;
    } else if (arg == "-n" || arg == "--np" || arg == "--world") {
      opts.world = int_value();
    } else if (arg == "--transport") {
      opts.transport = value();
    } else if (arg == "--port-base") {
      opts.port_base = int_value();
    } else if (arg == "--hosts") {
      opts.hosts = value();
    } else if (arg == "--max-restarts") {
      opts.max_restarts = int_value();
    } else if (arg == "--checkpoint-dir") {
      opts.checkpoint_dir = value();
    } else if (arg == "--checkpoint-every") {
      opts.checkpoint_every = int_value();
    } else if (arg == "--print-only") {
      opts.print_only = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
    } else {
      usage(argv[0], ("unknown option " + arg).c_str());
    }
  }
  for (; i < argc; ++i) opts.command.push_back(argv[i]);
  if (opts.command.empty()) usage(argv[0], "no command after --");
  if (opts.world <= 0) usage(argv[0], "-n must be >= 1");
  if (opts.max_restarts < 0) usage(argv[0], "--max-restarts must be >= 0");
  if (opts.transport != "tcp" && opts.transport != "inprocess") {
    usage(argv[0], "--transport must be tcp or inprocess");
  }
  return opts;
}

/// The env assignments rank `rank` runs under, as a printable prefix.
std::string env_prefix(const Options& opts, int rank) {
  std::string s = "PGCH_TRANSPORT=" + opts.transport +
                  " PGCH_WORLD=" + std::to_string(opts.world);
  if (opts.transport == "tcp") {
    s += " PGCH_RANK=" + std::to_string(rank);
    s += " PGCH_PORT_BASE=" + std::to_string(opts.port_base);
    if (!opts.hosts.empty()) s += " PGCH_HOSTS=" + opts.hosts;
  }
  if (!opts.checkpoint_dir.empty()) {
    s += " PGCH_CHECKPOINT_DIR=" + opts.checkpoint_dir;
  }
  if (opts.checkpoint_every > 0) {
    s += " PGCH_CHECKPOINT_EVERY=" + std::to_string(opts.checkpoint_every);
  }
  if (opts.max_restarts > 0) {
    s += " PGCH_RECOVERY_ATTEMPTS=" + std::to_string(opts.max_restarts);
  }
  return s;
}

void print_commands(const Options& opts, int ranks) {
  for (int r = 0; r < ranks; ++r) {
    std::string line = env_prefix(opts, r);
    for (const char* part : opts.command) {
      line += ' ';
      line += part;
    }
    std::fprintf(stderr, "[pgch_launch] rank %d: %s\n", r, line.c_str());
  }
}

}  // namespace

#ifdef _WIN32

int main() {
  std::fprintf(stderr, "pgch_launch: process spawning requires POSIX\n");
  return 1;
}

#else

/// The PGCH_RESUME value for a respawned rank: the committed epoch from
/// the checkpoint dir's LATEST marker when we know the dir, else "auto"
/// (the rank walks its own checkpoint files and the team agrees on the
/// newest epoch everyone holds).
std::string resume_value(const Options& opts) {
  if (!opts.checkpoint_dir.empty()) {
    const std::string marker = opts.checkpoint_dir + "/LATEST";
    if (std::FILE* f = std::fopen(marker.c_str(), "rb")) {
      long long epoch = -1;
      const int n = std::fscanf(f, "%lld", &epoch);
      std::fclose(f);
      if (n == 1 && epoch > 0) return std::to_string(epoch);
    }
  }
  return "auto";
}

/// Fork rank `r`. `resume` marks a respawn after a failure: the child
/// resumes from the last committed checkpoint, and any injected fault is
/// cleared so it does not fire again in the new incarnation.
pid_t spawn_rank(const Options& opts, int r, bool resume) {
  const pid_t pid = fork();
  if (pid == 0) {
    // Own process group, so teardown reaches the rank's descendants
    // too (e.g. a wrapper shell's children).
    setpgid(0, 0);
    setenv("PGCH_TRANSPORT", opts.transport.c_str(), 1);
    setenv("PGCH_WORLD", std::to_string(opts.world).c_str(), 1);
    if (opts.transport == "tcp") {
      setenv("PGCH_RANK", std::to_string(r).c_str(), 1);
      setenv("PGCH_PORT_BASE", std::to_string(opts.port_base).c_str(), 1);
      if (!opts.hosts.empty()) setenv("PGCH_HOSTS", opts.hosts.c_str(), 1);
    }
    if (!opts.checkpoint_dir.empty()) {
      setenv("PGCH_CHECKPOINT_DIR", opts.checkpoint_dir.c_str(), 1);
    }
    if (opts.checkpoint_every > 0) {
      setenv("PGCH_CHECKPOINT_EVERY",
             std::to_string(opts.checkpoint_every).c_str(), 1);
    }
    if (opts.max_restarts > 0) {
      setenv("PGCH_RECOVERY_ATTEMPTS",
             std::to_string(opts.max_restarts).c_str(), 1);
    }
    if (resume) {
      setenv("PGCH_RESUME", resume_value(opts).c_str(), 1);
      unsetenv("PGCH_FAULT");
    }
    std::vector<char*> args = opts.command;
    args.push_back(nullptr);
    execvp(args[0], args.data());
    std::fprintf(stderr, "pgch_launch: exec %s: %s\n", args[0],
                 std::strerror(errno));
    _exit(127);
  }
  if (pid > 0) setpgid(pid, pid);  // mirror the child's call; one wins
  return pid;
}

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  // In-process mode needs no peers: one child, worker threads inside it.
  const int ranks = opts.transport == "tcp" ? opts.world : 1;
  print_commands(opts, ranks);
  if (opts.print_only) return 0;

  // children[r] is rank r's live pid, or -1 once reaped.
  std::vector<pid_t> children(static_cast<std::size_t>(ranks), -1);
  for (int r = 0; r < ranks; ++r) {
    const pid_t pid = spawn_rank(opts, r, /*resume=*/false);
    if (pid < 0) {
      std::perror("pgch_launch: fork");
      for (const pid_t c : children) {
        if (c > 0) kill(c, SIGTERM);
      }
      return 1;
    }
    children[static_cast<std::size_t>(r)] = pid;
  }

  // Supervise the team. A clean exit retires its rank; a failure either
  // consumes a restart (the rank respawns and resumes from the last
  // committed checkpoint while survivors rejoin the mesh in-process) or
  // tears the rest down (a vanished peer would otherwise leave survivors
  // blocked in a collective). Reaped ranks are dropped from the list
  // first — their pids may already belong to someone else.
  int exit_code = 0;
  int restarts_left = opts.max_restarts;
  std::size_t running = children.size();
  while (running > 0) {
    int status = 0;
    const pid_t pid = wait(&status);
    if (pid < 0) break;
    int rank = -1;
    for (std::size_t r = 0; r < children.size(); ++r) {
      if (children[r] == pid) {
        children[r] = -1;
        rank = static_cast<int>(r);
      }
    }
    if (rank < 0) continue;  // not ours (reparented grandchild)
    const bool failed = !WIFEXITED(status) || WEXITSTATUS(status) != 0;
    if (!failed) {
      --running;
      continue;
    }
    const int code =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    if (WIFSIGNALED(status)) {
      std::fprintf(stderr, "pgch_launch: rank %d killed by signal %d (%s)\n",
                   rank, WTERMSIG(status), strsignal(WTERMSIG(status)));
    } else {
      std::fprintf(stderr, "pgch_launch: rank %d exited with code %d\n",
                   rank, WEXITSTATUS(status));
    }
    if (exit_code == 0 && restarts_left > 0) {
      --restarts_left;
      std::fprintf(stderr,
                   "pgch_launch: respawning rank %d (PGCH_RESUME=%s, "
                   "%d restart(s) left)\n",
                   rank, resume_value(opts).c_str(), restarts_left);
      const pid_t respawned = spawn_rank(opts, rank, /*resume=*/true);
      if (respawned > 0) {
        children[static_cast<std::size_t>(rank)] = respawned;
        continue;  // running count unchanged: the rank lives again
      }
      std::perror("pgch_launch: fork (respawn)");
    }
    if (exit_code == 0) {
      exit_code = code;
      for (const pid_t c : children) {
        if (c > 0) kill(-c, SIGTERM);  // the rank's whole process group
      }
    }
    --running;
  }
  if (exit_code != 0) {
    std::fprintf(stderr, "pgch_launch: a rank failed (exit %d)\n", exit_code);
  }
  return exit_code;
}

#endif
