// fabbench — the load generator behind perfbench/run.py.
//
//   fabbench run    --brickd PATH --dir DIR --ops FILE [options]
//   fabbench replay --dir DIR --spans FILE [options]    (see replay.cc)
//   fabbench geometry                                   (n, m, block size, volume)
//
// `run` boots n brickd processes (RS n=8, m=5, 4 KiB blocks), preloads the
// volume through fab::VolumeClient, restarts the bricks, warms up, and then
// drives a closed loop of the ops it was handed for a fixed number of
// seconds. Every run checks its own outputs: the warm-up reads back
// preloaded blocks, every per-block history goes through the
// strict-linearizability oracle and every brick store through fsck.
// Everything is measured from outside the library: wall clock per op, the
// clients' public stats, /proc of each brickd and the bricks' farewell lines.
// The result is one JSON object on stdout; run.py derives the metrics.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/persistence.h"
#include "fab/layout.h"
#include "fab/volume_client.h"
#include "gf/kernels.h"
#include "hist/history.h"
#include "runtime/brick_config.h"
#include "storage/env.h"
#include "geometry.h"

int run_replay(int argc, char** argv);  // replay.cc

namespace {

using fabec::Block;
using fabec::Lba;
using fabec::ProcessId;
using fabec::hist::ValueId;
using fabbench::kBlockSize;
using fabbench::kM;
using fabbench::kN;
using fabbench::now_ns;

/// Writer id of the preload; load threads write as 1 + thread index.
constexpr std::uint32_t kPreloadWriter = 0;

std::int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

struct Args {
  std::string brickd;
  std::string dir;
  std::string ops;
  std::string spans;  ///< trace mode: per-op span CSV
  double seconds = 10;
  std::uint32_t setups = 3;
  std::uint32_t clients = 2;  ///< VolumeClients; thread t uses t % clients
  std::uint64_t volume_blocks = fabbench::kVolumeBlocks;
  bool read_cache = false;
  int kill_brick = -1;                  ///< -1 = every brick stays up
  bool trace = false;
  bool plant_fault = false;
  std::uint64_t seed = 1;
};

/// Client settings, as tools/cluster uses them.
constexpr std::int64_t kOpDeadlineMs = 2000;
constexpr std::uint32_t kRetryAttempts = 8;

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "fabbench: %s needs a value\n", k.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (k == "--brickd") a->brickd = v;
    else if (k == "--dir") a->dir = v;
    else if (k == "--ops") a->ops = v;
    else if (k == "--spans") a->spans = v;
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--setups") a->setups = std::atoi(v);
    else if (k == "--clients") a->clients = std::atoi(v);
    else if (k == "--volume-blocks") a->volume_blocks = std::atoll(v);
    else if (k == "--read-cache") a->read_cache = std::atoi(v) != 0;
    else if (k == "--kill-brick") a->kill_brick = std::atoi(v);
    else if (k == "--trace") a->trace = std::atoi(v) != 0;
    else if (k == "--plant-fault") a->plant_fault = std::atoi(v) != 0;
    else if (k == "--seed") a->seed = std::atoll(v);
    else {
      std::fprintf(stderr, "fabbench: unknown flag %s\n", k.c_str());
      return false;
    }
  }
  if (a->brickd.empty() || a->dir.empty() || a->ops.empty() ||
      a->seconds <= 0 || a->setups == 0 || a->clients == 0 ||
      a->volume_blocks == 0 || a->volume_blocks % kM != 0 ||
      a->kill_brick >= static_cast<int>(kN)) {
    std::fprintf(stderr, "fabbench: missing or invalid run arguments\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Inputs: the ops file run.py generates from the seed.
//   u32 stream count S, then S streams of [u32 count][count x u32 op];
//   op bit 31 = write, low 31 bits = lba. Streams 0..S-2 belong to the load
//   threads; the last stream lists the lbas the warm-up reads back.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kWriteBit = 1u << 31;

std::optional<std::vector<std::vector<std::uint32_t>>> load_ops(
    const std::string& path, std::uint64_t volume_blocks) {
  std::ifstream in(path, std::ios::binary);
  auto read_u32 = [&in](std::uint32_t* v) {
    unsigned char b[4];
    if (!in.read(reinterpret_cast<char*>(b), 4)) return false;
    *v = b[0] | b[1] << 8 | b[2] << 16 | static_cast<std::uint32_t>(b[3]) << 24;
    return true;
  };
  std::uint32_t streams = 0;
  if (!read_u32(&streams) || streams < 2 || streams > 1024) return std::nullopt;
  std::vector<std::vector<std::uint32_t>> out(streams);
  for (auto& stream : out) {
    std::uint32_t count = 0;
    if (!read_u32(&count) || count == 0 || count > (1u << 26))
      return std::nullopt;
    stream.resize(count);
    for (auto& op : stream) {
      if (!read_u32(&op) || (op & ~kWriteBit) >= volume_blocks)
        return std::nullopt;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Values: unique per write (Appendix B's assumption), self-describing so the
// oracle needs no table of 4 KiB blocks: counter in bytes 0..7, writer in
// bytes 8..11, a writer-derived fill after.
// ---------------------------------------------------------------------------

std::uint8_t fill_of(std::uint32_t writer) {
  return static_cast<std::uint8_t>(0xA0 + writer % 0x5F);
}

Block make_value(std::uint32_t writer, std::uint64_t counter) {
  Block b(kBlockSize, fill_of(writer));
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(counter >> (8 * i));
  for (int i = 0; i < 4; ++i)
    b[8 + i] = static_cast<std::uint8_t>(writer >> (8 * i));
  return b;
}

ValueId value_id(std::uint32_t writer, std::uint64_t counter) {
  return static_cast<ValueId>(writer) << 40 | counter;
}

/// The value id a read returned; nullopt for a block no writer produced.
std::optional<ValueId> decode_value(const Block& b) {
  if (b.size() != kBlockSize) return std::nullopt;
  if (std::all_of(b.begin(), b.end(), [](std::uint8_t x) { return x == 0; }))
    return fabec::hist::kNil;
  std::uint64_t counter = 0;
  std::uint32_t writer = 0;
  for (int i = 0; i < 8; ++i) counter |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  for (int i = 0; i < 4; ++i) writer |= static_cast<std::uint32_t>(b[8 + i]) << (8 * i);
  const std::uint8_t fill = fill_of(writer);
  if (counter == 0 || counter >= (1ull << 40) ||
      !std::all_of(b.begin() + 12, b.end(),
                   [fill](std::uint8_t x) { return x == fill; }))
    return std::nullopt;
  return value_id(writer, counter);
}

// ---------------------------------------------------------------------------
// Per-block histories for the oracle (the tools/cluster Recorder pattern).
// ---------------------------------------------------------------------------

class Recorder {
 public:
  using Ref = fabec::hist::History::OpRef;
  explicit Recorder(std::uint64_t blocks) : histories_(blocks) {}

  Ref begin_write(Lba lba, ValueId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    return histories_[lba].begin_write(id, ++seq_);
  }
  Ref begin_read(Lba lba) {
    std::lock_guard<std::mutex> lock(mutex_);
    return histories_[lba].begin_read(++seq_);
  }
  void end_write(Lba lba, Ref ref, bool ok) {
    std::lock_guard<std::mutex> lock(mutex_);
    histories_[lba].end_write(ref, ++seq_, ok);
  }
  /// A read that returned a block no writer produced is recorded as ⊥ and
  /// counted as garbage: the oracle cannot reason about it, the run fails.
  void end_read(Lba lba, Ref ref, std::optional<ValueId> value) {
    std::lock_guard<std::mutex> lock(mutex_);
    histories_[lba].end_read(ref, ++seq_, value);
  }

  struct Violation {
    Lba lba;
    std::string detail;
  };
  std::vector<Violation> check() const {
    std::vector<Violation> out;
    for (Lba lba = 0; lba < histories_.size(); ++lba) {
      if (histories_[lba].operations().size() < 2) continue;
      const auto result =
          fabec::hist::check_strict_linearizability(histories_[lba]);
      if (!result.ok) out.push_back({lba, result.violation});
    }
    return out;
  }

 private:
  std::mutex mutex_;
  std::uint64_t seq_ = 0;
  std::vector<fabec::hist::History> histories_;
};

// ---------------------------------------------------------------------------
// brickd processes.
// ---------------------------------------------------------------------------

struct Brick {
  ProcessId id = 0;
  pid_t pid = -1;
  std::string config_path, log_path, port_file, store;
  std::uint16_t port = 0;
};

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Journal bytes that trigger a brick's compaction in the timed phase:
/// above what one run writes, so a compaction (a whole-store snapshot) never
/// lands in a run at random and swings its write_amp. The preload runs with
/// the brickd default.
constexpr std::uint64_t kTimedCompactThreshold = 1ull << 30;

std::string brick_config_text(const Brick& brick, std::uint16_t port,
                              bool timed) {
  fabec::runtime::BrickConfig config;
  config.brick_id = brick.id;
  config.n = kN;
  config.m = kM;
  config.total_bricks = kN;
  config.block_size = kBlockSize;
  config.listen = {"127.0.0.1", port};
  config.port_file = brick.port_file;
  config.store_path = brick.store;
  if (timed) config.compact_threshold_bytes = kTimedCompactThreshold;
  return config.to_text();
}

/// Pins the calling process to the slot-th allowed CPU (mod their count).
/// A run has about three busy threads per CPU; left to the scheduler, where
/// the bricks land swings throughput by ~20% between runs of identical
/// input. So brick i runs on slot i, as in a one-brick-per-core deployment;
/// the generator's threads stay unpinned.
void pin_to_slot(std::uint32_t slot) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int want = static_cast<int>(slot % std::max(1, CPU_COUNT(&allowed)));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || want-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

pid_t spawn(const std::string& brickd, const Brick& brick) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  pin_to_slot(brick.id);
  const int log = ::open(brick.log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                         0644);
  if (log >= 0) {
    ::dup2(log, 1);
    ::dup2(log, 2);
    ::close(log);
  }
  ::execl(brickd.c_str(), brickd.c_str(), brick.config_path.c_str(),
          static_cast<char*>(nullptr));
  ::_exit(127);
}

/// Writes every config (port 0 = learn it, else pinned), starts every brick
/// not listed in `skip`, and waits for each to publish its port.
bool start_bricks(const std::string& brickd, std::vector<Brick>& bricks,
                  bool timed, std::string* error) {
  for (auto& b : bricks) {
    ::unlink(b.port_file.c_str());
    if (!write_file(b.config_path, brick_config_text(b, b.port, timed))) {
      *error = "cannot write " + b.config_path;
      return false;
    }
    b.pid = spawn(brickd, b);
  }
  const std::int64_t deadline = now_ns() + 20'000'000'000LL;
  for (auto& b : bricks) {
    while (true) {
      std::ifstream in(b.port_file);
      unsigned port = 0;
      if (in >> port && port > 0 && port < 65536) {
        if (b.port == 0) b.port = static_cast<std::uint16_t>(port);
        break;
      }
      int status = 0;
      if (::waitpid(b.pid, &status, WNOHANG) == b.pid) {
        b.pid = -1;
        *error = "brick " + std::to_string(b.id) + " exited during boot: " +
                 read_file(b.log_path);
        return false;
      }
      if (now_ns() > deadline) {
        *error = "brick " + std::to_string(b.id) + " never published a port";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return true;
}

/// SIGTERM every live brick and reap it (SIGKILL after 10 s). Returns the
/// bricks that did not exit cleanly: a brick that crashed while it was
/// supposed to be up fails the run, with its log tail on stderr.
std::vector<ProcessId> stop_bricks(std::vector<Brick>& bricks) {
  std::vector<ProcessId> unclean;
  for (auto& b : bricks)
    if (b.pid > 0) ::kill(b.pid, SIGTERM);
  const std::int64_t deadline = now_ns() + 10'000'000'000LL;
  for (auto& b : bricks) {
    if (b.pid <= 0) continue;
    int status = 0;
    while (::waitpid(b.pid, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(b.pid, SIGKILL);
        ::waitpid(b.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    b.pid = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      unclean.push_back(b.id);
      const std::string log = read_file(b.log_path);
      std::fprintf(stderr, "fabbench: brick %u did not shut down cleanly "
                   "(wait status %d); log tail:\n%s\n", b.id, status,
                   log.substr(log.size() > 2000 ? log.size() - 2000 : 0).c_str());
    }
  }
  return unclean;
}

/// /proc/<pid> counters of one process.
struct ProcSample {
  double cpu_us = 0;
  double ctx_switches = 0;
  double syscw = 0;
  double wchar = 0;
  double write_bytes = 0;
  double hwm_kib = 0;
};

double field_after(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

ProcSample sample_proc(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid) + "/";
  ProcSample s;
  // utime + stime of every thread, in clock ticks: fields 14 and 15 of
  // stat, counted after the parenthesised command name.
  const std::string stat = read_file(base + "stat");
  const auto paren = stat.rfind(')');
  if (paren != std::string::npos) {
    std::istringstream fields(stat.substr(paren + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i)
      if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
    s.cpu_us = ticks * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  const std::string status = read_file(base + "status");
  s.ctx_switches = field_after(status, "\nvoluntary_ctxt_switches:") +
                   field_after(status, "\nnonvoluntary_ctxt_switches:");
  s.hwm_kib = field_after(status, "\nVmHWM:");
  const std::string io = read_file(base + "io");
  s.syscw = field_after(io, "syscw:");
  s.wchar = field_after(io, "wchar:");
  s.write_bytes = field_after(io, "\nwrite_bytes:");
  return s;
}

/// Bytes sent over loopback by every process in this network namespace
/// (/proc/net/dev): the only wire-byte counter visible from outside.
double loopback_tx_bytes() {
  std::istringstream in(read_file("/proc/net/dev"));
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos ||
        line.substr(0, colon).find("lo") == std::string::npos ||
        line.substr(0, colon).find_first_not_of(" lo") != std::string::npos)
      continue;
    std::istringstream fields(line.substr(colon + 1));
    double v[9] = {};
    for (double& x : v) fields >> x;
    return v[8];  // transmit bytes
  }
  return 0;
}

/// CPU time the hypervisor gave to other guests (steal) and all CPU time,
/// in clock ticks, from the first line of /proc/stat. Their ratio over the
/// timed phase tells a run slowed by its host from one slowed by the code.
std::pair<double, double> host_steal_and_total_ticks() {
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  in >> cpu;
  double v[8] = {}, total = 0;
  for (double& x : v) {
    in >> x;
    total += x;
  }
  return {v[7], total};  // user nice system idle iowait irq softirq steal
}

/// The counters brickd prints on SIGTERM (tools/brickd_main.cc).
struct Farewell {
  bool seen = false;
  double requests = 0, appends = 0, duplicates = 0, compactions = 0;
};

Farewell parse_farewell(const std::string& log_path) {
  const std::string log = read_file(log_path);
  Farewell f;
  const auto at = log.rfind("shut down cleanly (");
  if (at == std::string::npos) return f;
  unsigned long long req = 0, app = 0, dup = 0, comp = 0;
  if (std::sscanf(log.c_str() + at,
                  "shut down cleanly (%llu requests, %llu journal appends, "
                  "%llu duplicate replies, %llu compactions",
                  &req, &app, &dup, &comp) == 4) {
    f.seen = true;
    f.requests = static_cast<double>(req);
    f.appends = static_cast<double>(app);
    f.duplicates = static_cast<double>(dup);
    f.compactions = static_cast<double>(comp);
  }
  return f;
}

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

struct Sample {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t lba = 0;
  std::uint16_t attempts = 0;  ///< unset where threads share a client
  bool write = false;
  bool ok = false;
};

struct Cluster {
  std::vector<Brick> bricks;
  std::vector<std::unique_ptr<fabec::fab::VolumeClient>> clients;
  std::unique_ptr<Recorder> recorder;
  std::uint64_t setup_failures = 0;  ///< preload stripes or warm-up reads
  std::uint64_t warmup_ops = 0;
};

fabec::fab::VolumeClientConfig client_config(const Args& a,
                                             const std::vector<Brick>& bricks,
                                             std::uint32_t index) {
  fabec::fab::VolumeClientConfig config;
  config.client_id = kN + index;
  config.n = kN;
  config.m = kM;
  config.total_bricks = kN;
  config.block_size = kBlockSize;
  config.num_blocks = a.volume_blocks;
  for (const auto& b : bricks) config.bricks[b.id] = {"127.0.0.1", b.port};
  config.coordinator.op_deadline = fabec::sim::milliseconds(kOpDeadlineMs);
  config.coordinator.read_cache = a.read_cache;
  config.coordinator.delta_block_writes = true;  // §5.2 Modify-delta writes
  config.retry.max_attempts = kRetryAttempts;
  config.retry.initial_backoff = fabec::sim::milliseconds(2);
  config.retry.max_backoff = fabec::sim::milliseconds(50);
  return config;
}

/// Boot, preload, restart, optionally SIGKILL one brick, warm up. Returns false only when bricks cannot run.
bool set_up(const Args& a, const std::string& dir,
            const std::vector<std::uint32_t>& warmup, Cluster* c,
            std::string* error) {
  ::mkdir(dir.c_str(), 0755);
  c->bricks.assign(kN, Brick{});
  for (std::uint32_t i = 0; i < kN; ++i) {
    Brick& b = c->bricks[i];
    b.id = i;
    const std::string stem = dir + "/brick" + std::to_string(i);
    b.config_path = stem + ".conf";
    b.log_path = stem + ".log";
    b.port_file = stem + ".port";
    b.store = stem;
  }
  if (!start_bricks(a.brickd, c->bricks, false, error)) return false;

  c->recorder = std::make_unique<Recorder>(a.volume_blocks);
  const fabec::fab::VolumeLayout layout(a.volume_blocks, kM,
                                        fabec::fab::Layout::kRotating);
  {
    std::vector<std::unique_ptr<fabec::fab::VolumeClient>> loaders;
    for (std::uint32_t i = 0; i < a.clients; ++i)
      loaders.push_back(std::make_unique<fabec::fab::VolumeClient>(
          client_config(a, c->bricks, 100 + i), a.seed * 7919 + 100 + i));
    std::atomic<std::uint64_t> next{0}, failed{0};
    std::vector<std::thread> threads;
    for (std::uint32_t i = 0; i < a.clients; ++i) {
      threads.emplace_back([&, i] {
        for (std::uint64_t s; (s = next.fetch_add(1)) < layout.num_stripes();) {
          std::vector<Block> data;
          for (std::uint32_t j = 0; j < kM; ++j)
            data.push_back(make_value(kPreloadWriter, layout.lba_of(s, j) + 1));
          bool ok = false;
          for (int attempt = 0; attempt < 3 && !ok; ++attempt)
            ok = loaders[i]->write_stripe(s, data);
          if (!ok) {
            failed.fetch_add(1);
            std::fprintf(stderr, "fabbench: preload of stripe %" PRIu64
                         " failed 3 times\n", s);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    c->setup_failures += failed.load();
  }
  // Preloaded values precede every later op in each block's history.
  for (Lba lba = 0; lba < a.volume_blocks; ++lba) {
    const auto ref = c->recorder->begin_write(lba, value_id(kPreloadWriter, lba + 1));
    c->recorder->end_write(lba, ref, true);
  }

  // Restart: the brick counters (farewell line, /proc) then cover only the
  // warm-up and the timed phase.
  c->setup_failures += stop_bricks(c->bricks).size();
  if (!start_bricks(a.brickd, c->bricks, true, error)) return false;
  for (std::uint32_t i = 0; i < a.clients; ++i)
    c->clients.push_back(std::make_unique<fabec::fab::VolumeClient>(
        client_config(a, c->bricks, i), a.seed * 7919 + i));
  if (a.kill_brick >= 0) {
    Brick& victim = c->bricks[a.kill_brick];
    ::kill(victim.pid, SIGKILL);
    int status = 0;
    ::waitpid(victim.pid, &status, 0);
    victim.pid = -1;
  }

  // Warm-up: read back preloaded blocks (content checked here and by the
  // oracle); with the cache on this also fills it, and with a brick down it
  // teaches every coordinator's suspicion map.
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    const Lba lba = warmup[i];
    auto& client = *c->clients[i % c->clients.size()];
    const auto ref = c->recorder->begin_read(lba);
    const auto outcome = client.read(lba);
    std::optional<ValueId> value;
    if (outcome.ok()) value = decode_value(outcome.value());
    c->recorder->end_read(lba, ref, value);
    if (!value || *value != value_id(kPreloadWriter, lba + 1)) {
      ++c->setup_failures;
      std::fprintf(stderr, "fabbench: warm-up read of lba %" PRIu64 " %s\n",
                   static_cast<std::uint64_t>(lba),
                   !outcome.ok() ? "failed"
                   : value       ? "returned another value"
                                 : "returned a block no writer produced");
    }
    ++c->warmup_ops;
  }
  return true;
}

/// Returns the number of bricks that did not shut down cleanly.
std::size_t tear_down(Cluster* c) {
  for (auto& client : c->clients) client->close();
  c->clients.clear();
  return stop_bricks(c->bricks).size();
}

double percentile_us(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(p / 100.0 * v.size());
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]) / 1e3;
}

struct Chunk {
  double p50_us, p99_us;
  std::int64_t first_end_ns, last_end_ns;
};

/// (p50, p99) of each of up to `max_chunks` equal chunks of consecutive
/// completions (`seq` holds (end_ns, latency_ns)), with the span of end
/// times each covers. Chunks hold at least 1000 samples, so each chunk's
/// p99 has ten samples beyond it. No samples give one chunk of zeros.
std::vector<Chunk> chunk_percentiles(
    std::vector<std::pair<std::int64_t, std::int64_t>>& seq,
    std::size_t max_chunks) {
  constexpr std::size_t kMinChunk = 1000;
  if (seq.empty()) return {Chunk{0, 0, 0, 0}};
  std::sort(seq.begin(), seq.end());
  const std::size_t chunks =
      std::clamp<std::size_t>(seq.size() / kMinChunk, 1, max_chunks);
  std::vector<Chunk> out;
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t lo = i * seq.size() / chunks;
    const std::size_t hi = (i + 1) * seq.size() / chunks;
    std::vector<std::int64_t> lat;
    for (std::size_t j = lo; j < hi; ++j) lat.push_back(seq[j].second);
    out.push_back({percentile_us(lat, 50), percentile_us(lat, 99),
                   seq[lo].first, seq[hi - 1].first});
  }
  return out;
}

/// Trace mode alternates untraced and traced slots of the timed phase, so
/// the two sets see the same drift and their difference is the tracing
/// overhead.
constexpr std::int64_t kTraceSlotNs = 500'000'000;
bool traced_slot(std::int64_t since_t0_ns) {
  return since_t0_ns / kTraceSlotNs % 2 == 1;
}

/// End-to-end figures are medians over parts of the timed phase about this
/// long (see chunk_percentiles and the windows in the result).
constexpr double kWindowS = 1.0;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Flips one byte in the middle of the newest journal segment of `store`.
bool plant_fault(const std::string& store) {
  auto& env = fabec::storage::Env::real();
  std::string newest;
  std::uint64_t best = 0;
  for (const auto& name : env.list_dir(store)) {
    if (name.rfind("journal.", 0) != 0) continue;
    const std::uint64_t seq = std::strtoull(name.c_str() + 8, nullptr, 10);
    if (newest.empty() || seq > best) {
      best = seq;
      newest = name;
    }
  }
  if (newest.empty()) return false;
  const std::string path = store + "/" + newest;
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return false;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0 && st.st_size > 64;
  if (ok) {
    const off_t at = st.st_size / 2;
    unsigned char byte = 0;
    ok = ::pread(fd, &byte, 1, at) == 1;
    byte ^= 0x5A;
    ok = ok && ::pwrite(fd, &byte, 1, at) == 1;
  }
  ::close(fd);
  return ok;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out;
}

int run(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) return 2;
  const auto ops = load_ops(a.ops, a.volume_blocks);
  if (!ops) {
    std::fprintf(stderr, "fabbench: unreadable ops file %s\n", a.ops.c_str());
    return 2;
  }
  const auto& warmup = ops->back();
  const std::uint32_t threads = static_cast<std::uint32_t>(ops->size() - 1);
  ::signal(SIGPIPE, SIG_IGN);
  ::mkdir(a.dir.c_str(), 0755);

  // --- set-up, repeated so its time is a median ------------------------------
  std::vector<double> setup_s;
  std::uint64_t setup_failures = 0;  ///< of the set-ups before the last
  Cluster c;
  std::string error;
  for (std::uint32_t i = 0; i < a.setups; ++i) {
    const std::string dir = a.dir + "/setup" + std::to_string(i);
    const std::int64_t t = now_ns();
    c = Cluster{};
    if (!set_up(a, dir, warmup, &c, &error)) {
      std::fprintf(stderr, "fabbench: %s\n", error.c_str());
      tear_down(&c);
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
    if (i + 1 < a.setups) {
      setup_failures += tear_down(&c) + c.setup_failures;
      std::filesystem::remove_all(dir);
    }
  }

  // --- timed phase -------------------------------------------------------------
  // Write back what the set-ups left dirty, so the kernel's flushing of it
  // does not overlap the timed phase by chance.
  if (const int fd = ::open(a.dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  std::vector<ProcSample> before(kN);
  for (const auto& b : c.bricks)
    if (b.pid > 0) before[b.id] = sample_proc(b.pid);
  std::vector<fabec::core::CoordinatorStats> coord_before;
  for (auto& client : c.clients)
    coord_before.push_back(client->coordinator_stats());
  const double lo0 = loopback_tx_bytes();
  const auto steal0 = host_steal_and_total_ticks();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  const std::int64_t duration = static_cast<std::int64_t>(a.seconds * 1e9);
  const std::int64_t t_end = t0 + duration;
  // Host steal at each window boundary, sampled by load thread 0 between
  // its ops (a boundary inside an op is sampled when the op ends).
  const std::size_t windows = static_cast<std::size_t>(
      std::max(1.0, std::round(a.seconds / kWindowS)));
  std::vector<std::pair<double, double>> steal_at(windows + 1, steal0);
  std::size_t next_boundary = 1;
  const bool shared = threads > c.clients.size();

  std::vector<std::vector<Sample>> samples(threads);
  std::vector<std::vector<Sample>> spans(threads);
  auto load = [&](std::uint32_t t) {
    auto& client = *c.clients[t % c.clients.size()];
    const auto& stream = (*ops)[t];
    auto& out = samples[t];
    out.reserve(1 << 16);
    const std::uint32_t writer = 1 + t;
    std::uint64_t counter = 0;
    for (std::size_t i = 0;; ++i) {
      const std::int64_t start = now_ns();
      if (start >= t_end) break;
      while (t == 0 && next_boundary < windows &&
             start >= t0 + duration * static_cast<std::int64_t>(next_boundary) /
                               static_cast<std::int64_t>(windows))
        steal_at[next_boundary++] = host_steal_and_total_ticks();
      const std::uint32_t op = stream[i % stream.size()];
      const Lba lba = op & ~kWriteBit;
      Sample s;
      s.lba = static_cast<std::uint32_t>(lba);
      s.write = (op & kWriteBit) != 0;
      s.start_ns = start;
      const bool tracing = a.trace && traced_slot(start - t0);
      const std::uint64_t retries_before =
          tracing && !shared ? client.stats().retries : 0;
      if (s.write) {
        ++counter;
        Block value = make_value(writer, counter);
        const auto ref = c.recorder->begin_write(lba, value_id(writer, counter));
        const auto outcome = client.write(lba, std::move(value));
        s.ok = outcome.ok();
        c.recorder->end_write(lba, ref, s.ok);
      } else {
        const auto ref = c.recorder->begin_read(lba);
        const auto outcome = client.read(lba);
        std::optional<ValueId> value;
        if (outcome.ok()) value = decode_value(outcome.value());
        s.ok = value.has_value();
        c.recorder->end_read(lba, ref, value);
      }
      s.end_ns = now_ns();
      out.push_back(s);
      if (tracing) {
        if (!shared)
          s.attempts = static_cast<std::uint16_t>(
              1 + client.stats().retries - retries_before);
        spans[t].push_back(s);
      }
    }
  };
  {
    std::vector<std::thread> pool;
    for (std::uint32_t t = 1; t < threads; ++t) pool.emplace_back(load, t);
    load(0);  // the main thread is load thread 0: at most nproc threads
    for (auto& t : pool) t.join();
  }
  const std::int64_t t1 = now_ns();
  const std::int64_t cpu1 = process_cpu_ns();
  const double lo1 = loopback_tx_bytes();
  const auto steal1 = host_steal_and_total_ticks();
  while (next_boundary <= windows) steal_at[next_boundary++] = steal1;
  std::vector<ProcSample> after(kN);
  for (const auto& b : c.bricks)
    if (b.pid > 0) after[b.id] = sample_proc(b.pid);

  fabec::core::CoordinatorStats coord{};
  fabec::runtime::DatagramMuxStats mux{};
  fabec::fab::ClientStats client_stats{};
  for (std::size_t i = 0; i < c.clients.size(); ++i) {
    auto& client = *c.clients[i];
    const auto s = client.coordinator_stats();
    const auto& b = coord_before[i];
#define FABBENCH_DELTA(field) coord.field += s.field - b.field
    FABBENCH_DELTA(block_reads);
    FABBENCH_DELTA(block_writes);
    FABBENCH_DELTA(fast_read_hits);
    FABBENCH_DELTA(recoveries_started);
    FABBENCH_DELTA(fast_block_write_hits);
    FABBENCH_DELTA(slow_block_writes);
    FABBENCH_DELTA(aborts);
    FABBENCH_DELTA(gc_messages);
    FABBENCH_DELTA(retransmit_rounds);
    FABBENCH_DELTA(op_timeouts);
    FABBENCH_DELTA(sends_suppressed);
    FABBENCH_DELTA(cached_read_hits);
    FABBENCH_DELTA(cached_read_misses);
    FABBENCH_DELTA(cached_read_fallbacks);
    FABBENCH_DELTA(degraded_reads);
    FABBENCH_DELTA(degraded_read_fallbacks);
#undef FABBENCH_DELTA
  }
  const std::uint64_t peak_generator_kib = static_cast<std::uint64_t>(
      sample_proc(::getpid()).hwm_kib);
  for (auto& client : c.clients) {
    client->close();
    // Loop stopped: the mux and client counters are quiescent now. They
    // cover the warm-up and the timed phase.
    const auto& m = client->mux_stats();
    mux.datagrams_sent += m.datagrams_sent;
    mux.datagrams_received += m.datagrams_received;
    mux.messages_sent += m.messages_sent;
    mux.messages_received += m.messages_received;
    mux.frames_sent += m.frames_sent;
    mux.send_failures += m.send_failures;
    const auto& s = client->stats();
    client_stats.ok += s.ok;
    client_stats.aborted += s.aborted;
    client_stats.aborted_retried += s.aborted_retried;
    client_stats.timed_out += s.timed_out;
    client_stats.retries += s.retries;
  }
  c.clients.clear();
  std::vector<ProcessId> live;
  for (const auto& b : c.bricks)
    if (b.pid > 0) live.push_back(b.id);
  const std::vector<ProcessId> unclean = stop_bricks(c.bricks);

  Farewell farewell;
  for (ProcessId id : live) {
    const Farewell f = parse_farewell(c.bricks[id].log_path);
    farewell.requests += f.requests;
    farewell.appends += f.appends;
    farewell.duplicates += f.duplicates;
    farewell.compactions += f.compactions;
  }

  // --- correctness ---------------------------------------------------------------
  bool planted = false;
  if (a.plant_fault) planted = plant_fault(c.bricks[live.front()].store);
  std::vector<std::string> damaged;
  for (const auto& b : c.bricks) {
    const auto report =
        fabec::core::PersistentState::fsck(fabec::storage::Env::real(), b.store);
    // Every append is one write(2), so even the SIGKILLed brick cannot
    // leave a torn tail: a dropped tail is damage here, not recovery.
    bool torn = false;
    for (const auto& file : report.files)
      torn = torn || !file.ok || file.tail_dropped_bytes != 0;
    if (!report.ok || torn) damaged.push_back(b.store);
  }
  const auto violations = c.recorder->check();

  // --- aggregate -----------------------------------------------------------------
  std::vector<std::int64_t> read_ns, write_ns;
  std::uint64_t read_failed = 0, write_failed = 0;
  // Trace mode: completed ops per slot (by start time) and latencies of the
  // untraced [0] and traced [1] slots, for the tracing overhead.
  std::vector<std::uint64_t> slot_ops(
      static_cast<std::size_t>((t1 - t0) / kTraceSlotNs + 1));
  std::vector<std::int64_t> slot_lat[2];
  // run.py reports medians over parts of the timed phase, so one stall does
  // not swing a whole run's figure: throughput over equal time windows,
  // latency percentiles over chunks of consecutive completions per op type
  // (see chunk_percentiles).
  std::vector<std::uint64_t> window_ops(windows);
  auto window_of = [&](std::int64_t end_ns) {
    return static_cast<std::size_t>(std::clamp<std::int64_t>(
        (end_ns - t0) * static_cast<std::int64_t>(windows) / (t1 - t0), 0,
        static_cast<std::int64_t>(windows) - 1));
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> read_seq, write_seq;
  for (const auto& v : samples) {
    for (const auto& s : v) {
      if (s.ok) {
        (s.write ? write_ns : read_ns).push_back(s.end_ns - s.start_ns);
        ++slot_ops[(s.start_ns - t0) / kTraceSlotNs];
        slot_lat[traced_slot(s.start_ns - t0)].push_back(s.end_ns - s.start_ns);
        ++window_ops[window_of(s.end_ns)];
        (s.write ? write_seq : read_seq).emplace_back(s.end_ns,
                                                      s.end_ns - s.start_ns);
      } else {
        ++(s.write ? write_failed : read_failed);
      }
    }
  }
  std::uint64_t span_count = 0;
  if (a.trace && !a.spans.empty()) {
    const fabec::fab::VolumeLayout layout(a.volume_blocks, kM,
                                          fabec::fab::Layout::kRotating);
    std::ofstream out(a.spans, std::ios::trunc);
    out << "op_id,thread,kind,lba,stripe,attempts,outcome,start_ns,end_ns\n";
    std::uint64_t op_id = 0;
    for (std::uint32_t t = 0; t < threads; ++t) {
      for (const auto& s : spans[t]) {
        // Left empty where threads share a client: its retry counter is
        // client-wide, so attempts cannot be attributed to one op.
        out << ++op_id << ',' << t << ',' << (s.write ? "write" : "read") << ','
            << s.lba << ',' << layout.stripe_of(s.lba) << ','
            << (shared ? "" : std::to_string(s.attempts)) << ','
            << (s.ok ? "ok" : "failed") << ',' << s.start_ns - t0 << ','
            << s.end_ns - t0 << '\n';
        ++span_count;
      }
    }
  }

  ProcSample bricks_delta;
  double bricks_hwm = 0;
  for (ProcessId id : live) {
    bricks_delta.cpu_us += after[id].cpu_us - before[id].cpu_us;
    bricks_delta.ctx_switches += after[id].ctx_switches - before[id].ctx_switches;
    bricks_delta.syscw += after[id].syscw - before[id].syscw;
    bricks_delta.wchar += after[id].wchar - before[id].wchar;
    bricks_delta.write_bytes += after[id].write_bytes - before[id].write_bytes;
    bricks_hwm += after[id].hwm_kib;
  }

  const double seconds = static_cast<double>(t1 - t0) / 1e9;
  const std::size_t reads = read_ns.size(), writes = write_ns.size();
  std::printf("{\"build_type\":\"%s\",\"cmake_build_type\":\"%s\","
              "\"gf_kernel\":\"%s\",\"n\":%u,\"m\":%u,\"code\":\"rs\","
              "\"block_size\":%zu,\"volume_blocks\":%" PRIu64 ","
              "\"threads\":%u,\"clients\":%u,",
#ifdef NDEBUG
              "release",
#else
              "debug",
#endif
              FABBENCH_CMAKE_BUILD_TYPE, fabec::gf::kernels().name, kN, kM,
              kBlockSize, a.volume_blocks, threads, a.clients);
  std::printf("\"setup_s\":[");
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    std::printf("%s%.6f", i ? "," : "", setup_s[i]);
  std::printf("],\"seconds\":%.6f,\"reads_ok\":%zu,\"writes_ok\":%zu,"
              "\"reads_failed\":%" PRIu64 ",\"writes_failed\":%" PRIu64 ","
              "\"warmup_ops\":%" PRIu64 ",\"setup_failures\":%" PRIu64 ",",
              seconds, reads, writes, read_failed, write_failed, c.warmup_ops,
              setup_failures + c.setup_failures);
  const double r50 = percentile_us(read_ns, 50), r99 = percentile_us(read_ns, 99);
  const double w50 = percentile_us(write_ns, 50), w99 = percentile_us(write_ns, 99);
  std::printf("\"read_p50_us\":%.3f,\"read_p99_us\":%.3f,"
              "\"write_p50_us\":%.3f,\"write_p99_us\":%.3f,",
              r50, r99, w50, w99);
  // Throughput of each untraced [0] and traced [1] slot that lies wholly
  // inside the timed phase.
  std::vector<double> slot_ops_s[2];
  for (std::size_t i = 0; i + 1 < slot_ops.size(); ++i)
    slot_ops_s[i % 2].push_back(static_cast<double>(slot_ops[i]) /
                                (static_cast<double>(kTraceSlotNs) / 1e9));
  std::printf("\"trace_slots\":[{\"slots\":%zu,\"ops_s\":%.3f,\"p50_us\":%.3f},"
              "{\"slots\":%zu,\"ops_s\":%.3f,\"p50_us\":%.3f}],",
              slot_ops_s[0].size(), median(slot_ops_s[0]),
              percentile_us(slot_lat[0], 50), slot_ops_s[1].size(),
              median(slot_ops_s[1]), percentile_us(slot_lat[1], 50));
  std::printf("\"host_steal_ratio\":%.4f,",
              (steal1.first - steal0.first) /
                  std::max(1.0, steal1.second - steal0.second));
  // Share of CPU time stolen by the host over windows [first, last].
  auto steal_ratio = [&](std::size_t first, std::size_t last) {
    return (steal_at[last + 1].first - steal_at[first].first) /
           std::max(1.0, steal_at[last + 1].second - steal_at[first].second);
  };
  std::printf("\"lo_bytes\":%.0f,\"windows\":[", lo1 - lo0);
  for (std::size_t i = 0; i < window_ops.size(); ++i)
    std::printf("%s{\"ops_s\":%.3f,\"steal\":%.4f}", i ? "," : "",
                static_cast<double>(window_ops[i]) / (seconds / windows),
                steal_ratio(i, i));
  std::printf("],");
  for (auto* seq : {&read_seq, &write_seq}) {
    std::printf("\"%s_chunks\":[", seq == &read_seq ? "read" : "write");
    const auto chunks = chunk_percentiles(*seq, windows);
    for (std::size_t i = 0; i < chunks.size(); ++i)
      std::printf("%s{\"p50_us\":%.3f,\"p99_us\":%.3f,\"steal\":%.4f}",
                  i ? "," : "", chunks[i].p50_us, chunks[i].p99_us,
                  steal_ratio(window_of(chunks[i].first_end_ns),
                              window_of(chunks[i].last_end_ns)));
    std::printf("],");
  }
  std::printf("\"generator\":{\"cpu_us\":%.3f,\"hwm_kib\":%" PRIu64 "},",
              static_cast<double>(cpu1 - cpu0) / 1e3, peak_generator_kib);
  std::printf("\"bricks\":{\"live\":%zu,\"excluded\":[%s],\"cpu_us\":%.3f,"
              "\"ctx_switches\":%.0f,\"syscw\":%.0f,\"wchar\":%.0f,"
              "\"write_bytes\":%.0f,\"hwm_kib\":%.0f,\"requests\":%.0f,"
              "\"journal_appends\":%.0f,\"duplicate_replies\":%.0f,"
              "\"compactions\":%.0f},",
              live.size(),
              a.kill_brick >= 0 ? std::to_string(a.kill_brick).c_str() : "",
              bricks_delta.cpu_us, bricks_delta.ctx_switches,
              bricks_delta.syscw, bricks_delta.wchar, bricks_delta.write_bytes,
              bricks_hwm, farewell.requests, farewell.appends,
              farewell.duplicates, farewell.compactions);
  std::printf("\"client\":{\"ok\":%" PRIu64 ",\"aborted\":%" PRIu64
              ",\"aborted_retried\":%" PRIu64 ",\"timed_out\":%" PRIu64
              ",\"retries\":%" PRIu64 "},",
              client_stats.ok, client_stats.aborted,
              client_stats.aborted_retried, client_stats.timed_out,
              client_stats.retries);
  std::printf("\"coordinator\":{\"block_reads\":%" PRIu64
              ",\"block_writes\":%" PRIu64 ",\"fast_read_hits\":%" PRIu64
              ",\"recoveries_started\":%" PRIu64
              ",\"fast_block_write_hits\":%" PRIu64
              ",\"slow_block_writes\":%" PRIu64 ",\"aborts\":%" PRIu64
              ",\"gc_messages\":%" PRIu64 ",\"retransmit_rounds\":%" PRIu64
              ",\"op_timeouts\":%" PRIu64 ",\"sends_suppressed\":%" PRIu64
              ",\"cached_read_hits\":%" PRIu64
              ",\"cached_read_misses\":%" PRIu64
              ",\"cached_read_fallbacks\":%" PRIu64
              ",\"degraded_reads\":%" PRIu64
              ",\"degraded_read_fallbacks\":%" PRIu64 "},",
              coord.block_reads, coord.block_writes, coord.fast_read_hits,
              coord.recoveries_started, coord.fast_block_write_hits,
              coord.slow_block_writes, coord.aborts, coord.gc_messages,
              coord.retransmit_rounds, coord.op_timeouts,
              coord.sends_suppressed, coord.cached_read_hits,
              coord.cached_read_misses, coord.cached_read_fallbacks,
              coord.degraded_reads, coord.degraded_read_fallbacks);
  std::printf("\"mux\":{\"datagrams_sent\":%" PRIu64
              ",\"datagrams_received\":%" PRIu64
              ",\"messages_sent\":%" PRIu64 ",\"messages_received\":%" PRIu64
              ",\"frames_sent\":%" PRIu64 ",\"send_failures\":%" PRIu64 "},",
              mux.datagrams_sent, mux.datagrams_received, mux.messages_sent,
              mux.messages_received, mux.frames_sent, mux.send_failures);
  std::printf("\"unclean_bricks\":[");
  for (std::size_t i = 0; i < unclean.size(); ++i)
    std::printf("%s%u", i ? "," : "", unclean[i]);
  std::printf("],");
  std::printf("\"spans\":%" PRIu64 ",\"planted_fault\":%s,\"damaged\":[",
              span_count, planted ? "true" : "false");
  for (std::size_t i = 0; i < damaged.size(); ++i)
    std::printf("%s\"%s\"", i ? "," : "", json_escape(damaged[i]).c_str());
  std::printf("],\"violations\":[");
  for (std::size_t i = 0; i < violations.size(); ++i)
    std::printf("%s{\"lba\":%" PRIu64 ",\"detail\":\"%s\"}", i ? "," : "",
                static_cast<std::uint64_t>(violations[i].lba),
                json_escape(violations[i].detail).c_str());
  std::printf("]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "run") return run(argc, argv);
  if (mode == "replay") return run_replay(argc, argv);
  if (mode == "geometry") {
    std::printf("{\"n\":%u,\"m\":%u,\"block_size\":%zu,"
                "\"volume_blocks\":%" PRIu64 "}\n",
                kN, kM, kBlockSize, fabbench::kVolumeBlocks);
    return 0;
  }
  std::fprintf(stderr,
               "usage: fabbench run --brickd PATH --dir DIR --ops FILE ...\n"
               "       fabbench replay --dir DIR --spans FILE ...\n"
               "       fabbench geometry\n");
  return 2;
}
