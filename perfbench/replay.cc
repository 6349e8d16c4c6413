// fabbench replay — times each layer's public functions with the
// benchmark's geometry (RS n=8, m=5, 4 KiB blocks) and op shapes.
//
//   fabbench replay --dir DIR --spans FILE [--seed S]
//
// One span per measured function goes to the spans CSV (name, calls, start,
// end, us per call); stdout gets {"timings": {name: us per call}}. Every
// timing is the median of several repetitions. run.py multiplies these
// per-call costs by the live run's per-op counts to build the ledger.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/timestamp.h"
#include "core/cluster.h"
#include "core/frame.h"
#include "core/group_layout.h"
#include "core/persistence.h"
#include "core/replica.h"
#include "core/wire.h"
#include "erasure/code_family.h"
#include "gf/kernels.h"
#include "runtime/datagram_mux.h"
#include "runtime/epoll_loop.h"
#include "storage/brick_store.h"
#include "storage/env.h"
#include "geometry.h"

namespace {

using fabec::Block;
using fabec::Bytes;
using fabec::Timestamp;
using fabbench::kBlockSize;
using fabbench::kM;
using fabbench::kN;
using fabbench::now_ns;
namespace core = fabec::core;

constexpr int kRepeats = 5;

struct Span {
  std::string name;
  std::uint64_t calls;
  std::int64_t start_ns, end_ns;
  double us_per_call;
};

class Timer {
 public:
  explicit Timer(std::int64_t origin) : origin_(origin) {}

  /// Runs `fn` `calls` times per repetition; records the median repetition
  /// as `name`'s per-call cost and each repetition as a span.
  void time(const std::string& name, std::uint64_t calls,
            const std::function<void()>& fn) {
    std::vector<double> per_call;
    for (int r = 0; r < kRepeats; ++r) {
      const std::int64_t start = now_ns();
      for (std::uint64_t i = 0; i < calls; ++i) fn();
      const std::int64_t end = now_ns();
      const double us = static_cast<double>(end - start) / 1e3 / calls;
      per_call.push_back(us);
      spans_.push_back({name, calls, start - origin_, end - origin_, us});
    }
    std::sort(per_call.begin(), per_call.end());
    timings_[name] = per_call[per_call.size() / 2];
  }
  void set(const std::string& name, double us) { timings_[name] = us; }
  double operator[](const std::string& name) const { return timings_.at(name); }

  const std::map<std::string, double>& timings() const { return timings_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t origin_;
  std::map<std::string, double> timings_;
  std::vector<Span> spans_;
};

/// Keeps the optimizer from discarding a result.
inline void keep(std::uint64_t v) { asm volatile("" : : "g"(v) : "memory"); }

void time_codec(Timer& t, fabec::Rng& rng) {
  const auto& k = fabec::gf::kernels();
  Block src = fabec::random_block(rng, kBlockSize);
  Block dst = fabec::random_block(rng, kBlockSize);
  t.time("gf.mul_add", 20000, [&] {
    k.mul_add_slice(0x8E, src.data(), dst.data(), kBlockSize);
    keep(dst[17]);
  });

  const auto codec = fabec::erasure::make_code_family(
      fabec::erasure::CodeSpec{}, kM, kN);
  std::vector<Block> data, parity(kN - kM, Block(kBlockSize));
  for (std::uint32_t i = 0; i < kM; ++i)
    data.push_back(fabec::random_block(rng, kBlockSize));
  std::vector<fabec::erasure::ConstByteSpan> data_views(data.begin(), data.end());
  std::vector<fabec::erasure::MutByteSpan> parity_views(parity.begin(), parity.end());
  t.time("erasure.encode", 5000, [&] {
    codec->encode_parity(data_views, parity_views);
    keep(parity[0][5]);
  });
  // Degraded read: one data block lost, decode from the other m shards.
  std::vector<fabec::erasure::ShardView> shards;
  for (std::uint32_t i = 1; i < kM; ++i) shards.push_back({i, data[i]});
  shards.push_back({kM, parity[0]});
  std::vector<Block> decoded(kM, Block(kBlockSize));
  std::vector<fabec::erasure::MutByteSpan> decoded_views(decoded.begin(), decoded.end());
  t.time("erasure.decode", 5000, [&] {
    codec->decode_into(shards, decoded_views);
    keep(decoded[0][3]);
  });
  Block delta = fabec::random_block(rng, kBlockSize);
  t.time("erasure.modify", 20000, [&] {
    codec->apply_modify_delta(2, kM, delta, parity[0]);
    keep(parity[0][9]);
  });
}

std::map<std::string, core::Message> sample_messages(fabec::Rng& rng) {
  const Timestamp ts{now_ns(), 9};
  const Timestamp older{ts.time - 1000, 10};
  Block block = fabec::random_block(rng, kBlockSize);
  std::vector<fabec::ProcessId> targets = {2};
  return {
      {"read_req", core::ReadReq{7, 11, targets, std::nullopt}},
      {"read_rep", core::ReadRep{11, true, older, block, false}},
      {"order_req", core::OrderReq{7, 12, ts}},
      {"order_rep", core::OrderRep{12, true}},
      {"order_read_req", core::OrderReadReq{7, 13, 2, Timestamp::high(), ts}},
      {"order_read_rep", core::OrderReadRep{13, true, older, block}},
      {"modify_delta_req", core::ModifyDeltaReq{7, 14, 2, block, older, ts}},
      {"modify_rep", core::ModifyRep{14, true}},
      {"write_req", core::WriteReq{7, 15, ts, block}},
      {"write_rep", core::WriteRep{15, true}},
      {"gc_req", core::GcReq{7, older}},
  };
}

void time_wire(Timer& t, fabec::Rng& rng) {
  Bytes buf;
  for (const auto& [kind, msg] : sample_messages(rng)) {
    t.time("wire.encode." + kind, 20000, [&] {
      buf.clear();
      core::encode_message_into(msg, buf);
      keep(buf.size());
    });
    const Bytes wire = core::encode_message(msg);
    t.time("wire.decode." + kind, 20000, [&] {
      const auto decoded = core::decode_message(wire);
      keep(decoded.has_value());
    });
  }
  // A frame of one round's n-1 Modify replies, per message, CRC included.
  std::vector<core::Message> batch(kN, core::Message{core::ModifyRep{14, true}});
  t.time("frame.encode", 20000 / kN, [&] {
    buf.clear();
    core::encode_frame_into(batch, buf);
    keep(buf.size());
  });
  const Bytes frame = core::encode_frame(batch);
  t.time("frame.decode", 20000 / kN, [&] {
    const auto decoded = core::decode_frame(frame);
    keep(decoded.has_value());
  });
  t.set("frame.encode", t["frame.encode"] / kN);
  t.set("frame.decode", t["frame.decode"] / kN);
}

/// Replicas over in-memory stores holding one brick's share of the volume,
/// one per role a request can find them in (identity placement: brick b is
/// position b): 0 = the op's data block p_j, 1 = another data block, m = a
/// parity block. Requests are shaped like the deployment's fast paths.
void time_replica(Timer& t, fabec::Rng& rng, std::uint64_t stripes) {
  const fabec::core::GroupLayout layout(kN, kN);
  const auto codec = fabec::erasure::make_code_family(
      fabec::erasure::CodeSpec{}, kM, kN);
  fabec::TimestampSource clock(9, [] { return now_ns(); });
  const Block block = fabec::random_block(rng, kBlockSize);
  std::uint64_t op = 1;
  std::uint64_t refused = 0;
  auto ok = [&](const std::optional<core::Message>& rep) {
    bool status = false;
    if (rep)
      std::visit([&](const auto& m) {
        if constexpr (requires { m.status; }) status = m.status;
      }, *rep);
    if (!status) ++refused;
  };
  struct Role {
    std::string suffix;
    std::unique_ptr<fabec::storage::BrickStore> store;
    std::unique_ptr<core::RegisterReplica> replica;
  };
  std::vector<Role> roles;
  for (const auto& [brick, suffix] :
       std::vector<std::pair<fabec::ProcessId, std::string>>{
           {0, ""}, {1, "_other"}, {kM, "_parity"}}) {
    Role r{suffix, std::make_unique<fabec::storage::BrickStore>(kBlockSize),
           nullptr};
    r.replica = std::make_unique<core::RegisterReplica>(
        brick, fabec::quorum::Config{kN, kM, codec->max_erasures_any()},
        &layout, codec.get(), r.store.get());
    roles.push_back(std::move(r));
  }
  std::vector<Timestamp> initial(stripes);
  for (std::uint64_t s = 0; s < stripes; ++s) {
    initial[s] = clock.next();
    for (auto& r : roles) {
      ok(r.replica->handle(core::OrderReq{s, op++, initial[s]}));
      ok(r.replica->handle(core::WriteReq{s, op++, initial[s], block}));
    }
  }
  std::uint64_t s = 0;
  auto next_stripe = [&] { return s = (s + 1) % stripes; };
  for (auto& r : roles) {
    auto& replica = *r.replica;
    std::vector<Timestamp> current = initial;  // max-ts(log) per stripe
    t.time("replica.read" + r.suffix, 5000, [&] {
      ok(replica.handle(core::ReadReq{next_stripe(), op++, {0}, std::nullopt}));
    });
    t.time("replica.order" + r.suffix, 5000, [&] {
      ok(replica.handle(core::OrderReq{next_stripe(), op++, clock.next()}));
    });
    // A block write's two rounds: OrderRead(j = 0), then Modify carrying
    // the new block (p_j), a coded delta (parity) or nothing (others).
    // Modify needs a fresh order, so it is timed as the pair minus
    // OrderRead.
    t.time("replica.order_read" + r.suffix, 5000, [&] {
      ok(replica.handle(core::OrderReadReq{next_stripe(), op++, 0,
                                           Timestamp::high(), clock.next()}));
    });
    const bool payload = r.suffix != "_other";
    t.time("replica.modify_delta" + r.suffix, 5000, [&] {
      const auto st = next_stripe();
      const Timestamp ts = clock.next();
      ok(replica.handle(
          core::OrderReadReq{st, op++, 0, Timestamp::high(), ts}));
      ok(replica.handle(core::ModifyDeltaReq{
          st, op++, 0, payload ? std::optional<Block>(block) : std::nullopt,
          current[st], ts}));
      current[st] = ts;
    });
    t.set("replica.modify_delta" + r.suffix,
          t["replica.modify_delta" + r.suffix] -
              t["replica.order_read" + r.suffix]);
    t.time("replica.write" + r.suffix, 5000, [&] {
      const auto st = next_stripe();
      const Timestamp ts = clock.next();
      ok(replica.handle(core::OrderReq{st, op++, ts}));
      ok(replica.handle(core::WriteReq{st, op++, ts, block}));
      current[st] = ts;
    });
    t.set("replica.write" + r.suffix,
          t["replica.write" + r.suffix] - t["replica.order" + r.suffix]);
    t.time("replica.gc" + r.suffix, 5000, [&] {
      const auto st = next_stripe();
      replica.handle(core::GcReq{st, current[st]});
    });
  }
  if (refused != 0)
    std::fprintf(stderr, "fabbench replay: %" PRIu64 " replica refusals\n",
                 refused);
}

void time_persistence(Timer& t, fabec::Rng& rng, const std::string& dir,
                      std::uint64_t stripes) {
  auto& env = fabec::storage::Env::real();
  const Block block = fabec::random_block(rng, kBlockSize);
  const core::Message msg =
      core::ModifyDeltaReq{7, 1, 2, block, Timestamp{1, 9}, Timestamp{2, 9}};
  for (const bool fsync : {false, true}) {
    core::PersistentState::Options opts;
    opts.dir = dir + (fsync ? "/fsync" : "/plain");
    opts.fsync_each = fsync;
    std::filesystem::create_directories(opts.dir);
    core::PersistentState state(env, opts);
    std::unique_ptr<fabec::storage::BrickStore> store;
    std::string error;
    if (!state.recover_store(kBlockSize, &store, &error) ||
        !state.replay_journals([](const core::Message&) {}, &error) ||
        !state.start_appending(&error)) {
      std::fprintf(stderr, "fabbench replay: %s\n", error.c_str());
      std::exit(1);
    }
    t.time(fsync ? "persistence.append_fsync" : "persistence.append",
           fsync ? 100 : 5000, [&] { keep(state.append(msg)); });
  }

  // Compaction of one brick's share: one block per stripe of the volume.
  core::PersistentState::Options opts;
  opts.dir = dir + "/compact";
  std::filesystem::create_directories(opts.dir);
  core::PersistentState state(env, opts);
  std::unique_ptr<fabec::storage::BrickStore> store;
  std::string error;
  if (!state.recover_store(kBlockSize, &store, &error) ||
      !state.replay_journals([](const core::Message&) {}, &error) ||
      !state.start_appending(&error)) {
    std::fprintf(stderr, "fabbench replay: %s\n", error.c_str());
    std::exit(1);
  }
  const fabec::core::GroupLayout layout(kN, kN);
  const auto codec = fabec::erasure::make_code_family(
      fabec::erasure::CodeSpec{}, kM, kN);
  core::RegisterReplica replica(0, {kN, kM, codec->max_erasures_any()}, &layout,
                                codec.get(), store.get());
  for (std::uint64_t s = 0; s < stripes; ++s) {
    const Timestamp ts{static_cast<std::int64_t>(s + 1), 9};
    replica.handle(core::OrderReq{s, 2 * s + 1, ts});
    replica.handle(core::WriteReq{s, 2 * s + 2, ts, block});
  }
  std::vector<double> ms;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t start = now_ns();
    keep(state.compact(*store));
    ms.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  std::sort(ms.begin(), ms.end());
  t.set("persistence.compact", ms[1]);  // us; run.py reports ms
}

/// Two muxes on loopback: a 4 KiB ReadRep each way per roundtrip.
void time_mux(Timer& t, fabec::Rng& rng) {
  fabec::runtime::EpollLoop loop_a(1), loop_b(2);
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t replies = 0;
  const core::Message rep =
      core::ReadRep{1, true, Timestamp{1, 9}, fabec::random_block(rng, kBlockSize),
                    false};
  fabec::runtime::DatagramMux* b_ptr = nullptr;
  fabec::runtime::DatagramMux a(&loop_a, 100, {"127.0.0.1", 0},
                                [&](fabec::ProcessId, std::vector<core::Message>) {
                                  std::lock_guard<std::mutex> lock(mutex);
                                  ++replies;
                                  cv.notify_one();
                                });
  fabec::runtime::DatagramMux b(&loop_b, 0, {"127.0.0.1", 0},
                                [&](fabec::ProcessId from,
                                    std::vector<core::Message> msgs) {
                                  for (const auto& msg : msgs) b_ptr->send(from, msg);
                                });
  b_ptr = &b;
  a.set_peers({{0, {"127.0.0.1", b.local_port()}}});
  b.set_peers({{100, {"127.0.0.1", a.local_port()}}});
  loop_a.start();
  loop_b.start();
  std::uint64_t sent = 0;
  t.time("mux.roundtrip", 2000, [&] {
    ++sent;
    loop_a.post([&] { a.send(0, rep); });
    std::unique_lock<std::mutex> lock(mutex);
    // A lost datagram is re-sent after 100 ms rather than hanging.
    while (!cv.wait_for(lock, std::chrono::milliseconds(100),
                        [&] { return replies >= sent; })) {
      loop_a.post([&] { a.send(0, rep); });
    }
  });
  loop_a.stop();
  loop_b.stop();
}

/// Coordinator CPU per op: whole ops in the in-process simulator with zero
/// network delay, minus the replicas' handler time measured above. Both
/// cycle over the same number of stripes, so their cache footing matches.
void time_coordinator(Timer& t, fabec::Rng& rng, std::uint64_t stripes) {
  core::ClusterConfig config;
  config.n = kN;
  config.m = kM;
  config.block_size = kBlockSize;
  config.net.base_delay = 0;
  config.coordinator.delta_block_writes = true;
  core::Cluster cluster(config, 1);
  for (fabec::StripeId s = 0; s < stripes; ++s) {
    std::vector<Block> data;
    for (std::uint32_t j = 0; j < kM; ++j)
      data.push_back(fabec::random_block(rng, kBlockSize));
    cluster.write_stripe(0, s, data);
  }
  const Block block = fabec::random_block(rng, kBlockSize);
  fabec::StripeId s = 0;
  t.time("coordinator.read_op", 2000, [&] {
    s = (s + 1) % stripes;
    keep(cluster.read_block(0, s, s % kM).has_value());
  });
  t.time("coordinator.write_op", 1000, [&] {
    s = (s + 1) % stripes;
    keep(cluster.write_block(0, s, s % kM, block));
  });
  // Per op, one replica per role: p_j, the other m-1 data positions, the
  // k parities; GC reaches all n after a write.
  const double others = kM - 1, parities = kN - kM;
  t.set("coordinator.read",
        t["coordinator.read_op"] - t["replica.read"] -
            (kN - 1) * t["replica.read_other"]);
  t.set("coordinator.write",
        t["coordinator.write_op"] - t["replica.order_read"] -
            (kN - 1) * t["replica.order_read_other"] -
            t["replica.modify_delta"] -
            others * t["replica.modify_delta_other"] -
            parities * t["replica.modify_delta_parity"] -
            kN * t["replica.gc"]);
}

}  // namespace

int run_replay(int argc, char** argv) {
  std::string dir, spans_path;
  std::uint64_t seed = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k == "--dir") dir = argv[i + 1];
    else if (k == "--spans") spans_path = argv[i + 1];
    else if (k == "--seed") seed = std::atoll(argv[i + 1]);
    else {
      std::fprintf(stderr, "fabbench replay: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  if (dir.empty() || spans_path.empty()) {
    std::fprintf(stderr, "fabbench replay: --dir and --spans are required\n");
    return 2;
  }
  fabec::Rng rng(seed);
  Timer t(now_ns());
  const std::uint64_t stripes = fabbench::kVolumeBlocks / kM;
  time_codec(t, rng);
  time_wire(t, rng);
  time_replica(t, rng, stripes);
  time_persistence(t, rng, dir, stripes);
  time_mux(t, rng);
  time_coordinator(t, rng, stripes);

  std::ofstream spans(spans_path, std::ios::trunc);
  spans << "name,calls,start_ns,end_ns,us_per_call\n";
  for (const auto& s : t.spans())
    spans << s.name << ',' << s.calls << ',' << s.start_ns << ',' << s.end_ns
          << ',' << s.us_per_call << '\n';
  std::printf("{\"gf_kernel\":\"%s\",\"spans_file\":\"%s\",\"timings\":{",
              fabec::gf::kernels().name, spans_path.c_str());
  bool first = true;
  for (const auto& [name, us] : t.timings()) {
    std::printf("%s\"%s\":%.6f", first ? "" : ",", name.c_str(), us);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
