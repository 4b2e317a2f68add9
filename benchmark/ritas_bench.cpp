// ritas_bench — real-TCP end-to-end benchmark of the RITAS stack.
//
//   ritas_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//               [--out DIR] [--manifest BENCHMARK.json] [--smoke]
//
// Four nodes run as threads of this process over loopback TCP with no
// injected delay, so latency is processing plus scheduling only. Each
// workload builds a fresh mesh, warms up at its own load, measures for
// --seconds and drains; then it builds several more meshes to time set-up.
// Every input — arrival schedules, keys, payloads, node seeds — derives
// from --seed.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// twice, untraced and then on TracedNode (nodes.h), and prints the
// per-layer metrics plus the tracing overhead. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; bench_result.json and,
// when traced, trace_<workload>.json (Chrome format) go to --out. The exit
// code is non-zero when any correctness check fails.
//
// --smoke runs every workload for 2 s plus 1 s traced passes of ab_small and
// kv_shards, and also checks that the printed metric names and units equal
// those declared in --manifest.
#include <sys/resource.h>

#include <algorithm>
#include <arpa/inet.h>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <netinet/in.h>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "core/message.h"
#include "crypto/hmac.h"
#include "nodes.h"
#include "smr/kv_machine.h"

namespace ritas::bench {
namespace {

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kKvGroups = 4;
constexpr std::uint32_t kKvKeys = 10'000;
constexpr std::size_t kKvValueBytes = 16;
/// A run whose generator overslept its schedule by more than this at p99
/// measured the scheduler, not the program, and is reported invalid.
/// Healthy open-loop runs wake 0.2-2.7 ms late at p99: a burst of frame
/// handling can hold every core.
constexpr double kMaxGenLateMs = 5.0;
/// Ops written to trace_<workload>.json; the file is for looking at, and
/// the saturated workload would otherwise write hundreds of megabytes.
constexpr std::size_t kTraceOps = 5000;
/// An op not delivered everywhere this long after the window ended failed.
constexpr std::uint64_t kDrainNs = 10'000'000'000;
/// A window in which the hypervisor stole more than this share of the
/// VM's CPU time measured the host, and the run is reported invalid.
constexpr double kMaxSteal = 0.02;

struct Workload {
  const char* name;
  bool kv;                    // ShardedNode KV SETs instead of Context AB
  bool closed;                // closed loop (outstanding ops per origin)
  double rate;                // open loop: ops/s over all origins
  std::uint32_t outstanding;  // closed loop: ops in flight per origin
  std::size_t bytes;          // AB payload size
  std::uint32_t live;         // nodes 0..live-1 run; the rest never start
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"ab_small", false, false, 100, 0, 64, kN},
    {"ab_bulk", false, false, 75, 0, 4096, kN},
    {"ab_capacity", false, true, 0, 4, 64, kN},
    {"kv_shards", true, false, 100, 0, 0, kN},
    {"ab_failstop", false, false, 150, 0, 64, kN - 1},
};

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better = "lower";
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"lat_p50_ms", "ms"},
    {"cpu_ms_per_op", "ms"},
    {"ops_per_s", "ops/s", "higher"},
};

/// End-to-end metrics whose spread across seeds is too wide to gate on the
/// calibration host (see README.md, Calibration). They are printed as "not
/// gated" lines, which compare.py still reads, and left out of
/// BENCHMARK.json and the result line.
const std::set<std::string> kNotGated = {"lat_p50_ms", "cpu_ms_per_op", "ops_per_s"};

bool gated(const MetricDef& d) { return !kNotGated.contains(d.name); }

constexpr MetricDef kPerLayer[] = {
    {"ritas.submit_us_p50", "us"},
    {"ritas.submit_us_p99", "us"},
    {"ritas.loop_self_us_per_op", "us"},
    {"bench.gen_late_ms_p99", "ms"},
    {"core.ab_rounds_per_op", "count"},
    {"core.msgs_per_op", "count"},
    {"core.bytes_per_op", "B"},
    {"core.rb_mean_ms", "ms"},
    {"core.mvc_mean_ms", "ms"},
    {"core.bc_mean_ms", "ms"},
    {"core.deliver_skew_ms_p50", "ms"},
    {"core.broadcasts_per_op", "count"},
    {"core.agreement_bcast_frac", "fraction"},
    {"core.on_packet_self_us_per_op", "us"},
    {"core.decode_us_per_op", "us"},
    {"net.frames_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.frames_per_syscall", "count"},
    {"net.poll_self_us_per_op", "us"},
    {"net.send_us_per_op", "us"},
    {"net.idle_frac", "fraction"},
    {"crypto.hmac_ns_per_frame", "ns"},
    {"crypto.hmac_us_per_op", "us"},
    {"trace.overhead_cpu_pct", "%"},
    {"trace.overhead_lat_pct", "%"},
    {"trace.span_coverage_pct", "%"},
};

struct Params {
  std::uint64_t seed = 1;
  double seconds = 15;
  double warmup = 2;
  int setups = 15;
  bool smoke = false;
  std::string out = ".";
};

using Values = std::map<std::string, double>;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Nearest-rank percentile; +inf entries (failed ops) sort last.
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::vector<net::PeerAddr> reserve_local_ports(std::uint32_t n) {
  std::vector<net::PeerAddr> peers;
  std::vector<int> fds;
  for (std::uint32_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw std::runtime_error("cannot reserve a loopback port");
    }
    peers.push_back(net::PeerAddr{"127.0.0.1", ntohs(addr.sin_port)});
    fds.push_back(fd);
  }
  for (int fd : fds) ::close(fd);
  return peers;
}

// --- inputs -------------------------------------------------------------------

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xbf58476d1ce4e5b9ULL);
  return splitmix64(s);
}

std::uint64_t name_hash(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (; *s; ++s) h = (h ^ static_cast<std::uint8_t>(*s)) * 0x100000001b3ull;
  return h;
}

/// Open-loop arrivals of one origin as offsets from the run start: a
/// Poisson process conditioned on its count in the warm-up and in the
/// window (uniform arrival times, sorted), so the window is offered exactly
/// rate x seconds ops.
std::vector<std::uint64_t> open_schedule(double rate, double warmup, double seconds,
                                         Rng& rng) {
  std::vector<std::uint64_t> out;
  const auto phase = [&](double from, double len) {
    const auto count = static_cast<std::size_t>(std::llround(rate * len));
    std::vector<std::uint64_t> xs(count);
    for (auto& x : xs) x = static_cast<std::uint64_t>((from + rng.uniform() * len) * 1e9);
    std::sort(xs.begin(), xs.end());
    out.insert(out.end(), xs.begin(), xs.end());
  };
  phase(0, warmup);
  phase(warmup, seconds);
  return out;
}

/// Builds op `seq` of an origin: an AB payload that starts with the op key,
/// or a KV SET of a uniformly drawn key.
class OpMaker {
 public:
  OpMaker(const Workload& w, std::uint64_t seed, std::uint32_t origin)
      : w_(w), origin_(origin), rng_(derive(seed, 2, origin)) {
    if (!w.kv) {
      filler_.resize(w.bytes);
      for (auto& b : filler_) b = static_cast<std::uint8_t>(rng_.next());
    }
  }
  Bytes make(std::uint64_t seq) {
    if (!w_.kv) {
      Bytes op = filler_;
      const std::uint64_t key = op_key(origin_, seq);
      std::memcpy(op.data(), &key, sizeof key);
      return op;
    }
    smr::KvCommand c;
    c.op = smr::KvCommand::Op::kSet;
    c.key = "k" + std::to_string(rng_.below(kKvKeys));
    c.value.resize(kKvValueBytes);
    for (auto& ch : c.value) ch = static_cast<char>('a' + rng_.below(26));
    return c.encode();
  }

 private:
  const Workload& w_;
  std::uint32_t origin_;
  Rng rng_;
  Bytes filler_;
};

// --- one pass -------------------------------------------------------------------

struct Delivery {
  std::uint64_t key;
  std::uint64_t t_ns;
  std::uint32_t stream;
};

/// Appended only by its node's loop thread; read by the main thread for
/// the count while running and in full after the node stopped.
struct NodeLog {
  std::vector<Delivery> recs;
  std::atomic<std::uint64_t> count{0};
};

/// Closed-loop flow control of one origin. An op stops counting as in
/// flight once every running node delivered it, so no node can fall more
/// than the in-flight limit behind the others.
struct Flow {
  std::mutex m;
  std::condition_variable cv;
  std::uint32_t outstanding = 0;
  std::uint64_t freed_ns = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> deliveries;  // by seq
};

struct OpRec {
  std::uint64_t due = 0;    // when it was due (open) or submitted (closed)
  std::uint64_t start = 0;  // submit call entered
  std::uint64_t end = 0;    // submit call returned
  double late_ms = -1;      // wake-up overshoot when the generator waited
};

struct GenLog {
  std::vector<OpRec> ops;
  std::uint64_t submit_errors = 0;
};

struct PassResult {
  std::vector<std::string> problems;  // failed correctness checks
  std::vector<std::string> invalid;   // the host, not the program, was measured
  std::vector<std::string> notes;     // printed only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Summed over the running nodes; nullopt when their runtime does not
  /// expose stack counters (ShardedNode).
  std::optional<std::uint64_t> ooc_evicted;

  double setup_s = 0;  // median over the meshes built
  std::pair<double, double> setup_range_ms;
  std::vector<double> lat_ms;  // ops due in the window; +inf = failed
  double lat_p50_ms = 0;
  double cpu_ms_per_op = 0;
  double ops_per_s = 0;
  std::uint64_t window_ops = 0;
  double window_s = 0;
  double steal = 0;  // share of the VM's CPU time the host took in the window

  std::vector<double> submit_us;
  std::vector<double> late_ms;
  std::vector<double> skew_ms;

  net::TcpTransport::Stats transport;  // whole run, summed over live nodes
  std::vector<TraceWindow> windows;    // traced pass only, one per node
  std::string trace_json;              // traced pass only
};

using Mesh = std::vector<std::unique_ptr<BenchNode>>;

Mesh build_mesh(const Workload& w, const Params& p, bool traced,
                std::vector<NodeLog>& logs, std::vector<Flow>& flows,
                double& setup_s) {
  const auto peers = reserve_local_ports(kN);
  const std::uint64_t t0 = now_ns();
  Mesh mesh(w.live);
  for (std::uint32_t i = 0; i < w.live; ++i) {
    NodeConfig c;
    c.n = kN;
    c.self = i;
    c.peers = peers;
    c.groups = w.kv ? kKvGroups : 1;
    c.seed = derive(p.seed, 1);
    c.on_deliver = [&logs, &flows, &w, i](std::uint32_t stream, std::uint64_t key) {
      const std::uint64_t t = now_ns();
      logs[i].recs.push_back(Delivery{key, t, stream});
      logs[i].count.fetch_add(1, std::memory_order_release);
      if (!w.closed || key_origin(key) >= w.live) return;
      Flow& flow = flows[key_origin(key)];
      {
        std::lock_guard<std::mutex> lock(flow.m);
        const auto it = flow.deliveries.try_emplace(key_seq(key), 0).first;
        if (++it->second < w.live) return;
        flow.deliveries.erase(it);
        if (flow.outstanding > 0) --flow.outstanding;
        flow.freed_ns = t;
      }
      flow.cv.notify_one();
    };
    if (traced) {
      mesh[i] = std::make_unique<TracedNode>(c);
    } else if (w.kv) {
      mesh[i] = make_shard_node(c);
    } else {
      mesh[i] = make_context_node(c);
    }
  }
  std::vector<std::thread> starters;
  std::vector<std::exception_ptr> errors(w.live);
  for (std::uint32_t i = 0; i < w.live; ++i) {
    starters.emplace_back([&, i] {
      try {
        mesh[i]->start();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : starters) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  // Set-up ends when every link between running nodes is up.
  const std::uint64_t deadline = now_ns() + 20'000'000'000ull;
  for (;;) {
    bool all_up = true;
    for (std::uint32_t i = 0; i < w.live && all_up; ++i) {
      const auto links = mesh[i]->link_states();
      for (std::uint32_t j = 0; j < w.live; ++j) {
        all_up = all_up && links[j] == LinkState::kUp;
      }
    }
    if (all_up) break;
    if (now_ns() > deadline) throw std::runtime_error("mesh did not come up");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return mesh;
}

/// Submits one origin's scheduled ops until an op falls due at or after
/// `stop_at`.
void gen_open(const Workload& w, const Params& p, std::uint32_t origin,
              std::uint64_t t_start, const std::atomic<std::uint64_t>& stop_at,
              BenchNode& node, GenLog& log) {
  Rng rng(derive(p.seed, 3, origin ^ name_hash(w.name)));
  const auto sched = open_schedule(w.rate / w.live, p.warmup, p.seconds, rng);
  OpMaker maker(w, p.seed, origin);
  log.ops.reserve(sched.size());
  for (std::size_t i = 0; i < sched.size(); ++i) {
    Bytes op = maker.make(i);
    OpRec r;
    r.due = t_start + sched[i];
    std::uint64_t t = now_ns();
    if (t < r.due) {
      sleep_until_ns(r.due);
      t = now_ns();
      r.late_ms = static_cast<double>(t - r.due) / 1e6;
    }
    if (r.due >= stop_at.load()) break;
    r.start = t;
    try {
      node.submit(i, std::move(op));
    } catch (const std::exception&) {
      ++log.submit_errors;
      break;
    }
    r.end = now_ns();
    log.ops.push_back(r);
  }
}

/// Keeps w.outstanding ops of one origin in flight until `stop_at`.
void gen_closed(const Workload& w, const Params& p, std::uint32_t origin,
                const std::atomic<std::uint64_t>& stop_at, BenchNode& node, Flow& flow,
                GenLog& log) {
  OpMaker maker(w, p.seed, origin);
  for (std::uint64_t seq = 0;; ++seq) {
    OpRec r;
    {
      std::unique_lock<std::mutex> lock(flow.m);
      bool waited = false;
      while (flow.outstanding >= w.outstanding && now_ns() < stop_at.load()) {
        flow.cv.wait_for(lock, std::chrono::milliseconds(10));
        waited = true;
      }
      if (now_ns() >= stop_at.load()) break;
      if (waited) r.late_ms = static_cast<double>(now_ns() - flow.freed_ns) / 1e6;
      ++flow.outstanding;
    }
    Bytes op = maker.make(seq);
    r.due = r.start = now_ns();
    try {
      node.submit(seq, std::move(op));
    } catch (const std::exception&) {
      ++log.submit_errors;
      break;
    }
    r.end = now_ns();
    log.ops.push_back(r);
  }
}

/// {steal, total} jiffies over all CPUs since boot, from /proc/stat; steal
/// is time the hypervisor ran other guests on this VM's CPUs.
std::pair<std::uint64_t, std::uint64_t> steal_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::array<std::uint64_t, 8> v{};  // user nice system idle iowait irq softirq steal
  f >> cpu;
  for (auto& x : v) f >> x;
  if (!f || cpu != "cpu") return {0, 0};
  std::uint64_t total = 0;
  for (auto x : v) total += x;
  return {v[7], total};
}

/// The measuring window: process CPU and time at its ends, and the share
/// of the host's CPU time stolen from this VM meanwhile.
struct WindowSample {
  double cpu0 = 0, cpu1 = 0;
  std::uint64_t t0 = 0, t1 = 0;
  double steal = 0;
};

WindowSample measure_window(std::uint64_t end) {
  WindowSample ws;
  const auto s0 = steal_jiffies();
  ws.cpu0 = cpu_seconds();
  ws.t0 = now_ns();
  sleep_until_ns(end);
  ws.cpu1 = cpu_seconds();
  ws.t1 = now_ns();
  const auto s1 = steal_jiffies();
  if (s1.second > s0.second) {
    ws.steal = static_cast<double>(s1.first - s0.first) /
               static_cast<double>(s1.second - s0.second);
  }
  return ws;
}

void add_stats(net::TcpTransport::Stats& a, const net::TcpTransport::Stats& b) {
  a.frames_sent += b.frames_sent;
  a.frames_received += b.frames_received;
  a.frames_retransmitted += b.frames_retransmitted;
  a.bytes_sent += b.bytes_sent;
  a.mac_failures += b.mac_failures;
  a.queue_drops += b.queue_drops;
  a.link_reconnects += b.link_reconnects;
  a.sendmsg_calls += b.sendmsg_calls;
  a.bytes_to_kernel += b.bytes_to_kernel;
}

std::string chrome_trace(const std::vector<GenLog>& gens,
                         const std::vector<std::vector<std::vector<std::uint64_t>>>& at,
                         std::uint64_t t0, std::uint64_t t1, std::uint64_t origin_ts) {
  JsonWriter j;
  j.begin_object().key("traceEvents").begin_array();
  const auto us = [origin_ts](std::uint64_t t) {
    return static_cast<double>(t - origin_ts) / 1e3;
  };
  for (std::uint32_t o = 0; o < gens.size(); ++o) {
    std::size_t written = 0;
    for (std::size_t s = 0; s < gens[o].ops.size() && written < kTraceOps / gens.size(); ++s) {
      const OpRec& r = gens[o].ops[s];
      if (r.due < t0 || r.due >= t1) continue;
      ++written;
      const std::uint64_t key = op_key(o, s);
      j.begin_object()
          .field("name", "ritas.submit")
          .field("ph", "X")
          .field("pid", o)
          .field("tid", 0)
          .field("ts", us(r.start))
          .field("dur", static_cast<double>(r.end - r.start) / 1e3)
          .key("args")
          .begin_object()
          .field("op", key)
          .field("late_us", static_cast<double>(r.start - r.due) / 1e3)
          .end_object()
          .end_object();
      for (std::uint32_t i = 0; i < at.size(); ++i) {
        const std::uint64_t t = at[i][o][s];
        if (t == 0) continue;
        j.begin_object()
            .field("name", "ritas.deliver")
            .field("ph", "X")
            .field("pid", i)
            .field("tid", 1)
            .field("ts", us(r.start))
            .field("dur", static_cast<double>(t - r.start) / 1e3)
            .key("args")
            .begin_object()
            .field("op", key)
            .end_object()
            .end_object();
      }
    }
  }
  j.end_array().end_object();
  return j.take();
}

/// Checks the outputs of a finished pass: exactly-once delivery, one total
/// order per stream, equal KV state, no MAC failures. Returns
/// at[node][origin][seq], the time each op was delivered (0 = never).
std::vector<std::vector<std::vector<std::uint64_t>>> check_outputs(
    const Workload& w, const Params& p, Mesh& mesh, const std::vector<NodeLog>& logs,
    const std::vector<GenLog>& gens, PassResult& res) {
  std::vector<std::vector<std::vector<std::uint64_t>>> at(w.live);
  for (std::uint32_t i = 0; i < w.live; ++i) {
    at[i].resize(w.live);
    for (std::uint32_t o = 0; o < w.live; ++o) at[i][o].assign(gens[o].ops.size(), 0);
    std::size_t unknown = 0, dup = 0;
    for (const Delivery& d : logs[i].recs) {
      const std::uint32_t o = key_origin(d.key);
      const std::uint64_t s = key_seq(d.key);
      if (o >= w.live || s >= at[i][o].size()) {
        ++unknown;
      } else if (at[i][o][s] != 0) {
        ++dup;
      } else {
        at[i][o][s] = d.t_ns;
      }
    }
    const std::string node = "p" + std::to_string(i);
    if (unknown > 0) res.problems.push_back(node + " delivered " + std::to_string(unknown) + " ops never submitted");
    if (dup > 0) res.problems.push_back(node + " delivered " + std::to_string(dup) + " ops twice");
  }
  // Total order: per stream, every node's delivery sequence is a prefix of
  // the longest one.
  const std::uint32_t streams = w.kv ? kKvGroups : 1;
  for (std::uint32_t s = 0; s < streams; ++s) {
    std::vector<std::vector<std::uint64_t>> seqs(w.live);
    for (std::uint32_t i = 0; i < w.live; ++i) {
      for (const Delivery& d : logs[i].recs) {
        if (d.stream == s) seqs[i].push_back(d.key);
      }
    }
    const auto& ref = *std::max_element(
        seqs.begin(), seqs.end(), [](const auto& a, const auto& b) { return a.size() < b.size(); });
    for (std::uint32_t i = 0; i < w.live; ++i) {
      if (!std::equal(seqs[i].begin(), seqs[i].end(), ref.begin())) {
        res.problems.push_back("delivery order of stream " + std::to_string(s) + " differs at p" + std::to_string(i));
      }
    }
  }
  if (w.kv) {
    std::vector<std::vector<Bytes>> snaps;
    for (auto& n : mesh) snaps.push_back(n->snapshots());
    for (std::uint32_t i = 1; i < w.live; ++i) {
      if (snaps[i] != snaps[0]) res.problems.push_back("KV state of p" + std::to_string(i) + " differs from p0");
    }
  }
  if (res.transport.mac_failures != 0) {
    res.problems.push_back(std::to_string(res.transport.mac_failures) + " frames failed their MAC");
  }
  if (res.ooc_evicted.value_or(0) != 0) {
    // Evictions are the bounded OOC table doing its job; the smoke test
    // holds them at zero, a measured run only reports them.
    (p.smoke ? res.problems : res.notes)
        .push_back(std::to_string(*res.ooc_evicted) + " out-of-context messages evicted");
  }
  for (std::uint32_t o = 0; o < w.live; ++o) {
    res.attempted += gens[o].ops.size() + gens[o].submit_errors;
    res.failed += gens[o].submit_errors;
    for (std::size_t s = 0; s < gens[o].ops.size(); ++s) {
      for (std::uint32_t i = 0; i < w.live; ++i) {
        if (at[i][o][s] == 0) {
          ++res.failed;
          break;
        }
      }
    }
  }
  if (res.failed > 0) {
    res.problems.push_back(std::to_string(res.failed) + " ops not delivered at every running node");
  }
  return at;
}

/// Computes the window's numbers from the delivery times.
void measure(const Workload& w, const std::vector<GenLog>& gens,
             const std::vector<std::vector<std::vector<std::uint64_t>>>& at,
             const WindowSample& ws, PassResult& res) {
  const auto in_window = [&ws](std::uint64_t t) { return t >= ws.t0 && t < ws.t1; };
  for (std::uint32_t o = 0; o < w.live; ++o) {
    for (std::size_t s = 0; s < gens[o].ops.size(); ++s) {
      const OpRec& r = gens[o].ops[s];
      std::uint64_t first = ~std::uint64_t{0}, last = 0;
      for (std::uint32_t i = 0; i < w.live; ++i) {
        first = std::min(first, at[i][o][s]);
        last = std::max(last, at[i][o][s]);
      }
      const bool everywhere = first != 0;
      const std::uint64_t mine = at[o][o][s];
      if (in_window(mine)) ++res.window_ops;
      if (!in_window(r.due)) continue;
      res.lat_ms.push_back(everywhere ? static_cast<double>(mine - r.due) / 1e6
                                      : std::numeric_limits<double>::infinity());
      res.submit_us.push_back(static_cast<double>(r.end - r.start) / 1e3);
      if (r.late_ms >= 0) res.late_ms.push_back(r.late_ms);
      if (everywhere) res.skew_ms.push_back(static_cast<double>(last - first) / 1e6);
    }
  }
  res.lat_p50_ms = percentile(res.lat_ms, 50);
  res.window_s = static_cast<double>(ws.t1 - ws.t0) / 1e9;
  res.ops_per_s = static_cast<double>(res.window_ops) / res.window_s;
  res.cpu_ms_per_op =
      res.window_ops ? (ws.cpu1 - ws.cpu0) * 1e3 / static_cast<double>(res.window_ops) : 0;
  res.steal = ws.steal;
  if (!w.closed && percentile(res.late_ms, 99) > kMaxGenLateMs) {
    res.invalid.push_back("generator woke " + std::to_string(percentile(res.late_ms, 99)) +
                          " ms late at p99 (limit " + std::to_string(kMaxGenLateMs) + " ms)");
  }
  if (res.steal > kMaxSteal) {
    res.invalid.push_back("the host stole " + std::to_string(res.steal * 100) +
                          "% of the CPUs in the window (limit " + std::to_string(kMaxSteal * 100) +
                          "%)");
  }
}

PassResult run_pass(const Workload& w, const Params& p, bool traced) {
  PassResult res;
  std::vector<NodeLog> logs(w.live);
  std::vector<Flow> flows(w.live);

  double untimed = 0;
  Mesh mesh = build_mesh(w, p, traced, logs, flows, untimed);

  const auto len = static_cast<std::uint64_t>(p.seconds * 1e9);
  const std::uint64_t t_start = now_ns() + 20'000'000;
  std::atomic<std::uint64_t> stop_at{~std::uint64_t{0}};
  std::vector<GenLog> gens(w.live);
  std::vector<std::thread> threads;
  for (std::uint32_t o = 0; o < w.live; ++o) {
    threads.emplace_back([&, o] {
      if (w.closed) {
        sleep_until_ns(t_start);
        gen_closed(w, p, o, stop_at, *mesh[o], flows[o], gens[o]);
      } else {
        gen_open(w, p, o, t_start, stop_at, *mesh[o], gens[o]);
      }
    });
  }

  const std::uint64_t t0 = t_start + static_cast<std::uint64_t>(p.warmup * 1e9);
  stop_at.store(t0 + len);
  sleep_until_ns(t0);
  if (traced) {
    for (auto& n : mesh) static_cast<TracedNode&>(*n).record(true);
  }
  const WindowSample ws = measure_window(t0 + len);
  if (traced) {
    for (auto& n : mesh) {
      auto& tn = static_cast<TracedNode&>(*n);
      tn.record(false);
      res.windows.push_back(tn.window());
    }
  }
  for (auto& t : threads) t.join();

  // Drain: every submitted op delivered at every running node.
  std::uint64_t submitted = 0;
  for (const auto& g : gens) submitted += g.ops.size();
  const std::uint64_t drain_end = now_ns() + kDrainNs;
  for (;;) {
    bool done = true;
    for (const auto& l : logs) done = done && l.count.load(std::memory_order_acquire) >= submitted;
    if (done || now_ns() > drain_end) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& n : mesh) {
    if (const auto m = n->metrics()) res.ooc_evicted = res.ooc_evicted.value_or(0) + m->ooc_evicted;
    add_stats(res.transport, n->transport_stats());
  }
  for (auto& n : mesh) n->stop();

  // Set-up time is the median over fresh meshes built right after the
  // loaded window. How fast the VM's idle CPUs wake adapts to recent load:
  // timed before the load, set-up moved by up to 4x with how long the host
  // had idled. After the window that history is the same on every run.
  std::vector<double> setups;
  for (int k = 0; k < p.setups; ++k) {
    std::vector<NodeLog> idle_logs(w.live);
    std::vector<Flow> idle_flows(w.live);
    double s = 0;
    Mesh idle = build_mesh(w, p, traced, idle_logs, idle_flows, s);
    setups.push_back(s);
    for (auto& n : idle) n->stop();
  }
  res.setup_s = percentile(setups, 50);
  res.setup_range_ms = {percentile(setups, 0) * 1e3, percentile(setups, 100) * 1e3};

  const auto at = check_outputs(w, p, mesh, logs, gens, res);
  measure(w, gens, at, ws, res);
  if (traced) res.trace_json = chrome_trace(gens, at, ws.t0, ws.t1, t_start);
  return res;
}

// --- reporting -------------------------------------------------------------------

std::set<std::pair<std::string, std::string>> g_printed;  // (name, unit)

void print_metric(const Workload& w, const std::string& name, double v, const std::string& unit) {
  std::printf("  %-12s %-32s %14.6g %s\n", w.name, name.c_str(), v, unit.c_str());
  g_printed.emplace(name, unit);
}

void print_info(const Workload& w, const std::string& what) {
  std::printf("  %-12s # %s\n", w.name, what.c_str());
}

Values end_to_end(const PassResult& r) {
  double p50 = r.lat_p50_ms;
  // JSON has no infinity; a median of failed ops reads as 1e6 ms.
  if (!std::isfinite(p50)) p50 = 1e6;
  return {{"setup_s", r.setup_s},
          {"lat_p50_ms", p50},
          {"cpu_ms_per_op", r.cpu_ms_per_op},
          {"ops_per_s", r.ops_per_s}};
}

void print_pass(const Workload& w, const PassResult& r, const char* label) {
  std::printf("  %-12s # %s pass: %llu ops in a %.3f s window, %llu attempted, %llu failed\n",
              w.name, label, static_cast<unsigned long long>(r.window_ops), r.window_s,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const std::size_t n = r.lat_ms.size();
  char buf[256];
  std::snprintf(buf, sizeof buf, "set-up %.3f-%.3f ms", r.setup_range_ms.first,
                r.setup_range_ms.second);
  print_info(w, buf);
  std::string tail = "none";
  for (double p : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(n) * (1 - p / 100) >= 10) {
      char at_p[96];
      std::snprintf(at_p, sizeof at_p, "p%g = %.3f ms", p, percentile(r.lat_ms, p));
      tail = at_p;
      break;
    }
  }
  std::snprintf(buf, sizeof buf,
                "latency: %zu samples, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; highest supported tail %s",
                n, percentile(r.lat_ms, 50), percentile(r.lat_ms, 90), percentile(r.lat_ms, 99),
                tail.c_str());
  print_info(w, buf);
  std::snprintf(buf, sizeof buf,
                "generator: woke %.3f ms late at p99 (%zu waits); submit call p50 %.1f us, "
                "p99 %.1f us; host stole %.2f%% of the CPUs",
                percentile(r.late_ms, 99), r.late_ms.size(), percentile(r.submit_us, 50),
                percentile(r.submit_us, 99), r.steal * 100);
  print_info(w, buf);
  const auto& t = r.transport;
  const std::string ooc = r.ooc_evicted ? std::to_string(*r.ooc_evicted) : "n/a";
  std::snprintf(buf, sizeof buf,
                "checks: mac_failures %llu, core.ooc_evicted %s, net.queue_drops %llu, "
                "net.reconnects %llu, net.retransmits %llu",
                static_cast<unsigned long long>(t.mac_failures), ooc.c_str(),
                static_cast<unsigned long long>(t.queue_drops),
                static_cast<unsigned long long>(t.link_reconnects),
                static_cast<unsigned long long>(t.frames_retransmitted));
  print_info(w, buf);
  for (const auto& s : r.notes) print_info(w, "note: " + s);
  for (const auto& s : r.invalid) print_info(w, "INVALID RUN: " + s);
  for (const auto& s : r.problems) print_info(w, "FAILED CHECK: " + s);
}

volatile std::uint64_t g_replay_sink = 0;

/// Per-frame cost of the crypto and codec work the sampled frames needed,
/// replayed after the run.
struct Replay {
  double hmac_ns = 0;
  double decode_ns = 0;
};

Replay replay(const std::vector<TraceWindow>& windows) {
  std::vector<Slice> frames;
  for (const auto& win : windows) frames.insert(frames.end(), win.frames.begin(), win.frames.end());
  Replay r;
  if (frames.empty()) return r;
  const KeyChain keys = KeyChain::deal(to_bytes("ritas-bench"), kN, 0);
  // The transport MACs u32 from | u32 to | u64 sid | u64 counter ‖ body.
  const std::array<std::uint8_t, 24> macin{};
  std::uint64_t sink = 0;
  // Fastest of several timed rounds: interference only ever adds time.
  const auto time_per_frame = [&](auto&& fn) {
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 7; ++round) {
      std::uint64_t passes = 0;
      const std::uint64_t t0 = now_ns();
      do {
        for (const Slice& f : frames) sink += fn(f);
        ++passes;
      } while (now_ns() - t0 < 10'000'000);
      best = std::min(best, static_cast<double>(now_ns() - t0) /
                                static_cast<double>(passes * frames.size()));
    }
    return best;
  };
  r.hmac_ns = time_per_frame([&](const Slice& f) {
    return hmac_sha256_2(keys.key(1), ByteView(macin), f.view())[0];
  });
  r.decode_ns = time_per_frame([](const Slice& f) {
    return static_cast<std::uint64_t>(Message::decode(f).has_value());
  });
  g_replay_sink = sink;  // keeps the replayed work from being optimised away
  return r;
}

Values per_layer(const Workload& w, const PassResult& ref, const PassResult& tr) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(tr.window_ops, 1));
  const double live = static_cast<double>(w.live);
  Metrics m;
  net::TcpTransport::Stats t;
  std::array<std::uint64_t, kSpanKinds> self{};
  std::uint64_t cpu = 0, wall = 0;
  for (const auto& win : tr.windows) {
    m += win.metrics;
    add_stats(t, win.transport);
    for (std::size_t k = 0; k < kSpanKinds; ++k) self[k] += win.spans[k].self_ns;
    cpu += win.thread_cpu_ns;
    wall += win.wall_ns;
  }
  const auto per_op_us = [&](Span s) {
    return static_cast<double>(self[static_cast<std::size_t>(s)]) / 1e3 / ops;
  };
  const auto mean_ms = [&](ProtocolType p) {
    return m.proto_latency_ns[static_cast<std::size_t>(p)].mean() / 1e6;
  };
  std::uint64_t spanned = 0;
  for (auto s : self) spanned += s;
  const Replay rp = replay(tr.windows);
  const double frames_sent = static_cast<double>(t.frames_sent);
  const double frames_recv = static_cast<double>(t.frames_received);
  return {
      {"ritas.submit_us_p50", percentile(tr.submit_us, 50)},
      {"ritas.submit_us_p99", percentile(tr.submit_us, 99)},
      {"ritas.loop_self_us_per_op", per_op_us(Span::kLoop)},
      {"bench.gen_late_ms_p99", percentile(tr.late_ms, 99)},
      {"core.ab_rounds_per_op", static_cast<double>(m.ab_rounds) / live / ops},
      {"core.msgs_per_op", static_cast<double>(m.msgs_sent) / ops},
      {"core.bytes_per_op", static_cast<double>(m.bytes_sent) / ops},
      {"core.rb_mean_ms", mean_ms(ProtocolType::kReliableBroadcast)},
      {"core.mvc_mean_ms", mean_ms(ProtocolType::kMultiValuedConsensus)},
      {"core.bc_mean_ms", mean_ms(ProtocolType::kBinaryConsensus)},
      {"core.deliver_skew_ms_p50", percentile(tr.skew_ms, 50)},
      {"core.broadcasts_per_op", static_cast<double>(m.broadcasts_total()) / ops},
      {"core.agreement_bcast_frac",
       m.broadcasts_total() ? static_cast<double>(m.broadcasts_agreement()) /
                                  static_cast<double>(m.broadcasts_total())
                            : 0},
      {"core.on_packet_self_us_per_op", per_op_us(Span::kOnPacket)},
      {"core.decode_us_per_op", rp.decode_ns * frames_recv / 1e3 / ops},
      {"net.frames_per_op", frames_sent / ops},
      {"net.bytes_per_op", static_cast<double>(t.bytes_sent) / ops},
      {"net.frames_per_syscall", t.sendmsg_calls ? frames_sent / static_cast<double>(t.sendmsg_calls) : 0},
      {"net.poll_self_us_per_op", per_op_us(Span::kPoll)},
      {"net.send_us_per_op", per_op_us(Span::kSend)},
      {"net.idle_frac", wall ? 1 - static_cast<double>(cpu) / static_cast<double>(wall) : 0},
      {"crypto.hmac_ns_per_frame", rp.hmac_ns},
      {"crypto.hmac_us_per_op", rp.hmac_ns * (frames_sent + frames_recv) / 1e3 / ops},
      {"trace.overhead_cpu_pct", (tr.cpu_ms_per_op / ref.cpu_ms_per_op - 1) * 100},
      {"trace.overhead_lat_pct", (tr.lat_p50_ms / ref.lat_p50_ms - 1) * 100},
      {"trace.span_coverage_pct", cpu ? 100.0 * static_cast<double>(spanned) / static_cast<double>(cpu) : 0},
  };
}

void print_spans(const Workload& w, const PassResult& tr) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(tr.window_ops, 1));
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    SpanStats s;
    for (const auto& win : tr.windows) {
      s.count += win.spans[k].count;
      s.self_ns += win.spans[k].self_ns;
      s.dur_ns += win.spans[k].dur_ns;
    }
    if (s.count == 0) continue;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "span %-15s %10llu spans, self %8.2f us/op, duration p50 %llu ns p99 %llu ns",
                  span_name(static_cast<Span>(k)), static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.self_ns) / 1e3 / ops,
                  static_cast<unsigned long long>(s.dur_ns.p50()),
                  static_cast<unsigned long long>(s.dur_ns.p99()));
    print_info(w, buf);
  }
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Values metrics;  // the metrics this run reports, by name
  std::vector<std::string> problems;
  std::vector<std::string> invalid;
};

void absorb(Outcome& out, const PassResult& r) {
  out.attempted += r.attempted;
  out.failed += r.failed;
  out.problems.insert(out.problems.end(), r.problems.begin(), r.problems.end());
  out.invalid.insert(out.invalid.end(), r.invalid.begin(), r.invalid.end());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

Outcome run_workload(const Workload& w, const Params& p, bool trace) {
  Outcome out;
  std::printf("== %s (seed %llu, %.3g s, %s)\n", w.name,
              static_cast<unsigned long long>(p.seed), p.seconds,
              trace ? "untraced + traced" : "untraced");
  const PassResult ref = run_pass(w, p, false);
  absorb(out, ref);
  print_pass(w, ref, "untraced");
  const Values e2e = end_to_end(ref);
  for (const auto& d : kEndToEnd) {
    if (gated(d)) {
      print_metric(w, d.name, e2e.at(d.name), d.unit);
    } else {
      char buf[128];
      std::snprintf(buf, sizeof buf, "not gated: %s %.9g %s %s", d.name, e2e.at(d.name), d.unit,
                    d.better);
      print_info(w, buf);
    }
  }
  if (!trace) {
    out.metrics = e2e;
  } else {
    const PassResult tr = run_pass(w, p, true);
    absorb(out, tr);
    print_pass(w, tr, "traced");
    print_spans(w, tr);
    out.metrics = per_layer(w, ref, tr);
    for (const auto& d : kPerLayer) print_metric(w, d.name, out.metrics.at(d.name), d.unit);
    const double coverage = out.metrics.at("trace.span_coverage_pct");
    if (coverage < 85 || coverage > 115) {
      out.invalid.push_back("span self times cover " + std::to_string(coverage) +
                            "% of the loop threads' CPU (must be within 15%)");
      print_info(w, "INVALID RUN: " + out.invalid.back());
    }
    write_file(p.out + "/trace_" + w.name + ".json", tr.trace_json);
  }
  out.correct = out.problems.empty();
  std::fflush(stdout);
  return out;
}

// --- output ------------------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  if (!std::isfinite(v)) v = 0;
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// The result line: every declared metric of the run's kind, with all its
/// digits (shortest round-trip form).
std::string result_line(const Outcome& o, bool trace) {
  std::string s = "{\"correct\": ";
  s += o.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  const auto add = [&](const auto& defs) {
    for (const MetricDef& d : defs) {
      if (!gated(d)) continue;
      if (s.back() != '{') s += ", ";
      s += "\"" + std::string(d.name) + "\": {\"value\": " + num(o.metrics.at(d.name)) +
           ", \"unit\": \"" + d.unit + "\"}";
    }
  };
  if (trace) {
    add(kPerLayer);
  } else {
    add(kEndToEnd);
  }
  return s + "}}";
}

/// Compares the (name, unit) pairs printed in this run with those declared
/// in BENCHMARK.json; returns the mismatches.
std::vector<std::string> check_manifest(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const auto doc = json_parse(ss.str());
  if (!f || !doc) return {"cannot read manifest " + path};
  std::set<std::pair<std::string, std::string>> declared;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const JsonValue* arr = doc->get(section);
    if (arr == nullptr) return {std::string("manifest lacks ") + section};
    for (const JsonValue& m : arr->array) {
      const JsonValue* name = m.get("name");
      const JsonValue* unit = m.get("unit");
      if (name == nullptr || unit == nullptr || !name->as_string() || !unit->as_string()) {
        return {"manifest metric without a name or unit string"};
      }
      declared.emplace(std::string(*name->as_string()), std::string(*unit->as_string()));
    }
  }
  std::vector<std::string> out;
  for (const auto& d : declared) {
    if (!g_printed.contains(d)) out.push_back("declared but not printed: " + d.first + " [" + d.second + "]");
  }
  for (const auto& d : g_printed) {
    if (!declared.contains(d)) out.push_back("printed but not declared: " + d.first + " [" + d.second + "]");
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: ritas_bench [--workload NAME|all] [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR] [--manifest FILE] [--smoke]\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  Params p;
  std::string workload = "all";
  std::string manifest;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      p.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      p.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::string(argv[++i]) != "0";
    } else if (a == "--out" && has_value) {
      p.out = argv[++i];
    } else if (a == "--manifest" && has_value) {
      manifest = argv[++i];
    } else {
      return usage();
    }
  }
  if (p.seconds <= 0) return usage();
  std::vector<const Workload*> selected;
  for (const auto& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return usage();
  std::filesystem::create_directories(p.out);
  // A livelock must show up in the counters, not as megabytes of WARN
  // lines; teardown resets are not faults either.
  set_log_level(LogLevel::kError);

  std::vector<std::pair<const Workload*, Outcome>> results;
  if (smoke) {
    Params sp = p;
    sp.smoke = true;
    sp.seconds = 2;
    sp.warmup = 0.5;
    sp.setups = 2;
    for (const Workload* w : selected) results.emplace_back(w, run_workload(*w, sp, false));
    // Traced passes of both node runtimes' shapes; ShardedNode exposes no
    // stack counters, so kv_shards' OOC evictions are only checked here.
    sp.seconds = 1;
    for (const Workload& w : kWorkloads) {
      if (w.name == std::string_view("ab_small") || w.name == std::string_view("kv_shards")) {
        results.emplace_back(&w, run_workload(w, sp, true));
      }
    }
  } else {
    for (const Workload* w : selected) results.emplace_back(w, run_workload(*w, p, trace));
  }

  std::vector<std::string> manifest_problems;
  if (!manifest.empty()) manifest_problems = check_manifest(manifest);
  for (const auto& s : manifest_problems) std::printf("FAILED CHECK: %s\n", s.c_str());

  // bench_result.json: every workload's reported metrics and checks.
  JsonWriter j;
  j.begin_object().field("seed", p.seed).field("seconds", p.seconds).field("trace", trace);
  j.key("workloads").begin_object();
  Outcome total;
  for (const auto& [w, o] : results) {
    j.key(w->name).begin_object().field("correct", o.correct).field("attempted", o.attempted)
        .field("failed", o.failed).key("metrics").begin_object();
    for (const auto& [k, v] : o.metrics) j.field(k, v);
    j.end_object().key("problems").begin_array();
    for (const auto& s : o.problems) j.value(s);
    j.end_array().field("valid", o.invalid.empty()).key("invalid").begin_array();
    for (const auto& s : o.invalid) j.value(s);
    j.end_array().end_object();
    total.correct = total.correct && o.correct;
    total.attempted += o.attempted;
    total.failed += o.failed;
  }
  j.end_object().end_object();
  write_file(p.out + "/bench_result.json", j.str() + "\n");
  total.correct = total.correct && manifest_problems.empty();

  if (results.size() == 1 && !smoke) {
    total.metrics = results[0].second.metrics;
    std::printf("%s\n", result_line(total, trace).c_str());
  } else {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu}\n",
                total.correct ? "true" : "false",
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.failed));
  }
  return total.correct ? 0 : 1;
}

}  // namespace
}  // namespace ritas::bench

int main(int argc, char** argv) {
  try {
    return ritas::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ritas_bench: %s\n", e.what());
    return 1;
  }
}
