// Repository benchmark driver: one workload per process, driven only
// through the library's public API from this (single) driver thread.
//
//   perfbench_driver --workload hot_oltp|scan_large|des_hot --seed N
//                    --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints progress lines, then one JSON object on the last line of stdout:
//   {"workload":..,"correct":bool,"errors":[..],"attempted":N,"failed":N,
//    "metrics":{name:value,..},"info":{..}}
// perfbench/run.py maps that object onto the contract in BENCHMARK.json.
// See perfbench/README.md for what each workload and metric means.

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ava3/ava3_engine.h"
#include "cluster/catalog.h"
#include "engine/database.h"
#include "verify/mvsg.h"
#include "verify/serializability.h"
#include "workload/runner.h"
#include "workload/workload.h"

namespace ava3::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small measurement helpers
// ---------------------------------------------------------------------------

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// (steal, total) jiffies of all CPUs from /proc/stat: the share of time
/// the hypervisor ran someone else while this VM wanted a CPU.
std::pair<double, double> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  double total = 0;
  for (double& x : v) {
    in >> x;
    total += x;
  }
  return {v[7], total};
}

double StealShare(std::pair<double, double> a, std::pair<double, double> b) {
  return b.second > a.second ? (b.first - a.first) / (b.second - a.second)
                             : 0;
}

/// Nearest-rank percentile (same rank rule as ava3::Histogram).
template <typename T>
double Pct(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t idx = std::min(static_cast<size_t>(rank + 0.5), v.size() - 1);
  return static_cast<double>(v[idx]);
}

double Median(std::vector<double> v) { return Pct(std::move(v), 50); }

template <typename T>
double Mean(const std::vector<T>& v) {
  double sum = 0;
  for (T x : v) sum += static_cast<double>(x);
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Interquartile mean: the mean of the middle half of the samples. Robust
/// to the tail like a median, but continuous where a median is not: on the
/// simulator the median latency sits on an atom of the latency model and
/// reads the same for every seed.
double Iqm(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// The benchmark's own spans around every call it makes into a layer,
/// kept in memory and written out at the end of a traced run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  template <typename F>
  auto Time(const char* name, F&& fn) {
    const int64_t start = WallNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back({name, start, WallNs()});
    } else {
      auto result = fn();
      spans_.push_back({name, start, WallNs()});
      return result;
    }
  }
  void Add(const char* name, int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, start_ns, end_ns});
  }
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f, "{\"name\":\"%s\",\"start_ns\":%lld,\"dur_ns\":%lld}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns - s.start_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

SpanLog g_spans;
/// Traced phases also record a span per Submit and per generator call.
bool g_span_every_call = false;
std::vector<std::string> g_errors;

void Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  g_errors.push_back(what);
}

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

constexpr int kNodes = 3;
constexpr SimDuration kAdvancePeriod = 50 * kMillisecond;
constexpr int kMaxRetries = 25;
constexpr SimDuration kRetryBackoff = 5 * kMillisecond;
constexpr SimTime kSloUs = 20 * kMillisecond;
/// hot_oltp nominal offered load (txn/s); also the noise probe's rate.
constexpr double kHotRate = 3000;

struct Mix {
  wl::WorkloadSpec spec;
  double update_share = 2.0 / 3.0;
};

/// hot_oltp / des_hot: 768 items, 2 updates : 1 query, 40% multi-node.
Mix HotMix() {
  Mix m;
  m.spec.num_nodes = kNodes;
  m.spec.items_per_node = 256;
  m.spec.update_ops_min = 2;
  m.spec.update_ops_max = 8;
  m.spec.update_write_fraction = 0.7;
  m.spec.update_multinode_prob = 0.4;
  m.spec.update_fanout = 2;
  m.spec.query_ops_min = 4;
  m.spec.query_ops_max = 16;
  m.spec.query_multinode_prob = 0.4;
  m.spec.query_fanout = 2;
  m.update_share = 2.0 / 3.0;
  return m;
}

/// scan_large: 393k items in 12 collocated partitions, 1 short update : 1
/// long query (32-96 ops, half of them 4-16 item range scans).
Mix ScanMix() {
  Mix m = HotMix();
  m.spec.items_per_node = 131072;
  m.spec.partitions_per_node = 4;
  m.spec.query_ops_min = 32;
  m.spec.query_ops_max = 96;
  m.spec.query_scan_fraction = 0.5;
  m.update_share = 0.5;
  return m;
}

db::DatabaseOptions OptionsFor(const Mix& mix, db::RuntimeKind runtime,
                               uint64_t seed) {
  db::DatabaseOptions opt;
  opt.num_nodes = kNodes;
  opt.scheme = db::Scheme::kAva3;
  opt.runtime = runtime;
  opt.seed = seed;
  opt.enable_recorder = false;
  opt.cluster.partitions_per_node = mix.spec.partitions_per_node;
  opt.cluster.items_per_partition = mix.spec.ItemsPerPartition();
  if (runtime == db::RuntimeKind::kThread) {
    // A real timer sleep per op would measure OS timer wakeups, not the
    // program (see README.md).
    opt.base.op_cost = 0;
  }
  return opt;
}

std::map<ItemId, int64_t> InitialValues(const Mix& mix) {
  std::map<ItemId, int64_t> init;
  for (ItemId item = 0; item < mix.spec.TotalItems(); ++item) {
    init.emplace_hint(init.end(), item, mix.spec.initial_value);
  }
  return init;
}

/// Runs both serializability oracles over a recorded history; returns the
/// wall seconds they took.
double RunOracles(const Mix& mix, db::Database& dbase, const char* label,
                  bool identity_layout) {
  const auto& txns = dbase.recorder().txns();
  const int64_t start = WallNs();
  const auto init = InitialValues(mix);
  verify::SerializabilityChecker conflict(init);
  Status s = conflict.Check(txns);
  if (s.ok() && identity_layout) {
    auto* eng = dbase.ava3_engine();
    std::vector<const store::VersionedStore*> stores;
    for (NodeId n = 0; n < kNodes; ++n) stores.push_back(&eng->store(n));
    s = conflict.CheckFinalState(txns, stores);
  }
  if (!s.ok()) Fail(std::string(label) + ": conflict oracle: " + s.ToString());
  verify::MvsgChecker mvsg(init);
  const Status m = mvsg.Check(txns);
  if (!m.ok()) Fail(std::string(label) + ": MVSG oracle: " + m.ToString());
  const int64_t end = WallNs();
  g_spans.Add("verify.oracles", start, end);
  if (txns.empty()) Fail(std::string(label) + ": empty history");
  return static_cast<double>(end - start) / 1e9;
}

/// Post-Shutdown checks every run makes: the three-version bound and the
/// paper's Section 6.2 invariants.
void CheckEngine(db::Database& dbase, const char* label) {
  core::Ava3Engine* eng = dbase.ava3_engine();
  int max_live = 0;
  for (PartitionId p = 0; p < eng->num_partitions(); ++p) {
    max_live = std::max(max_live,
                        eng->partition_store(p).MaxLiveVersionsObserved());
  }
  if (max_live > 3) {
    Fail(std::string(label) + ": " + std::to_string(max_live) +
         " live versions of one item (bound is 3)");
  }
  const Status inv = eng->CheckInvariants();
  if (!inv.ok()) {
    Fail(std::string(label) + ": invariants: " + inv.ToString());
  }
}

/// Shared CPU-clock handles of one thread-runtime Database's workers,
/// learned by a closure scheduled onto each worker.
struct WorkerClocks {
  clockid_t node[kNodes] = {};
  clockid_t service = {};
};

/// CPU placement: the spinning driver thread gets one CPU to itself and
/// the program's workers share the others. Without this the scheduler may
/// wake a worker onto the driver's CPU (it is the waker), where the worker
/// waits out the driver's time slice: milliseconds billed to the program.
/// Empty sets (fewer than two CPUs allowed) leave placement to the OS.
cpu_set_t g_worker_cpus;
bool g_pinned = false;

void PinDriverThread() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return;
  }
  int driver_cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) driver_cpu = c;
  }
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(driver_cpu, &mine);
  g_worker_cpus = allowed;
  CPU_CLR(driver_cpu, &g_worker_cpus);
  g_pinned = pthread_setaffinity_np(pthread_self(), sizeof(mine), &mine) == 0;
}

void PinWorkerThread() {
  if (g_pinned) {
    pthread_setaffinity_np(pthread_self(), sizeof(g_worker_cpus),
                           &g_worker_cpus);
  }
}

/// Learns each worker's CPU clock (and applies the worker CPU placement)
/// from a closure scheduled onto it.
WorkerClocks LearnWorkerClocks(rt::Runtime& runtime) {
  WorkerClocks clocks;
  std::atomic<int> ready{0};
  for (NodeId n = 0; n < kNodes; ++n) {
    runtime.ScheduleOn(n, 0, [&clocks, &ready, n] {
      PinWorkerThread();
      pthread_getcpuclockid(pthread_self(), &clocks.node[n]);
      ready.fetch_add(1, std::memory_order_release);
    });
  }
  runtime.ScheduleGlobal(0, [&clocks, &ready] {
    PinWorkerThread();
    pthread_getcpuclockid(pthread_self(), &clocks.service);
    ready.fetch_add(1, std::memory_order_release);
  });
  while (ready.load(std::memory_order_acquire) < kNodes + 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return clocks;
}

// ---------------------------------------------------------------------------
// Open-loop driver on the thread runtime
// ---------------------------------------------------------------------------

struct PhaseOpts {
  double rate = 1000;      // offered txn/s
  double hold_s = 1;       // arrival window
  double warmup_s = 0;     // leading part of the window left out of stats
  double grace_s = 0.5;    // drain wait after the last arrival
  int64_t backlog_bound = 0;  // abort the phase past this many in flight
  bool trace = false;
  bool recorder = false;
  bool engine_probes = false;  // time store reads / GC / clones afterwards
  size_t trace_ring_capacity = 1 << 16;
};

/// One logical (user-level) transaction of the open loop.
struct Slot {
  SimTime due = 0;          // scheduled arrival, runtime microseconds
  SimTime cb = 0;           // committing callback (Runtime::Now)
  int64_t due_ns = 0;       // the same two instants on the wall clock,
  int64_t cb_ns = 0;        // for sub-microsecond latency figures
  TxnId final_id = kInvalidTxn;
  NodeId root = kInvalidNode;
  TxnKind kind = TxnKind::kUpdate;
  int attempts = 0;         // driver thread only
  std::atomic<int> callbacks{0};
  std::atomic<int> state{0};  // 0 in flight, 1 committed, 2 failed
  txn::TxnScript script;    // kept until resolved, for retries
};

struct Retry {
  size_t slot;
  SimTime due;
  int attempt;
};

/// Everything a completion callback touches (outlives the Database).
struct LoopState {
  rt::Runtime* runtime = nullptr;
  std::unique_ptr<Slot[]> slots;
  std::atomic<uint64_t> resolved{0};
  std::atomic<uint64_t> attempt_aborts{0};
  std::atomic<int> double_completions{0};
  std::mutex retry_mu;
  std::vector<Retry> retries;  // guarded by retry_mu
};

void OnResult(LoopState* st, size_t i, int attempt, const db::TxnResult& r) {
  const SimTime now = st->runtime->Now();
  Slot& s = st->slots[i];
  s.callbacks.fetch_add(1, std::memory_order_relaxed);
  const bool committed = r.outcome == TxnOutcome::kCommitted;
  if (!committed) {
    st->attempt_aborts.fetch_add(1, std::memory_order_relaxed);
    if (r.status.IsRetryable() && attempt < kMaxRetries) {
      std::lock_guard<std::mutex> lk(st->retry_mu);
      st->retries.push_back({i, now + kRetryBackoff * (1 + attempt),
                             attempt + 1});
      return;
    }
  }
  if (committed) {
    s.cb = now;
    s.cb_ns = WallNs();
    s.final_id = r.id;
  }
  int expected = 0;
  if (!s.state.compare_exchange_strong(expected, committed ? 1 : 2,
                                       std::memory_order_acq_rel)) {
    st->double_completions.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  st->resolved.fetch_add(1, std::memory_order_release);
}

/// Per-transaction latency split of the traced run (runtime microseconds).
struct Stages {
  std::vector<int64_t> queue, exec, lock_wait, twopc, commit_apply, callback;
  uint64_t attributed = 0;
  uint64_t unattributed = 0;
};

struct PhaseResult {
  bool collapsed = false;
  double collapse_s = 0;     // arrival window time until the backlog bound
  double setup_s = 0;
  double window_s = 0;       // warm-up end .. end of drain
  double des_wall_s = 0;     // DES only: wall time of the simulated run
  double steal_share = 0;    // host CPU time stolen from this VM
  uint64_t submitted = 0;    // logical transactions submitted
  uint64_t committed = 0;
  uint64_t failed = 0;       // gave up, or unresolved at the drain deadline
  uint64_t attempt_aborts = 0;
  std::vector<double> update_lat, query_lat;  // due -> callback, us
  std::vector<double> late_us;                 // submit - due
  std::vector<double> gen_ns, submit_ns;
  double cpu_s = 0;          // program threads (process minus driver)
  double node_busy_max = 0, service_busy = 0;
  uint64_t closures = 0, msgs = 0;
  db::MetricsSnapshot snap;
  std::vector<double> world_stop_us;
  Stages stages;
  double oracle_s = 0;
  uint64_t trace_dropped = 0;
  // Engine read-outs after Shutdown.
  uint64_t lock_acquires = 0, lock_waits = 0, deadlocks = 0;
  double lock_wait_us = 0;   // summed queue time of granted waits
  uint64_t log_records = 0, latch_ops = 0;
  int max_live_versions = 0;
  double versions_per_item = 0;
  double read_p50_ns = 0, gc_sweep_ms = 0, clone_ms = 0;
  double partition_skew = 0;
  double background_busy = 0;
};

/// Builds and loads a Database; the load is one RunExclusive safepoint on
/// the thread runtime (one per item would stop the world 393k times).
std::unique_ptr<db::Database> Setup(const db::DatabaseOptions& opt,
                                    const Mix& mix, double* setup_s) {
  const int64_t start = WallNs();
  auto dbase = std::make_unique<db::Database>(opt);
  db::Engine& engine = dbase->engine();
  const cluster::Catalog& cat = dbase->catalog();
  auto load = [&] {
    for (ItemId item = 0; item < mix.spec.TotalItems(); ++item) {
      engine.LoadInitial(cat.HomeOf(item), item, mix.spec.initial_value);
    }
  };
  dbase->runtime().RunExclusive(load);
  const int64_t end = WallNs();
  g_spans.Add("db.setup", start, end);
  *setup_s = static_cast<double>(end - start) / 1e9;
  return dbase;
}

void ComputeStages(db::Database& dbase, const LoopState& st, size_t n,
                   SimTime from_due, Stages* out);
void ReadEngine(db::Database& dbase, const Mix& mix, Rng& rng, bool probes,
                PhaseResult* r);

/// Runs one open-loop phase on a fresh thread-runtime Database: seeded
/// Poisson arrivals at `o.rate` for `o.hold_s`, each timed from its due
/// time; a bounded drain; Shutdown; then the post-Shutdown read-outs.
PhaseResult RunThreadPhase(const Mix& mix, const PhaseOpts& o, uint64_t seed,
                           const char* label) {
  PhaseResult r;
  g_span_every_call = o.trace;
  db::DatabaseOptions opt = OptionsFor(mix, db::RuntimeKind::kThread, seed);
  opt.enable_trace = o.trace;
  opt.enable_recorder = o.recorder;
  opt.trace_ring_capacity = o.trace_ring_capacity;
  auto dbase = Setup(opt, mix, &r.setup_s);
  rt::Runtime& runtime = dbase->runtime();
  rt::ThreadRuntime& trt = *dbase->thread_runtime();
  db::Engine& engine = dbase->engine();
  const WorkerClocks clocks = LearnWorkerClocks(runtime);

  // Inputs: arrival times and kinds from the seed; scripts are generated
  // just in time by the driver thread and handed to Submit.
  Rng arrivals(seed ^ 0x51A7E5EEDULL);
  wl::ScriptGenerator gen(mix.spec, Rng(seed), &dbase->catalog());
  std::vector<double> offsets;
  std::vector<uint8_t> is_query;
  for (double t = arrivals.Exponential(1e6 / o.rate); t < o.hold_s * 1e6;
       t += arrivals.Exponential(1e6 / o.rate)) {
    offsets.push_back(t);
    is_query.push_back(arrivals.NextDouble() >= mix.update_share ? 1 : 0);
  }
  const size_t n = offsets.size();
  LoopState st;
  st.runtime = &runtime;
  st.slots = std::make_unique<Slot[]>(n);

  // World-stop probe (traced runs): an empty RunExclusive from the service
  // context every 20 ms, timed around the call.
  struct Probe {
    rt::Runtime* runtime = nullptr;
    std::atomic<bool> stop{false};
    std::vector<double> waits_us;  // service worker only until Shutdown
    void Arm() {
      runtime->ScheduleGlobal(20 * kMillisecond, [this] {
        if (stop.load(std::memory_order_relaxed)) return;
        const int64_t a = WallNs();
        runtime->RunExclusive([] {});
        waits_us.push_back(static_cast<double>(WallNs() - a) / 1e3);
        Arm();
      });
    }
  } probe;
  probe.runtime = &runtime;
  if (o.trace) probe.Arm();

  auto generate = [&](size_t i) {
    const int64_t a = WallNs();
    st.slots[i].script = is_query[i] ? gen.NextQuery() : gen.NextUpdate();
    const int64_t e = WallNs();
    r.gen_ns.push_back(static_cast<double>(e - a));
    if (g_span_every_call) g_spans.Add("workload.ScriptGenerator", a, e);
    st.slots[i].kind = st.slots[i].script.kind;
    st.slots[i].root = st.slots[i].script.subtxns[0].node;
  };
  auto submit = [&](size_t i, int attempt) {
    Slot& s = st.slots[i];
    ++s.attempts;
    txn::TxnScript copy = s.script;
    const TxnId id = dbase->NextTxnId();
    const int64_t a = WallNs();
    engine.Submit(id, std::move(copy),
                  [stp = &st, i, attempt](const db::TxnResult& res) {
                    OnResult(stp, i, attempt, res);
                  });
    const int64_t e = WallNs();
    r.submit_ns.push_back(static_cast<double>(e - a));
    if (g_span_every_call) g_spans.Add("engine.Submit", a, e);
    if (attempt == 0) {
      r.late_us.push_back(static_cast<double>(a - s.due_ns) / 1e3);
    }
  };

  // Counters are read when the warm-up ends (the measured window).
  int64_t cpu_proc0 = 0, cpu_drv0 = 0, cpu_svc0 = 0, cpu_node0[kNodes] = {};
  uint64_t seq0 = 0, sent0 = 0;
  std::pair<double, double> steal0;
  auto start_window = [&] {
    cpu_proc0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    cpu_drv0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    for (int k = 0; k < kNodes; ++k) cpu_node0[k] = CpuNs(clocks.node[k]);
    cpu_svc0 = CpuNs(clocks.service);
    seq0 = runtime.Seq();
    sent0 = trt.TotalSent();
    steal0 = StealJiffies();
  };

  const SimTime t0 = runtime.Now() + 2000;
  const SimTime t_warm = t0 + static_cast<SimTime>(o.warmup_s * 1e6);
  bool in_window = false;
  if (o.warmup_s <= 0) {
    start_window();
    in_window = true;
  }
  const int64_t wall_t0 = WallNs() + 2'000'000;
  for (size_t i = 0; i < n; ++i) {
    st.slots[i].due = t0 + static_cast<SimTime>(offsets[i]);
    st.slots[i].due_ns = wall_t0 + static_cast<int64_t>(offsets[i] * 1e3);
  }
  const SimTime t_end = t0 + static_cast<SimTime>(o.hold_s * 1e6);
  const SimTime t_deadline = t_end + static_cast<SimTime>(o.grace_s * 1e6);
  size_t next = 0;        // next arrival to submit
  size_t free_from = 0;   // scripts below this index are released
  SimTime next_adv = t0 + kAdvancePeriod;
  int adv_tick = 0;
  std::vector<Retry> due_retries;
  if (n > 0) generate(0);
  while (true) {
    SimTime now = runtime.Now();
    if (!in_window && now >= t_warm) {
      start_window();
      in_window = true;
    }
    while (next < n && st.slots[next].due <= now) {
      submit(next, 0);
      ++next;
      if (next < n) generate(next);
      now = runtime.Now();
    }
    {
      std::lock_guard<std::mutex> lk(st.retry_mu);
      auto split = std::partition(
          st.retries.begin(), st.retries.end(),
          [now](const Retry& rt) { return rt.due > now; });
      due_retries.assign(split, st.retries.end());
      st.retries.erase(split, st.retries.end());
    }
    for (const Retry& rt : due_retries) submit(rt.slot, rt.attempt);
    if (now >= next_adv && now < t_end) {
      const NodeId k = static_cast<NodeId>(adv_tick++ % kNodes);
      runtime.ScheduleOn(k, 0, [&engine, k] { engine.TriggerAdvancement(k); });
      next_adv += kAdvancePeriod;
    }
    while (free_from < next &&
           st.slots[free_from].state.load(std::memory_order_acquire) != 0) {
      st.slots[free_from++].script = txn::TxnScript();
    }
    const uint64_t resolved = st.resolved.load(std::memory_order_acquire);
    if (o.backlog_bound > 0 &&
        static_cast<int64_t>(next - resolved) > o.backlog_bound) {
      r.collapsed = true;
      r.collapse_s = static_cast<double>(now - t0) / 1e6;
      break;
    }
    if (next == n && now >= t_end) {
      if (resolved == n || now >= t_deadline) break;
    }
    // Wait for the next arrival, advancement tick or retry poll (<= 1 ms).
    SimTime wake = now + 1000;
    if (next < n) wake = std::min(wake, st.slots[next].due);
    if (now < t_end) wake = std::min(wake, next_adv);
    if (!in_window) wake = std::min(wake, t_warm);
    // Spin rather than sleep: a sleeping generator wakes tens of
    // microseconds late on every arrival, which would be billed to the
    // program as latency.
    const int64_t wake_ns = wall_t0 + (wake - t0) * 1000;
    while (WallNs() < wake_ns) {
      __builtin_ia32_pause();
    }
  }
  const SimTime t_stop = runtime.Now();
  if (!in_window) start_window();
  r.window_s = static_cast<double>(t_stop - std::max(t0, t_warm)) / 1e6;
  const double wall = r.window_s;
  for (int k = 0; k < kNodes; ++k) {
    r.node_busy_max =
        std::max(r.node_busy_max,
                 static_cast<double>(CpuNs(clocks.node[k]) - cpu_node0[k]) /
                     1e9 / wall);
  }
  r.service_busy =
      static_cast<double>(CpuNs(clocks.service) - cpu_svc0) / 1e9 / wall;
  r.cpu_s = static_cast<double>((CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu_proc0) -
                                (CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu_drv0)) /
            1e9;
  r.closures = runtime.Seq() - seq0;
  r.msgs = trt.TotalSent() - sent0;
  r.steal_share = StealShare(steal0, StealJiffies());
  r.snap = g_spans.Time("db.SnapshotMetrics",
                        [&] { return dbase->SnapshotMetrics(); });
  probe.stop.store(true);
  g_spans.Time("db.Shutdown", [&] { dbase->Shutdown(); });
  r.world_stop_us = std::move(probe.waits_us);

  // Resolution accounting: every submission completes exactly once or is
  // counted as failed.
  r.submitted = next;
  r.attempt_aborts = st.attempt_aborts.load();
  if (st.double_completions.load() > 0) {
    Fail(std::string(label) + ": a transaction completed twice");
  }
  for (size_t i = 0; i < next; ++i) {
    const Slot& s = st.slots[i];
    const int state = s.state.load();
    const int cbs = s.callbacks.load();
    if (cbs > s.attempts || (state != 0 && cbs != s.attempts)) {
      Fail(std::string(label) + ": callback count mismatch for a submission");
    }
    if (state == 1) {
      if (s.due < t_warm) continue;
      ++r.committed;
      (s.kind == TxnKind::kUpdate ? r.update_lat : r.query_lat)
          .push_back(static_cast<double>(s.cb_ns - s.due_ns) / 1e3);
    } else {
      ++r.failed;
    }
  }
  if (o.trace) {
    g_spans.Time("trace.Drain", [&] { dbase->trace().Drain(); });
    r.trace_dropped = dbase->trace().dropped();
    ComputeStages(*dbase, st, next, t_warm, &r.stages);
  }
  CheckEngine(*dbase, label);
  if (o.recorder && !r.collapsed) {
    r.oracle_s = RunOracles(mix, *dbase, label,
                            mix.spec.partitions_per_node == 1);
  }
  Rng probe_rng(seed ^ 0x7EADULL);
  ReadEngine(*dbase, mix, probe_rng, o.engine_probes, &r);
  g_spans.Time("db.destroy", [&] { dbase.reset(); });
  g_span_every_call = false;
  return r;
}

/// Splits each committed transaction's latency (due -> callback) into six
/// stages from the trace events the program already emits, plus the
/// driver's own due and callback stamps. The stages sum to the latency by
/// construction; what is checked is that the program's spans nest the way
/// the split assumes (lock waits, 2PC round and commit apply inside the
/// root span, none negative).
void ComputeStages(db::Database& dbase, const LoopState& st, size_t n,
                   SimTime from_due, Stages* out) {
  struct Spans {
    SimTime root_b = -1, root_e = -1;
    SimTime lock = 0;
    SimTime twopc_b = -1, twopc_e = -1, apply_b = -1, apply_e = -1;
  };
  std::unordered_map<TxnId, size_t> slot_of;
  for (size_t i = 0; i < n; ++i) {
    const Slot& s = st.slots[i];
    if (s.state.load() == 1 && s.due >= from_due) slot_of[s.final_id] = i;
  }
  std::unordered_map<TxnId, Spans> spans;
  std::unordered_map<uint64_t, SimTime> open;  // span id -> begin time
  for (const TraceEvent& ev : dbase.trace().events()) {
    if (ev.op == TraceOp::kInstant) continue;
    const bool root_kind = ev.kind == TraceKind::kUpdateTxn ||
                           ev.kind == TraceKind::kQueryTxn;
    if (!root_kind && ev.kind != TraceKind::kLockWait &&
        ev.kind != TraceKind::kTwoPcRound &&
        ev.kind != TraceKind::kCommitApply) {
      continue;
    }
    auto sit = slot_of.find(ev.txn);
    if (sit == slot_of.end() || ev.node != st.slots[sit->second].root) continue;
    if (ev.op == TraceOp::kBegin) {
      open[ev.span] = ev.time;
      continue;
    }
    auto oit = open.find(ev.span);
    if (oit == open.end()) continue;
    const SimTime b = oit->second;
    open.erase(oit);
    Spans& sp = spans[ev.txn];
    switch (ev.kind) {
      case TraceKind::kUpdateTxn:
      case TraceKind::kQueryTxn:
        sp.root_b = b;
        sp.root_e = ev.time;
        break;
      case TraceKind::kLockWait:
        sp.lock += ev.time - b;
        break;
      case TraceKind::kTwoPcRound:
        sp.twopc_b = b;
        sp.twopc_e = ev.time;
        break;
      default:
        sp.apply_b = b;
        sp.apply_e = ev.time;
        break;
    }
  }
  bool nesting_ok = true;
  for (const auto& [id, i] : slot_of) {
    const Slot& s = st.slots[i];
    auto it = spans.find(id);
    const bool update = s.kind == TxnKind::kUpdate;
    if (it == spans.end() || it->second.root_b < 0 ||
        (update && (it->second.twopc_b < 0 || it->second.apply_b < 0))) {
      ++out->unattributed;  // a span lost to ring overflow
      continue;
    }
    const Spans& sp = it->second;
    // The program invokes the completion callback just before it closes
    // the root span, so the span is clipped at the callback stamp.
    const SimTime end = std::min(sp.root_e, s.cb);
    const SimTime twopc = update ? sp.twopc_e - sp.twopc_b : 0;
    const SimTime apply = update ? sp.apply_e - sp.apply_b : 0;
    const SimTime queue = sp.root_b - s.due;
    const SimTime exec = (end - sp.root_b) - sp.lock - twopc - apply;
    const SimTime callback = s.cb - end;
    if (queue < 0 || exec < 0 || callback < 0 ||
        (update && (sp.twopc_b < sp.root_b || sp.apply_e > end ||
                    sp.twopc_e > sp.apply_b))) {
      nesting_ok = false;
    }
    if (queue + exec + sp.lock + twopc + apply + callback != s.cb - s.due) {
      nesting_ok = false;
    }
    out->queue.push_back(queue);
    out->exec.push_back(exec);
    out->lock_wait.push_back(sp.lock);
    out->twopc.push_back(twopc);
    out->commit_apply.push_back(apply);
    out->callback.push_back(callback);
    ++out->attributed;
  }
  if (!nesting_ok) {
    Fail("stage split: spans do not nest inside the root span");
  }
  if (out->attributed == 0) Fail("stage split: no committed txn attributed");
}

/// Post-Shutdown read-outs of the always-on counters, plus (when `probes`)
/// timed calls into the final stores: point reads at the query version,
/// a checkpoint-sized clone and a GC sweep of the largest partition.
void ReadEngine(db::Database& dbase, const Mix& mix, Rng& rng, bool probes,
                PhaseResult* r) {
  core::Ava3Engine& eng = *dbase.ava3_engine();
  const cluster::Catalog& cat = eng.catalog();
  int64_t versions = 0, items = 0;
  PartitionId largest = 0;
  std::vector<uint64_t> node_checkpoints(kNodes, 0);
  for (PartitionId p = 0; p < eng.num_partitions(); ++p) {
    const lock::LockStats& ls = eng.partition_locks(p).stats();
    r->lock_acquires += ls.acquisitions;
    r->lock_waits += ls.waits;
    r->lock_wait_us += static_cast<double>(ls.total_wait_micros);
    const wal::DurableLog& log = eng.durable_log(p);
    r->log_records += log.records_logged();
    node_checkpoints[static_cast<size_t>(cat.NodeOf(p))] += log.checkpoints();
    const store::VersionedStore& s = eng.partition_store(p);
    r->max_live_versions =
        std::max(r->max_live_versions, s.MaxLiveVersionsObserved());
    versions += s.TotalVersionCount();
    items += static_cast<int64_t>(s.NumItems());
    if (s.NumItems() > eng.partition_store(largest).NumItems()) largest = p;
  }
  r->versions_per_item =
      items > 0 ? static_cast<double>(versions) / static_cast<double>(items)
                : 0;
  r->deadlocks = eng.deadlock_detector().deadlocks_found();
  r->latch_ops = eng.TotalLatchOps();
  std::vector<double> per_part(static_cast<size_t>(eng.num_partitions()), 0);
  for (const auto& row : r->snap.partition_ops) {
    for (size_t p = 0; p < row.size() && p < per_part.size(); ++p) {
      per_part[p] += static_cast<double>(row[p]);
    }
  }
  double total = 0, peak = 0;
  for (double v : per_part) {
    total += v;
    peak = std::max(peak, v);
  }
  r->partition_skew =
      total > 0 ? peak / (total / static_cast<double>(per_part.size())) : 0;
  if (!probes) return;

  // Point reads at each home node's query version q, over the workload's
  // (uniform) key distribution, timed in batches of 64.
  constexpr int kBatch = 64;
  std::vector<double> batch_ns;
  for (int b = 0; b < 256; ++b) {
    ItemId keys[kBatch];
    const store::VersionedStore* stores[kBatch];
    Version at[kBatch];
    for (int k = 0; k < kBatch; ++k) {
      keys[k] = static_cast<ItemId>(
          rng.Uniform(static_cast<uint64_t>(mix.spec.TotalItems())));
      stores[k] = &eng.partition_store(cat.PartitionOf(keys[k]));
      at[k] = eng.control(cat.HomeOf(keys[k])).q();
    }
    int64_t found = 0;
    const int64_t a = WallNs();
    for (int k = 0; k < kBatch; ++k) {
      found += stores[k]->ReadAtMost(keys[k], at[k]).ok() ? 1 : 0;
    }
    const int64_t e = WallNs();
    g_spans.Add("storage.ReadAtMost x64", a, e);
    batch_ns.push_back(static_cast<double>(e - a) / kBatch);
    if (found != kBatch) Fail("storage probe: a loaded item was not readable");
  }
  r->read_p50_ns = Median(batch_ns);

  const store::VersionedStore& big = eng.partition_store(largest);
  const auto& ctl = eng.control(cat.NodeOf(largest));
  std::vector<double> clone_ms, gc_ms;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t a = WallNs();
    std::unique_ptr<store::VersionedStore> copy = big.Clone();
    int64_t e = WallNs();
    g_spans.Add("storage.Clone", a, e);
    clone_ms.push_back(static_cast<double>(e - a) / 1e6);
    a = WallNs();
    copy->GarbageCollect(ctl.g(), ctl.q());
    e = WallNs();
    g_spans.Add("storage.GarbageCollect", a, e);
    gc_ms.push_back(static_cast<double>(e - a) / 1e6);
  }
  r->clone_ms = Median(clone_ms);
  r->gc_sweep_ms = Median(gc_ms);
  const double gc_rounds = static_cast<double>(r->snap.advancements) *
                           mix.spec.partitions_per_node;
  for (int k = 0; k < kNodes; ++k) {
    const double busy_ms = gc_rounds * r->gc_sweep_ms +
                           static_cast<double>(node_checkpoints[k]) *
                               r->clone_ms;
    r->background_busy =
        std::max(r->background_busy, busy_ms / (r->window_s * 1e3));
  }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

using MetricMap = std::map<std::string, double>;

struct RunSummary {
  MetricMap metrics;
  MetricMap info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

double PerK(double num, double den) { return den > 0 ? num * 1000 / den : 0; }
double Per(double num, double den) { return den > 0 ? num / den : 0; }

/// Bare sleep_until loop at the hot_oltp arrival rate: how late the host
/// wakes a sleeping thread, with no program running.
double SleepLateP99Us(double rate, double seconds, uint64_t seed) {
  Rng rng(seed ^ 0x5EEDF00DULL);
  std::vector<double> late;
  const int64_t start = WallNs();
  int64_t due = start;
  while (due - start < static_cast<int64_t>(seconds * 1e9)) {
    due += static_cast<int64_t>(rng.Exponential(1e9 / rate));
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(due)));
    late.push_back(static_cast<double>(WallNs() - due) / 1e3);
  }
  g_spans.Add("host.sleep_probe", start, WallNs());
  return Pct(late, 99);
}

/// Latency figures of committed transactions (due -> callback).
void PutLatency(const std::vector<double>& update,
                const std::vector<double>& query, MetricMap* m) {
  (*m)["update_iqm_us"] = Iqm(update);
  (*m)["query_iqm_us"] = Iqm(query);
  (*m)["update_p50_us"] = Pct(update, 50);
  (*m)["update_p99_us"] = Pct(update, 99);
  (*m)["query_p50_us"] = Pct(query, 50);
  (*m)["query_p99_us"] = Pct(query, 99);
}

/// End-to-end metrics of one open-loop phase.
void PutEndToEnd(const PhaseResult& r, MetricMap* m) {
  PutLatency(r.update_lat, r.query_lat, m);
  (*m)["commit_per_s"] = Per(static_cast<double>(r.committed), r.window_s);
  (*m)["failed_share"] =
      Per(static_cast<double>(r.failed), static_cast<double>(r.submitted));
  (*m)["cpu_us_per_commit"] = Per(r.cpu_s * 1e6, r.committed);
  (*m)["staleness_p50_ms"] =
      static_cast<double>(r.snap.staleness.Percentile(50)) / 1e3;
}

/// Per-layer metrics of one untraced open-loop phase (always-on counters
/// and the driver's own timings).
void PutLayers(const PhaseResult& r, MetricMap* m) {
  const double commits = static_cast<double>(r.committed);
  (*m)["runtime.closures_per_commit"] = Per(r.closures, commits);
  (*m)["runtime.msgs_per_commit"] = Per(r.msgs, commits);
  (*m)["runtime.node_busy_max"] = r.node_busy_max;
  (*m)["runtime.service_busy"] = r.service_busy;
  (*m)["engine.submit_p50_ns"] = Pct(r.submit_ns, 50);
  (*m)["engine.twopc_p50_us"] =
      static_cast<double>(r.snap.twopc_round.Percentile(50));
  (*m)["engine.twopc_mean_us"] = r.snap.twopc_round.Mean();
  (*m)["engine.twopc_p99_us"] =
      static_cast<double>(r.snap.twopc_round.Percentile(99));
  (*m)["engine.commit_apply_p50_us"] =
      static_cast<double>(r.snap.commit_apply.Percentile(50));
  (*m)["engine.commit_apply_mean_us"] = r.snap.commit_apply.Mean();
  (*m)["engine.aborts_per_1k"] = PerK(r.snap.aborts, commits);
  (*m)["lock.acquires_per_commit"] = Per(r.lock_acquires, commits);
  (*m)["lock.wait_ratio"] = Per(r.lock_waits, r.lock_acquires);
  (*m)["lock.wait_p99_us"] =
      static_cast<double>(r.snap.lock_wait.Percentile(99));
  (*m)["lock.wait_mean_us"] = Per(r.lock_wait_us, r.lock_waits);
  (*m)["lock.deadlocks_per_1k"] = PerK(r.deadlocks, commits);
  (*m)["storage.read_p50_ns"] = r.read_p50_ns;
  (*m)["storage.gc_sweep_ms"] = r.gc_sweep_ms;
  (*m)["storage.versions_per_item"] = r.versions_per_item;
  (*m)["storage.max_live_versions"] = r.max_live_versions;
  (*m)["log.checkpoint_clone_ms"] = r.clone_ms;
  (*m)["log.records_per_commit"] = Per(r.log_records, commits);
  (*m)["ava3.advancements_per_s"] = Per(r.snap.advancements, r.window_s);
  (*m)["ava3.advance_p50_us"] =
      static_cast<double>(r.snap.advancement_duration.Percentile(50));
  (*m)["ava3.phase2_p99_us"] =
      static_cast<double>(r.snap.phase2_duration.Percentile(99));
  (*m)["ava3.mtf_per_1k"] = PerK(r.snap.mtf_count, commits);
  (*m)["ava3.latch_ops_per_commit"] = Per(r.latch_ops, commits);
  (*m)["ava3.background_busy"] = r.background_busy;
  (*m)["cluster.partition_ops_skew"] = r.partition_skew;
  (*m)["workload.gen_p50_ns"] = Pct(r.gen_ns, 50);
  (*m)["driver.late_p99_us"] = Pct(r.late_us, 99);
  (*m)["cpu_us_per_commit"] = Per(r.cpu_s * 1e6, r.committed);
  (*m)["staleness_p50_ms"] =
      static_cast<double>(r.snap.staleness.Percentile(50)) / 1e3;
  PutLatency(r.update_lat, r.query_lat, m);
  (*m)["host.steal_share"] = r.steal_share;
  (*m)["failed_share"] =
      Per(static_cast<double>(r.failed), static_cast<double>(r.submitted));
}

/// Per-layer metrics only the traced run can give.
void PutTraced(const PhaseResult& traced, const PhaseResult& plain,
               MetricMap* m) {
  const Stages& s = traced.stages;
  const std::pair<const char*, const std::vector<int64_t>*> stages[] = {
      {"queue", &s.queue},           {"exec", &s.exec},
      {"lock_wait", &s.lock_wait},   {"twopc", &s.twopc},
      {"commit_apply", &s.commit_apply}, {"callback", &s.callback}};
  double total = 0;
  for (const auto& [name, v] : stages) {
    (*m)[std::string("stage.") + name + "_p50_us"] = Pct(*v, 50);
    (*m)[std::string("stage.") + name + "_mean_us"] = Mean(*v);
    total += Mean(*v);
  }
  // The stage means add up to the traced run's mean latency.
  (*m)["stage.latency_mean_us"] = total;
  (*m)["stage.attributed_share"] =
      Per(s.attributed, static_cast<double>(s.attributed + s.unattributed));
  (*m)["trace.dropped"] = static_cast<double>(traced.trace_dropped);
  (*m)["trace.overhead_ratio"] =
      Per(Per(traced.cpu_s, traced.committed), Per(plain.cpu_s, plain.committed));
  (*m)["verify.oracle_s"] = traced.oracle_s;
  (*m)["runtime.world_stop_p99_us"] = Pct(traced.world_stop_us, 99);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

struct ThreadCfg {
  Mix mix;
  double rate;            // nominal offered load, txn/s
  double hold_share;      // share of --seconds the nominal phase holds
  int extra_setups;       // set-up repetitions beside the phases' own
  double ramp_start;      // first ramp step, txn/s
  double ramp_hold_s;     // hold per ramp step
  double trace_hold_s;    // traced phase (bounded by the trace rings)
  size_t ring_capacity;   // trace events per worker ring
};

/// The SLO ramp's search: climbs from `start` by `factor` until `step`
/// fails, then bisects twice (geometrically) between the last pass and the
/// first failure. Returns the highest passing rate, 0 if none; *first_fail
/// is the first failing rate, 0 if the climb passed the cap that bounds the
/// ramp's cost.
template <typename Step>
double ClimbAndBisect(double start, double factor, Step&& step,
                      double* first_fail) {
  constexpr double kCap = 512000;
  double best = 0, rate = start;
  while (rate <= kCap && step(rate)) {
    best = rate;
    rate *= factor;
  }
  *first_fail = rate <= kCap ? rate : 0;
  if (rate > kCap) return best;
  double lo = best > 0 ? best : rate / 2, hi = rate;
  for (int b = 0; b < 2; ++b) {
    const double mid = std::round(std::sqrt(lo * hi));
    if (step(mid)) {
      best = lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

struct RampResult {
  double max_rate = 0;
  double first_fail = 0;
  double collapse_s = 0;  // arrival time until the backlog bound, 0 if none
  int steps = 0;
  int collapses = 0;
};

/// Highest offered rate whose update and query p99 stay within the SLO with
/// no failed submission and no growing backlog, on fresh databases. Climbs
/// geometrically until a step fails (so it always runs into the limit,
/// collapse included), then bisects twice between the last pass and the
/// first failure.
RampResult Ramp(const ThreadCfg& cfg, uint64_t seed,
                std::vector<double>* setups) {
  RampResult out;
  auto step = [&](double rate) {
    PhaseOpts o;
    o.rate = rate;
    o.hold_s = cfg.ramp_hold_s;
    o.grace_s = 0.25;
    // More than 100 ms of arrivals in flight: the system is not keeping up.
    o.backlog_bound = std::max<int64_t>(200, static_cast<int64_t>(rate / 10));
    const PhaseResult r =
        RunThreadPhase(cfg.mix, o, seed * 1000 + out.steps, "ramp");
    ++out.steps;
    setups->push_back(r.setup_s);
    const double up99 = Pct(r.update_lat, 99), qp99 = Pct(r.query_lat, 99);
    const bool pass = !r.collapsed && r.failed == 0 && up99 <= kSloUs &&
                      qp99 <= kSloUs;
    if (r.collapsed) {
      ++out.collapses;
      if (out.collapse_s == 0) out.collapse_s = r.collapse_s;
    }
    std::printf("  ramp %8.0f txn/s: %s  update p99 %8.0f us  query p99 %8.0f"
                " us  failed %llu%s\n",
                rate, pass ? "pass" : "FAIL", up99, qp99,
                static_cast<unsigned long long>(r.failed),
                r.collapsed ? "  (backlog bound: collapse)" : "");
    std::fflush(stdout);
    return pass;
  };
  out.max_rate = ClimbAndBisect(cfg.ramp_start, 1.25, step, &out.first_fail);
  return out;
}

void RunThreadWorkload(const ThreadCfg& cfg, const Args& args,
                       RunSummary* sum) {
  const double rate = cfg.rate;
  PhaseOpts nominal;
  nominal.rate = rate;
  nominal.hold_s = cfg.hold_share * args.seconds;
  nominal.grace_s = 0.5;
  nominal.warmup_s = std::min(1.0, nominal.hold_s / 4);
  // Bound the cost of a collapse; the lost submissions count as failed.
  nominal.backlog_bound = static_cast<int64_t>(rate * 2);
  sum->info["nominal_rate_per_s"] = rate;
  if (!args.trace) {
    std::vector<double> setups;
    for (int k = 0; k < cfg.extra_setups; ++k) {
      double s = 0;
      db::DatabaseOptions opt =
          OptionsFor(cfg.mix, db::RuntimeKind::kThread, args.seed);
      Setup(opt, cfg.mix, &s).reset();
      setups.push_back(s);
    }
    const PhaseResult r =
        RunThreadPhase(cfg.mix, nominal, args.seed, "nominal");
    setups.push_back(r.setup_s);
    PutEndToEnd(r, &sum->metrics);
    sum->metrics["peak_rss_mb"] = PeakRssMb();
    sum->metrics["setup_s"] = Median(setups);
    sum->attempted = r.submitted;
    sum->failed = r.failed;
    sum->info["nominal_collapsed"] = r.collapsed;
    sum->info["host.steal_share"] = r.steal_share;
    sum->info["nominal_attempt_aborts"] = r.attempt_aborts;
    return;
  }
  // Traced run: a host noise probe; an untraced phase for the always-on
  // counters; a traced phase (trace + history recorder) at the same rate
  // for the stage split, the oracles and the overhead ratio; the SLO ramp.
  sum->metrics["host.sleep_late_p99_us"] =
      SleepLateP99Us(kHotRate, 0.5, args.seed);
  nominal.engine_probes = true;
  const PhaseResult plain =
      RunThreadPhase(cfg.mix, nominal, args.seed, "untraced");
  PhaseOpts traced = nominal;
  traced.hold_s = std::min(nominal.hold_s, cfg.trace_hold_s);
  traced.trace = true;
  traced.recorder = true;
  traced.engine_probes = false;
  traced.trace_ring_capacity = cfg.ring_capacity;
  const PhaseResult tr = RunThreadPhase(cfg.mix, traced, args.seed, "traced");
  PutLayers(plain, &sum->metrics);
  PutTraced(tr, plain, &sum->metrics);
  sum->metrics["sim.events_per_commit"] = 0;  // DES-only layer
  sum->metrics["sim.events_per_s"] = 0;
  sum->metrics["sim.msgs_per_commit"] = 0;
  std::vector<double> setups;
  const RampResult ramp = Ramp(cfg, args.seed, &setups);
  sum->metrics["max_rate_in_slo_per_s"] = ramp.max_rate;
  sum->metrics["ramp.collapses"] = ramp.collapses;
  sum->metrics["ramp.collapse_s"] = ramp.collapse_s;
  sum->info["ramp.first_fail_per_s"] = ramp.first_fail;
  sum->info["ramp.steps"] = ramp.steps;
  sum->attempted = plain.submitted + tr.submitted;
  sum->failed = plain.failed + tr.failed;
}

// ---------------------------------------------------------------------------
// des_hot: the existing WorkloadRunner on the discrete-event simulator
// ---------------------------------------------------------------------------

/// Engine decorator handed to WorkloadRunner: forwards every call and
/// stamps each attempt's submit and completion times (simulated clock),
/// timing Submit itself in wall nanoseconds.
class StampingEngine final : public db::Engine {
 public:
  struct Attempt {
    SimTime submit = 0, cb = 0;
    NodeId root = kInvalidNode;
    TxnKind kind = TxnKind::kUpdate;
    int callbacks = 0;
    bool committed = false;
  };
  StampingEngine(db::Engine& inner, rt::Runtime& runtime)
      : inner_(inner), runtime_(runtime) {}

  const char* name() const override { return inner_.name(); }
  int num_nodes() const override { return inner_.num_nodes(); }
  void Submit(TxnId id, txn::TxnScript script,
              db::ResultCallback done) override {
    Attempt& a = attempts_[id];
    a.submit = runtime_.Now();
    a.root = script.subtxns[0].node;
    a.kind = script.kind;
    const int64_t start = WallNs();
    inner_.Submit(id, std::move(script),
                  [this, id, done = std::move(done)](const db::TxnResult& r) {
                    Attempt& at = attempts_[id];
                    ++at.callbacks;
                    if (r.outcome == TxnOutcome::kCommitted) {
                      at.committed = true;
                      at.cb = runtime_.Now();
                    }
                    done(r);
                  });
    const int64_t end = WallNs();
    submit_ns_.push_back(static_cast<double>(end - start));
    if (g_span_every_call) g_spans.Add("engine.Submit", start, end);
  }
  void LoadInitial(NodeId node, ItemId item, int64_t value) override {
    inner_.LoadInitial(node, item, value);
  }
  void TriggerAdvancement(NodeId coordinator) override {
    inner_.TriggerAdvancement(coordinator);
  }
  void CrashNode(NodeId node) override { inner_.CrashNode(node); }
  void RecoverNode(NodeId node) override { inner_.RecoverNode(node); }

  const std::unordered_map<TxnId, Attempt>& attempts() const {
    return attempts_;
  }
  std::vector<double>& submit_ns() { return submit_ns_; }

 private:
  db::Engine& inner_;
  rt::Runtime& runtime_;
  std::unordered_map<TxnId, Attempt> attempts_;
  std::vector<double> submit_ns_;
};

/// A loaded simulator database with the runner that drives it.
struct DesRig {
  std::unique_ptr<db::Database> dbase;
  std::unique_ptr<StampingEngine> stamping;
  std::unique_ptr<wl::WorkloadRunner> runner;
};

DesRig SetupDes(const Mix& mix, double rate, uint64_t seed, bool trace,
                bool recorder, double* setup_s) {
  db::DatabaseOptions opt = OptionsFor(mix, db::RuntimeKind::kSim, seed);
  opt.enable_trace = trace;
  opt.enable_recorder = recorder;
  const int64_t start = WallNs();
  DesRig rig;
  rig.dbase = std::make_unique<db::Database>(opt);
  rig.stamping = std::make_unique<StampingEngine>(rig.dbase->engine(),
                                                  rig.dbase->runtime());
  wl::WorkloadSpec spec = mix.spec;
  spec.update_rate_per_sec = rate * mix.update_share;
  spec.query_rate_per_sec = rate * (1 - mix.update_share);
  spec.advancement_period = kAdvancePeriod;
  spec.rotate_coordinator = true;
  spec.max_retries = kMaxRetries;
  spec.retry_backoff = kRetryBackoff;
  rig.runner = std::make_unique<wl::WorkloadRunner>(
      &rig.dbase->simulator(), rig.stamping.get(), spec, seed,
      &rig.dbase->catalog());
  rig.runner->SeedData();
  const int64_t end = WallNs();
  g_spans.Add("db.setup", start, end);
  *setup_s = static_cast<double>(end - start) / 1e9;
  return rig;
}

/// One DES run: `sim_s` simulated seconds of the hot mix at `rate`
/// (Poisson, 2 updates : 1 query), advancement every 50 ms with a rotating
/// coordinator, then a 2 s simulated drain.
PhaseResult RunDesRep(const Mix& mix, double rate, double sim_s, uint64_t seed,
                      bool trace, bool recorder, bool probes,
                      const char* label) {
  PhaseResult r;
  g_span_every_call = trace;
  DesRig rig = SetupDes(mix, rate, seed, trace, recorder, &r.setup_s);
  db::Database* dbase = rig.dbase.get();
  StampingEngine& stamping = *rig.stamping;
  wl::WorkloadRunner& runner = *rig.runner;

  const uint64_t seq0 = dbase->runtime().Seq();
  const auto steal0 = StealJiffies();
  const int64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  const int64_t wall0 = WallNs();
  const SimDuration hold = static_cast<SimDuration>(sim_s * 1e6);
  runner.Start(hold);
  dbase->RunFor(hold + 2 * kSecond);
  const int64_t wall1 = WallNs();
  g_spans.Add("sim.RunFor", wall0, wall1);
  r.cpu_s = static_cast<double>(CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0) / 1e9;
  r.closures = dbase->runtime().Seq() - seq0;
  r.msgs = dbase->network().TotalSent();
  r.steal_share = StealShare(steal0, StealJiffies());
  r.window_s = sim_s;
  r.snap = g_spans.Time("db.SnapshotMetrics",
                        [&] { return dbase->SnapshotMetrics(); });
  g_spans.Time("db.Shutdown", [&] { dbase->Shutdown(); });
  r.des_wall_s = static_cast<double>(wall1 - wall0) / 1e9;

  const wl::RunnerStats& rs = runner.stats();
  r.submitted = rs.update_attempts + rs.query_attempts;
  uint64_t unresolved = 0;
  for (const auto& [id, a] : stamping.attempts()) {
    if (a.callbacks > 1) Fail(std::string(label) + ": txn completed twice");
    if (a.callbacks == 0) ++unresolved;
    if (a.committed) {
      ++r.committed;
      (a.kind == TxnKind::kUpdate ? r.update_lat : r.query_lat)
          .push_back(static_cast<double>(a.cb - a.submit));
    }
  }
  r.failed = rs.gave_up + unresolved;
  if (r.committed != rs.committed_updates + rs.committed_queries) {
    Fail(std::string(label) + ": commit count mismatch with WorkloadRunner");
  }
  r.attempt_aborts = rs.retries + rs.gave_up;
  r.submit_ns = std::move(stamping.submit_ns());
  for (int k = 0; k < 1000; ++k) {
    const int64_t a = WallNs();
    dbase->runtime().RunExclusive([] {});
    r.world_stop_us.push_back(static_cast<double>(WallNs() - a) / 1e3);
  }
  if (trace) {
    // Reuse the thread-run stage split: due = submit on the DES.
    std::vector<const StampingEngine::Attempt*> done;
    std::vector<TxnId> ids;
    for (const auto& [id, a] : stamping.attempts()) {
      if (a.committed) {
        done.push_back(&a);
        ids.push_back(id);
      }
    }
    LoopState st;
    st.slots = std::make_unique<Slot[]>(done.size());
    for (size_t i = 0; i < done.size(); ++i) {
      Slot& s = st.slots[i];
      s.due = done[i]->submit;
      s.cb = done[i]->cb;
      s.final_id = ids[i];
      s.root = done[i]->root;
      s.kind = done[i]->kind;
      s.state.store(1);
    }
    r.trace_dropped = dbase->trace().dropped();
    ComputeStages(*dbase, st, done.size(), 0, &r.stages);
  }
  CheckEngine(*dbase, label);
  if (recorder) r.oracle_s = RunOracles(mix, *dbase, label, true);
  Rng probe_rng(seed ^ 0x7EADULL);
  ReadEngine(*dbase, mix, probe_rng, probes, &r);
  g_span_every_call = false;
  return r;
}

/// The SLO ramp on simulated time: the highest simulated rate whose
/// simulated update and query p99 stay within the SLO with nothing failed.
double DesRamp(const Mix& mix, double start, uint64_t seed, int* steps,
               double* first_fail) {
  auto step = [&](double at) {
    const PhaseResult s = RunDesRep(mix, at, 0.5, seed * 100 + 50 + *steps,
                                    false, false, false, "des_ramp");
    ++*steps;
    const bool pass = s.failed == 0 && Pct(s.update_lat, 99) <= kSloUs &&
                      Pct(s.query_lat, 99) <= kSloUs;
    std::printf("  ramp %8.0f txn/s (simulated): %s  update p99 %8.0f us"
                "  query p99 %8.0f us\n",
                at, pass ? "pass" : "FAIL", Pct(s.update_lat, 99),
                Pct(s.query_lat, 99));
    std::fflush(stdout);
    return pass;
  };
  // The DES has no CPU model, so only lock contention limits it: climb by
  // doubling.
  return ClimbAndBisect(start, 2, step, first_fail);
}

void RunDesWorkload(const Args& args, RunSummary* sum) {
  const Mix mix = HotMix();
  constexpr double rate = 2000;
  constexpr double kSimSeconds = 20;
  // Fixed work per --seconds (not per wall second), so every simulated
  // figure is a pure function of (seed, seconds).
  const int reps =
      std::max(1, static_cast<int>(std::lround(args.seconds / 2)));
  MetricMap& m = sum->metrics;
  if (!args.trace) {
    std::vector<double> setups, speed;
    for (int k = 0; k < 16; ++k) {
      double t = 0;
      SetupDes(mix, rate, args.seed, false, true, &t);
      setups.push_back(t);
    }
    std::vector<double> upd, qry;
    Histogram staleness;
    double cpu = 0;
    uint64_t commits = 0;
    for (int k = 0; k < reps; ++k) {
      PhaseResult r = RunDesRep(mix, rate, kSimSeconds, args.seed * 100 + k,
                                false, true, false, "des_hot");
      setups.push_back(r.setup_s);
      speed.push_back(Per(static_cast<double>(r.committed), r.des_wall_s));
      upd.insert(upd.end(), r.update_lat.begin(), r.update_lat.end());
      qry.insert(qry.end(), r.query_lat.begin(), r.query_lat.end());
      staleness.Merge(r.snap.staleness);
      cpu += r.cpu_s;
      commits += r.committed;
      sum->info["host.steal_share"] += r.steal_share / reps;
      sum->attempted += r.submitted;
      sum->failed += r.failed;
    }
    PutLatency(upd, qry, &m);
    // Committed per simulated second: the throughput the simulated cluster
    // sustains at the offered load. How fast the simulator runs on this
    // host is printed beside it (and sim.events_per_s in the traced run).
    m["commit_per_s"] = Per(static_cast<double>(commits), reps * kSimSeconds);
    m["sim.commits_per_wall_s"] = Median(speed);
    m["failed_share"] = Per(static_cast<double>(sum->failed),
                            static_cast<double>(sum->attempted));
    m["cpu_us_per_commit"] = Per(cpu * 1e6, commits);
    m["staleness_p50_ms"] =
        static_cast<double>(staleness.Percentile(50)) / 1e3;
    m["peak_rss_mb"] = PeakRssMb();
    m["setup_s"] = Median(setups);
    sum->info["des_reps"] = reps;
    return;
  }
  m["host.sleep_late_p99_us"] = SleepLateP99Us(kHotRate, 0.5, args.seed);
  const PhaseResult plain = RunDesRep(mix, rate, kSimSeconds, args.seed * 100,
                                      false, true, true, "des_hot");
  const PhaseResult tr = RunDesRep(mix, rate, kSimSeconds, args.seed * 100,
                                   true, true, false, "des_hot traced");
  PutLayers(plain, &m);
  PutTraced(tr, plain, &m);
  // The DES submits at the arrival instant and has no worker threads.
  m["driver.late_p99_us"] = 0;
  m["runtime.node_busy_max"] = 0;
  m["runtime.service_busy"] = 0;
  const double commits = static_cast<double>(plain.committed);
  m["sim.events_per_commit"] = Per(plain.closures, commits);
  m["sim.events_per_s"] = Per(plain.closures, plain.des_wall_s);
  m["sim.msgs_per_commit"] = Per(plain.msgs, commits);
  // WorkloadRunner's generator calls are internal; time the same generator
  // on the same spec and seed.
  wl::ScriptGenerator gen(mix.spec, Rng(args.seed), nullptr);
  std::vector<double> gen_ns;
  for (int k = 0; k < 3000; ++k) {
    const int64_t a = WallNs();
    txn::TxnScript s = (k % 3 == 2) ? gen.NextQuery() : gen.NextUpdate();
    gen_ns.push_back(static_cast<double>(WallNs() - a));
  }
  m["workload.gen_p50_ns"] = Pct(gen_ns, 50);
  int steps = 0;
  double first_fail = 0;
  m["max_rate_in_slo_per_s"] =
      DesRamp(mix, rate, args.seed, &steps, &first_fail);
  m["ramp.collapses"] = 0;  // simulated steps have no backlog bound
  sum->info["ramp.first_fail_per_s"] = first_fail;
  sum->info["ramp.steps"] = steps;
  sum->attempted = plain.submitted + tr.submitted;
  sum->failed = plain.failed + tr.failed;
}

ThreadCfg HotCfg() {
  ThreadCfg c;
  c.mix = HotMix();
  c.rate = kHotRate;
  c.hold_share = 0.8;
  c.extra_setups = 16;
  c.ramp_start = 4000;
  c.ramp_hold_s = 1.0;
  c.trace_hold_s = 3.0;
  c.ring_capacity = 1 << 17;
  return c;
}

ThreadCfg ScanCfg() {
  ThreadCfg c;
  c.mix = ScanMix();
  c.rate = 1500;
  c.hold_share = 0.8;
  c.extra_setups = 4;
  c.ramp_start = 500;
  c.ramp_hold_s = 1.0;
  c.trace_hold_s = 3.0;
  c.ring_capacity = 1 << 17;
  return c;
}

void PrintJson(const Args& args, const RunSummary& sum) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"correct\":%s,\"errors\":[",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, g_errors.empty() ? "true" : "false");
  for (size_t i = 0; i < g_errors.size(); ++i) {
    std::string e = g_errors[i];
    std::replace(e.begin(), e.end(), '"', '\'');
    std::printf("%s\"%s\"", i ? "," : "", e.c_str());
  }
  std::printf("],\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              static_cast<unsigned long long>(sum.attempted),
              static_cast<unsigned long long>(sum.failed));
  const char* sep = "";
  for (const auto& [k, v] : sum.metrics) {
    std::printf("%s\"%s\":%.17g", sep, k.c_str(), v);
    sep = ",";
  }
  std::printf("},\"info\":{");
  sep = "";
  for (const auto& [k, v] : sum.info) {
    std::printf("%s\"%s\":%.17g", sep, k.c_str(), v);
    sep = ",";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "usage: %s --workload W --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n", argv[0]);
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!(args.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  PinDriverThread();
  RunSummary sum;
  sum.info["cpus_pinned"] = g_pinned;
  if (args.workload == "hot_oltp") {
    RunThreadWorkload(HotCfg(), args, &sum);
  } else if (args.workload == "scan_large") {
    RunThreadWorkload(ScanCfg(), args, &sum);
  } else if (args.workload == "des_hot") {
    RunDesWorkload(args, &sum);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    if (!g_spans.WriteJsonl(path)) Fail("cannot write " + path);
  }
  PrintJson(args, sum);
  return g_errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ava3::perfbench

int main(int argc, char** argv) {
  return ava3::perfbench::Main(argc, argv);
}
