// htapbench: the repository's end-to-end benchmark. Two workloads
// (ch_analytics, htap) drive the oltap library through its public
// API from the benchmark's own client loops, so every call into a layer
// can be timed from outside. See README.md in this directory for the
// workloads, the metrics and the layer each per-layer metric belongs to.
//
//   htapbench --workload <ch_analytics|htap> --seed <n>
//             --seconds <n> --trace <0|1> --htap-rate <txn/s>
//             --workdir <dir> [--trace-dir <dir>]
//
// The last line of stdout is one JSON object: with --trace 0 it carries
// the end-to-end metrics, with --trace 1 the per-layer metrics. The exit
// code is non-zero when any correctness check failed.

#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "sched/merge_daemon.h"
#include "sched/workload_manager.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "storage/freshness.h"
#include "trace.h"
#include "txn/checkpoint_daemon.h"
#include "txn/log_writer.h"
#include "txn/wal.h"
#include "workload/chbench.h"
#include "workload/driver.h"

namespace htapbench {
namespace {

using oltap::CHBenchmark;
using oltap::CHConfig;
using oltap::CheckpointDaemon;
using oltap::ConcurrentDriver;
using oltap::Database;
using oltap::LogWriter;
using oltap::MergeDaemon;
using oltap::NewOrderAck;
using oltap::QueryClass;
using oltap::QueryGrant;
using oltap::QueryResult;
using oltap::Result;
using oltap::Status;
using oltap::TxnKind;
using oltap::TxnOp;
using oltap::Wal;
using oltap::WorkloadManager;

// ---- Fixed workload parameters (README.md gives the reasons). ----
constexpr int kWarehouses = 4;
// Closed-loop terminals: one per warehouse, bound to it.
constexpr size_t kTerminals = 4;
constexpr size_t kWmWorkers = 4;
constexpr int kOrdersPerDistrict = 1000;
// Serialization-abort retries per op, with exponential backoff from
// kRetryBackoffUs up to kRetryBackoffMaxUs. Immediate retries (the
// ConcurrentDriver's 5) can all abort against the same commit: a retry's
// snapshot includes the winner only once the visible watermark has passed
// it, which takes a group-commit flush. And when the open loop's queue
// backs up, several payments to one warehouse run at once and conflict on
// its row.
constexpr int kMaxRetries = 30;
constexpr int64_t kRetryBackoffUs = 100;
constexpr int64_t kRetryBackoffMaxUs = 10'000;
// Repeated set-ups per untraced run; setup_s is their median.
constexpr int kSetupsPerRun = 3;
// ch_analytics' OLTP pass after its analytic window: a fixed op stream
// of this many ops per terminal per --seconds (60k transactions, about
// 6 s, at --seconds 15 on the reference host). A 4 s pass spread 0.19
// over ten runs while the analytic window before it spread 0.09.
constexpr size_t kPassOpsPerTerminalSecond = 1000;
// Recoveries per untraced run; recovery_s is their median. A traced run
// (per-layer figures only, no bound) recovers fewer times per pass so its
// two passes fit the same time limit.
constexpr int kRecoveriesPerRun = 5;
constexpr int kRecoveriesPerTracedPass = 3;
// Group-commit settings of ConcurrentDriver's defaults.
constexpr size_t kGroupMaxBatch = 64;
constexpr int64_t kGroupPersistUs = 100;
// htap checkpoint daemon and WAL rotation. A round takes ~0.8 s on the
// reference host; at a 1 s interval the daemon held a core nearly all the
// time and the CH queries' latency depended on which rounds they met
// (per-query spread within a run up to 0.3). At 3 s it runs about a
// quarter of the time and still truncates the WAL several times a run.
constexpr int64_t kCheckpointIntervalUs = 3'000'000;
constexpr uint64_t kWalSegmentBytes = 1 << 20;
constexpr size_t kHtapMaxDop = 2;
// Spin of all CPUs before each timed window (see CpuSpinners).
constexpr double kCpuWarmUpS = 2.0;
// Freshness / staleness sampling period in traced runs.
constexpr int64_t kSampleEveryUs = 10'000;
// Traced runs fail when a tenth of the requests have less of their time
// covered by child spans than this.
constexpr double kMinSpanCoverage = 0.9;
// OLTP figures are medians over blocks of this many requests:
// ch_analytics' OLTP pass has 12 blocks, htap's window (9,000 requests at
// --seconds 15) one.
constexpr size_t kBlockRequests = 5000;
// Completion below this share of the offered rate flags an htap run.
constexpr double kBacklogFlagShare = 0.97;

constexpr const char* kViewName = "ol_by_wh";
constexpr const char* kViewQuery =
    "SELECT ol_w_id, COUNT(*) AS n, SUM(ol_quantity) AS qty "
    "FROM orderline GROUP BY ol_w_id";
// The WAL is flushed to the operating system at each group-commit batch
// but not fsynced (Wal::Options::fsync_on_commit, off by default): on the
// reference host's shared virtual disk an fsync took 60 us to 2 ms
// depending on the neighbours, and a closed-loop TPC-C stream on a small
// database ran at 790 to 2,500 txn/s from run to run.
constexpr const char* kWalFlushPolicy =
    "file WAL, flushed (no fsync) per group-commit batch (max_batch 64, "
    "persist interval 100 us)";

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  double htap_rate = 0;
  std::string workdir;
  std::string trace_dir;
};

struct Metric {
  double value = 0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

// Operations and checks attempted and failed in one pass. A failure is
// an OLTP op that never committed, a refused or shed request, a failed
// query, a result that differs from its reference, or a failed check.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Count(uint64_t n_attempted, uint64_t n_failed,
             const std::vector<std::string>& why = {}) {
    attempted += n_attempted;
    failed += n_failed;
    for (const std::string& w : why) Note(w);
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      Note(what);
    }
  }
  void Note(const std::string& what) {
    if (failures.size() < 32) failures.push_back(what);
  }
};

// ---- Obs registry readings around the timed sections. ----

struct ObsReading {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<double, double>> hists;  // count, sum
};

ObsReading ReadObs() {
  oltap::obs::MetricsSnapshot snap =
      oltap::obs::MetricsRegistry::Default()->Snapshot();
  ObsReading r;
  for (const auto& [name, v] : snap.counters) r.counters[name] = v;
  for (const auto& [name, h] : snap.histograms) {
    r.hists[name] = {static_cast<double>(h.count),
                     h.mean * static_cast<double>(h.count)};
  }
  return r;
}

// Differences between readings, summed over the timed sections of a pass.
class ObsDelta {
 public:
  void Add(const ObsReading& before, const ObsReading& after) {
    for (const auto& [name, v] : after.counters) {
      auto it = before.counters.find(name);
      counters_[name] += static_cast<double>(
          v - (it == before.counters.end() ? 0 : it->second));
    }
    for (const auto& [name, cs] : after.hists) {
      auto it = before.hists.find(name);
      std::pair<double, double> b =
          it == before.hists.end() ? std::pair<double, double>{0, 0}
                                   : it->second;
      hists_[name].first += cs.first - b.first;
      hists_[name].second += cs.second - b.second;
    }
  }
  double Count(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  // Mean of the histogram's samples recorded between the readings.
  double Mean(const std::string& name) const {
    auto it = hists_.find(name);
    return it == hists_.end() ? 0 : Ratio(it->second.second, it->second.first);
  }

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, std::pair<double, double>> hists_;
};

// Runs `fn` as a timed section: obs readings before and after it are
// folded into `delta`.
template <typename F>
void TimedSection(ObsDelta* delta, F&& fn) {
  ObsReading before = ReadObs();
  fn();
  delta->Add(before, ReadObs());
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Hands the freed heap back to the system once the live database is
// destroyed, so what comes next (the recoveries, the traced pass) starts
// from the same resident set and rss_mb does not depend on how the run
// fragmented the heap.
void ReleaseFreedHeap() { malloc_trim(0); }

// Writes back dirty data of the file system holding `dir`, so the
// write-back of earlier writes (the previous run's files, a build) does
// not fall into a timed section.
void SyncFileSystem(const std::string& dir) {
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

size_t Nproc() {
  return std::max<size_t>(2, std::thread::hardware_concurrency());
}

// Keeps every CPU busy with a spinning thread of the lowest scheduling
// class (SCHED_IDLE), from kCpuWarmUpS before a pass starts to its end.
// The spinners run only when no other thread wants the CPU, so the
// workload keeps the CPUs; what they change is that no vCPU of the
// reference host (a VM) ever halts. A latency-bound window otherwise pays
// the hypervisor's wake-up of halted vCPUs on every thread hand-off, which
// varied with the neighbours' load: the same closed-loop TPC-C stream
// ran at 1,700 to 3,800 txn/s from run to run without the spinners and at
// 3,100 to 3,600 with them, and a window that started after a few idle
// seconds ran up to 2x slower.
class CpuSpinners {
 public:
  CpuSpinners() {
    for (size_t i = 0; i < Nproc(); ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
          __builtin_ia32_pause();  // leave a sibling hyperthread its share
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kCpuWarmUpS));
  }
  ~CpuSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  CpuSpinners(const CpuSpinners&) = delete;
  CpuSpinners& operator=(const CpuSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Logs a phase boundary with the seconds since the program started to
// stderr, so a slow run shows where its time went.
const int64_t kProgramStartNs = NowNs();
void Progress(const std::string& what) {
  std::fprintf(stderr, "htapbench: %7.2f s %s\n", SecondsSince(kProgramStartNs),
               what.c_str());
}

// ---- Database set-up. ----

struct DbSpec {
  int orders_per_district = kOrdersPerDistrict;
  bool wal = false;  // file WAL, see kWalFlushPolicy
  uint64_t wal_segment_bytes = 0;
  bool view = false;  // DEFERRED ol_by_wh
};

// One loaded database. Members destroy in reverse order: the benchmark
// object, then the database, then the WAL it logs to.
struct Env {
  std::unique_ptr<Wal> wal;
  std::unique_ptr<Database> db;
  std::unique_ptr<CHBenchmark> bench;
  double load_s = 0;
  double merge_s = 0;
  double view_s = 0;
  double ckpt_s = 0;
  double setup_s() const { return load_s + merge_s + view_s + ckpt_s; }
};

// `wal_dir` is emptied first: a rotating WAL leaves "<path>.<id>"
// segment files behind.
Result<std::unique_ptr<Env>> Setup(const DbSpec& spec, uint64_t seed,
                                   const std::string& wal_dir) {
  auto env = std::make_unique<Env>();
  int64_t t0 = NowNs();
  if (spec.wal) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    std::filesystem::create_directories(wal_dir, ec);
    if (ec) return Status::Internal("cannot create " + wal_dir);
    Wal::Options wopts;
    wopts.fsync_on_commit = false;
    wopts.segment_bytes = spec.wal_segment_bytes;
    auto wal = Wal::OpenFile(wal_dir + "/wal.log", wopts);
    if (!wal.ok()) return wal.status();
    env->wal = std::move(wal).value();
  }
  env->db = std::make_unique<Database>(env->wal.get());
  CHConfig config;
  config.warehouses = kWarehouses;
  config.initial_orders_per_district = spec.orders_per_district;
  config.seed = oltap::Mix64(seed ^ 0x6c6f6164ULL);
  env->bench = std::make_unique<CHBenchmark>(env->db.get(), config);
  Status st = env->bench->CreateTables();
  if (st.ok()) st = env->bench->Load();
  if (!st.ok()) return st;
  env->load_s = SecondsSince(t0);

  t0 = NowNs();
  env->db->MergeAll();
  env->merge_s = SecondsSince(t0);

  if (spec.view) {
    t0 = NowNs();
    auto r = env->db->Execute(std::string("CREATE MATERIALIZED VIEW ") +
                              kViewName + " DEFERRED AS " + kViewQuery);
    if (!r.ok()) return r.status();
    env->view_s = SecondsSince(t0);
  }
  if (spec.wal) {
    // CHBenchmark::Load writes straight into the tables, bypassing the
    // WAL, so recovery needs an image of the loaded state to replay onto.
    t0 = NowNs();
    auto r = env->db->EnsureCheckpointer()->CheckpointNow();
    if (!r.ok()) return r.status();
    env->ckpt_s = SecondsSince(t0);
  }
  return env;
}

// Sets up `setups` times (each database destroyed before the next is
// built) and keeps the last one.
Result<std::unique_ptr<Env>> SetupRepeated(const DbSpec& spec, uint64_t seed,
                                           const std::string& wal_dir,
                                           int setups,
                                           std::vector<double>* times) {
  std::unique_ptr<Env> env;
  for (int i = 0; i < setups; ++i) {
    env.reset();
    auto r = Setup(spec, seed, wal_dir);
    if (!r.ok()) return r.status();
    env = std::move(r).value();
    times->push_back(env->setup_s());
  }
  return env;
}

// ---- OLTP: one op with retries, the closed loop and the open loop. ----

const char* TxnSpanName(TxnKind k) {
  switch (k) {
    case TxnKind::kNewOrder:
      return "txn.neworder";
    case TxnKind::kPayment:
      return "txn.payment";
    case TxnKind::kOrderStatus:
      return "txn.orderstatus";
    case TxnKind::kDelivery:
      return "txn.delivery";
    case TxnKind::kStockLevel:
      return "txn.stocklevel";
  }
  return "txn.unknown";
}

struct OpResult {
  bool ran = false;
  bool committed = false;
  uint64_t aborts = 0;
  NewOrderAck ack;
  std::string error;
};

// Runs one op, retrying serialization aborts with the op's own Rng so a
// retry replays the same arguments. One span per attempt.
void RunOp(CHBenchmark* bench, const TxnOp& op, int64_t home_w,
           Tracer* tracer, uint64_t req, OpResult* out) {
  out->ran = true;
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    oltap::Rng rng(op.seed);
    (void)rng.Uniform(100);  // the kind draw, already resolved in op.kind
    int64_t t0 = tracer->enabled() ? NowNs() : 0;
    Status st;
    switch (op.kind) {
      case TxnKind::kNewOrder:
        st = bench->NewOrder(&rng, home_w, &out->ack);
        break;
      case TxnKind::kPayment:
        st = bench->Payment(&rng, home_w);
        break;
      case TxnKind::kOrderStatus:
        st = bench->OrderStatus(&rng, home_w);
        break;
      case TxnKind::kDelivery:
        st = bench->Delivery(&rng, home_w);
        break;
      case TxnKind::kStockLevel:
        st = bench->StockLevel(&rng, home_w);
        break;
    }
    if (tracer->enabled()) {
      tracer->Record(tracer->NewId(), req, req, TxnSpanName(op.kind), t0,
                     NowNs());
    }
    if (st.ok()) {
      out->committed = true;
      return;
    }
    if (st.code() != oltap::StatusCode::kAborted) {
      out->error = std::string(oltap::TxnKindToString(op.kind)) + ": " +
                   st.ToString();
      return;
    }
    ++out->aborts;
    out->error = st.message();
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min(kRetryBackoffUs << attempt, kRetryBackoffMaxUs)));
  }
  out->error = std::string(oltap::TxnKindToString(op.kind)) +
               ": every retry aborted, last on " + out->error;
}

// One request that ran: when it completed and how long it took.
struct Done {
  int64_t at_ns = 0;
  double latency_us = 0;
  bool committed = false;
  bool neworder = false;
};

struct OltpStats {
  std::vector<Done> done;
  uint64_t issued = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t aborts = 0;
  std::vector<NewOrderAck> acks;
  std::vector<std::string> errors;
  int64_t start_ns = 0;

  // `at_ns` and `latency_us` describe the request when it ran.
  void Fold(const TxnOp& op, const OpResult& r, const Status& admission,
            int64_t at_ns, double latency_us) {
    ++issued;
    aborts += r.aborts;
    const bool ok = r.committed && admission.ok();
    const bool neworder = ok && op.kind == TxnKind::kNewOrder;
    if (r.ran) done.push_back({at_ns, latency_us, ok, neworder});
    if (ok) {
      ++committed;
      if (neworder) acks.push_back(r.ack);
      return;
    }
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(r.ran ? r.error
                             : "admission refused: " + admission.ToString());
    }
  }
  void Merge(OltpStats&& o) {
    done.insert(done.end(), o.done.begin(), o.done.end());
    issued += o.issued;
    committed += o.committed;
    failed += o.failed;
    aborts += o.aborts;
    acks.insert(acks.end(), o.acks.begin(), o.acks.end());
    for (std::string& e : o.errors) {
      if (errors.size() < 8) errors.push_back(std::move(e));
    }
  }
};

// OLTP end-to-end figures of a window. Each is the median over
// consecutive blocks of about kBlockRequests requests in completion
// order, so a stall of the host that lasts a few seconds moves a few
// blocks rather than the figure.
struct OltpFigures {
  double txn_s = 0;
  double neworder_s = 0;
  double p50_us = 0;
  std::vector<double> block_txn_s;
};

OltpFigures BlockMedians(const OltpStats& s) {
  std::vector<Done> done = s.done;
  std::sort(done.begin(), done.end(),
            [](const Done& a, const Done& b) { return a.at_ns < b.at_ns; });
  const size_t blocks = std::max<size_t>(1, done.size() / kBlockRequests);
  std::vector<double> txn_s, neworder_s, p50;
  int64_t from = s.start_ns;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t lo = b * done.size() / blocks;
    const size_t hi = (b + 1) * done.size() / blocks;
    if (hi == lo) continue;
    std::vector<double> lat;
    double commits = 0;
    double neworders = 0;
    for (size_t i = lo; i < hi; ++i) {
      lat.push_back(done[i].latency_us);
      commits += done[i].committed ? 1 : 0;
      neworders += done[i].neworder ? 1 : 0;
    }
    const double span_s = static_cast<double>(done[hi - 1].at_ns - from) * 1e-9;
    from = done[hi - 1].at_ns;
    txn_s.push_back(Ratio(commits, span_s));
    neworder_s.push_back(Ratio(neworders, span_s));
    p50.push_back(Percentile(lat, 0.5));
  }
  return {Median(txn_s), Median(neworder_s), Median(p50), txn_s};
}

uint64_t StreamSeed(uint64_t seed) {
  return oltap::Mix64(seed ^ 0x73747265616dULL);
}

uint64_t StreamDigest(const std::vector<TxnOp>& ops, uint64_t h) {
  for (const TxnOp& op : ops) {
    h = oltap::Mix64(h ^ op.seed ^ static_cast<uint64_t>(op.kind));
  }
  return h;
}

// Closed loop: `kTerminals` terminals, each bound to its home warehouse,
// each running its fixed op stream through WorkloadManager with no think
// time. Latency is submit -> acknowledgement.
OltpStats RunClosedLoop(CHBenchmark* bench, WorkloadManager* wm,
                        uint64_t seed, size_t ops_per_terminal,
                        Tracer* tracer, uint64_t* digest) {
  std::vector<std::vector<TxnOp>> streams;
  for (size_t t = 0; t < kTerminals; ++t) {
    streams.push_back(
        ConcurrentDriver::MakeStream(StreamSeed(seed), t, ops_per_terminal));
    *digest = StreamDigest(streams.back(), *digest);
  }
  std::vector<OltpStats> per_terminal(kTerminals);
  int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kTerminals; ++t) {
    threads.emplace_back([&, t] {
      OltpStats& s = per_terminal[t];
      s.done.reserve(ops_per_terminal);
      const int64_t home_w = static_cast<int64_t>(t % kWarehouses) + 1;
      for (const TxnOp& op : streams[t]) {
        const uint64_t req = tracer->NewId();
        OpResult res;
        int64_t work_start = 0;
        int64_t work_end = 0;
        int64_t submit = NowNs();
        Status st = wm->Submit(QueryClass::kOltp, [&] {
                        work_start = NowNs();
                        RunOp(bench, op, home_w, tracer, req, &res);
                        work_end = NowNs();
                      }).get();
        int64_t ack = NowNs();
        s.Fold(op, res, st, ack, static_cast<double>(ack - submit) * 1e-3);
        if (tracer->enabled()) {
          if (res.ran) {
            tracer->Record(tracer->NewId(), req, req, "sched.queue_wait",
                           submit, work_start);
            tracer->Record(tracer->NewId(), req, req, "sched.complete",
                           work_end, ack);
          }
          tracer->Record(req, 0, req, "oltp.request", submit, ack);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  OltpStats all;
  all.start_ns = start;
  for (OltpStats& s : per_terminal) all.Merge(std::move(s));
  return all;
}

struct OpenLoopStats {
  OltpStats oltp;           // latency_us measured from each due time
  std::vector<double> late_ms;  // submit - due
  double completion_rate = 0;   // completed by the last due time / that span
};

// Open loop: one generator submits a fixed op stream at `rate` txn/s
// regardless of completions. Each request is timed from when it was due.
OpenLoopStats RunOpenLoop(CHBenchmark* bench, WorkloadManager* wm,
                          uint64_t seed, size_t ops, double rate,
                          Tracer* tracer, uint64_t* digest) {
  std::vector<TxnOp> stream =
      ConcurrentDriver::MakeStream(StreamSeed(seed), kTerminals, ops);
  *digest = StreamDigest(stream, *digest);
  struct Slot {
    int64_t due = 0;
    int64_t submit = 0;
    int64_t start = 0;
    int64_t end = 0;
    uint64_t req = 0;
    OpResult res;
  };
  std::vector<Slot> slots(ops);
  std::vector<std::future<Status>> done;
  done.reserve(ops);
  const double period_ns = 1e9 / rate;
  const int64_t start = NowNs();
  for (size_t i = 0; i < ops; ++i) {
    Slot& slot = slots[i];
    slot.due = start + static_cast<int64_t>(period_ns * static_cast<double>(i));
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(slot.due)));
    slot.req = tracer->NewId();
    slot.submit = NowNs();
    const TxnOp op = stream[i];
    const int64_t home_w = static_cast<int64_t>(i % kWarehouses) + 1;
    done.push_back(wm->Submit(QueryClass::kOltp, [&slot, op, home_w, bench,
                                                  tracer] {
      slot.start = NowNs();
      RunOp(bench, op, home_w, tracer, slot.req, &slot.res);
      slot.end = NowNs();
    }));
  }
  OpenLoopStats out;
  const int64_t last_due = slots.empty() ? start : slots.back().due;
  size_t completed_by_last_due = 0;
  for (size_t i = 0; i < ops; ++i) {
    Status st = done[i].get();
    Slot& slot = slots[i];
    out.oltp.Fold(stream[i], slot.res, st, slot.end,
                  static_cast<double>(slot.end - slot.due) * 1e-3);
    out.late_ms.push_back(static_cast<double>(slot.submit - slot.due) * 1e-6);
    if (!slot.res.ran) continue;
    if (slot.end <= last_due) ++completed_by_last_due;
    if (tracer->enabled()) {
      tracer->Record(tracer->NewId(), slot.req, slot.req, "sched.queue_wait",
                     slot.submit, slot.start);
      tracer->Record(slot.req, 0, slot.req, "oltp.request", slot.submit,
                     slot.end);
    }
  }
  out.oltp.start_ns = start;
  out.completion_rate =
      Ratio(static_cast<double>(completed_by_last_due),
            static_cast<double>(last_due - start) * 1e-9);
  return out;
}

// ---- OLAP: the closed query loop. ----

struct OlapQuery {
  std::string name;  // "A1" ... "A13", "V" for the view query
  std::string sql;
};

std::vector<OlapQuery> ChQueries() {
  std::vector<OlapQuery> out;
  for (const auto& q : CHBenchmark::Queries()) {
    out.push_back({q.name.substr(0, q.name.find('-')), q.sql});
  }
  return out;
}

struct OlapStats {
  explicit OlapStats(size_t n)
      : ms(n), parse_us(n), plan_us(n), exec_ms(n) {}
  // Per query, samples of complete cycles only, so every query weighs
  // the same in the percentiles.
  std::vector<std::vector<double>> ms;
  // Traced runs: sql::Parse time, EXPLAIN minus parse, Execute minus
  // EXPLAIN.
  std::vector<std::vector<double>> parse_us, plan_us, exec_ms;
  std::vector<double> cycle_s;  // duration of each complete cycle
  uint64_t issued = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  std::vector<double> AllMs() const {
    std::vector<double> all;
    for (const auto& v : ms) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  // Every sample of the CH queries: the mix's first `ch_queries`
  // entries. htap appends the view query, which is left out because it
  // runs in microseconds when routed to the view and as a full order-line
  // scan when the staleness gate sends it to the base table, so it would
  // move the geometric mean by the gate's timing rather than the engine's
  // speed.
  std::vector<double> ChMs(size_t ch_queries) const {
    std::vector<double> out;
    for (size_t q = 0; q < std::min(ch_queries, ms.size()); ++q) {
      out.insert(out.end(), ms[q].begin(), ms[q].end());
    }
    return out;
  }
};

struct OlapLoop {
  Database* db = nullptr;
  const std::vector<OlapQuery>* queries = nullptr;
  // Results every run must equal (DOP 1, view routing off); null for
  // live data.
  const std::vector<QueryResult>* reference = nullptr;
  WorkloadManager* wm = nullptr;  // null: call Database::Execute directly
  Tracer* tracer = nullptr;
};

struct QuerySample {
  std::string error;  // empty when the query ran and its result checked out
  double ms = 0;
  double parse_us = 0;
  double plan_us = 0;
  double exec_ms = 0;
};

QuerySample RunQuery(const OlapLoop& loop, size_t q) {
  const OlapQuery& query = (*loop.queries)[q];
  Tracer* tracer = loop.tracer;
  const uint64_t req = tracer->NewId();
  QuerySample out;
  QueryResult result;
  auto execute = [&](const std::string& sql, const QueryGrant* grant) {
    return grant != nullptr ? loop.db->Execute(sql, *grant)
                            : loop.db->Execute(sql);
  };
  auto work = [&](const QueryGrant* grant) -> Status {
    if (tracer->enabled()) {
      int64_t t0 = NowNs();
      auto parsed = oltap::sql::Parse(query.sql);
      int64_t t1 = NowNs();
      if (!parsed.ok()) return parsed.status();
      auto plan = execute("EXPLAIN " + query.sql, grant);
      int64_t t2 = NowNs();
      if (!plan.ok()) return plan.status();
      auto r = execute(query.sql, grant);
      int64_t t3 = NowNs();
      if (!r.ok()) return r.status();
      result = std::move(r).value();
      tracer->Record(tracer->NewId(), req, req, "sql.parse", t0, t1);
      tracer->Record(tracer->NewId(), req, req, "sql.explain", t1, t2);
      tracer->Record(tracer->NewId(), req, req, "db.execute", t2, t3);
      out.parse_us = static_cast<double>(t1 - t0) * 1e-3;
      out.plan_us = static_cast<double>((t2 - t1) - (t1 - t0)) * 1e-3;
      out.exec_ms = static_cast<double>((t3 - t2) - (t2 - t1)) * 1e-6;
      return Status::OK();
    }
    auto r = execute(query.sql, grant);
    if (!r.ok()) return r.status();
    result = std::move(r).value();
    return Status::OK();
  };
  Status st;
  int64_t end = 0;
  int64_t submit = NowNs();
  if (loop.wm != nullptr) {
    int64_t start = 0;
    int64_t finish = 0;
    WorkloadManager::Submission sub = loop.wm->SubmitBudgeted(
        QueryClass::kOlap, WorkloadManager::QuerySpec{},
        [&](const oltap::CancellationToken&, const QueryGrant& grant) {
          start = NowNs();
          Status work_st = work(&grant);
          finish = NowNs();
          return work_st;
        });
    st = sub.done.get();
    end = NowNs();
    if (tracer->enabled() && start != 0) {
      tracer->Record(tracer->NewId(), req, req, "sched.queue_wait", submit,
                     start);
      tracer->Record(tracer->NewId(), req, req, "sched.complete", finish,
                     end);
    }
  } else {
    st = work(nullptr);
    end = NowNs();
  }
  out.ms = static_cast<double>(end - submit) * 1e-6;
  if (tracer->enabled()) tracer->Record(req, 0, req, "olap.request", submit, end);
  if (!st.ok()) {
    out.error = query.name + ": " + st.ToString();
  } else if (loop.reference != nullptr &&
             !SameResult(result, (*loop.reference)[q])) {
    out.error = query.name + ": result differs from the DOP-1 reference";
  }
  return out;
}

// Cycles the query list closed-loop. Without `stop`, runs whole cycles
// until `min_seconds` passed; with it, runs until it is set and drops the
// unfinished cycle from the latency samples.
OlapStats RunOlapCycles(const OlapLoop& loop, double min_seconds,
                        const std::atomic<bool>* stop) {
  const size_t n = loop.queries->size();
  OlapStats s(n);
  std::vector<QuerySample> cycle;
  const int64_t start = NowNs();
  for (;;) {
    cycle.clear();
    const int64_t cycle_start = NowNs();
    bool stopped = false;
    for (size_t q = 0; q < n; ++q) {
      if (stop != nullptr && stop->load(std::memory_order_acquire)) {
        stopped = true;
        break;
      }
      QuerySample smp = RunQuery(loop, q);
      ++s.issued;
      if (!smp.error.empty()) {
        ++s.failed;
        if (s.errors.size() < 8) s.errors.push_back(smp.error);
      }
      cycle.push_back(std::move(smp));
    }
    if (stopped) break;
    s.cycle_s.push_back(SecondsSince(cycle_start));
    for (size_t q = 0; q < n; ++q) {
      if (!cycle[q].error.empty()) continue;
      s.ms[q].push_back(cycle[q].ms);
      s.parse_us[q].push_back(cycle[q].parse_us);
      s.plan_us[q].push_back(cycle[q].plan_us);
      s.exec_ms[q].push_back(cycle[q].exec_ms);
    }
    if (stop == nullptr && SecondsSince(start) >= min_seconds) break;
  }
  return s;
}

// Reference results: DOP 1, view routing off.
std::vector<QueryResult> ComputeReference(Database* db,
                                          const std::vector<OlapQuery>& qs,
                                          Ledger* ledger) {
  const size_t dop = db->max_dop();
  const bool routing = db->view_routing_enabled();
  db->set_max_dop(1);
  db->set_view_routing_enabled(false);
  std::vector<QueryResult> ref;
  for (const OlapQuery& q : qs) {
    auto r = db->Execute(q.sql);
    ledger->Check(r.ok(), q.name + " reference: " + r.status().ToString());
    ref.push_back(r.ok() ? std::move(r).value() : QueryResult{});
  }
  db->set_max_dop(dop);
  db->set_view_routing_enabled(routing);
  return ref;
}

// ---- Freshness / staleness sampling (traced runs only). ----

class Sampler {
 public:
  explicit Sampler(Database* db) : db_(db) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> delta_rows, lag_ms, staleness_ms;

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      int64_t now = oltap::SystemClock::Get()->NowMicros();
      oltap::FreshnessSummary f = oltap::ProbeFreshness(*db_->catalog(), now);
      delta_rows.push_back(static_cast<double>(f.delta_rows));
      lag_ms.push_back(static_cast<double>(f.max_lag_us) * 1e-3);
      staleness_ms.push_back(
          static_cast<double>(
              db_->view_manager()->StalenessMicros(kViewName, now)) *
          1e-3);
      std::this_thread::sleep_for(std::chrono::microseconds(kSampleEveryUs));
    }
  }

  Database* db_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- Background services of a timed window. ----

// Group commit, merge daemon and checkpoint daemon of htap's window.
// Stop() shuts them down in ConcurrentDriver's order: merges, then
// checkpoints, then the log writer once no commit can be in flight.
class Services {
 public:
  // What the window logged. Bytes are the WAL's growth plus the segments
  // truncated meanwhile; the obs counter wal.bytes would also count the
  // checkpoint daemon's image encoding.
  struct LogStats {
    double batches = 0;
    double commits = 0;
    double bytes = 0;
  };

  explicit Services(Env* env) : env_(env) {
    wal_size_ = env->wal->size();
    truncated_ = TruncatedBytes();
    LogWriter::Options lw;
    lw.max_batch = kGroupMaxBatch;
    lw.persist_interval_us = kGroupPersistUs;
    log_writer_ = std::make_unique<LogWriter>(env->wal.get(), lw);
    env->db->txn_manager()->SetLogWriter(log_writer_.get());
    MergeDaemon::Options mo;  // the daemon's default threshold and period
    mo.autostart = false;
    merger_ = std::make_unique<MergeDaemon>(env->db->catalog(),
                                            env->db->txn_manager(), mo);
    merger_->set_view_manager(env->db->view_manager());
    merger_->Start();
    checkpointer_ = env->db->EnsureCheckpointer();
    checkpointer_->set_interval_us(kCheckpointIntervalUs);
    checkpointer_->set_truncate_wal(true);
    checkpointer_->Start();
  }
  ~Services() { Stop(); }
  Services(const Services&) = delete;
  Services& operator=(const Services&) = delete;

  void Stop() {
    if (merger_ != nullptr) merger_->Stop();
    if (checkpointer_ != nullptr) checkpointer_->Stop();
    if (log_writer_ != nullptr) {
      log_writer_->Stop();
      env_->db->txn_manager()->SetLogWriter(nullptr);
      LogWriter::Stats st = log_writer_->stats();
      log_writer_.reset();
      stats_.batches = static_cast<double>(st.batches);
      stats_.commits = static_cast<double>(st.commits);
      stats_.bytes = static_cast<double>(env_->wal->size()) -
                     static_cast<double>(wal_size_) +
                     static_cast<double>(TruncatedBytes() - truncated_);
    }
  }
  LogStats log_stats() const { return stats_; }

 private:
  Env* env_;
  std::unique_ptr<LogWriter> log_writer_;
  std::unique_ptr<MergeDaemon> merger_;
  CheckpointDaemon* checkpointer_ = nullptr;
  uint64_t wal_size_ = 0;
  uint64_t truncated_ = 0;
  LogStats stats_;

  static uint64_t TruncatedBytes() {
    return oltap::obs::MetricsRegistry::Default()
        ->GetCounter("wal.truncated_bytes")
        ->Value();
  }
};

WorkloadManager::Options WmOptions(size_t max_dop) {
  WorkloadManager::Options o;
  o.num_workers = kWmWorkers;
  o.policy = oltap::SchedulingPolicy::kOltpPriority;
  o.max_parallel_dop = max_dop;
  return o;
}

// ---- Checks and recovery. ----

// What the pre-crash database answered; the recovered one must match.
struct PreCrash {
  TpccState state;
  QueryResult view;  // view rows (htap)
};

// Folds pending changes into the DEFERRED view, then checks it against
// its defining query run on the base table.
Result<QueryResult> CheckView(Database* db, Ledger* ledger) {
  db->view_manager()->MaintainAll();
  auto v = db->Execute(std::string("SELECT ol_w_id, n, qty FROM ") +
                       kViewName + " ORDER BY ol_w_id");
  const bool routing = db->view_routing_enabled();
  db->set_view_routing_enabled(false);
  auto base = db->Execute(std::string(kViewQuery) + " ORDER BY ol_w_id");
  db->set_view_routing_enabled(routing);
  ledger->Check(v.ok() && base.ok() && SameResult(*v, *base),
                "view ol_by_wh differs from its defining query");
  return v;
}

// Consistency conditions + zero acked-commit loss on `db`.
void CheckDatabase(Database* db, const char* when,
                   const std::vector<NewOrderAck>& acks, bool view,
                   const PreCrash* expect, PreCrash* out, Ledger* ledger) {
  const std::string tag = std::string(" (") + when + ")";
  auto state = ReadTpccState(db);
  ledger->Check(state.ok(), "read TPC-C state" + tag + ": " +
                                state.status().ToString());
  if (state.ok()) {
    std::string failed;
    for (const std::string& f : CheckTpccConsistency(*state)) {
      failed += f + "; ";
    }
    ledger->Check(failed.empty(), failed + tag);
    if (expect != nullptr) {
      ledger->Check(SameState(*state, expect->state),
                    "recovered database answers the consistency checks "
                    "differently from the pre-crash one");
    }
    if (out != nullptr) out->state = *state;
  }
  auto missing = CountMissingAcks(db, acks);
  ledger->Check(missing.ok() && *missing == 0,
                "acknowledged NewOrders missing" + tag + ": " +
                    (missing.ok() ? std::to_string(*missing)
                                  : missing.status().ToString()));
  if (view) {
    auto v = CheckView(db, ledger);
    if (v.ok() && out != nullptr) out->view = *v;
    if (v.ok() && expect != nullptr) {
      ledger->Check(SameResult(*v, expect->view),
                    "recovered view differs from the pre-crash view");
    }
  }
}

struct RecoveryTiming {
  double seconds = 0;
  size_t tail_txns = 0;
};

// Recovers `img` (with `wal` as its log) into a fresh database
// `repeats` times, one database at a time; reports the median time and
// keeps the last database in `keep` when given.
Result<RecoveryTiming> TimeRecovery(const CheckpointDaemon::CrashImage& img,
                                    const std::string& wal, int repeats,
                                    std::unique_ptr<Database>* keep) {
  RecoveryTiming t;
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    if (keep != nullptr) keep->reset();
    Progress("recovery " + std::to_string(i));
    auto db = std::make_unique<Database>();
    int64_t t0 = NowNs();
    auto rep = db->RecoverFromCheckpointStore(img.store, wal);
    times.push_back(SecondsSince(t0));
    Progress("recovered in " + std::to_string(times.back()) + " s");
    if (!rep.ok()) return rep.status();
    t.tail_txns = rep->tail_txns;
    if (keep != nullptr) *keep = std::move(db);
  }
  t.seconds = Median(times);
  return t;
}

// ---- One pass of a workload. ----

struct PassOptions {
  int setups = kSetupsPerRun;
  int recoveries = kRecoveriesPerRun;
  bool traced = false;
  // Per-layer extras that cost time outside the measured sections (the
  // image-only recovery).
  bool layer_extras = false;
};

struct Pass {
  Metrics e2e;
  Metrics counts;  // per-layer, from obs counters and benchmark tallies
  Metrics spans;   // per-layer, from spans and samples (traced pass)
  Ledger ledger;
  std::vector<std::string> notes;
  std::vector<Span> trace;
};

class Runner {
 public:
  Runner(const Args& args, const PassOptions& opts)
      : args_(args), opts_(opts), tracer_(opts.traced),
        pool_(Nproc() - 1) {}

  Pass Run() {
    CpuSpinners spinners;
    if (args_.workload == "ch_analytics") {
      ChAnalytics();
    } else {
      Htap();
    }
    p_.e2e["rss_mb"] = {PeakRssMb(), "MB"};
    if (opts_.traced) p_.trace = tracer_.Collect();
    FinishLayers();
    return std::move(p_);
  }

 private:
  std::string WalDir() const { return args_.workdir + "/wal"; }

  bool DoSetup(const DbSpec& spec) {
    std::vector<double> times;
    auto env = SetupRepeated(spec, args_.seed, WalDir(), opts_.setups, &times);
    p_.ledger.Check(env.ok(), "setup: " + env.status().ToString());
    if (!env.ok()) return false;
    env_ = std::move(env).value();
    env_->db->set_exec_pool(&pool_);
    Progress("set up");
    p_.e2e["setup_s"] = {Median(times), "s"};
    p_.counts["setup.load_s"] = {env_->load_s, "s"};
    p_.counts["setup.merge_s"] = {env_->merge_s, "s"};
    p_.counts["setup.ckpt_s"] = {env_->ckpt_s, "s"};
    return true;
  }

  void OltpMetrics(const OltpStats& s) {
    const OltpFigures f = BlockMedians(s);
    p_.e2e["oltp_txn_s"] = {f.txn_s, "txn/s"};
    p_.e2e["neworder_s"] = {f.neworder_s, "txn/s"};
    p_.e2e["oltp_p50_us"] = {f.p50_us, "us"};
    std::vector<double> lat;
    for (const Done& d : s.done) lat.push_back(d.latency_us);
    std::string pct = "oltp latency percentiles over the window (us):";
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      pct += " p" + std::to_string(static_cast<int>(q * 100)) + "=" +
             std::to_string(static_cast<int64_t>(Percentile(lat, q)));
    }
    p_.notes.push_back(pct + " of " + std::to_string(lat.size()));
    std::string blocks = "oltp txn/s per block:";
    for (double v : f.block_txn_s) {
      blocks += " " + std::to_string(std::lround(v));
    }
    p_.notes.push_back(blocks);
    p_.ledger.Count(s.issued, s.failed, s.errors);
    p_.counts["txn.retries_per_commit"] = {Ratio(s.aborts, s.committed),
                                           "ratio"};
  }

  void OlapMetrics(const OlapStats& s) {
    // Both figures average over every complete cycle of the window. The
    // reference host runs in fast and slow phases of 10-30 s; a median
    // snaps to whichever phase held most of the window, while a mean moves
    // with the share of each (olap_q_s over ten runs spread 0.22 -> 0.18
    // in a noisy phase of the reference host, within 0.03 in calm ones).
    double window_s = 0;
    for (double c : s.cycle_s) window_s += c;
    p_.e2e["olap_q_s"] = {
        Ratio(static_cast<double>(s.ms.size() * s.cycle_s.size()), window_s),
        "queries/s"};
    std::vector<double> all = s.AllMs();
    p_.e2e["olap_geomean_ms"] = {
        GeoMean(s.ChMs(CHBenchmark::Queries().size())), "ms"};
    p_.ledger.Count(s.issued, s.failed, s.errors);
    p_.notes.push_back("olap samples: " + std::to_string(all.size()) +
                       " in " + std::to_string(s.cycle_s.size()) +
                       " cycles, p95 " +
                       std::to_string(Percentile(all, 0.95)) + " ms");
    olap_cycles_ = s.cycle_s.size();
    std::string cycles = "olap cycle s:";
    for (double c : s.cycle_s) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), " %.3f", c);
      cycles += buf;
    }
    p_.notes.push_back(cycles);
    std::string per_query = "olap median ms per query:";
    for (size_t q = 0; q < queries_.size(); ++q) {
      if (s.ms[q].empty()) continue;
      char buf[48];
      std::snprintf(buf, sizeof(buf), " %s=%.3f", queries_[q].name.c_str(),
                    Median(s.ms[q]));
      per_query += buf;
    }
    p_.notes.push_back(per_query);
    if (!opts_.traced) return;
    // Per-query phase medians for the CH queries (A1..A13).
    for (size_t q = 0; q < queries_.size(); ++q) {
      const std::string& name = queries_[q].name;
      if (name[0] != 'A' || s.ms[q].empty()) continue;
      p_.spans["sql.parse_us." + name] = {Median(s.parse_us[q]), "us"};
      p_.spans["sql.plan_us." + name] = {Median(s.plan_us[q]), "us"};
      p_.spans["exec.query_ms." + name] = {Median(s.exec_ms[q]), "ms"};
    }
  }

  // Crash -> fresh database -> same answers. `img` is the durable state a
  // crash at this instant leaves; the live database is destroyed first so
  // the two never share memory.
  void CrashAndRecover(const CheckpointDaemon::CrashImage& img,
                       const std::vector<NewOrderAck>& acks, bool view,
                       const PreCrash& before) {
    Progress("checked, crash image taken");
    env_.reset();
    ReleaseFreedHeap();
    std::unique_ptr<Database> recovered;
    auto t = TimeRecovery(img, img.wal, opts_.recoveries, &recovered);
    p_.ledger.Check(t.ok(), "recovery: " + t.status().ToString());
    if (!t.ok()) return;
    p_.e2e["recovery_s"] = {t->seconds, "s"};
    Progress("recovered");
    CheckDatabase(recovered.get(), "after recovery", acks, view, &before,
                  nullptr, &p_.ledger);
    Progress("recovery checked");
    recovered.reset();
    double image_mb = img.store.images.empty()
                          ? 0
                          : static_cast<double>(
                                img.store.images.back().data.size()) /
                                (1024.0 * 1024.0);
    p_.counts["ckpt.image_mb"] = {image_mb, "MB"};
    p_.counts["recovery.tail_txns"] = {static_cast<double>(t->tail_txns),
                                       "count"};
    if (!opts_.layer_extras) return;
    auto image_only = TimeRecovery(img, "", opts_.recoveries, nullptr);
    p_.ledger.Check(image_only.ok(),
                    "image-only recovery: " + image_only.status().ToString());
    if (!image_only.ok()) return;
    double tail_s = std::max(0.0, t->seconds - image_only->seconds);
    p_.counts["recovery.image_s"] = {image_only->seconds, "s"};
    p_.counts["recovery.tail_s"] = {tail_s, "s"};
    p_.counts["recovery.replay_us_per_txn"] = {
        Ratio(tail_s * 1e6, static_cast<double>(t->tail_txns)), "us"};
  }

  // ch_analytics: the CH queries on a quiesced, merged database larger
  // than L3 (see README.md).
  void ChAnalytics() {
    DbSpec spec;
    if (!DoSetup(spec)) return;
    queries_ = ChQueries();
    int64_t t0 = NowNs();
    std::vector<QueryResult> ref =
        ComputeReference(env_->db.get(), queries_, &p_.ledger);
    p_.notes.push_back("reference (DOP 1) computed in " +
                       std::to_string(SecondsSince(t0)) + " s");
    for (size_t q = 0; q < ref.size(); ++q) {
      result_digest_ = Digest(ref[q], result_digest_);
    }
    // Warm-up: each query once, checked, before timing starts.
    OlapLoop warm = Loop(&ref, nullptr);
    Tracer off(false);
    warm.tracer = &off;
    for (size_t q = 0; q < queries_.size(); ++q) {
      QuerySample s = RunQuery(warm, q);
      p_.ledger.Check(s.error.empty(), "warm-up " + s.error);
    }
    OlapStats olap(queries_.size());
    TimedSection(&delta_, [&] {
      olap = RunOlapCycles(Loop(&ref, nullptr), args_.seconds, nullptr);
    });
    OlapMetrics(olap);
    Progress("olap window done");

    // OLTP pass on the large database: no WAL, no merges.
    OltpStats oltp;
    TimedSection(&delta_, [&] {
      WorkloadManager wm(WmOptions(0));
      oltp = RunClosedLoop(
          env_->bench.get(), &wm, args_.seed,
          kPassOpsPerTerminalSecond * static_cast<size_t>(args_.seconds),
          &tracer_, &stream_digest_);
      wm.Drain();
    });
    OltpMetrics(oltp);
    Progress("oltp pass done");

    PreCrash before;
    CheckDatabase(env_->db.get(), "after run", oltp.acks, false, nullptr,
                  &before, &p_.ledger);
    CheckpointDaemon* ckpt = env_->db->EnsureCheckpointer();
    auto round = ckpt->CheckpointNow();
    p_.ledger.Check(round.ok(), "checkpoint: " + round.status().ToString());
    CrashAndRecover(ckpt->CaptureCrashImage(), oltp.acks, false, before);
  }

  // htap: open-loop OLTP + closed-loop CH queries + view, with group
  // commit, merges and checkpoints, then crash and recovery.
  void Htap() {
    DbSpec spec;
    spec.wal = true;
    spec.wal_segment_bytes = kWalSegmentBytes;
    spec.view = true;
    if (!DoSetup(spec)) return;
    queries_ = ChQueries();
    queries_.push_back({"V", kViewQuery});
    {
      OlapLoop warm = Loop(nullptr, nullptr);
      Tracer off(false);
      warm.tracer = &off;
      for (size_t q = 0; q < queries_.size(); ++q) {
        QuerySample s = RunQuery(warm, q);
        p_.ledger.Check(s.error.empty(), "warm-up " + s.error);
      }
    }
    const size_t ops =
        static_cast<size_t>(args_.htap_rate * static_cast<double>(args_.seconds));
    SyncFileSystem(args_.workdir);
    OpenLoopStats open;
    OlapStats olap(queries_.size());
    std::unique_ptr<Sampler> sampler;
    TimedSection(&delta_, [&] {
      WorkloadManager wm(WmOptions(kHtapMaxDop));
      Services services(env_.get());
      if (opts_.traced) sampler = std::make_unique<Sampler>(env_->db.get());
      std::atomic<bool> oltp_done{false};
      std::thread analyst([&] {
        olap = RunOlapCycles(Loop(nullptr, &wm), 0, &oltp_done);
      });
      open = RunOpenLoop(env_->bench.get(), &wm, args_.seed, ops,
                         args_.htap_rate, &tracer_, &stream_digest_);
      oltp_done.store(true, std::memory_order_release);
      analyst.join();
      wm.Drain();
      if (sampler) sampler->Stop();
      services.Stop();
      log_ = services.log_stats();
    });
    Progress("mixed window done");
    if (sampler) Sample(sampler.get());
    OltpMetrics(open.oltp);
    OlapMetrics(olap);
    p_.counts["bench.gen_late_ms.p99"] = {Percentile(open.late_ms, 0.99), "ms"};
    p_.counts["bench.gen_late_ms.max"] = {Percentile(open.late_ms, 1.0), "ms"};
    const double share = Ratio(open.completion_rate, args_.htap_rate);
    p_.counts["bench.completion_per_offered"] = {share, "ratio"};
    if (share < kBacklogFlagShare) {
      p_.notes.push_back(
          "FLAG: completions fell below the offered rate (" +
          std::to_string(open.completion_rate) + " of " +
          std::to_string(args_.htap_rate) +
          " txn/s); the backlog grew and latencies are not comparable");
    }

    PreCrash before;
    CheckDatabase(env_->db.get(), "after run", open.oltp.acks, true, nullptr,
                  &before, &p_.ledger);
    CrashAndRecover(env_->db->checkpointer()->CaptureCrashImage(),
                    open.oltp.acks, true, before);
  }

  OlapLoop Loop(const std::vector<QueryResult>* ref, WorkloadManager* wm) {
    OlapLoop loop;
    loop.db = env_->db.get();
    loop.queries = &queries_;
    loop.reference = ref;
    loop.wm = wm;
    loop.tracer = &tracer_;
    return loop;
  }


  void Sample(Sampler* s) {
    s->Stop();
    p_.spans["storage.delta_rows.max"] = {Percentile(s->delta_rows, 1.0),
                                          "rows"};
    p_.spans["storage.freshness_lag_ms.p50"] = {Median(s->lag_ms), "ms"};
    p_.spans["view.staleness_ms.p50"] = {Median(s->staleness_ms), "ms"};
  }

  // Per-layer metrics from the obs deltas and the spans.
  void FinishLayers() {
    const ObsDelta& d = delta_;
    auto& c = p_.counts;
    c["sched.degraded"] = {d.Count("sched.degraded"), "count"};
    c["sched.shed"] = {d.Count("sched.shed"), "count"};
    c["txn.commit_us.mean"] = {d.Mean("txn.commit_ns") * 1e-3, "us"};
    c["wal.commits_per_batch"] = {Ratio(log_.commits, log_.batches), "ratio"};
    c["wal.batches"] = {d.Count("wal.batches"), "count"};
    c["wal.append_us.mean"] = {d.Mean("wal.append_ns") * 1e-3, "us"};
    c["wal.group_wait_us.mean"] = {d.Mean("wal.group_wait_us"), "us"};
    c["wal.bytes_per_txn"] = {Ratio(log_.bytes, log_.commits), "bytes"};
    c["ckpt.rounds"] = {d.Count("ckpt.written"), "count"};
    c["ckpt.round_ms.mean"] = {d.Mean("ckpt.duration_us") * 1e-3, "ms"};
    c["wal.truncated_mb"] = {d.Count("wal.truncated_bytes") / (1024.0 * 1024.0),
                             "MB"};
    c["merge.runs"] = {d.Count("merge.runs"), "count"};
    c["merge.bytes_rewritten_per_delta_row"] = {
        Ratio(d.Count("merge.bytes_merged"), d.Count("merge.rows_merged")),
        "bytes"};
    const double cycles = static_cast<double>(olap_cycles_);
    c["opt.plans_per_cycle"] = {Ratio(d.Count("opt.plans"), cycles), "count"};
    c["opt.order_cache_hits_per_cycle"] = {
        Ratio(d.Count("opt.order_cache_hits"), cycles), "count"};
    c["exec.morsel.rows"] = {d.Count("exec.morsel.rows"), "count"};
    c["exec.morsel.dispatched"] = {d.Count("exec.morsel.dispatched"), "count"};
    c["exec.rows_scanned_per_row_out"] = {
        Ratio(d.Count("exec.morsel.rows"), d.Count("exec.rows_out")), "ratio"};
    c["exec.morsel.dop_limited"] = {d.Count("exec.morsel.dop_limited"),
                                    "count"};
    c["view.maintain_runs"] = {d.Count("view.maintain_runs"), "count"};
    c["view.maintain_ms.mean"] = {d.Mean("view.maintain_ns") * 1e-6, "ms"};
    c["view.changes_applied"] = {d.Count("view.changes_applied"), "count"};
    c["view.routed_per_considered"] = {
        Ratio(d.Count("view.routed"), d.Count("view.route_considered")),
        "ratio"};

    if (!opts_.traced) return;
    const std::vector<Span>& spans = p_.trace;
    auto& s = p_.spans;
    std::map<std::string, std::vector<double>> by_name;
    for (const Span& sp : spans) {
      by_name[sp.name].push_back(static_cast<double>(sp.end_ns - sp.start_ns) *
                                 1e-3);
    }
    // Queue wait of OLTP requests only: children of oltp.request roots.
    std::map<uint64_t, bool> oltp_roots;
    for (const Span& sp : spans) {
      if (sp.parent == 0 && std::string_view(sp.name) == "oltp.request") {
        oltp_roots[sp.id] = true;
      }
    }
    std::vector<double> queue_us;
    for (const Span& sp : spans) {
      if (std::string_view(sp.name) == "sched.queue_wait" &&
          oltp_roots.count(sp.parent)) {
        queue_us.push_back(static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3);
      }
    }
    s["sched.queue_wait_us.p50"] = {Percentile(queue_us, 0.5), "us"};
    s["sched.queue_wait_us.p99"] = {Percentile(queue_us, 0.99), "us"};
    s["txn.neworder_us.p50"] = {Percentile(by_name["txn.neworder"], 0.5), "us"};
    s["txn.neworder_us.p99"] = {Percentile(by_name["txn.neworder"], 0.99),
                                "us"};
    s["txn.payment_us.p50"] = {Percentile(by_name["txn.payment"], 0.5), "us"};
    s["txn.payment_us.p99"] = {Percentile(by_name["txn.payment"], 0.99), "us"};
    s["txn.delivery_us.p50"] = {Percentile(by_name["txn.delivery"], 0.5), "us"};
    s["txn.orderstatus_us.p50"] = {Percentile(by_name["txn.orderstatus"], 0.5),
                                   "us"};
    s["txn.stocklevel_us.p50"] = {Percentile(by_name["txn.stocklevel"], 0.5),
                                  "us"};
    // Phases must add up: the tenth percentile over requests of the share
    // of each request that its child spans cover.
    for (const std::string side : {"oltp", "olap"}) {
      std::vector<double> shares =
          ChildCoverage(spans, (side + ".request").c_str());
      if (shares.empty()) continue;
      const double p10 = Percentile(shares, 0.1);
      s["bench.span_coverage." + side] = {p10, "ratio"};
      p_.ledger.Check(p10 >= kMinSpanCoverage,
                      side + " span coverage p10 " +
                          std::to_string(p10) + " below " +
                          std::to_string(kMinSpanCoverage));
    }
  }

 public:
  uint64_t stream_digest() const { return stream_digest_; }
  uint64_t result_digest() const { return result_digest_; }

 private:
  const Args& args_;
  const PassOptions opts_;
  Tracer tracer_;
  // Declared before env_: the database holds a pointer to the pool.
  oltap::ThreadPool pool_;
  std::unique_ptr<Env> env_;
  std::vector<OlapQuery> queries_;
  Pass p_;
  ObsDelta delta_;
  Services::LogStats log_;
  size_t olap_cycles_ = 0;
  uint64_t stream_digest_ = 0;
  uint64_t result_digest_ = 0;
};

// ---- Metric names. ----

const std::vector<std::pair<std::string, const char*>>& EndToEndMetrics() {
  static const auto* m = new std::vector<std::pair<std::string, const char*>>{
      {"setup_s", "s"},          {"rss_mb", "MB"},
      {"oltp_txn_s", "txn/s"},   {"neworder_s", "txn/s"},
      {"oltp_p50_us", "us"},     {"olap_q_s", "queries/s"},
      {"olap_geomean_ms", "ms"}, {"recovery_s", "s"},
  };
  return *m;
}

// Every per-layer metric with its unit. One a workload does not exercise
// reads 0 (wal.batches on ch_analytics, say).
std::vector<std::pair<std::string, const char*>> LayerMetrics() {
  std::vector<std::pair<std::string, const char*>> m = {
      {"sched.queue_wait_us.p50", "us"},
      {"sched.queue_wait_us.p99", "us"},
      {"sched.degraded", "count"},
      {"sched.shed", "count"},
      {"txn.neworder_us.p50", "us"},
      {"txn.neworder_us.p99", "us"},
      {"txn.payment_us.p50", "us"},
      {"txn.payment_us.p99", "us"},
      {"txn.delivery_us.p50", "us"},
      {"txn.orderstatus_us.p50", "us"},
      {"txn.stocklevel_us.p50", "us"},
      {"txn.retries_per_commit", "ratio"},
      {"txn.commit_us.mean", "us"},
      {"wal.commits_per_batch", "ratio"},
      {"wal.batches", "count"},
      {"wal.append_us.mean", "us"},
      {"wal.group_wait_us.mean", "us"},
      {"wal.bytes_per_txn", "bytes"},
      {"ckpt.rounds", "count"},
      {"ckpt.round_ms.mean", "ms"},
      {"ckpt.image_mb", "MB"},
      {"wal.truncated_mb", "MB"},
      {"recovery.image_s", "s"},
      {"recovery.tail_s", "s"},
      {"recovery.tail_txns", "count"},
      {"recovery.replay_us_per_txn", "us"},
      {"merge.runs", "count"},
      {"merge.bytes_rewritten_per_delta_row", "bytes"},
      {"storage.delta_rows.max", "rows"},
      {"storage.freshness_lag_ms.p50", "ms"},
      {"setup.load_s", "s"},
      {"setup.merge_s", "s"},
      {"setup.ckpt_s", "s"},
      {"opt.plans_per_cycle", "count"},
      {"opt.order_cache_hits_per_cycle", "count"},
      {"exec.morsel.rows", "count"},
      {"exec.morsel.dispatched", "count"},
      {"exec.rows_scanned_per_row_out", "ratio"},
      {"exec.morsel.dop_limited", "count"},
      {"view.maintain_runs", "count"},
      {"view.maintain_ms.mean", "ms"},
      {"view.changes_applied", "count"},
      {"view.routed_per_considered", "ratio"},
      {"view.staleness_ms.p50", "ms"},
      {"bench.gen_late_ms.p99", "ms"},
      {"bench.gen_late_ms.max", "ms"},
      {"bench.completion_per_offered", "ratio"},
      {"bench.span_coverage.oltp", "ratio"},
      {"bench.span_coverage.olap", "ratio"},
  };
  for (const OlapQuery& q : ChQueries()) {
    m.emplace_back("sql.parse_us." + q.name, "us");
    m.emplace_back("sql.plan_us." + q.name, "us");
    m.emplace_back("exec.query_ms." + q.name, "ms");
  }
  for (const auto& [name, unit] : EndToEndMetrics()) {
    m.emplace_back("bench.trace_overhead_pct." + name, "%");
  }
  return m;
}

// Keeps exactly the metrics of `names`; one missing from `m` reads 0.
Metrics Select(const Metrics& m,
               const std::vector<std::pair<std::string, const char*>>& names) {
  Metrics out;
  for (const auto& [name, unit] : names) {
    auto it = m.find(name);
    out[name] = it != m.end() ? it->second : Metric{0, unit};
  }
  return out;
}

// ---- Output. ----

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void PrintTable(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-40s %16s %s\n", name.c_str(), Num(metric.value).c_str(),
                metric.unit);
  }
}

std::string JsonLine(bool correct, const Ledger& ledger, const Metrics& m) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(ledger.attempted) +
                    ", \"failed\": " + std::to_string(ledger.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}}";
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--htap-rate") {
      a->htap_rate = std::atof(v.c_str());
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  if (a->workload != "ch_analytics" && a->workload != "htap") {
    std::fprintf(stderr, "--workload must be ch_analytics or htap\n");
    return false;
  }
  if (a->seconds < 1 || a->htap_rate <= 0 || a->workdir.empty()) {
    std::fprintf(stderr,
                 "--seconds >= 1, --htap-rate > 0 and --workdir required\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 2;
  }

  std::printf("htapbench workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf(
      "host: nproc=%zu compiler=\"%s\" build_type=%s l3_bytes=%ld seed=%llu "
      "wal_flush=\"%s\" htap_offered_txn_s=%s\n",
      Nproc(), HTAPBENCH_COMPILER, HTAPBENCH_BUILD_TYPE,
      sysconf(_SC_LEVEL3_CACHE_SIZE), static_cast<unsigned long long>(args.seed),
      args.workload == "ch_analytics" ? "no WAL" : kWalFlushPolicy,
      Num(args.htap_rate).c_str());
  std::fflush(stdout);

  PassOptions base_opts;
  base_opts.setups = args.trace ? 1 : kSetupsPerRun;
  if (args.trace) base_opts.recoveries = kRecoveriesPerTracedPass;
  base_opts.layer_extras = args.trace;
  Runner base_runner(args, base_opts);
  Pass base = base_runner.Run();
  std::printf("inputs: op_stream_digest=%s result_digest=%s\n",
              Hex(base_runner.stream_digest()).c_str(),
              Hex(base_runner.result_digest()).c_str());

  Ledger ledger = base.ledger;
  Metrics out;
  if (!args.trace) {
    out = Select(base.e2e, EndToEndMetrics());
  } else {
    // Counts from the untraced pass (the traced pass plans every query
    // twice); spans, samples and the overhead from the traced pass.
    // The traced pass's peak resident set starts from the same point.
    ReleaseFreedHeap();
    PassOptions traced_opts;
    traced_opts.setups = 1;
    traced_opts.recoveries = kRecoveriesPerTracedPass;
    traced_opts.traced = true;
    Pass traced = Runner(args, traced_opts).Run();
    ledger.Count(traced.ledger.attempted, traced.ledger.failed,
                 traced.ledger.failures);
    out = base.counts;
    out.insert(traced.spans.begin(), traced.spans.end());
    for (const auto& [name, m] : base.e2e) {
      auto it = traced.e2e.find(name);
      double pct = it == traced.e2e.end()
                       ? 0
                       : Ratio(it->second.value - m.value, m.value) * 100;
      out["bench.trace_overhead_pct." + name] = {pct, "%"};
    }
    out = Select(out, LayerMetrics());
    if (!args.trace_dir.empty()) {
      std::filesystem::create_directories(args.trace_dir, ec);
      std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                         std::to_string(args.seed) + ".csv";
      if (Tracer::WriteCsv(traced.trace, path)) {
        std::printf("trace: %zu spans written to %s\n", traced.trace.size(),
                    path.c_str());
      }
    }
    std::printf("self time by span (ms, traced pass):\n");
    for (const auto& [name, ms] : SelfTimeMs(traced.trace)) {
      std::printf("  %-24s %12.3f\n", name.c_str(), ms);
    }
    for (const std::string& n : traced.notes) std::printf("note: %s\n", n.c_str());
    PrintTable("end-to-end (traced pass):", traced.e2e);
  }
  for (const std::string& n : base.notes) std::printf("note: %s\n", n.c_str());
  PrintTable(args.trace ? "end-to-end (untraced pass):" : "end-to-end:", base.e2e);
  std::printf("  %-40s %16s failed/attempted (%llu of %llu)\n", "error_rate",
              Num(Ratio(static_cast<double>(ledger.failed),
                        static_cast<double>(ledger.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));
  PrintTable(args.trace ? "per-layer:" : "per-layer counts:",
             args.trace ? out : base.counts);
  for (const std::string& f : ledger.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::filesystem::remove_all(args.workdir, ec);

  const bool correct = ledger.failed == 0 && ledger.attempted > 0;
  std::printf("%s\n", JsonLine(correct, ledger, out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace htapbench

int main(int argc, char** argv) { return htapbench::Main(argc, argv); }
