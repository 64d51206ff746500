// ytbench — the repository benchmark (workloads, metrics and the A/B
// protocol are documented in ytbench/README.md).
//
// One process runs one named workload at one seed for a time budget and
// prints one JSON result line. It runs rounds while the budget fits another
// (at least kMinRounds of them), and before a round it rebuilds the
// workload's repository until building has taken the workload's set-up
// share of the run so far; set-up time is the median of those builds.
// Every round runs in a child process forked from the one that holds the
// latest build, so each round starts from its own private copy of a
// freshly built repository: nothing is ever rewound, no orphan rows pile
// up, and no round inherits another's heap. A round's op stream derives
// from (seed, round), and its timed window covers only the calls a user of
// the system makes. Throughput is the median over short timed units,
// memory the median over rounds, and latency percentiles pool every timed
// call of the run. Every reported time is in reference time (see "Host
// speed" below): wall time scaled by the host's speed around it.
//
// Each workload's repository — mapping graph and seed inserts — is fixed
// (generated from kRepositorySeed); the seed drives the op streams and the
// simulated user's decisions. Repository size dominates cost, and on one
// fixed graph the seed inserts alone swing it by almost 2x from seed to
// seed, which would make the seed-to-seed spread wider than any useful
// bound. The four workloads vary the graph's shape and the repository's
// size instead.
//
// --trace=0 runs untraced rounds and reports the end-to-end metrics.
// --trace=1 follows each untraced round with a traced replay of the same
// round. A traced build or round brackets every call into a layer with a
// bench-side span, and a traced round also switches the engine's own
// obs::Tracer on; the per-layer metrics come from traced runs only, the
// tracing overhead from comparing traced and untraced rounds.
//
// Usage: ytbench --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR
#include <malloc.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <memory_resource>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ccontrol/scheduler.h"
#include "core/update.h"
#include "core/violation_detector.h"
#include "core/youtopia.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/tuple.h"
#include "workload/generators.h"

namespace youtopia {
namespace ytbench {
namespace {

constexpr size_t kMinRounds = 1;
constexpr uint64_t kRepositorySeed = 1;

// Independent random streams, derived from kRepositorySeed (the repository)
// or from the run seed and round (everything timed).
enum Stream : uint64_t { kSeedData = 1, kSeedAgent, kOps, kAgent };

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t round = 0) {
  uint64_t state = seed;
  state = SplitMix64(state) ^ stream;
  state = SplitMix64(state) ^ round;
  return SplitMix64(state);
}

double SafeDiv(double num, double den) { return den != 0 ? num / den : 0; }

// --- Host speed --------------------------------------------------------------

// The 4-vCPU machine of baseline/ shares its host with other tenants. As
// they come and go, identical work runs up to ~35% slower for minutes at a
// time, and each vCPU also slows and recovers within seconds on its own.
// No median inside a run removes a slow stretch longer than the run, so
// the wall times of two runs minutes apart differ by more than any useful
// bound. Every time the benchmark reports is therefore in reference time:
// the wall time of a stretch of timed work, scaled by how long the host
// took, right before and right after it, to do a fixed piece of reference
// work (kReferenceWorkMs / the mean of the two). The reference work is
// branchy, allocating and cache-resident, like the engine's: hash-map
// inserts and lookups and a sort of short strings. In a busy hour, scaling
// by a reference work much like it cut the spread of ten runs' throughput
// from 0.11–0.24 to 0.05–0.09 (IQR / median), and the drift of their
// median from one set of runs to the next from 12–15% to under 3%
// (baseline/README.md).

// The reference work's median time on the machine of baseline/, so that
// reference time reads close to wall time there.
constexpr double kReferenceWorkMs = 1.2;

volatile uint64_t reference_sink = 0;

// The reference work: hash-map inserts and lookups and a sort of short
// strings. It allocates from a fresh pool over its own buffer, so that
// neither the state of the process heap nor a change to the engine's
// allocation moves it.
void ReferenceWork() {
  alignas(64) static std::byte buffer[size_t{2} << 20];
  std::pmr::monotonic_buffer_resource arena(buffer, sizeof buffer);
  std::pmr::unsynchronized_pool_resource pool(&arena);
  std::pmr::unordered_map<uint64_t, uint64_t> map(&pool);
  uint64_t x = 1;
  for (uint64_t i = 0; i < 4096; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    map[x >> 20] = i;
  }
  uint64_t hits = 0;
  x = 1;
  for (uint64_t i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    hits += map.count((x >> 20) ^ (i & 1));
  }
  std::pmr::vector<std::pmr::string> strings(&pool);
  for (uint64_t i = 0; i < 2000; ++i) {
    char digits[24];
    char* end = std::to_chars(digits, digits + sizeof digits, i * 7919).ptr;
    strings.emplace_back(digits, end);
    strings.back() += "abcdefghijklmnopq";
  }
  std::sort(strings.begin(), strings.end());
  reference_sink = reference_sink + hits + strings.front().size();
}

// How long the reference work takes now, in ms. It is timed on its second
// pass, so that what the timed work before it left in the caches does not
// move it.
double ReferenceWorkMs() {
  ReferenceWork();
  const uint64_t start = obs::MonotonicNs();
  ReferenceWork();
  return static_cast<double>(obs::MonotonicNs() - start) * 1e-6;
}

// Samples the host's speed around consecutive stretches of timed work.
// Construct it right before the first stretch and call Next() right after
// each one.
class HostSpeed {
 public:
  HostSpeed() : last_ms_(ReferenceWorkMs()) {}

  // The scale from wall to reference time of the stretch that just ended:
  // above 1 when the host ran faster than the reference machine.
  double Next() {
    const double ms = ReferenceWorkMs();
    const double scale = kReferenceWorkMs / ((last_ms_ + ms) / 2);
    last_ms_ = ms;
    return scale;
  }

 private:
  double last_ms_;
};

// --- Bench-side spans --------------------------------------------------------

// The layer calls the benchmark brackets, each filed under the src/ module
// whose public function it calls.
enum Span : size_t {
  kGenerate,
  kSeedChase,
  kLoad,
  kStart,
  kSchedulerCtor,
  kSchedulerSubmit,
  kSchedulerRun,
  kUpdate,
  kUpdateCtor,
  kStepPrepare,
  kStepApply,
  kStepFinish,
  kInsertAsync,
  kFlush,
  kCheck,
  kNumSpans,
};

struct SpanInfo {
  const char* name;
  const char* layer;
};
constexpr SpanInfo kSpanInfo[kNumSpans] = {
    {"generate", "workload"},
    {"seed_chase", "core"},
    {"load_mappings", "core"},
    {"Youtopia::Start", "parallel"},
    {"Scheduler()", "ccontrol"},
    {"Scheduler::Submit", "ccontrol"},
    {"Scheduler::RunToCompletion", "ccontrol"},
    {"update", "core"},
    {"Update()", "core"},
    {"Update::StepPrepare", "core"},
    {"Update::StepApply", "core"},
    {"Update::StepFinish", "core"},
    {"Youtopia::InsertAsync", "parallel"},
    {"Youtopia::Flush", "parallel"},
    {"ViolationDetector::FindAll", "query"},
};

struct SpanEvent {
  Span span;
  uint64_t start_ns;
  uint64_t end_ns;
};

// The spans of one build or round: time totals per span and, when traced,
// every span event for the trace file.
struct Spans {
  bool traced = false;
  std::array<uint64_t, kNumSpans> ns{};
  std::vector<SpanEvent> events;

  // Closes the span [start, now) and returns now, so consecutive spans
  // chain off one clock read each.
  uint64_t Close(Span span, uint64_t start) {
    const uint64_t end = obs::MonotonicNs();
    ns[span] += end - start;
    if (traced) events.push_back({span, start, end});
    return end;
  }
  double ms(Span span) const { return static_cast<double>(ns[span]) * 1e-6; }
};

// Chrome trace-event JSON of every traced build and round, one process and
// thread (the client). Capped so that a long traced run still writes a
// file Perfetto loads; no metric depends on the cap.
bool WriteTrace(const std::string& path, const std::vector<const Spans*>& all) {
  constexpr size_t kMaxEvents = size_t{1} << 18;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  size_t total = 0;
  for (const Spans* s : all) {
    for (const SpanEvent& e : s->events) t0 = std::min(t0, e.start_ns);
    total += s->events.size();
  }
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":%zu},"
               "\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\","
               "\"pid\":1,\"tid\":0,\"args\":{\"name\":\"ytbench\"}}",
               total - std::min(total, kMaxEvents));
  size_t written = 0;
  for (const Spans* s : all) {
    for (const SpanEvent& e : s->events) {
      if (written == kMaxEvents) break;
      ++written;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}",
                   kSpanInfo[e.span].name, kSpanInfo[e.span].layer,
                   static_cast<double>(e.start_ns - t0) / 1e3,
                   static_cast<double>(e.end_ns - e.start_ns) / 1e3);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- Builds and rounds -------------------------------------------------------

struct Build {
  double setup_s = 0;  // reference time
  double scale = 1;    // from wall to reference time (HostSpeed)
  Spans spans;         // wall time
};

// Everything a round measures but its samples and spans. Trivially
// copyable, so a child hands it to its parent as bytes.
struct RoundCounts {
  uint64_t window_ns = 0;  // the timed window
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  // Work done inside the window.
  uint64_t steps = 0;
  uint64_t useful_steps = 0;  // final-attempt steps of committed updates
  uint64_t max_update_steps = 0;
  uint64_t writes = 0;
  uint64_t frontier_ops = 0;
  uint64_t executions = 0;  // attempts, redos included
  uint64_t aborts = 0;
  uint64_t direct_aborts = 0;
  uint64_t cascade_requests = 0;
  uint64_t read_queries = 0;
  uint64_t rows_examined = 0;
  uint64_t chase_busy_ns = 0;  // time spent running chase steps
  obs::MetricsSnapshot registry;
  // Memory and storage footprint after the window.
  double peak_rss_mb = 0;
  uint64_t visible_rows = 0;
  uint64_t rows = 0;
  uint64_t versions = 0;
  uint64_t index_entries = 0;
  // Pipeline shape (ingest-islands only).
  uint64_t workers = 0;
  uint64_t inbox_hwm = 0;
  uint64_t inbox_capacity = 0;
  double shard_imbalance = 0;
};
static_assert(std::is_trivially_copyable_v<RoundCounts>);

// Counts, spans and the window are in wall time; the samples a run reports
// are in reference time.
struct Round {
  RoundCounts c;
  Spans spans;
  std::vector<double> call_us;  // latency of every timed user call
  // Throughput of each timed unit (a paper batch, a block of interactive
  // updates, kIngestUnitOps ingest calls), and its scale from wall to
  // reference time.
  // A run reports the median over all its units: one heavy insert can
  // double a round's cost, and a median over many short units shrugs that
  // off where a median over a few long rounds cannot.
  std::vector<double> unit_commits_per_s;
  std::vector<double> unit_scale;
  std::string error;  // first failed correctness check; empty = correct

  double window_s() const { return static_cast<double>(c.window_ns) * 1e-9; }
  // Records a unit of `commits` in `wall_ns` at `scale` (HostSpeed).
  void AddUnit(uint64_t commits, uint64_t wall_ns, double scale) {
    unit_commits_per_s.push_back(static_cast<double>(commits) /
                                 (static_cast<double>(wall_ns) * 1e-9 * scale));
    unit_scale.push_back(scale);
  }
  // Scales call_us[first..], so far in wall time, to reference time.
  void ScaleCalls(size_t first, double scale) {
    for (size_t i = first; i < call_us.size(); ++i) call_us[i] *= scale;
  }
  void Fail(std::string what) {
    if (error.empty()) error = std::move(what);
  }
};

struct RoundContext {
  uint64_t seed = 0;
  uint64_t round = 0;
  bool traced = false;
  bool replay_check = false;
};

// --- Rounds in child processes -----------------------------------------------

// Makes every resident page the child shares copy-on-write with its parent
// private, so that the timed window pays no copy-on-write faults. Reserved
// but untouched memory stays unpopulated, and a mapping larger than
// physical memory (a sanitizer's shadow) is left alone. It reads whole
// pages, not objects, so AddressSanitizer must not check it.
__attribute__((no_sanitize("address"))) void TouchSharedPages() {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t ram = static_cast<uintptr_t>(sysconf(_SC_PHYS_PAGES)) * page;
  // The whole map is read before any page is touched, and the loop below
  // allocates nothing, so the mappings cannot change under it.
  std::vector<std::pair<uintptr_t, uintptr_t>> writable;
  {
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
      unsigned long begin = 0;
      unsigned long end = 0;
      char perms[5] = {};
      if (std::sscanf(line.c_str(), "%lx-%lx %4s", &begin, &end, perms) == 3 &&
          std::string(perms) == "rw-p" && end - begin <= ram) {
        writable.emplace_back(begin, end);
      }
    }
  }
  static unsigned char resident[size_t{1} << 16];  // one flag per page
  for (const auto& [begin, end] : writable) {
    for (uintptr_t chunk = begin; chunk < end; chunk += sizeof resident * page) {
      const uintptr_t len = std::min<uintptr_t>(end - chunk, sizeof resident * page);
      if (mincore(reinterpret_cast<void*>(chunk), len, resident) != 0) break;
      for (uintptr_t i = 0; i < len / page; ++i) {
        if ((resident[i] & 1) == 0) continue;
        auto* p = reinterpret_cast<volatile unsigned char*>(chunk + i * page);
        *p = *p;
      }
    }
  }
}

// This process's peak resident memory. A forked child's peak starts at its
// resident memory when it was forked, not at its parent's peak.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
}

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// A vector or string of trivially copyable elements, length first.
template <typename Seq>
bool WriteSeq(int fd, const Seq& seq) {
  const size_t n = seq.size();
  return WriteAll(fd, &n, sizeof n) &&
         WriteAll(fd, seq.data(), n * sizeof(typename Seq::value_type));
}

template <typename Seq>
bool ReadSeq(int fd, Seq* seq) {
  size_t n = 0;
  if (!ReadAll(fd, &n, sizeof n)) return false;
  seq->resize(n);
  return ReadAll(fd, seq->data(), n * sizeof(typename Seq::value_type));
}

bool WriteRound(int fd, const Round& r) {
  return WriteAll(fd, &r.c, sizeof r.c) &&
         WriteAll(fd, r.spans.ns.data(), sizeof r.spans.ns) &&
         WriteSeq(fd, r.spans.events) && WriteSeq(fd, r.call_us) &&
         WriteSeq(fd, r.unit_commits_per_s) && WriteSeq(fd, r.unit_scale) &&
         WriteSeq(fd, r.error);
}

bool ReadRound(int fd, Round* r) {
  return ReadAll(fd, &r->c, sizeof r->c) &&
         ReadAll(fd, r->spans.ns.data(), sizeof r->spans.ns) &&
         ReadSeq(fd, &r->spans.events) && ReadSeq(fd, &r->call_us) &&
         ReadSeq(fd, &r->unit_commits_per_s) && ReadSeq(fd, &r->unit_scale) &&
         ReadSeq(fd, &r->error);
}

// Runs `run` (returning a Round) in a forked child and stores what it
// measured in *out. The caller holds no threads, so the child is a
// complete copy; it makes its shared pages private before it runs, so
// the round's window is its own. False if the child did not report and
// exit cleanly (a CHECK failed in it, say).
template <typename Fn>
bool RunInChild(Fn&& run, Round* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Die with the parent, so that no round outlives a killed run.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    TouchSharedPages();
    const Round r = run();
    _exit(WriteRound(fds[1], r) ? 0 : 1);
  }
  close(fds[1]);
  const bool read_ok = ReadRound(fds[0], out);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return read_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// --- Correctness checks ------------------------------------------------------

void MeasureStorage(const Database& db, Round* r) {
  r->c.peak_rss_mb = PeakRssMb();
  for (RelationId rel = 0; rel < db.num_relations(); ++rel) {
    r->c.rows += db.relation(rel).num_rows();
    r->c.versions += db.relation(rel).num_versions();
    r->c.index_entries += db.relation(rel).IndexEntryCount();
  }
  r->c.visible_rows = db.CountVisible(kReadLatest);
}

// Two known engine defects leave violations in a final instance. The
// mapping check accepts a violation only with evidence of one of them.
//
// RHS dedup: when two RHS atoms over different relations instantiate to
// the same values (e.g. R17(v0, v0, v0) & R20(v0, v0, v0)), the chase
// treats them as one atom — Update::GenerateForwardRepair dedups a firing's
// tuples by data alone, and detection misses the violation when the first
// tuple already exists — so the second relation's tuple is never inserted.
bool FromRhsDedup(const Tgd& tgd, const Violation& v) {
  Binding b = v.binding;
  b.EnsureSize(tgd.num_vars());
  for (VarId z : tgd.existential_vars()) {
    b.Set(z, Value::Null(UINT64_MAX - z));  // one placeholder per existential
  }
  std::vector<std::pair<RelationId, TupleData>> seen;
  for (const Atom& atom : tgd.rhs().atoms) {
    TupleData data = InstantiateAtom(atom, b);
    for (const auto& [rel, other] : seen) {
      if (rel != atom.rel && other == data) return true;
    }
    seen.emplace_back(atom.rel, std::move(data));
  }
  return false;
}

// Fingerprint collision: ViolationDetector::AfterWrites poses each pinned
// LHS query once per step, keyed by its 64-bit fingerprint alone, so a
// query whose fingerprint equals one posed earlier in the step is skipped
// (e.g. tgd 10 pinned on R17(x, x, x) and tgd 2 pinned on R23(x, x, c) on
// ingest-islands). Evidence: another pinned query over a tuple now in the
// instance has the fingerprint of one of this violation's pinned queries.
bool FromFingerprintCollision(const Database& db, const std::vector<Tgd>& tgds,
                              const Violation& v) {
  const Snapshot snap(&db, kReadLatest);
  const Tgd& tgd = tgds[static_cast<size_t>(v.tgd_id)];
  for (size_t a = 0; a < v.witness.size(); ++a) {
    const TupleData* mine =
        snap.VisibleData(v.witness[a].rel, v.witness[a].row);
    if (mine == nullptr) continue;
    const uint64_t fp = FinishViolationFingerprint(
        tgd.plans().lhs_pinned[a].shape_hash, v.tgd_id, *mine);
    for (size_t t = 0; t < tgds.size(); ++t) {
      for (size_t b = 0; b < tgds[t].lhs().atoms.size(); ++b) {
        const uint64_t shape = tgds[t].plans().lhs_pinned[b].shape_hash;
        bool hit = false;
        snap.ForEachVisible(
            tgds[t].lhs().atoms[b].rel, [&](RowId, const TupleData& other) {
              hit = hit || (FinishViolationFingerprint(
                                shape, static_cast<int>(t), other) == fp &&
                            (t != static_cast<size_t>(v.tgd_id) ||
                             other != *mine));
            });
        if (hit) return true;
      }
    }
  }
  return false;
}

// The final instance must satisfy every mapping, up to violations with
// evidence of a known defect (counted on stderr; the gate tightens as the
// defects are fixed).
void CheckMappings(const Database& db, const std::vector<Tgd>& tgds,
                   Round* r) {
  const uint64_t start = obs::MonotonicNs();
  std::vector<Violation> violations;
  ViolationDetector(&tgds).FindAll(Snapshot(&db, kReadLatest), &violations);
  r->spans.Close(kCheck, start);
  size_t rhs_dedup = 0;
  size_t collisions = 0;
  for (const Violation& v : violations) {
    const Tgd& tgd = tgds[static_cast<size_t>(v.tgd_id)];
    if (FromRhsDedup(tgd, v)) {
      ++rhs_dedup;
    } else if (FromFingerprintCollision(db, tgds, v)) {
      ++collisions;
    } else {
      r->Fail("the final instance violates mapping " +
              tgd.ToString(db.catalog(), db.symbols()));
      return;
    }
  }
  if (rhs_dedup + collisions > 0) {
    std::fprintf(stderr,
                 "ytbench: violations left by known defects: %zu RHS dedup, "
                 "%zu fingerprint collision\n",
                 rhs_dedup, collisions);
  }
}

// Sorted rendering of every relation's visible tuples: byte-identical iff
// the two instances are equal.
std::string DumpAll(const Database& db) {
  std::string out;
  Snapshot snap(&db, kReadLatest);
  for (RelationId rel = 0; rel < db.num_relations(); ++rel) {
    std::vector<std::string> rows;
    snap.ForEachVisible(rel, [&](RowId, const TupleData& t) {
      rows.push_back(TupleToString(t, db.symbols()));
    });
    std::sort(rows.begin(), rows.end());
    out += db.catalog().schema(rel).name + ":";
    for (const std::string& row : rows) out += " " + row + ";";
    out += "\n";
  }
  return out;
}

// --- Repositories ------------------------------------------------------------

// A schema, constant pool and mapping graph generated from kRepositorySeed.
// Existential-free graphs (p_frontier = within-atom repeats = 1, as in
// bench/streaming_ingest) never create labeled nulls.
struct Graph {
  size_t relations = 0;
  size_t mappings = 0;
  size_t islands = 1;
  bool null_free = false;
};

std::vector<Tgd> GenerateGraph(const Graph& g, Database* db,
                               std::vector<Value>* constants) {
  Rng rng(kRepositorySeed);
  SchemaGenOptions schema;
  schema.num_relations = g.relations;
  CHECK(GenerateSchema(db, &rng, schema).ok());
  *constants = GenerateConstantPool(db, &rng, 50);
  MappingGenOptions mappings;
  mappings.count = g.mappings;
  mappings.num_islands = g.islands;
  if (g.null_free) {
    mappings.p_frontier = 1.0;
    mappings.p_within_atom_repeat = 1.0;
  }
  return GenerateMappings(*db, *constants, &rng, mappings);
}

std::vector<WriteOp> GenerateOps(Database* db,
                                 const std::vector<Value>& constants, Rng* rng,
                                 size_t count, double delete_fraction) {
  WorkloadOptions options;
  options.num_updates = count;
  options.delete_fraction = delete_fraction;
  return GenerateWorkload(db, constants, rng, options);
}

// The engine-level repository of paper-* and interactive-large.
struct Repository {
  Database db;
  std::vector<Value> constants;
  std::vector<Tgd> tgds;
};

// Generates the graph, then chases `seed_inserts` random inserts forward
// under a simulated user. Returns the set-up time in seconds.
double BuildRepository(const Graph& g, size_t seed_inserts, Repository* repo,
                       Spans* spans) {
  const uint64_t t0 = obs::MonotonicNs();
  repo->tgds = GenerateGraph(g, &repo->db, &repo->constants);
  const uint64_t t = spans->Close(kGenerate, t0);
  Rng data_rng(SubSeed(kRepositorySeed, kSeedData));
  RandomAgent seed_agent(SubSeed(kRepositorySeed, kSeedAgent));
  InitialDataOptions data;
  data.num_tuples = seed_inserts;
  GenerateInitialData(&repo->db, &repo->tgds, repo->constants, &data_rng,
                      &seed_agent, data);
  return static_cast<double>(spans->Close(kSeedChase, t) - t0) * 1e-9;
}

// --- paper-insert-precise / paper-mixed-coarse -------------------------------

// The paper's Section 6 repository: 100 relations of arity 1-6, 50 pool
// constants, 100 random mappings with existentials, and 10k seed inserts
// each chased forward under a simulated user (~18k tuples).
constexpr Graph kPaperGraph = {100, 100, 1, false};
constexpr size_t kPaperSeedInserts = 10000;
// A round: 10 sequential 500-update batches on the growing repository, each
// exactly what Youtopia::RunQueued does (Scheduler construction, Submit of
// every queued op, RunToCompletion). Rounds of 20 batches halve the op
// streams a run covers and double the seed-to-seed spread.
constexpr size_t kPaperBatches = 10;
constexpr size_t kPaperBatchSize = 500;

Round RunPaperRound(Repository* repo, const RoundContext& ctx,
                    TrackerKind tracker, double delete_fraction) {
  Round r;
  r.spans.traced = ctx.traced;
  const bool traced = ctx.traced;
  obs::MetricsRegistry registry;  // wired in, as the facade wires its own
  RandomAgent agent(SubSeed(ctx.seed, kAgent, ctx.round));
  Rng op_rng(SubSeed(ctx.seed, kOps, ctx.round));
  uint64_t next_number = 1;
  r.call_us.reserve(kPaperBatches);
  HostSpeed host;
  for (size_t batch = 0; batch < kPaperBatches; ++batch) {
    // Deletes pick among the rows visible now, so each batch is generated
    // after the previous one committed (outside the window).
    uint64_t t = obs::MonotonicNs();
    std::vector<WriteOp> ops = GenerateOps(&repo->db, repo->constants, &op_rng,
                                           kPaperBatchSize, delete_fraction);
    r.spans.Close(kGenerate, t);

    SchedulerOptions options;
    options.tracker = tracker;
    options.first_number = next_number;
    options.metrics = &registry;
    const uint64_t b0 = obs::MonotonicNs();
    Scheduler scheduler(&repo->db, &repo->tgds, &agent, options);
    t = traced ? r.spans.Close(kSchedulerCtor, b0) : b0;
    for (WriteOp& op : ops) scheduler.Submit(std::move(op));
    if (traced) t = r.spans.Close(kSchedulerSubmit, t);
    scheduler.RunToCompletion();
    const uint64_t b1 =
        traced ? r.spans.Close(kSchedulerRun, t) : obs::MonotonicNs();
    r.c.window_ns += b1 - b0;
    r.call_us.push_back(static_cast<double>(b1 - b0) * 1e-3);
    r.c.chase_busy_ns += b1 - t;  // RunToCompletion alone when traced

    const SchedulerStats& s = scheduler.stats();
    if (s.updates_completed + s.updates_failed != s.updates_submitted) {
      r.Fail("scheduler: completed + failed != submitted");
    }
    const double scale = host.Next();
    r.AddUnit(s.updates_completed, b1 - b0, scale);
    r.ScaleCalls(r.call_us.size() - 1, scale);
    r.c.attempted += s.updates_submitted;
    r.c.committed += s.updates_completed;
    r.c.failed += s.updates_failed;
    r.c.steps += s.total_steps;
    r.c.writes += s.physical_writes;
    r.c.frontier_ops += s.frontier_ops;
    r.c.executions += s.updates_submitted + s.aborts;
    r.c.aborts += s.aborts;
    r.c.direct_aborts += s.direct_conflict_aborts;
    r.c.cascade_requests += s.cascading_abort_requests;
    r.c.read_queries += s.read_queries;
    r.c.rows_examined += scheduler.TotalRowsExamined();
    for (const auto& committed : scheduler.CommittedOpsWithNumbers()) {
      const Update* u = scheduler.FindUpdate(committed.first);
      CHECK(u != nullptr);
      r.c.useful_steps += u->steps_taken();
      r.c.max_update_steps =
          std::max<uint64_t>(r.c.max_update_steps, u->steps_taken());
    }
    next_number = scheduler.next_number();
  }
  r.c.registry = registry.Snapshot();
  MeasureStorage(repo->db, &r);
  CheckMappings(repo->db, repo->tgds, &r);
  return r;
}

// --- interactive-large -------------------------------------------------------

// parallel_scale's islands graph (40 relations, 56 existential-free
// mappings in 8 islands) at a large working set: 5000 seed inserts
// (~36k tuples), where per-step cost grows superlinearly with size.
constexpr Graph kIslandsGraph = {40, 56, 8, true};
constexpr size_t kInteractiveSeedInserts = 5000;
// A round's inserts. One heavy insert early in a round can double the
// repository the rest of the round sees, so a round's cost hangs on its op
// stream; rounds of 5000 inserts left the seed-to-seed spread of
// commits_per_s half again as wide as rounds of 1000.
constexpr size_t kInteractiveUpdates = 1000;
// Updates per throughput unit (see Round::unit_commits_per_s).
constexpr size_t kInteractiveBlock = 100;

Round RunInteractiveRound(Repository* repo, const RoundContext& ctx) {
  Round r;
  r.spans.traced = ctx.traced;
  Database* db = &repo->db;
  Rng op_rng(SubSeed(ctx.seed, kOps, ctx.round));
  uint64_t t = obs::MonotonicNs();
  std::vector<WriteOp> ops =
      GenerateOps(db, repo->constants, &op_rng, kInteractiveUpdates, 0.0);
  r.spans.Close(kGenerate, t);

  // Exactly Youtopia::RunSerial: one Update per insert, run to completion,
  // sharing the facade-level re-planning watermark. A traced round calls
  // the three step phases in place of RunToCompletion (Update::Step is
  // their composition).
  RandomAgent agent(SubSeed(ctx.seed, kAgent, ctx.round));
  ReplanPoller poller;
  uint64_t number = 1;
  uint64_t block_ns = 0;
  uint64_t block_committed = 0;
  size_t block_first_call = 0;
  r.call_us.reserve(ops.size());
  HostSpeed host;
  auto end_block = [&] {
    const double scale = host.Next();
    r.AddUnit(r.c.committed - block_committed, block_ns, scale);
    r.ScaleCalls(block_first_call, scale);
    block_ns = 0;
    block_committed = r.c.committed;
    block_first_call = r.call_us.size();
  };
  for (WriteOp& op : ops) {
    if (r.c.attempted > 0 && r.c.attempted % kInteractiveBlock == 0) {
      end_block();
    }
    const uint64_t c0 = obs::MonotonicNs();
    UpdateOptions options;
    options.replan_poller = &poller;
    Update u(number++, std::move(op), &repo->tgds, options);
    if (!ctx.traced) {
      u.RunToCompletion(db, &agent);
    } else {
      t = r.spans.Close(kUpdateCtor, c0);
      while (!u.finished()) {
        StepResult res;
        const bool more = u.StepPrepare(db, &agent, &res);
        t = r.spans.Close(kStepPrepare, t);
        if (more) {
          u.StepApply(db, &res);
          t = r.spans.Close(kStepApply, t);
          u.StepFinish(db, &res);
          t = r.spans.Close(kStepFinish, t);
        }
        r.c.writes += res.writes.size();
      }
    }
    const uint64_t c1 = r.spans.Close(kUpdate, c0);
    r.call_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
    r.c.window_ns += c1 - c0;
    r.c.chase_busy_ns += c1 - c0;
    block_ns += c1 - c0;
    ++r.c.attempted;
    ++r.c.executions;
    if (u.hit_step_cap()) {
      ++r.c.failed;
    } else {
      ++r.c.committed;
      r.c.useful_steps += u.steps_taken();
    }
    r.c.steps += u.steps_taken();
    r.c.max_update_steps =
        std::max<uint64_t>(r.c.max_update_steps, u.steps_taken());
    r.c.frontier_ops += u.frontier_ops_performed();
    r.c.rows_examined += u.rows_examined();
  }
  end_block();
  MeasureStorage(*db, &r);
  CheckMappings(*db, repo->tgds, &r);
  return r;
}

// --- ingest-islands ----------------------------------------------------------

// A 64-relation / 64-mapping / 8-island existential-free graph behind the
// Youtopia facade, 4000 seed inserts (~5.9k tuples), and a standing
// pipeline of 2 workers. Each round one producer times InsertAsync for 100k
// ops, then Flush. Workers plus the producer leave one of 4 cores free: with
// all 4 busy, anything else that wakes on the machine stalls a shard, and
// the slowest shard sets the Flush.
constexpr Graph kIngestGraph = {64, 64, 8, true};
constexpr size_t kIngestSeedInserts = 4000;
constexpr size_t kIngestOps = 100000;
// A throughput unit: this many InsertAsync calls, the last unit with the
// Flush. With the inboxes full (the producer stalls for most of the
// window), the producer gets in only as fast as the workers commit, so a
// unit's calls per second is the pipeline's commit rate, give or take the
// inboxes' 2 x 256 ops. Ten units a round give a run's median ~100 units
// where whole rounds gave it ~10.
constexpr size_t kIngestUnitOps = 10000;
static_assert(kIngestOps % kIngestUnitOps == 0);
constexpr size_t kIngestWorkers = 2;
constexpr size_t kIngestInbox = 256;

struct TextOp {
  std::string relation;
  std::vector<std::string> values;
};

TextOp ToText(const Database& db, RelationId rel, const TupleData& data) {
  TextOp op;
  op.relation = db.catalog().schema(rel).name;
  for (const Value& v : data) {
    CHECK(v.is_constant());
    op.values.emplace_back(db.symbols().Text(v));
  }
  return op;
}

// The facade loaded with everything a user would pass it as strings. The
// generator's own database keeps the schema and constants that each
// round's ops are drawn from.
struct IngestRepository {
  Database db;
  std::vector<Value> constants;
  std::vector<RelationSchema> relations;
  std::vector<std::string> mappings;  // Tgd::ToString round-trips the parser
  std::vector<TextOp> seeds;
  uint64_t agent_seed = 0;
  std::unique_ptr<Youtopia> yt;
};

// Creates the schema and mappings, then runs every seed insert through the
// facade's serial path.
void LoadFacade(const IngestRepository& repo, Youtopia* yt, Spans* spans) {
  uint64_t t = obs::MonotonicNs();
  for (const RelationSchema& rel : repo.relations) {
    CHECK(yt->CreateRelation(rel.name, rel.attributes).ok());
  }
  for (const std::string& mapping : repo.mappings) {
    CHECK(yt->AddMapping(mapping).ok());
  }
  t = spans->Close(kLoad, t);
  for (const TextOp& seed : repo.seeds) {
    CHECK(yt->Insert(seed.relation, seed.values).ok());
  }
  spans->Close(kSeedChase, t);
}

double BuildIngest(uint64_t seed, IngestRepository* repo, Spans* spans) {
  const uint64_t t0 = obs::MonotonicNs();
  const std::vector<Tgd> tgds =
      GenerateGraph(kIngestGraph, &repo->db, &repo->constants);
  const Database& db = repo->db;
  for (RelationId rel = 0; rel < db.num_relations(); ++rel) {
    repo->relations.push_back(db.catalog().schema(rel));
  }
  for (const Tgd& tgd : tgds) {
    repo->mappings.push_back(tgd.ToString(db.catalog(), db.symbols()));
  }
  // Seed tuples drawn as GenerateInitialData draws them.
  Rng data_rng(SubSeed(kRepositorySeed, kSeedData));
  for (size_t i = 0; i < kIngestSeedInserts; ++i) {
    const RelationId rel =
        static_cast<RelationId>(data_rng.Uniform(db.num_relations()));
    TupleData data;
    for (size_t p = 0; p < db.relation(rel).arity(); ++p) {
      data.push_back(repo->constants[data_rng.Uniform(repo->constants.size())]);
    }
    repo->seeds.push_back(ToText(db, rel, data));
  }
  spans->Close(kGenerate, t0);
  repo->agent_seed = SubSeed(seed, kAgent);
  repo->yt = std::make_unique<Youtopia>(repo->agent_seed);
  LoadFacade(*repo, repo->yt.get(), spans);
  const uint64_t t = obs::MonotonicNs();
  CHECK(repo->yt->Start(kIngestWorkers, TrackerKind::kCoarse, kIngestInbox)
            .ok());
  const uint64_t t1 = spans->Close(kStart, t);
  // A fork copies no threads, so the pipeline stops before any round is
  // forked; each round restarts it outside its window.
  CHECK(repo->yt->Stop().ok());
  return static_cast<double>(t1 - t0) * 1e-9;
}

Round RunIngestRound(IngestRepository* repo, const RoundContext& ctx) {
  Round r;
  r.spans.traced = ctx.traced;
  uint64_t t = obs::MonotonicNs();
  std::vector<TextOp> ops;
  ops.reserve(kIngestOps);
  Rng op_rng(SubSeed(ctx.seed, kOps, ctx.round));
  for (const WriteOp& op :
       GenerateOps(&repo->db, repo->constants, &op_rng, kIngestOps, 0.0)) {
    ops.push_back(ToText(repo->db, op.rel, op.data));
  }
  r.spans.Close(kGenerate, t);
  Youtopia& yt = *repo->yt;
  CHECK(yt.Start(kIngestWorkers, TrackerKind::kCoarse, kIngestInbox).ok());
  yt.ResetMetrics();

  r.call_us.reserve(ops.size());
  std::vector<uint64_t> unit_ends;  // one per kIngestUnitOps calls
  HostSpeed host;  // sampled on the producer's thread
  const uint64_t w0 = obs::MonotonicNs();
  for (const TextOp& op : ops) {
    const uint64_t c0 = obs::MonotonicNs();
    const Status s = yt.InsertAsync(op.relation, op.values);
    const uint64_t c1 = r.spans.Close(kInsertAsync, c0);
    r.call_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
    if (!s.ok()) r.Fail("InsertAsync: " + s.ToString());
    if (r.call_us.size() % kIngestUnitOps == 0) unit_ends.push_back(c1);
  }
  t = obs::MonotonicNs();
  const Result<ParallelStats> flushed = yt.Flush();
  const uint64_t w1 = r.spans.Close(kFlush, t);
  r.c.window_ns = w1 - w0;
  const double scale = host.Next();
  unit_ends.back() = w1;  // the last unit takes the Flush
  for (size_t u = 0; u < unit_ends.size(); ++u) {
    r.AddUnit(kIngestUnitOps, unit_ends[u] - (u == 0 ? w0 : unit_ends[u - 1]),
              scale);
  }
  r.ScaleCalls(0, scale);
  CHECK(flushed.ok());
  const ParallelStats& ps = *flushed;
  CHECK(yt.Stop().ok());  // joins the workers before the instance is read

  const SchedulerStats& s = ps.totals;
  r.c.attempted = ops.size();
  r.c.committed = s.updates_completed;
  r.c.failed = s.updates_failed;
  if (r.c.committed + r.c.failed != r.c.attempted) {
    r.Fail("pipeline: committed + failed != submitted");
  }
  r.c.steps = s.total_steps;
  r.c.writes = s.physical_writes;
  r.c.frontier_ops = s.frontier_ops;
  r.c.executions = s.updates_submitted + s.aborts;
  r.c.aborts = s.aborts;
  r.c.direct_aborts = s.direct_conflict_aborts;
  r.c.cascade_requests = s.cascading_abort_requests;
  r.c.read_queries = s.read_queries;
  // Pinned attempts are final; only cross-lane aborts and escapes waste
  // work, counted at the mean attempt length.
  r.c.useful_steps = static_cast<uint64_t>(
      static_cast<double>(s.total_steps) *
      SafeDiv(static_cast<double>(r.c.executions - s.aborts -
                                  ps.escaped_updates),
              static_cast<double>(r.c.executions)));
  r.c.registry = yt.MetricsSnapshot();
  r.c.chase_busy_ns = r.c.registry.stage(obs::Stage::kChase).sum;
  r.c.workers = ps.workers;
  r.c.inbox_hwm = ps.inbox_high_watermark;
  r.c.inbox_capacity = kIngestInbox;
  uint64_t shard_max = 0;
  uint64_t shard_sum = 0;
  for (uint64_t n : ps.shard_pinned) {
    shard_max = std::max(shard_max, n);
    shard_sum += n;
  }
  r.c.shard_imbalance =
      SafeDiv(static_cast<double>(shard_max) *
                  static_cast<double>(ps.shard_pinned.size()),
              static_cast<double>(shard_sum));
  // Bounded inboxes are the pipeline's memory contract: credit-path
  // admission never fills a shard inbox past its capacity (escapes re-queue
  // through an exempt lane).
  if (ps.escaped_updates == 0 && r.c.inbox_hwm > kIngestInbox) {
    r.Fail("a shard inbox grew past its capacity");
  }
  MeasureStorage(yt.db(), &r);
  CheckMappings(yt.db(), yt.mappings(), &r);

  if (ctx.replay_check) {
    // One producer feeds every op to its shard's FIFO inbox, shards share
    // no relation, and the graph creates no nulls, so a serial replay
    // through the facade in submission order must produce the same
    // instance, byte for byte. (The known defects make the chase
    // order-sensitive, so the order matters.)
    const uint64_t replay_start = obs::MonotonicNs();
    Youtopia replay(repo->agent_seed);
    Spans scratch;
    LoadFacade(*repo, &replay, &scratch);
    for (const TextOp& op : ops) {
      CHECK(replay.Insert(op.relation, op.values).ok());
    }
    if (DumpAll(replay.db()) != DumpAll(yt.db())) {
      r.Fail("the pipeline's instance differs from a serial replay");
    }
    std::fprintf(stderr, "ytbench: serial replay check took %.2f s\n",
                 static_cast<double>(obs::MonotonicNs() - replay_start) *
                     1e-9);
  }
  return r;
}

// --- Metrics -----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Python's statistics.quantiles(v, n=4) (the "exclusive" method), so the
// detail file agrees with compare.py.
std::pair<double, double> Quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0]};
  const long m = ld + 1;
  double q[2];
  for (long i = 1; i <= 3; i += 2) {
    const long j = std::clamp<long>(i * m / 4, 1, ld - 1);
    const long delta = i * m - j * 4;
    q[i / 2] = (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               4;
  }
  return {q[0], q[1]};
}

// Nearest-rank percentile of an ascending vector.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = std::min(sorted.size() - 1,
                              static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return sorted[idx];
}

// A reported metric: the median of its samples (one per build, round or
// throughput unit, or a single pooled value).
struct Metric {
  std::string name;
  const char* unit;
  std::vector<double> samples;
};

// Everything one run measured.
struct Run {
  std::vector<Build> builds;
  std::vector<Round> untraced;
  std::vector<Round> traced;
};

std::vector<double> UnitThroughputs(const std::vector<Round>& rounds) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    out.insert(out.end(), r.unit_commits_per_s.begin(),
               r.unit_commits_per_s.end());
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const Run& run, double tail_quantile) {
  Metric setup{"setup_s", "s", {}};
  for (const Build& b : run.builds) setup.samples.push_back(b.setup_s);
  Metric rss{"peak_rss_mb", "MiB", {}};
  std::vector<double> calls;
  for (const Round& r : run.untraced) {
    rss.samples.push_back(r.c.peak_rss_mb);
    calls.insert(calls.end(), r.call_us.begin(), r.call_us.end());
  }
  std::sort(calls.begin(), calls.end());
  // The median timing is commits_per_s, a median over units of fixed work;
  // a median call latency would restate it on paper-* (the batch is both)
  // and, below 10 us elsewhere, track the host's caches more than the
  // engine.
  return {std::move(setup),
          {"commits_per_s", "1/s", UnitThroughputs(run.untraced)},
          {"call_tail_us", "us", {Percentile(calls, tail_quantile)}},
          std::move(rss)};
}

// Detail-file companions of the end-to-end metrics: the host's speed
// against the reference machine (HostSpeed's scale) and throughput in wall
// time, per timed unit.
std::vector<Metric> HostMetrics(const Run& run) {
  Metric scale{"host_scale", "ratio", {}};
  Metric wall{"wall_commits_per_s", "1/s", {}};
  for (const Round& r : run.untraced) {
    for (size_t i = 0; i < r.unit_scale.size(); ++i) {
      scale.samples.push_back(r.unit_scale[i]);
      wall.samples.push_back(r.unit_commits_per_s[i] * r.unit_scale[i]);
    }
  }
  return {std::move(scale), std::move(wall)};
}

std::vector<Metric> PerLayerMetrics(const Run& run) {
  std::vector<Metric> out;
  for (const auto& [name, span] :
       {std::pair{"workload.generate_ms", kGenerate},
        std::pair{"core.seed_chase_ms", kSeedChase},
        std::pair{"parallel.start_ms", kStart}}) {
    Metric m{name, "ms", {}};
    for (const Build& b : run.builds) {
      m.samples.push_back(b.spans.ms(span) * b.scale);
    }
    out.push_back(std::move(m));
  }
  auto add = [&](const char* name, const char* unit, auto fn) {
    Metric m{name, unit, {}};
    for (const Round& r : run.traced) m.samples.push_back(fn(r));
    out.push_back(std::move(m));
  };
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  auto per_commit = [&](uint64_t v, const Round& r) {
    return SafeDiv(d(v), d(r.c.committed));
  };
  auto stage_mean = [](const Round& r, obs::Stage s) {
    const obs::HistogramSnapshot& h = r.c.registry.stage(s);
    return SafeDiv(static_cast<double>(h.sum), static_cast<double>(h.total));
  };
  auto share = [](const Round& r, Span s) {
    return SafeDiv(static_cast<double>(r.spans.ns[s]),
                   static_cast<double>(r.c.window_ns));
  };

  // Layer times, like the end-to-end ones, in reference time.
  auto scale = [](const Round& r) { return Median(r.unit_scale); };
  add("core.step_ns", "ns", [&](const Round& r) {
    return SafeDiv(d(r.c.chase_busy_ns) * scale(r), d(r.c.steps));
  });
  add("core.steps_per_commit", "ratio",
      [&](const Round& r) { return per_commit(r.c.steps, r); });
  add("core.steps_per_update_max", "count",
      [&](const Round& r) { return d(r.c.max_update_steps); });
  add("core.writes_per_step", "ratio",
      [&](const Round& r) { return SafeDiv(d(r.c.writes), d(r.c.steps)); });
  add("core.frontier_ops_per_commit", "ratio",
      [&](const Round& r) { return per_commit(r.c.frontier_ops, r); });
  for (const auto& [name, span] :
       {std::pair{"core.step_prepare_frac", kStepPrepare},
        std::pair{"core.step_apply_frac", kStepApply},
        std::pair{"core.step_finish_frac", kStepFinish}}) {
    add(name, "ratio", [&, span = span](const Round& r) {
      return SafeDiv(d(r.spans.ns[span]), d(r.spans.ns[kUpdate]));
    });
  }
  add("query.rows_examined_per_commit", "ratio",
      [&](const Round& r) { return per_commit(r.c.rows_examined, r); });
  add("query.rows_examined_per_step", "ratio", [&](const Round& r) {
    return SafeDiv(d(r.c.rows_examined), d(r.c.steps));
  });
  add("query.check_ms", "ms",
      [&](const Round& r) { return r.spans.ms(kCheck) * scale(r); });
  for (const auto& [name, span] :
       {std::pair{"ccontrol.ctor_frac", kSchedulerCtor},
        std::pair{"ccontrol.submit_frac", kSchedulerSubmit},
        std::pair{"ccontrol.run_frac", kSchedulerRun}}) {
    add(name, "ratio",
        [&, span = span](const Round& r) { return share(r, span); });
  }
  add("ccontrol.executions_per_commit", "ratio",
      [&](const Round& r) { return per_commit(r.c.executions, r); });
  add("ccontrol.aborts_per_commit", "ratio",
      [&](const Round& r) { return per_commit(r.c.aborts, r); });
  add("ccontrol.useful_step_frac", "ratio", [&](const Round& r) {
    return SafeDiv(d(r.c.useful_steps), d(r.c.steps));
  });
  add("ccontrol.read_queries_per_commit", "ratio",
      [&](const Round& r) { return per_commit(r.c.read_queries, r); });
  add("ccontrol.direct_aborts_per_commit", "ratio",
      [&](const Round& r) { return per_commit(r.c.direct_aborts, r); });
  add("ccontrol.cascade_requests_per_commit", "ratio",
      [&](const Round& r) { return per_commit(r.c.cascade_requests, r); });
  for (const auto& [name, counter] :
       {std::pair{"ccontrol.doom_read_violation_per_commit",
                  obs::Counter::kDoomReadViolation},
        std::pair{"ccontrol.doom_read_more_specific_per_commit",
                  obs::Counter::kDoomReadMoreSpecific},
        std::pair{"ccontrol.doom_cascade_per_commit",
                  obs::Counter::kDoomCascade}}) {
    add(name, "ratio", [&, counter = counter](const Round& r) {
      return per_commit(r.c.registry.counter(counter), r);
    });
  }
  add("relational.visible_rows_end", "count",
      [&](const Round& r) { return d(r.c.visible_rows); });
  add("relational.rows_per_visible_row", "ratio", [&](const Round& r) {
    return SafeDiv(d(r.c.rows), d(r.c.visible_rows));
  });
  add("relational.versions_per_visible_row", "ratio", [&](const Round& r) {
    return SafeDiv(d(r.c.versions), d(r.c.visible_rows));
  });
  add("relational.index_entries_per_visible_row", "ratio",
      [&](const Round& r) {
        return SafeDiv(d(r.c.index_entries), d(r.c.visible_rows));
      });
  add("parallel.submit_frac", "ratio",
      [&](const Round& r) { return share(r, kInsertAsync); });
  add("parallel.flush_frac", "ratio",
      [&](const Round& r) { return share(r, kFlush); });
  add("parallel.producer_stall_frac", "ratio", [&](const Round& r) {
    return SafeDiv(d(r.c.registry.stage(obs::Stage::kProducerStall).sum),
                   d(r.c.window_ns));
  });
  add("parallel.worker_busy_frac", "ratio", [&](const Round& r) {
    return SafeDiv(d(r.c.registry.stage(obs::Stage::kChase).sum),
                   d(r.c.workers) * d(r.c.window_ns));
  });
  add("parallel.shard_imbalance", "ratio",
      [&](const Round& r) { return r.c.shard_imbalance; });
  add("parallel.inbox_wait_per_chase", "ratio", [&](const Round& r) {
    return SafeDiv(stage_mean(r, obs::Stage::kInboxWait),
                   stage_mean(r, obs::Stage::kChase));
  });
  add("parallel.inbox_hwm_frac", "ratio", [&](const Round& r) {
    return SafeDiv(d(r.c.inbox_hwm), d(r.c.inbox_capacity));
  });
  // The share of the timed window no bench-side leaf span covers (the
  // benchmark's own loop and clock reads between calls).
  add("obs.unattributed_frac", "ratio", [&](const Round& r) {
    uint64_t covered = 0;
    for (Span s : {kSchedulerCtor, kSchedulerSubmit, kSchedulerRun,
                   kUpdateCtor, kStepPrepare, kStepApply, kStepFinish,
                   kInsertAsync, kFlush}) {
      covered += r.spans.ns[s];
    }
    return d(r.c.window_ns - covered) / d(r.c.window_ns);
  });
  out.push_back({"obs.trace_overhead_frac",
                 "ratio",
                 {1.0 - SafeDiv(Median(UnitThroughputs(run.traced)),
                                Median(UnitThroughputs(run.untraced)))}});
  return out;
}

// Shortest decimal form that reads back as exactly the same double.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           Num(Median(m.samples)) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// Every metric with its quartiles and sample count (the per-layer metrics
// JSON of a traced run; the end-to-end detail of an untraced one).
bool WriteDetail(const std::string& path, const std::string& workload,
                 uint64_t seed, size_t rounds,
                 const std::vector<Metric>& metrics) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"rounds\": " << rounds << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const auto [q1, q3] = Quartiles(m.samples);
    out << (i == 0 ? "\n  \"" : ",\n  \"") << m.name
        << "\": {\"value\": " << Num(Median(m.samples)) << ", \"unit\": \""
        << m.unit << "\", \"q1\": " << Num(q1) << ", \"q3\": " << Num(q3)
        << ", \"n\": " << m.samples.size() << "}";
  }
  out << "\n}}\n";
  out.flush();
  return static_cast<bool>(out);
}

// --- Running a workload ------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  std::string out_dir;
};

// Runs rounds in forked children until the budget is spent, each on the
// latest build of the repository. Before a round it rebuilds until set-up
// has had `setup_share` of the run, which spreads the set-up samples over
// the whole run: a host shared with other tenants runs identical work up
// to 25% slower from one second to the next (the 4-vCPU machine of
// baseline/ does), so a median over builds at many moments says more
// than a few builds at one. False if a child failed to report.
template <typename Repo, typename BuildFn, typename RoundFn>
bool Measure(const Config& config, const char* name, double setup_share,
             BuildFn build, RoundFn run_round, Run* run) {
  const bool trace = config.trace == 1;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::unique_ptr<Repo> repo;
  double setup_s = 0;       // all builds so far, wall time
  double last_round_s = 0;  // the latest round with the builds before it
  const std::string engine_trace =
      config.out_dir + "/trace_" + name + ".engine.json";
  for (uint64_t round = 0;; ++round) {
    // Start no round that the budget cannot fit, so a run ends on time.
    if (round >= kMinRounds && elapsed() + last_round_s > config.seconds) {
      break;
    }
    const double round_start = elapsed();
    while (repo == nullptr || setup_s < setup_share * elapsed()) {
      // Tear the previous build down outside the timing, and hand its
      // memory back to the system: a round's peak RSS then counts the
      // repository and the round, not this process's free lists.
      repo.reset();
      malloc_trim(0);
      repo = std::make_unique<Repo>();
      Build b;
      b.spans.traced = trace;
      HostSpeed host;
      const double wall_s = build(repo.get(), &b.spans);
      b.scale = host.Next();
      b.setup_s = wall_s * b.scale;
      setup_s += wall_s;
      std::fprintf(stderr, "ytbench: %s set-up %zu: %.3f s (wall %.3f s)\n",
                   name, run->builds.size(), b.setup_s, wall_s);
      run->builds.push_back(std::move(b));
    }
    for (const bool traced : {false, true}) {
      if (traced && !trace) break;
      RoundContext ctx;
      ctx.seed = config.seed;
      ctx.round = round;
      ctx.traced = traced;
      ctx.replay_check = round == 0 && !traced;
      Round r;
      const bool ok = RunInChild(
          [&] {
            obs::Tracer::Global().SetEnabled(traced);
            Round child = run_round(repo.get(), ctx);
            obs::Tracer::Global().SetEnabled(false);
            if (traced && !obs::Tracer::Global().DumpJson(engine_trace)) {
              child.Fail("cannot write " + engine_trace);
            }
            return child;
          },
          &r);
      if (!ok) {
        std::fprintf(stderr, "ytbench: %s round %llu: the child failed\n",
                     name, static_cast<unsigned long long>(round));
        return false;
      }
      std::fprintf(stderr,
                   "ytbench: %s round %llu%s: window %.3f s, %llu commits\n",
                   name, static_cast<unsigned long long>(round),
                   traced ? " (traced)" : "", r.window_s(),
                   static_cast<unsigned long long>(r.c.committed));
      (traced ? run->traced : run->untraced).push_back(std::move(r));
    }
    last_round_s = elapsed() - round_start;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      config->workload = value;
    } else if (key == "seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config->seconds >= 0)) {
        return false;
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1" ? 1 : 0;
    } else if (key == "out") {
      config->out_dir = value;
    } else {
      return false;
    }
  }
  return !config->workload.empty() && config->seconds >= 0 &&
         config->trace >= 0 && !config->out_dir.empty();
}

// Measures the named workload; false on an unknown name or a failed child.
// `tail_quantile` is the call-latency percentile reported as call_tail_us:
// the highest one with at least ten calls beyond it in a default-length
// run (a paper run times ~140 batches, the others tens of thousands of
// calls). The set-up share buys each workload's median build time enough
// samples: ~13 paper builds of 0.3 s, ~11 interactive builds of 0.7 s,
// ~80 ingest builds of 30 ms.
bool MeasureWorkload(const Config& config, Run* run, double* tail_quantile) {
  const std::string& w = config.workload;
  const char* name = w.c_str();
  auto build_repo = [](const Graph& g, size_t seed_inserts) {
    return [g, seed_inserts](Repository* repo, Spans* spans) {
      return BuildRepository(g, seed_inserts, repo, spans);
    };
  };
  if (w == "paper-insert-precise" || w == "paper-mixed-coarse") {
    const bool precise = w == "paper-insert-precise";
    *tail_quantile = 0.90;
    return Measure<Repository>(
        config, name, 0.15, build_repo(kPaperGraph, kPaperSeedInserts),
        [precise](Repository* repo, const RoundContext& ctx) {
          return precise ? RunPaperRound(repo, ctx, TrackerKind::kPrecise, 0.0)
                         : RunPaperRound(repo, ctx, TrackerKind::kCoarse, 0.2);
        },
        run);
  }
  *tail_quantile = 0.99;
  if (w == "interactive-large") {
    return Measure<Repository>(
        config, name, 0.3, build_repo(kIslandsGraph, kInteractiveSeedInserts),
        RunInteractiveRound, run);
  }
  if (w == "ingest-islands") {
    return Measure<IngestRepository>(
        config, name, 0.1,
        [&config](IngestRepository* repo, Spans* spans) {
          return BuildIngest(config.seed, repo, spans);
        },
        RunIngestRound, run);
  }
  std::fprintf(stderr, "ytbench: unknown workload '%s'\n", name);
  return false;
}

int Main(int argc, char** argv) {
  Config config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: ytbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --out=DIR\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "ytbench: cannot create %s\n",
                 config.out_dir.c_str());
    return 2;
  }
  const bool trace = config.trace == 1;
  Run run;
  double tail_quantile = 0;
  if (!MeasureWorkload(config, &run, &tail_quantile)) return 1;

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<Round>* set : {&run.untraced, &run.traced}) {
    for (const Round& r : *set) {
      attempted += r.c.attempted;
      failed += r.c.failed;
      if (!r.error.empty()) {
        correct = false;
        std::fprintf(stderr, "ytbench: correctness check failed: %s\n",
                     r.error.c_str());
      }
    }
  }

  const std::vector<Metric> metrics =
      trace ? PerLayerMetrics(run) : EndToEndMetrics(run, tail_quantile);
  std::vector<Metric> detail = metrics;
  if (!trace) {
    for (Metric& m : HostMetrics(run)) detail.push_back(std::move(m));
  }
  const std::string stem = config.out_dir + "/" + config.workload;
  bool written = WriteDetail(stem + (trace ? ".layers.json" : ".e2e.json"),
                             config.workload, config.seed,
                             run.untraced.size(), detail);
  if (trace) {
    std::vector<const Spans*> all;
    for (const Build& b : run.builds) all.push_back(&b.spans);
    for (const Round& r : run.traced) all.push_back(&r.spans);
    written = written && WriteTrace(config.out_dir + "/trace_" +
                                        config.workload + ".json",
                                    all);
  }
  if (!written) {
    std::fprintf(stderr, "ytbench: cannot write results under %s\n",
                 config.out_dir.c_str());
    return 1;
  }
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ytbench
}  // namespace youtopia

int main(int argc, char** argv) { return youtopia::ytbench::Main(argc, argv); }
