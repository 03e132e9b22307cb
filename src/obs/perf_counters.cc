#include "obs/perf_counters.h"

#include <cstring>
#include <ctime>

#include "obs/json_writer.h"
#include "obs/prometheus.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace supa::obs {
namespace {

constexpr size_t kNumHwSlots = 6;  // slots 0..5 come from the PMU group

// Counter slot order, shared by PerfReading::values, the per-domain
// Counter array, and every report (kSlotNames): the PMU group's six
// counters in kHwEvents order, then the software group's two.
enum Slot : size_t {
  kSlotTaskClockNs = kNumHwSlots,
  kSlotCtxSwitches,
  kNumSlots,                // 8 counter slots ...
  kSlotScopes = kNumSlots,  // ... plus the scope count
};

constexpr const char* kSlotNames[kNumSlots + 1] = {
    "cycles",        "instructions", "llc_loads",
    "llc_misses",    "branches",     "branch_misses",
    "task_clock_ns", "ctx_switches", "scopes",
};

constexpr const char* kDomainNames[kNumPerfDomains] = {
    "sample",         "update",         "propagate",      "negative",
    "optimize",       "train_edge",     "ingest_plan",    "ingest_execute",
    "ingest_commit",  "serve_score",    "eval_shard",     "snapshot_take",
    "snapshot_restore",
};

uint64_t ThreadCpuNs() {
  timespec ts{};
#if defined(CLOCK_THREAD_CPUTIME_ID)
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
#else
  return 0;
#endif
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ThreadCtxSwitches() {
#if defined(__linux__) && defined(RUSAGE_THREAD)
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) != 0) return 0;
  return static_cast<uint64_t>(ru.ru_nvcsw) +
         static_cast<uint64_t>(ru.ru_nivcsw);
#else
  return 0;
#endif
}

#if defined(__linux__)

long PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                   unsigned long flags) {
  return syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags);
}

perf_event_attr MakeAttr(uint32_t type, uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  // perf_event_paranoid >= 2 still allows self-profiling of user space.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return attr;
}

constexpr uint64_t HwCacheConfig(uint64_t cache, uint64_t op,
                                 uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

struct EventSpec {
  uint32_t type;
  uint64_t config;
};

// Hardware group in slot order; the leader (cycles) is opened first.
constexpr EventSpec kHwEvents[kNumHwSlots] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HW_CACHE,
     HwCacheConfig(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                   PERF_COUNT_HW_CACHE_RESULT_ACCESS)},
    {PERF_TYPE_HW_CACHE,
     HwCacheConfig(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                   PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
};

// Software group: task-clock leads, context-switches rides along.
constexpr EventSpec kSwEvents[2] = {
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES},
};

/// read(2) layout for PERF_FORMAT_GROUP + both time fields.
struct GroupReadBuf {
  uint64_t nr;
  uint64_t time_enabled;
  uint64_t time_running;
  uint64_t values[kNumHwSlots];
};

#endif  // defined(__linux__)

/// Per-thread counter state. Counter fds are per thread (perf counts the
/// opening thread only), opened lazily on the first scope a thread runs
/// and reopened when the profiler's detection epoch moves.
struct ThreadPerfState {
  uint64_t epoch = 0;       // 0 == never opened
  PerfSource tier = PerfSource::kDisabled;
  int hw_fd = -1;           // hardware group leader (cycles)
  int sw_fd = -1;           // software group leader (task-clock)
  // Slot -> index into the group read buffer; -1 when that event failed
  // to open (partial PMUs keep the rest of the group usable).
  int hw_index[kNumHwSlots] = {-1, -1, -1, -1, -1, -1};
  int sw_index[2] = {-1, -1};

  void Close() {
#if defined(__linux__)
    if (hw_fd >= 0) close(hw_fd);
    if (sw_fd >= 0) close(sw_fd);
#endif
    hw_fd = -1;
    sw_fd = -1;
    for (int& i : hw_index) i = -1;
    for (int& i : sw_index) i = -1;
  }

  ~ThreadPerfState() { Close(); }
};

thread_local ThreadPerfState t_perf;

#if defined(__linux__)
/// Opens one perf group (leader first) for the calling thread. Returns
/// the leader fd (-1 when even the leader failed) and fills `index`
/// (slot -> position in the group read buffer).
int OpenGroup(const EventSpec* specs, size_t count, int* index) {
  int leader = -1;
  int next = 0;
  for (size_t i = 0; i < count; ++i) {
    perf_event_attr attr = MakeAttr(specs[i].type, specs[i].config);
    const long fd =
        PerfEventOpen(&attr, /*pid=*/0, /*cpu=*/-1, /*group_fd=*/leader,
                      /*flags=*/PERF_FLAG_FD_CLOEXEC);
    if (fd < 0) {
      if (i == 0) return -1;  // no leader, no group
      continue;               // partial PMU: skip this member
    }
    if (i == 0) leader = static_cast<int>(fd);
    index[i] = next++;
  }
  return leader;
}

/// Reads one group into absolute slot values + time fields. Returns false
/// when the read failed (counters then stay zero).
bool ReadGroup(int fd, const int* index, size_t count, uint64_t* slots,
               uint64_t* enabled, uint64_t* running) {
  GroupReadBuf buf;
  std::memset(&buf, 0, sizeof(buf));
  const ssize_t n = read(fd, &buf, sizeof(buf));
  if (n < static_cast<ssize_t>(3 * sizeof(uint64_t))) return false;
  *enabled = buf.time_enabled;
  *running = buf.time_running;
  for (size_t i = 0; i < count; ++i) {
    if (index[i] >= 0 &&
        static_cast<uint64_t>(index[i]) < buf.nr) {
      slots[i] = buf.values[index[i]];
    }
  }
  return true;
}
#endif  // defined(__linux__)

/// Opens this thread's counters at `tier` (descending locally if an open
/// fails — a thread that cannot open what the probe thread could still
/// produces rusage numbers instead of nothing).
void OpenThreadState(PerfSource tier, uint64_t epoch) {
  t_perf.Close();
  t_perf.epoch = epoch;
  t_perf.tier = PerfSource::kRusage;
#if defined(__linux__)
  if (tier == PerfSource::kHardware) {
    t_perf.hw_fd = OpenGroup(kHwEvents, kNumHwSlots, t_perf.hw_index);
  }
  if (tier == PerfSource::kHardware || tier == PerfSource::kSoftware) {
    t_perf.sw_fd = OpenGroup(kSwEvents, 2, t_perf.sw_index);
  }
  if (t_perf.hw_fd >= 0) {
    t_perf.tier = PerfSource::kHardware;
  } else if (t_perf.sw_fd >= 0) {
    t_perf.tier = PerfSource::kSoftware;
  }
#else
  (void)tier;
#endif
}

/// Scales a raw delta by the group's enabled/running ratio over the same
/// window (the standard estimate for multiplexed counters).
uint64_t ScaleDelta(uint64_t raw, uint64_t enabled, uint64_t running) {
  if (raw == 0 || running == 0 || enabled == running) return raw;
  return static_cast<uint64_t>(static_cast<double>(raw) *
                               (static_cast<double>(enabled) /
                                static_cast<double>(running)));
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string MetricName(size_t domain, size_t slot) {
  std::string name = "perf.";
  name += kDomainNames[domain];
  name += '.';
  name += kSlotNames[slot];
  return name;
}

}  // namespace

const char* PerfDomainName(PerfDomain domain) {
  const size_t i = static_cast<size_t>(domain);
  return i < kNumPerfDomains ? kDomainNames[i] : "unknown";
}

const char* PerfSourceName(PerfSource source) {
  switch (source) {
    case PerfSource::kHardware:
      return "hardware";
    case PerfSource::kSoftware:
      return "software";
    case PerfSource::kRusage:
      return "rusage";
    case PerfSource::kDisabled:
      return "disabled";
  }
  return "unknown";
}

PerfSource ResolvePerfTier(bool hardware_ok, bool software_ok) {
  if (hardware_ok) return PerfSource::kHardware;
  if (software_ok) return PerfSource::kSoftware;
  return PerfSource::kRusage;  // always available: the ladder never fails
}

PerfProfiler& PerfProfiler::Global() {
  // Leaked on purpose — see MetricsRegistry::Global().
  static PerfProfiler* profiler = new PerfProfiler();
  return *profiler;
}

void PerfProfiler::SetMaxTier(PerfSource tier) {
  max_tier_.store(tier, std::memory_order_relaxed);
  if (enabled()) Enable(true);  // re-probe under the new clamp
}

void PerfProfiler::Enable(bool on) {
  if (!on) {
    enabled_.store(false, std::memory_order_relaxed);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(init_mu_);
    if (!counters_ready_.load(std::memory_order_acquire)) {
      MetricsRegistry& reg = MetricsRegistry::Global();
      for (size_t d = 0; d < kNumPerfDomains; ++d) {
        for (size_t s = 0; s <= kNumSlots; ++s) {
          counters_[d][s] = reg.GetCounter(MetricName(d, s));
        }
      }
      counters_ready_.store(true, std::memory_order_release);
    }
    // Probe the ladder on this thread; every thread then opens at the
    // detected tier (descending locally if its own opens fail).
    const PerfSource max_tier = max_tier_.load(std::memory_order_relaxed);
    bool hw_ok = false;
    bool sw_ok = false;
#if defined(__linux__)
    if (max_tier == PerfSource::kHardware) {
      int index[kNumHwSlots] = {-1, -1, -1, -1, -1, -1};
      const int fd = OpenGroup(kHwEvents, kNumHwSlots, index);
      if (fd >= 0) {
        hw_ok = true;
        close(fd);
      }
    }
    if (max_tier == PerfSource::kHardware ||
        max_tier == PerfSource::kSoftware) {
      int index[2] = {-1, -1};
      const int fd = OpenGroup(kSwEvents, 2, index);
      if (fd >= 0) {
        sw_ok = true;
        close(fd);
      }
    }
#endif
    source_.store(ResolvePerfTier(hw_ok, sw_ok), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void PerfProfiler::BeginScope(internal::PerfReading* reading) {
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (t_perf.epoch != epoch) {
    OpenThreadState(source_.load(std::memory_order_relaxed), epoch);
  }
  *reading = internal::PerfReading{};
#if defined(__linux__)
  if (t_perf.hw_fd >= 0) {
    ReadGroup(t_perf.hw_fd, t_perf.hw_index, kNumHwSlots, reading->values,
              &reading->hw_enabled, &reading->hw_running);
  }
  if (t_perf.sw_fd >= 0) {
    ReadGroup(t_perf.sw_fd, t_perf.sw_index, 2,
              reading->values + kSlotTaskClockNs, &reading->sw_enabled,
              &reading->sw_running);
    return;
  }
#endif
  // Rusage tier (or a thread whose perf opens all failed).
  reading->values[kSlotTaskClockNs] = ThreadCpuNs();
  reading->values[kSlotCtxSwitches] = ThreadCtxSwitches();
}

void PerfProfiler::EndScope(PerfDomain domain,
                            const internal::PerfReading& begin) {
  internal::PerfReading end;
  BeginScope(&end);
  const size_t d = static_cast<size_t>(domain);
  if (d >= kNumPerfDomains ||
      !counters_ready_.load(std::memory_order_acquire)) {
    return;
  }
  const uint64_t hw_en = end.hw_enabled - begin.hw_enabled;
  const uint64_t hw_run = end.hw_running - begin.hw_running;
  const uint64_t sw_en = end.sw_enabled - begin.sw_enabled;
  const uint64_t sw_run = end.sw_running - begin.sw_running;
  for (size_t s = 0; s < kNumSlots; ++s) {
    const uint64_t raw = end.values[s] - begin.values[s];
    const uint64_t delta = s < kNumHwSlots ? ScaleDelta(raw, hw_en, hw_run)
                                           : ScaleDelta(raw, sw_en, sw_run);
    if (delta != 0) counters_[d][s].Increment(delta);
  }
  counters_[d][kSlotScopes].Increment();
}

std::vector<PerfDomainStats> CollectPerfDomainStats(
    const MetricsSnapshot& snapshot) {
  std::vector<PerfDomainStats> out;
  for (size_t d = 0; d < kNumPerfDomains; ++d) {
    PerfDomainStats st;
    st.domain = static_cast<PerfDomain>(d);
    st.scopes = snapshot.CounterValue(MetricName(d, kSlotScopes));
    if (st.scopes == 0) continue;  // domain never ran
    uint64_t* slots[kNumSlots] = {
        &st.cycles,   &st.instructions,  &st.llc_loads,     &st.llc_misses,
        &st.branches, &st.branch_misses, &st.task_clock_ns, &st.ctx_switches,
    };
    for (size_t s = 0; s < kNumSlots; ++s) {
      *slots[s] = snapshot.CounterValue(MetricName(d, s));
    }
    st.task_clock_s = static_cast<double>(st.task_clock_ns) / 1e9;
    st.ipc = Ratio(st.instructions, st.cycles);
    st.llc_miss_rate = Ratio(st.llc_misses, st.llc_loads);
    st.branch_miss_rate = Ratio(st.branch_misses, st.branches);
    st.cycles_per_edge = Ratio(st.cycles, st.scopes);
    out.push_back(st);
  }
  return out;
}

void AppendPerfPrometheusSeries(const MetricsSnapshot& snapshot,
                                std::string* out) {
  const PerfSource source = PerfProfiler::Global().source();
  AppendPrometheusSeries(
      "supa_perf_source", "gauge",
      "Active perf tier (1 = the labeled rung of the degradation ladder).",
      {{"source", PerfSourceName(source)}}, 1.0, out);
  for (const PerfDomainStats& s : CollectPerfDomainStats(snapshot)) {
    const std::string prefix =
        "perf_" + std::string(PerfDomainName(s.domain));
    AppendPrometheusSeries(prefix + "_ipc", "gauge",
                           "Instructions per cycle.", {}, s.ipc, out);
    AppendPrometheusSeries(prefix + "_llc_miss_rate", "gauge",
                           "LLC load misses / LLC loads.", {},
                           s.llc_miss_rate, out);
    AppendPrometheusSeries(prefix + "_branch_miss_rate", "gauge",
                           "Branch misses / branches.", {},
                           s.branch_miss_rate, out);
    AppendPrometheusSeries(prefix + "_cycles_per_edge", "gauge",
                           "Cycles per scope (edge/batch/shard).", {},
                           s.cycles_per_edge, out);
  }
}

namespace {

void WriteDomainJson(JsonWriter* w, const PerfDomainStats& s) {
  w->BeginObject();
  w->Field("scopes", s.scopes);
  w->Field("cycles", s.cycles);
  w->Field("instructions", s.instructions);
  w->Field("llc_loads", s.llc_loads);
  w->Field("llc_misses", s.llc_misses);
  w->Field("branches", s.branches);
  w->Field("branch_misses", s.branch_misses);
  w->Field("task_clock_s", s.task_clock_s);
  w->Field("ctx_switches", s.ctx_switches);
  w->Field("ipc", s.ipc);
  w->Field("llc_miss_rate", s.llc_miss_rate);
  w->Field("branch_miss_rate", s.branch_miss_rate);
  w->Field("cycles_per_edge", s.cycles_per_edge);
  w->EndObject();
}

}  // namespace

std::string PerfReportJson(const MetricsSnapshot& snapshot) {
  const PerfProfiler& profiler = PerfProfiler::Global();
  JsonWriter w;
  w.BeginObject();
  w.Field("source", std::string_view(PerfSourceName(profiler.source())));
  w.Field("enabled", profiler.enabled());
  w.Key("domains").BeginObject();
  for (const PerfDomainStats& s : CollectPerfDomainStats(snapshot)) {
    w.Key(PerfDomainName(s.domain));
    WriteDomainJson(&w, s);
  }
  w.EndObject().EndObject();
  return w.str();
}

}  // namespace supa::obs
